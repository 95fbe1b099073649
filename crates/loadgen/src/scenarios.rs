//! The loadgen figure families and their registry — figures beyond the
//! paper's evaluation.
//!
//! The paper stops at one-shot workload runs on 8 nodes. These scenarios
//! ask the production questions: how does the tail behave as offered load
//! approaches saturation, what does the cluster actually sustain, and what
//! does doubling the mesh buy — across three tenant mixes and two mesh
//! sizes, all deterministic from one seed.
//!
//! Every family is one [`Family`] value — its rows, canonical seed, full
//! and gate-scale request counts, declared figure ids, and a figure
//! builder — defined next to its row and figure functions, and listed
//! once in [`FAMILIES`]. [`run_rows`] executes any family's rows on rayon
//! and returns them in row order, so the `figures`, `determinism`,
//! `throughput`, `profile`, and `explain` bins iterate or look up this
//! one table. The rate sweep runs through [`run_rows`] too, but keeps
//! [`sweep::figures`]: its figure ids follow its grid's meshes, so it is
//! not a fixed [`Family`].

use rayon::prelude::*;
use venice::Figure;

use crate::engine::{LoadgenConfig, Run};
use crate::faults::FaultPlan;
use crate::report::LoadReport;
use crate::stacks::RemoteStack;
use crate::sweep::{self, SweepSpec};
use crate::tenants::TenantMix;
use crate::trace::{RequestOutcome, Trace};
use crate::{congestion, economy, elastic, elastic_v2, failover, ArrivalProcess};

/// Base seed of the published loadgen figures.
pub const SCENARIO_SEED: u64 = 0x7EA1CE;

/// Requests per row when the determinism gate runs a family: rayon
/// determinism does not depend on run length, so the gate costs seconds.
pub const GATE_REQUESTS: u64 = 6_000;

/// One run of a family: row label, configuration, and the fault plan
/// armed through [`Run::faults`], if any.
pub type Row = (String, LoadgenConfig, Option<FaultPlan>);

/// A row after it ran.
#[derive(Debug, PartialEq)]
pub struct RowRun {
    /// Row label.
    pub label: String,
    /// The configuration that ran.
    pub config: LoadgenConfig,
    /// The run's report.
    pub report: LoadReport,
    /// The per-request trace, when the family runs traced.
    pub trace: Option<Trace>,
}

/// One loadgen family: a named list of rows and the figures built from
/// them.
#[derive(Debug)]
pub struct Family {
    /// Registry id; also the row prefix of the determinism artifact.
    pub id: &'static str,
    /// Canonical seed of the published figures.
    pub seed: u64,
    /// Requests per row at full (published) scale.
    pub requests: u64,
    /// Requests per row in the determinism gate.
    pub gate_requests: u64,
    /// The family's rows at a seed, in figure order.
    pub rows: fn(u64) -> Vec<Row>,
    /// Whether rows capture their per-request trace (figures that read
    /// exact quantiles from the records).
    pub traced: bool,
    /// The figure ids [`Family::build`] emits, in order.
    pub figure_ids: &'static [&'static str],
    /// Builds the family's figures from its rows after they ran.
    pub build: fn(&[RowRun]) -> Vec<Figure>,
}

impl Family {
    /// The rows at `seed`, each sized to `requests`.
    pub fn rows_at(&self, seed: u64, requests: u64) -> Vec<Row> {
        let mut rows = (self.rows)(seed);
        for (_, config, _) in &mut rows {
            config.requests = requests;
        }
        rows
    }

    /// The row labelled `label` at `seed`, sized to `requests`.
    ///
    /// # Panics
    ///
    /// Panics if the family has no such row.
    pub fn row_at(&self, label: &str, seed: u64, requests: u64) -> Row {
        self.rows_at(seed, requests)
            .into_iter()
            .find(|(l, _, _)| l == label)
            .unwrap_or_else(|| panic!("family `{}` has no row `{label}`", self.id))
    }

    /// Runs every row at `seed` and `requests` through [`run_rows`].
    pub fn run(&self, seed: u64, requests: u64) -> Vec<RowRun> {
        run_rows(self.rows_at(seed, requests), self.traced)
    }

    /// The published figures: every row at the canonical seed and full
    /// scale, then the builder.
    pub fn figures(&self) -> Vec<Figure> {
        (self.build)(&self.run(self.seed, self.requests))
    }
}

/// Every loadgen family, in figure order. The only place a family is
/// listed.
pub const FAMILIES: &[Family] = &[
    elastic::FAMILY,
    elastic_v2::FAMILY,
    economy::FAMILY,
    congestion::FAMILY,
    failover::FAMILY,
    STORM,
];

/// The registered family `id`.
///
/// # Panics
///
/// Panics if no family is registered under `id`.
pub fn family(id: &str) -> &'static Family {
    FAMILIES
        .iter()
        .find(|f| f.id == id)
        .unwrap_or_else(|| panic!("no loadgen family `{id}`"))
}

/// The row `label` of family `id` at its canonical seed and full scale.
///
/// # Panics
///
/// Panics if the family or the row does not exist.
pub fn row(id: &str, label: &str) -> Row {
    let f = family(id);
    f.row_at(label, f.seed, f.requests)
}

/// Runs `rows` in parallel (each traced if `traced`, with its fault plan
/// armed) and returns them in row order at any rayon width.
pub fn run_rows(rows: Vec<Row>, traced: bool) -> Vec<RowRun> {
    rows.into_par_iter()
        .map(|(label, config, plan)| {
            let mut run = Run::new(&config);
            if traced {
                run = run.traced();
            }
            if let Some(plan) = plan {
                run = run.faults(plan);
            }
            let out = run.execute();
            RowRun {
                label,
                report: out.report,
                trace: out.trace,
                config,
            }
        })
        .collect()
}

/// The report of the row labelled `label`.
///
/// # Panics
///
/// Panics if no row carries `label`.
pub fn report<'a>(runs: &'a [RowRun], label: &str) -> &'a LoadReport {
    &runs
        .iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("missing row {label}"))
        .report
}

/// Exact latency quantile (µs) over the completed requests served by
/// `nodes` — the tail the summary histograms cannot isolate, computed
/// offline from a traced row.
pub fn node_quantile_us(trace: &Trace, nodes: &[u16], q: f64) -> f64 {
    let mut lat: Vec<u64> = trace
        .records
        .iter()
        .filter(|r| r.outcome == RequestOutcome::Completed && nodes.contains(&r.node))
        .map(|r| r.latency_ns)
        .collect();
    if lat.is_empty() {
        return 0.0;
    }
    lat.sort_unstable();
    let idx = ((lat.len() as f64 - 1.0) * q).round() as usize;
    lat[idx.min(lat.len() - 1)] as f64 / 1_000.0
}

/// The canonical sweep: 8- and 16-node meshes × three tenant mixes ×
/// four offered rates spanning comfortable to saturating, on the Venice
/// stack (the baseline stacks appear in the elastic comparison family).
pub fn default_sweep() -> SweepSpec {
    SweepSpec {
        seed: SCENARIO_SEED,
        meshes: vec![(2, 2, 2), (4, 2, 2)],
        mixes: TenantMix::presets(),
        rates_rps: vec![5_000.0, 20_000.0, 80_000.0, 160_000.0],
        stacks: vec![RemoteStack::VeniceCrma],
        requests_per_point: 20_000,
    }
}

/// Every loadgen figure id, in emission order: the default sweep's, then
/// each family's declared ids.
pub fn figure_ids() -> Vec<String> {
    let mut ids = default_sweep().figure_ids();
    for f in FAMILIES {
        ids.extend(f.figure_ids.iter().map(|id| id.to_string()));
    }
    ids
}

/// Whether the figure-id filter `ids` (case-insensitive) selects any of
/// `declared`. An empty filter selects everything that declares a figure.
fn wants<S: AsRef<str>>(ids: &[String], declared: &[S]) -> bool {
    if ids.is_empty() {
        return !declared.is_empty();
    }
    declared
        .iter()
        .any(|d| ids.iter().any(|id| id.eq_ignore_ascii_case(d.as_ref())))
}

/// The families whose declared figure ids the filter `ids` selects
/// (every figure family for an empty filter).
fn selected(ids: &[String]) -> Vec<&'static Family> {
    FAMILIES
        .iter()
        .filter(|f| wants(ids, f.figure_ids))
        .collect()
}

/// The loadgen figures for the filter `ids` (all of them for an empty
/// filter), rayon-parallel under the hood. Only the sweep and the
/// families that declare a selected id are simulated.
pub fn figures(ids: &[String]) -> Vec<Figure> {
    let spec = default_sweep();
    let mut out = if wants(ids, &spec.figure_ids()) {
        sweep::figures(&spec, &run_rows(spec.rows(), false))
    } else {
        Vec::new()
    };
    for f in selected(ids) {
        out.extend(f.figures());
    }
    out
}

/// Requests per storm row (three rows: 1.05 M per storm).
const STORM_REQUESTS: u64 = 350_000;

/// The storm configurations backing the headline claim: ≥ 1 M simulated
/// requests across the three canonical tenant mixes on a 16-node mesh.
pub fn storm_configs(seed: u64) -> Vec<LoadgenConfig> {
    TenantMix::presets()
        .into_iter()
        .map(|mix| LoadgenConfig {
            mesh: (4, 2, 2),
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 120_000.0,
            },
            requests: STORM_REQUESTS,
            ..LoadgenConfig::new(seed, mix)
        })
        .collect()
}

/// Runs the full storm (one run per mix) and returns the reports.
pub fn run_storm(seed: u64) -> Vec<LoadReport> {
    STORM
        .run(seed, STORM.requests)
        .into_iter()
        .map(|r| r.report)
        .collect()
}

/// The storm rows, labelled by mix.
fn storm_rows(seed: u64) -> Vec<Row> {
    storm_configs(seed)
        .into_iter()
        .map(|config| (config.mix.name.clone(), config, None))
        .collect()
}

/// The storm draws no figure; it is registered for the gates and benches.
fn no_figures(_: &[RowRun]) -> Vec<Figure> {
    Vec::new()
}

/// The storm: the three canonical mixes at 120 krps on a 16-node mesh.
const STORM: Family = Family {
    id: "storm",
    seed: SCENARIO_SEED,
    requests: STORM_REQUESTS,
    gate_requests: 25_000,
    rows: storm_rows,
    traced: false,
    figure_ids: &[],
    build: no_figures,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_totals_exceed_a_million_requests() {
        let configs = storm_configs(1);
        assert!(configs.len() >= 3);
        let total: u64 = configs.iter().map(|c| c.requests).sum();
        assert!(total >= 1_000_000, "storm issues only {total} requests");
    }

    #[test]
    fn default_sweep_covers_the_advertised_grid() {
        let spec = default_sweep();
        assert_eq!(spec.len(), 24);
        assert!(spec.mixes.len() >= 3);
        assert!(spec.meshes.contains(&(2, 2, 2)));
    }

    #[test]
    fn registry_ids_labels_and_figure_ids_are_unique() {
        let mut ids: Vec<&str> = FAMILIES.iter().map(|f| f.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FAMILIES.len(), "duplicate family id");
        for f in FAMILIES {
            let mut labels: Vec<String> = (f.rows)(f.seed).into_iter().map(|r| r.0).collect();
            let rows = labels.len();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), rows, "{}: duplicate row label", f.id);
        }
        let declared = figure_ids();
        let mut unique = declared.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), declared.len(), "duplicate figure id");
        for paper in venice::scenarios::all() {
            assert!(
                !declared.contains(&paper.id),
                "{} is both a paper and a loadgen id",
                paper.id
            );
        }
    }

    #[test]
    fn every_builder_emits_exactly_its_declared_ids() {
        for f in FAMILIES {
            let figures = (f.build)(&f.run(f.seed, 400));
            let ids: Vec<&str> = figures.iter().map(|fig| fig.id.as_str()).collect();
            assert_eq!(ids, f.figure_ids, "{}", f.id);
        }
    }

    #[test]
    fn a_figure_filter_selects_only_the_families_that_declare_it() {
        let ids = |filter: &[&str]| {
            let filter: Vec<String> = filter.iter().map(|s| s.to_string()).collect();
            let spec = default_sweep().figure_ids();
            let mut out: Vec<&str> = selected(&filter).iter().map(|f| f.id).collect();
            if wants(&filter, &spec) {
                out.insert(0, "sweep");
            }
            out
        };
        assert_eq!(ids(&["loadgen-failover-8n"]), ["failover"]);
        assert_eq!(ids(&["LOADGEN-P99-16N"]), ["sweep"]);
        assert!(ids(&["no-such-figure"]).is_empty());
        // An empty filter selects every family that draws a figure.
        assert_eq!(
            ids(&[]),
            [
                "sweep",
                "elastic",
                "elastic-v2",
                "economy",
                "congestion",
                "failover"
            ]
        );
    }
}
