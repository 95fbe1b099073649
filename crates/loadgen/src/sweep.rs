//! Parallel configuration sweeps.
//!
//! A [`SweepSpec`] spans a grid of (mesh size × tenant mix × arrival
//! rate × remote stack) and yields one [`Row`] per cell, run through
//! [`run_rows`](crate::scenarios::run_rows) like any figure family's
//! rows; [`figures`] builds the sweep's figures from the finished rows.
//! Determinism at any thread count comes from two properties: every
//! point derives its own seed purely from the spec seed and the point's
//! grid index, and rows come back in grid order — never in completion
//! order.

use venice::{Figure, Series};

use crate::engine::LoadgenConfig;
use crate::scenarios::{Row, RowRun};
use crate::stacks::RemoteStack;
use crate::tenants::TenantMix;
use crate::ArrivalProcess;

/// A grid of loadgen configurations.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Base seed; each point derives an independent stream from it.
    pub seed: u64,
    /// Mesh dimensions to sweep.
    pub meshes: Vec<(u16, u16, u16)>,
    /// Tenant mixes to sweep.
    pub mixes: Vec<TenantMix>,
    /// Open-loop arrival rates to sweep (requests per second).
    pub rates_rps: Vec<f64>,
    /// Remote-memory stacks to sweep (Venice vs the `venice-baselines`
    /// comparison systems, under identical traffic).
    pub stacks: Vec<RemoteStack>,
    /// Requests generated per grid point.
    pub requests_per_point: u64,
}

impl SweepSpec {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.meshes.len() * self.mixes.len() * self.rates_rps.len() * self.stacks.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids [`figures`] emits for this grid: a p99 and a goodput
    /// figure per mesh size, in mesh order.
    pub fn figure_ids(&self) -> Vec<String> {
        self.meshes
            .iter()
            .flat_map(|&m| {
                let n = mesh_nodes(m);
                [format!("loadgen-p99-{n}n"), format!("loadgen-tput-{n}n")]
            })
            .collect()
    }

    /// Expands the grid into one row per point, in grid order
    /// (mesh-major, then mix, then rate, then stack), labelled by mix
    /// name and untraced, with no fault plan. Every stack in one (mesh,
    /// mix, rate) cell shares that cell's seed, so stack-vs-stack series
    /// really do run the identical arrival stream — the seed is derived
    /// from the *traffic* cell, never the stack dimension.
    pub fn rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len());
        let mut cell = 0u64;
        for &mesh in &self.meshes {
            for mix in &self.mixes {
                for &rate_rps in &self.rates_rps {
                    let seed = point_seed(self.seed, cell);
                    cell += 1;
                    for &stack in &self.stacks {
                        let config = LoadgenConfig {
                            mesh,
                            arrival: ArrivalProcess::OpenPoisson { rate_rps },
                            requests: self.requests_per_point,
                            stack,
                            ..LoadgenConfig::new(seed, mix.clone())
                        };
                        out.push((mix.name.clone(), config, None));
                    }
                }
            }
        }
        out
    }
}

/// Node count of a mesh.
fn mesh_nodes(mesh: (u16, u16, u16)) -> u32 {
    mesh.0 as u32 * mesh.1 as u32 * mesh.2 as u32
}

/// SplitMix64-style derivation of a point seed from the spec seed and the
/// point's grid index — independent of execution order.
fn point_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        ^ index
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0xD1B54A32D192ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Renders the sweep's finished rows (`runs`, as
/// [`run_rows`](crate::scenarios::run_rows) returns [`SweepSpec::rows`]) as `Figure`s: for every mesh size, a p99 figure
/// and a goodput figure over the rate axis, one series per (mix × stack)
/// combination (the stack suffix is dropped when the sweep covers only
/// one stack).
pub fn figures(spec: &SweepSpec, runs: &[RowRun]) -> Vec<Figure> {
    let columns: Vec<String> = spec
        .rates_rps
        .iter()
        .map(|r| format!("{:.0}k rps", r / 1_000.0))
        .collect();
    let label = |mix: &TenantMix, stack: RemoteStack| {
        if spec.stacks.len() == 1 {
            mix.name.clone()
        } else {
            format!("{} ({})", mix.name, stack.label())
        }
    };
    let mut out = Vec::new();
    let ids = spec.figure_ids();
    for (&mesh, ids) in spec.meshes.iter().zip(ids.chunks(2)) {
        let n = mesh_nodes(mesh);
        let mut p99 = Figure::new(
            ids[0].clone(),
            format!("Tail latency under sustained load, {n}-node mesh"),
            "p99 end-to-end latency (ms) vs offered open-loop rate",
        )
        .with_columns(columns.clone());
        let mut tput = Figure::new(
            ids[1].clone(),
            format!("Achieved throughput, {n}-node mesh"),
            "completed requests per second vs offered open-loop rate",
        )
        .with_columns(columns.clone());
        for mix in &spec.mixes {
            for &stack in &spec.stacks {
                // One total per rate, in grid order.
                let totals: Vec<_> = runs
                    .iter()
                    .filter(|r| r.config.mesh == mesh && r.label == mix.name)
                    .filter(|r| r.config.stack == stack)
                    .map(|r| &r.report.total)
                    .collect();
                p99.add_measured(Series::new(
                    label(mix, stack),
                    totals.iter().map(|t| t.p99_us / 1_000.0).collect(),
                ));
                tput.add_measured(Series::new(
                    label(mix, stack),
                    totals.iter().map(|t| t.throughput_rps).collect(),
                ));
            }
        }
        p99.notes = "loadgen scenario family: beyond the paper's figures (no published reference)"
            .to_string();
        tput.notes = p99.notes.clone();
        out.push(p99);
        out.push(tput);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::run_rows;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            seed: 99,
            meshes: vec![(2, 2, 1)],
            mixes: vec![TenantMix::web_frontend(), TenantMix::messaging()],
            rates_rps: vec![5_000.0, 50_000.0],
            stacks: vec![RemoteStack::VeniceCrma],
            requests_per_point: 800,
        }
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let a = run_rows(tiny_spec().rows(), false);
        let b = run_rows(tiny_spec().rows(), false);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn point_seeds_are_index_stable() {
        // Reordering the grid must not change a given cell's result: the
        // seed depends only on (spec seed, index).
        assert_ne!(point_seed(1, 0), point_seed(1, 1));
        assert_eq!(point_seed(7, 3), point_seed(7, 3));
    }

    #[test]
    fn figures_have_grid_shape() {
        let spec = tiny_spec();
        let figs = figures(&spec, &run_rows(spec.rows(), false));
        assert_eq!(figs.len(), 2); // p99 + tput for the single mesh
        let ids: Vec<&str> = figs.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(ids, tiny_spec().figure_ids());
        for f in &figs {
            assert_eq!(f.columns.len(), 2);
            assert_eq!(f.measured.len(), 2);
            for s in &f.measured {
                assert!(s.values.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
    }

    #[test]
    fn multi_stack_sweeps_label_series_per_stack() {
        let spec = SweepSpec {
            mixes: vec![TenantMix::messaging()],
            rates_rps: vec![10_000.0],
            stacks: vec![RemoteStack::VeniceCrma, RemoteStack::SwapEthernet],
            requests_per_point: 400,
            ..tiny_spec()
        };
        assert_eq!(spec.len(), 2);
        // Both stacks of one traffic cell share the cell seed, so they
        // run the identical arrival stream.
        let rows = spec.rows();
        assert_eq!(rows[0].1.seed, rows[1].1.seed);
        let runs = run_rows(rows, false);
        assert_eq!(runs[0].report.issued, runs[1].report.issued);
        let figs = figures(&spec, &runs);
        let labels: Vec<&str> = figs[0].measured.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["messaging (venice)", "messaging (swap-eth)"]);
    }
}
