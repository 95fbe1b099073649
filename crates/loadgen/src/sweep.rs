//! Parallel configuration sweeps.
//!
//! A [`SweepSpec`] spans a grid of (mesh size × tenant mix × arrival
//! rate × remote stack); [`run_sweep`] fans the grid over rayon and
//! returns one [`SweepPoint`] per cell. Determinism at any thread count
//! comes from two properties: every point derives its own seed purely
//! from the spec seed and the point's grid index, and results are
//! collected in grid order — never in completion order.

use rayon::prelude::*;
use venice::{Figure, Series};

use crate::engine::{self, LoadgenConfig};
use crate::report::LoadReport;
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

    /// Expands the grid into per-point configurations, in grid order
    /// (mesh-major, then mix, then rate, then stack). Every stack in one
    /// (mesh, mix, rate) cell shares that cell's seed, so stack-vs-stack
    /// series really do run the identical arrival stream — the seed is
    /// derived from the *traffic* cell, never the stack dimension.
    pub fn configs(&self) -> Vec<LoadgenConfig> {
        let mut out = Vec::with_capacity(self.len());
        let mut cell = 0u64;
        for &mesh in &self.meshes {
            for mix in &self.mixes {
                for &rate_rps in &self.rates_rps {
                    let seed = point_seed(self.seed, cell);
                    cell += 1;
                    for &stack in &self.stacks {
                        out.push(LoadgenConfig {
                            mesh,
                            arrival: ArrivalProcess::OpenPoisson { rate_rps },
                            requests: self.requests_per_point,
                            stack,
                            ..LoadgenConfig::new(seed, mix.clone())
                        });
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

/// One completed grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Mesh dimensions of the cell.
    pub mesh: (u16, u16, u16),
    /// Mix name.
    pub mix: String,
    /// Offered rate.
    pub rate_rps: f64,
    /// Remote stack of the cell.
    pub stack: RemoteStack,
    /// The run's report.
    pub report: LoadReport,
}

/// Runs every grid point in parallel; the result vector is in grid order.
pub fn run_sweep(spec: &SweepSpec) -> Vec<SweepPoint> {
    spec.configs()
        .into_par_iter()
        .map(|config| {
            let ArrivalProcess::OpenPoisson { rate_rps } = config.arrival else {
                unreachable!("sweep configs are open-loop");
            };
            SweepPoint {
                mesh: config.mesh,
                mix: config.mix.name.clone(),
                rate_rps,
                stack: config.stack,
                report: engine::Run::new(&config).execute().report,
            }
        })
        .collect()
}

/// Runs the sweep and renders it as `Figure`s: for every mesh size, a p99
/// figure and a goodput figure over the rate axis, one series per
/// (mix × stack) combination (the stack suffix is dropped when the sweep
/// covers only one stack).
pub fn figures(spec: &SweepSpec) -> Vec<Figure> {
    let points = run_sweep(spec);
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
                let rows: Vec<&SweepPoint> = points
                    .iter()
                    .filter(|p| p.mesh == mesh && p.mix == mix.name && p.stack == stack)
                    .collect();
                p99.add_measured(Series::new(
                    label(mix, stack),
                    rows.iter()
                        .map(|p| p.report.total.p99_us / 1_000.0)
                        .collect(),
                ));
                tput.add_measured(Series::new(
                    label(mix, stack),
                    rows.iter().map(|p| p.report.total.throughput_rps).collect(),
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
        let a = run_sweep(&tiny_spec());
        let b = run_sweep(&tiny_spec());
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
        let figs = figures(&tiny_spec());
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
        let configs = spec.configs();
        assert_eq!(configs[0].seed, configs[1].seed);
        let points = run_sweep(&spec);
        assert_eq!(points[0].report.issued, points[1].report.issued);
        let figs = figures(&spec);
        let labels: Vec<&str> = figs[0].measured.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["messaging (venice)", "messaging (swap-eth)"]);
    }
}
