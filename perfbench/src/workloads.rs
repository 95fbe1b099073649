//! The benchmark's workloads, spelled out from the loadgen crate's stable
//! public configuration types only.
//!
//! Every row takes the run's seed as its experiment seed, so `--seed`
//! fully determines the simulated traffic of a run.

use venice_fabric::LinkParams;
use venice_loadgen::engine::Run;
use venice_loadgen::{
    AdmissionConfig, ArrivalProcess, FabricParams, FaultEvent, FaultPlan, LeaseConfig,
    LoadgenConfig, PlacementPolicy, RemoteModelCfg, RemoteStack, RunOutput, TenantMix,
};
use venice_sim::Time;
use venice_telemetry::{NoopProbe, Probe};

/// Requests per storm row at full size (three rows: 1.05 M per pass).
const STORM_REQUESTS: u64 = 350_000;

/// Requests of the flash-crash row at full size: about 25 s of simulated
/// bursty traffic, so the crash (3.1 s) and the recovery (5.5 s) both land
/// well inside the run.
const FLASH_REQUESTS: u64 = 1_000_000;

/// Request count divisor of `--smoke` runs.
const SMOKE_DIVISOR: u64 = 50;

/// One simulated experiment of a workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (the tenant mix name).
    pub label: String,
    /// The full engine configuration.
    pub config: LoadgenConfig,
    /// Fault schedule armed through `Run::faults`, if any.
    pub faults: Option<FaultPlan>,
}

/// A named workload: its rows and the shard width they execute at.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Rows executed, in order, by one pass.
    pub rows: Vec<Row>,
    /// `Run::shards` width of the workload's own passes (1 = sequential).
    pub shards: usize,
}

impl Workload {
    /// Builds workload `name` at `seed`; `smoke` shrinks every row's
    /// request count by [`SMOKE_DIVISOR`].
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let scale = |n: u64| if smoke { n / SMOKE_DIVISOR } else { n };
        let (name, rows, shards) = match name {
            "storm" => ("storm", storm_rows(seed, scale(STORM_REQUESTS)), 1),
            "storm-sharded" => ("storm-sharded", storm_rows(seed, scale(STORM_REQUESTS)), 2),
            "flash-crash" => (
                "flash-crash",
                vec![flash_crash_row(seed, scale(FLASH_REQUESTS))],
                1,
            ),
            _ => return None,
        };
        Some(Workload { name, rows, shards })
    }

    /// The same rows with every request count set to `requests`: the
    /// set-up-only variant timed as `setup_s`.
    pub fn with_requests(&self, requests: u64) -> Workload {
        let mut w = self.clone();
        for row in &mut w.rows {
            row.config.requests = requests;
        }
        w
    }

    /// Mesh of the workload (every row of a workload shares one).
    pub fn mesh(&self) -> (u16, u16, u16) {
        self.rows[0].config.mesh
    }
}

impl Row {
    /// Executes the row at shard width `shards` with `probe` threaded
    /// through the engine.
    pub fn execute_with<P: Probe>(&self, shards: usize, probe: P) -> RunOutput<P> {
        let mut run = Run::new(&self.config).shards(shards).probe(probe);
        if let Some(plan) = &self.faults {
            run = run.faults(plan.clone());
        }
        run.execute()
    }

    /// Executes the row unprobed at shard width `shards`.
    pub fn execute(&self, shards: usize) -> RunOutput<NoopProbe> {
        self.execute_with(shards, NoopProbe)
    }

    /// The instant of the row's last scheduled fault transition, if it
    /// arms a fault plan: a full-size run must simulate past it.
    pub fn fault_horizon(&self) -> Option<Time> {
        let plan = self.faults.as_ref()?;
        plan.events()
            .iter()
            .map(|event| match *event {
                FaultEvent::NodeCrash { recover_at, .. } => recover_at,
                FaultEvent::LinkFlap { at, duration, .. } => at + duration,
                FaultEvent::PacketLoss { at, .. } => at,
            })
            .max()
    }
}

/// `storm`: the three preset mixes on a 4×2×2 mesh, open-loop Poisson at
/// 120 krps, 8 slots per node, a static 256 MB remote tier priced by the
/// measured CRMA scalar, no leases and no faults.
fn storm_rows(seed: u64, requests: u64) -> Vec<Row> {
    TenantMix::presets()
        .into_iter()
        .map(|mix| Row {
            label: mix.name.clone(),
            config: LoadgenConfig {
                seed,
                mesh: (4, 2, 2),
                mix,
                arrival: ArrivalProcess::OpenPoisson {
                    rate_rps: 120_000.0,
                },
                requests,
                per_node_concurrency: 8,
                admission: AdmissionConfig::default(),
                remote_memory_per_node: 256 << 20,
                stack: RemoteStack::VeniceCrma,
                lease: None,
                remote_model: RemoteModelCfg::Scalar,
            },
            faults: None,
        })
        .collect()
}

/// `flash-crash`: the web-frontend mix on a 2×2×2 mesh under a bursty
/// flash crowd, over the congested fabric with elastic leases and donor
/// reclaim, through a node crash and a lossy cable.
fn flash_crash_row(seed: u64, requests: u64) -> Row {
    let mix = TenantMix::web_frontend();
    Row {
        label: mix.name.clone(),
        config: LoadgenConfig {
            seed,
            mesh: (2, 2, 2),
            mix,
            arrival: ArrivalProcess::Bursty {
                base_rps: 6_000.0,
                burst_rps: 90_000.0,
                period: Time::from_ms(500),
                burst_len: Time::from_ms(200),
                crowd_users: 4,
                crowd_share: 0.85,
            },
            requests,
            per_node_concurrency: 8,
            admission: AdmissionConfig::default(),
            remote_memory_per_node: 256 << 20,
            stack: RemoteStack::VeniceCrma,
            lease: Some(LeaseConfig {
                chunk_bytes: 64 << 20,
                min_chunks: 1,
                max_chunks: 6,
                high_watermark: 10,
                low_watermark: 3,
                grow_cooldown_ticks: 2,
                release_cooldown_ticks: 250,
                tick_interval: Time::from_ms(1),
                donor_high_watermark: 14,
                revoke_cooldown_ticks: 60,
                ..LeaseConfig::default()
            }),
            remote_model: RemoteModelCfg::Congested(FabricParams::from_link(
                LinkParams::venice_prototype().with_gbps(2.0),
                Time::from_ms(1),
                PlacementPolicy::CongestionAware,
            )),
        },
        faults: Some(FaultPlan::new(vec![
            FaultEvent::NodeCrash {
                node: 0,
                at: Time::from_ms(3_100),
                recover_at: Time::from_ms(5_500),
            },
            FaultEvent::PacketLoss {
                a: 2,
                b: 3,
                at: Time::from_ms(2_000),
                per_mille: 20,
            },
        ])),
    }
}
