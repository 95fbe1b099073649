//! Property tests for the sharded parallel kernel: `Run::shards(n)` at
//! every width is **byte-identical** to the sequential engine, over
//! arbitrary seeds, arrival shapes, tenant mixes, congested-fabric
//! parameters, and fault plans.
//!
//! The sharded driver is optimistic: eligible configurations (open-loop
//! arrivals, scalar remote model, no leases, no faults, no probes) run
//! as per-node-group sub-kernels on rayon workers and merge
//! deterministically; anything that could couple shards — or any
//! detected cross-shard interaction at runtime — falls back to the
//! sequential engine. Both legs carry the same contract, which is what
//! every test here demands: *whatever path was taken, the bytes match*.
//! The suites below deliberately straddle the eligibility boundary so
//! both the parallel path and every fallback reason get exercised.
//!
//! This file also owns a `RAYON_NUM_THREADS` sweep (env vars are
//! process-global; integration-test files run as separate processes) —
//! the merge rules must be thread-count independent, not just
//! shard-count independent.

mod conformance;

use conformance::Conformance;
use proptest::prelude::*;
use venice_lease::LeaseConfig;
use venice_loadgen::{
    engine, ArrivalProcess, FabricParams, FaultEvent, FaultPlan, LoadgenConfig, RemoteModelCfg,
    TenantMix,
};
use venice_sim::Time;

proptest! {
    /// The heart of the tentpole: open-loop runs — the sharded fast
    /// path — produce identical traces and reports at widths 2/4/8 for
    /// any seed, rate, request count, mesh size, and tenant mix.
    #[test]
    fn sharded_widths_agree_on_open_loop_runs(
        seed in 0u64..100_000,
        rate in 2_000.0f64..400_000.0,
        requests in 100u64..900,
        mix_idx in 0usize..3,
        mesh_x in 1u16..5,
        mesh_y in 1u16..3,
    ) {
        let mix = TenantMix::presets().swap_remove(mix_idx);
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: rate },
            requests,
            mesh: (mesh_x, mesh_y, 2),
            ..LoadgenConfig::new(seed, mix)
        };
        Conformance::new(&config).assert_engines_agree();
    }

    /// Closed-loop arrivals are ineligible (sessions couple the whole
    /// mesh); the builder must fall back byte-invisibly.
    #[test]
    fn sharded_widths_agree_on_closed_loop_runs(
        seed in 0u64..100_000,
        sessions in 1u32..48,
        think_us in 50u64..5_000,
    ) {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::ClosedLoop {
                sessions,
                think: Time::from_us(think_us),
            },
            requests: 400,
            ..LoadgenConfig::new(seed, TenantMix::messaging())
        };
        Conformance::new(&config).assert_engines_agree();
    }

    /// Congested-fabric runs derive a bounded lookahead (fabric charges
    /// couple shards at every dispatch) and fall back — for arbitrary
    /// capacity/buffer parameters, including ones tight enough to
    /// saturate, the bytes still match.
    #[test]
    fn sharded_widths_agree_under_congested_fabrics(
        seed in 0u64..50_000,
        rate in 5_000.0f64..200_000.0,
        capacity_kb in 4u64..4_096,
        buffer_kb in 1u64..512,
    ) {
        let params = FabricParams {
            capacity_bytes: capacity_kb << 10,
            buffer_bytes: buffer_kb << 10,
            ..FabricParams::infinite()
        };
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: rate },
            requests: 600,
            remote_model: RemoteModelCfg::Congested(params),
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        };
        Conformance::new(&config).assert_engines_agree();
    }

    /// Elastic bursty runs (lease ticks derive a bounded window) and
    /// armed fault plans (chaos is ineligible outright) both fall back
    /// byte-invisibly, for arbitrary crash schedules.
    #[test]
    fn sharded_widths_agree_under_leases_and_faults(
        seed in 0u64..50_000,
        node in 0u16..8,
        at_us in 1u64..40_000,
        len_us in 1u64..60_000,
    ) {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::Bursty {
                base_rps: 8_000.0,
                burst_rps: 110_000.0,
                period: Time::from_ms(100),
                burst_len: Time::from_ms(40),
                crowd_users: 4,
                crowd_share: 0.8,
            },
            requests: 1_800,
            lease: Some(LeaseConfig::default()),
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        };
        let plan = FaultPlan::new(vec![FaultEvent::NodeCrash {
            node,
            at: Time::from_us(at_us),
            recover_at: Time::from_us(at_us + len_us),
        }]);
        Conformance::new(&config).faults(plan).assert_engines_agree();
    }

    /// The merged kernel metrics are width-invariant where they must
    /// be: the logical event count (executed + fused, the number the
    /// throughput curve divides by) is identical at every width, and
    /// the merged peak queue depth never exceeds the sequential one
    /// (per-shard queues are strictly smaller).
    #[test]
    fn merged_metrics_are_width_invariant(
        seed in 0u64..50_000,
        rate in 20_000.0f64..300_000.0,
    ) {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: rate },
            requests: 1_500,
            mesh: (4, 2, 2),
            ..LoadgenConfig::new(seed, TenantMix::analytics())
        };
        let base = engine::Run::new(&config).execute();
        for width in [2usize, 4, 8] {
            let out = engine::Run::new(&config).shards(width).execute();
            prop_assert_eq!(
                out.metrics.events, base.metrics.events,
                "logical event count diverged at width {}", width
            );
            prop_assert!(
                out.metrics.peak_queue_depth <= base.metrics.peak_queue_depth,
                "merged peak depth {} exceeds sequential {} at width {}",
                out.metrics.peak_queue_depth, base.metrics.peak_queue_depth, width
            );
            prop_assert_eq!(out.report, base.report.clone());
        }
    }
}

/// The rayon dimension: the same sharded run at `RAYON_NUM_THREADS` 1
/// and 8 is byte-identical — the deterministic merge really is
/// thread-count independent, not just shard-count independent. All env
/// mutation lives in this single test (the workspace's rayon shim
/// re-reads the variable on every parallel call).
#[test]
fn sharded_runs_are_identical_at_both_rayon_widths() {
    let config = LoadgenConfig {
        arrival: ArrivalProcess::OpenPoisson {
            rate_rps: 120_000.0,
        },
        requests: 30_000,
        mesh: (4, 2, 2),
        ..LoadgenConfig::new(0x5AAD, TenantMix::web_frontend())
    };
    let mut per_width = Vec::new();
    for threads in ["1", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let outs: Vec<_> = [2usize, 4, 8]
            .iter()
            .map(|&s| {
                let out = engine::Run::new(&config).shards(s).traced().execute();
                (out.report, out.trace)
            })
            .collect();
        per_width.push(outs);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(
        per_width[0], per_width[1],
        "sharded output depends on rayon thread count"
    );
}
