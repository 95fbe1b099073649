//! Differential property tests: the typed zero-allocation event core
//! against the frozen boxed-closure baseline.
//!
//! The `crate::legacy` module preserves the seed engine (boxed `FnOnce`
//! events on `venice_sim::boxed`, per-request model re-derivation,
//! per-tick clones). Every optimization in the typed engine — enum
//! events, the slot-ring event queue, compiled service models,
//! lookahead arrival fusion, the request slab, the sharded parallel
//! kernel — claims to be *pure speed*: these tests pin that claim
//! through the shared [`conformance`] driver, demanding
//! **bit-identical** traces and reports from every engine flavor
//! (legacy boxed, typed sequential, sharded 2/4/8) over arbitrary
//! seeds, mixes, arrival shapes, and lease policies.

mod conformance;

use conformance::Conformance;
use proptest::prelude::*;
use venice_lease::LeaseConfig;
use venice_loadgen::{engine, legacy, ArrivalProcess, LoadgenConfig, TenantMix};
use venice_sim::Time;

proptest! {
    /// Open-loop runs: any seed, mix, and rate produce identical traces
    /// and reports through every engine flavor.
    #[test]
    fn typed_and_legacy_agree_on_open_loop_runs(
        seed in 0u64..100_000,
        rate in 2_000.0f64..400_000.0,
        requests in 100u64..600,
        mix_idx in 0usize..3,
    ) {
        let mix = TenantMix::presets().swap_remove(mix_idx);
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: rate },
            requests,
            ..LoadgenConfig::new(seed, mix)
        };
        let (_, trace) = Conformance::new(&config).legacy().assert_engines_agree();
        // Replay agrees too (typed replays by borrowing the trace, the
        // baseline by cloning it — same arrivals either way).
        prop_assert_eq!(
            engine::Run::new(&config).replay(&trace).execute().report,
            legacy::replay(&config, &trace)
        );
    }

    /// Closed-loop runs: session staggering and think-time draws come
    /// from the same rng stream in every flavor. (The sharded kernel
    /// refuses closed-loop arrivals and falls back; the byte contract
    /// must hold regardless.)
    #[test]
    fn typed_and_legacy_agree_on_closed_loop_runs(
        seed in 0u64..100_000,
        sessions in 1u32..64,
        think_us in 50u64..5_000,
        mix_idx in 0usize..3,
    ) {
        let mix = TenantMix::presets().swap_remove(mix_idx);
        let config = LoadgenConfig {
            arrival: ArrivalProcess::ClosedLoop {
                sessions,
                think: Time::from_us(think_us),
            },
            requests: 400,
            ..LoadgenConfig::new(seed, mix)
        };
        Conformance::new(&config).legacy().assert_engines_agree();
    }

    /// Elastic runs under bursty traffic: lease ticks, establish flows,
    /// revokes, and quota bookkeeping all land on identical timelines.
    #[test]
    fn typed_and_legacy_agree_on_elastic_bursty_runs(
        seed in 0u64..100_000,
        base in 2_000.0f64..20_000.0,
        burst in 60_000.0f64..200_000.0,
        crowd_share in 0.0f64..1.0,
    ) {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::Bursty {
                base_rps: base,
                burst_rps: burst,
                period: Time::from_ms(300),
                burst_len: Time::from_ms(120),
                crowd_users: 4,
                crowd_share,
            },
            requests: 2_500,
            lease: Some(LeaseConfig {
                donor_high_watermark: 12,
                revoke_cooldown_ticks: 40,
                predict_horizon_ticks: 33,
                ..LeaseConfig::default()
            }),
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        };
        let (report, _) = Conformance::new(&config).legacy().assert_engines_agree();
        // The lease timeline is part of the report; spell out that the
        // event log specifically survived every flavor.
        let legacy_run = legacy::run(&config);
        prop_assert_eq!(&report.lease.events, &legacy_run.lease.events);
    }
}

/// The rayon dimension: a typed-engine sweep rerun at both thread-count
/// settings matches the baseline engine run serially on every cell. All
/// env mutation lives in this single (non-proptest) test because the
/// variable is process-global; the workspace's rayon shim re-reads
/// `RAYON_NUM_THREADS` on every parallel call, so each `set_var` really
/// changes the fan-out width.
#[test]
fn typed_vs_legacy_holds_at_both_rayon_thread_counts() {
    let configs: Vec<LoadgenConfig> = TenantMix::presets()
        .into_iter()
        .enumerate()
        .map(|(i, mix)| LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 30_000.0 + 40_000.0 * i as f64,
            },
            requests: 2_000,
            ..LoadgenConfig::new(0xD1FF + i as u64, mix)
        })
        .collect();
    let mut per_width = Vec::new();
    for width in ["1", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", width);
        let reports: Vec<_> = {
            use rayon::prelude::*;
            configs
                .clone()
                .into_par_iter()
                .map(|config| engine::Run::new(&config).execute().report)
                .collect()
        };
        per_width.push(reports);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(
        per_width[0], per_width[1],
        "typed engine output depends on rayon width"
    );
    // And each cell matches the legacy baseline run serially.
    for (config, typed) in configs.iter().zip(&per_width[0]) {
        assert_eq!(typed, &legacy::run(config), "mix {}", config.mix.name);
    }
}
