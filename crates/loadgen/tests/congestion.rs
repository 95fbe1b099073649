//! The congestion identity gate: a [`CongestedFabric`] with infinite
//! link capacity is *bit-identical* to the frozen [`ScalarCrma`]
//! baseline — traces and reports — over arbitrary seeds, mixes,
//! arrival shapes, and rayon widths.
//!
//! The congested model threads route syncs, per-dispatch charges, and
//! placement vetoes through the engine's hot path; with infinite
//! per-window capacity every charge is zero and every veto passes, so
//! any divergence from the scalar run means the hooks themselves
//! perturbed the simulation. This file owns its `RAYON_NUM_THREADS`
//! mutation (env vars are process-global; integration-test files run
//! as separate processes).
//!
//! [`CongestedFabric`]: venice_loadgen::remote::CongestedFabric
//! [`ScalarCrma`]: venice_loadgen::remote::ScalarCrma

mod conformance;

use conformance::{fingerprint, Conformance};
use proptest::prelude::*;
use venice_lease::LeaseConfig;
use venice_loadgen::{
    congestion, ArrivalProcess, FabricParams, LoadgenConfig, RemoteModelCfg, TenantMix,
};
use venice_sim::Time;

/// `config` rerun with the infinite-capacity fabric armed.
fn with_infinite_fabric(config: &LoadgenConfig) -> LoadgenConfig {
    LoadgenConfig {
        remote_model: RemoteModelCfg::Congested(FabricParams::infinite()),
        ..config.clone()
    }
}

/// The identity gate through the shared conformance driver: both the
/// scalar and the infinite-fabric configuration pass their own
/// cross-engine check (sharded 2/4/8 vs sequential — the congested run
/// derives a bounded lookahead and falls back, which must also be
/// byte-invisible), and the two reference outputs are byte-identical
/// to each other.
fn assert_infinite_fabric_is_identity(scalar: &LoadgenConfig) {
    let (a_report, a_trace) = Conformance::new(scalar).assert_engines_agree();
    let congested = with_infinite_fabric(scalar);
    let (b_report, b_trace) = Conformance::new(&congested).assert_engines_agree();
    assert_eq!(
        fingerprint(&a_report, Some(&a_trace)),
        fingerprint(&b_report, Some(&b_trace)),
        "infinite-capacity fabric perturbed the scalar run"
    );
}

proptest! {
    /// Open-loop runs: any seed, mix, and rate produce identical traces
    /// and reports under the scalar model and the infinite fabric.
    #[test]
    fn infinite_fabric_is_bit_identical_on_open_loop_runs(
        seed in 0u64..100_000,
        rate in 2_000.0f64..400_000.0,
        requests in 100u64..600,
        mix_idx in 0usize..3,
    ) {
        let mix = TenantMix::presets().swap_remove(mix_idx);
        let scalar = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: rate },
            requests,
            ..LoadgenConfig::new(seed, mix)
        };
        assert_infinite_fabric_is_identity(&scalar);
    }

    /// Elastic bursty runs: route syncs fire on every lease event and
    /// the placement hook sits in the Monitor Node's grow handshake,
    /// yet the infinite fabric still changes nothing.
    #[test]
    fn infinite_fabric_is_bit_identical_on_elastic_runs(
        seed in 0u64..100_000,
        base in 2_000.0f64..20_000.0,
        burst in 60_000.0f64..200_000.0,
        crowd_share in 0.0f64..1.0,
    ) {
        let scalar = LoadgenConfig {
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
        assert_infinite_fabric_is_identity(&scalar);
    }
}

/// The rayon dimension: the congested storm rows produce identical
/// reports at fan-out widths 1 and 8. All env mutation lives in this
/// single test (the workspace's rayon shim re-reads `RAYON_NUM_THREADS`
/// on every parallel call).
#[test]
fn congested_storm_is_identical_at_both_rayon_widths() {
    let mut per_width = Vec::new();
    for width in ["1", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", width);
        per_width.push(congestion::FAMILY.run(congestion::CONGESTION_SEED, 6_000));
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(
        per_width[0], per_width[1],
        "congested rows depend on rayon width"
    );
}
