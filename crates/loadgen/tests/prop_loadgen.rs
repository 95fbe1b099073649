//! Property tests for loadgen determinism and accounting.
//!
//! The headline guarantees: identical seeds replay identical whole-run
//! reports; histogram quantiles track the
//! exact quantiles within the configured bucket resolution; and the
//! request-conservation invariants hold for arbitrary configurations.

use std::collections::BTreeMap;

use proptest::prelude::*;
use venice_lease::LeaseConfig;
use venice_loadgen::{engine, ArrivalProcess, LoadgenConfig, TenantMix};
use venice_sim::{LogHistogram, Time};

proptest! {
    /// Histogram quantiles never under-report and overshoot the exact
    /// sample quantile by at most the bucket's relative resolution
    /// (2^-7 at the default setting).
    #[test]
    fn histogram_quantiles_match_exact_within_resolution(
        mut samples in prop::collection::vec(1u64..10_000_000_000, 10..400),
        q in 0.01f64..1.0,
    ) {
        let mut h = LogHistogram::new();
        for &ns in &samples {
            h.record(Time::from_ns(ns));
        }
        samples.sort_unstable();
        let rank = ((samples.len() as f64) * q).ceil().max(1.0) as usize - 1;
        let exact = Time::from_ns(samples[rank]);
        let est = h.quantile(q).unwrap();
        prop_assert!(est >= exact, "q={q}: {est} under-reports exact {exact}");
        let rel = (est.as_ps() - exact.as_ps()) as f64 / exact.as_ps() as f64;
        prop_assert!(rel <= 1.0 / 128.0 + 1e-9, "q={q}: relative error {rel}");
    }

    /// Full engine runs conserve requests and replay identically under
    /// arbitrary small configurations.
    #[test]
    fn engine_conserves_and_replays(
        seed in 0u64..10_000,
        rate in 1_000.0f64..500_000.0,
        requests in 50u64..600,
        mix_idx in 0usize..3,
    ) {
        let mix = TenantMix::presets().swap_remove(mix_idx);
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: rate },
            requests,
            ..LoadgenConfig::new(seed, mix)
        };
        let r = engine::Run::new(&config).execute().report;
        prop_assert_eq!(r.issued, requests);
        prop_assert_eq!(r.issued, r.admitted + r.shed_rate + r.shed_overload);
        prop_assert_eq!(r.admitted, r.completed + r.shed_backpressure);
        let sum: u64 = r.tenants.iter().map(|t| t.completed).sum();
        prop_assert_eq!(sum, r.completed);
        prop_assert_eq!(r, engine::Run::new(&config).execute().report);
    }

    /// Elastic v2 runs — predictor and donor reclaim armed, a tight
    /// quota on every class — conserve the lease ledger at every
    /// timeline event under arbitrary bursty traffic, and no tenant ever
    /// exceeds its quota. (The engine additionally cross-checks its
    /// manager ledger against `Cluster::borrowed_bytes` at the end of
    /// every elastic run; any divergence panics the run itself.)
    #[test]
    fn elastic_v2_ledger_conserves_under_arbitrary_traffic(
        seed in 0u64..10_000,
        burst in 40_000.0f64..200_000.0,
        requests in 2_000u64..6_000,
        quota_chunks in 2u64..8,
        donor_wm in 8u32..20,
    ) {
        let chunk = 64u64 << 20;
        let mut mix = TenantMix::web_frontend();
        for class in &mut mix.classes {
            class.quota_bytes = quota_chunks * chunk;
        }
        let config = LoadgenConfig {
            arrival: ArrivalProcess::Bursty {
                base_rps: 4_000.0,
                burst_rps: burst,
                period: Time::from_ms(400),
                burst_len: Time::from_ms(150),
                crowd_users: 4,
                crowd_share: 0.7,
            },
            requests,
            mix,
            lease: Some(LeaseConfig {
                max_chunks: 6,
                donor_high_watermark: donor_wm,
                predict_horizon_ticks: 33,
                release_cooldown_ticks: 60,
                ..LeaseConfig::default()
            }),
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        };
        let r = engine::Run::new(&config).execute().report;
        let mut ledger: BTreeMap<u32, u64> = BTreeMap::new();
        for e in &r.lease.events {
            ledger.insert(e.tenant, e.tenant_bytes_after);
            let sum: u64 = ledger.values().sum();
            prop_assert_eq!(sum, e.total_bytes_after, "diverged at {:?}", e);
        }
        for (class, &held) in r.lease.tenant_bytes.iter().enumerate() {
            prop_assert!(
                held <= quota_chunks * chunk,
                "class {class} holds {held} over quota"
            );
        }
        prop_assert_eq!(&r, &engine::Run::new(&config).execute().report);
    }

}

/// The rayon dimension: a sweep of the three preset mixes run at one
/// and at eight rayon threads yields identical reports. All env mutation
/// lives in this single (non-proptest) test because the variable is
/// process-global; the workspace's rayon shim re-reads
/// `RAYON_NUM_THREADS` on every parallel call, so each `set_var` really
/// changes the fan-out width. The golden corpus pins the bytes of these
/// three configurations.
#[test]
fn reports_match_at_both_rayon_thread_counts() {
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
        "engine output depends on rayon width"
    );
}
