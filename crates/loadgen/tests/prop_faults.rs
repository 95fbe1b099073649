//! Chaos property tests: the fault layer's two load-bearing claims.
//!
//! **Identity**: arming a [`FaultPlan`] that injects nothing must
//! reproduce the [`NoFaults`] run bit for bit — the chaos code path
//! (`ENABLED = true`, every guard live) is behaviorally invisible until
//! a transition actually fires, which pins the frozen-baseline claim
//! from the enabled side. (The disabled side — `NoFaults` ≡ the
//! pre-chaos engine — is pinned by the golden corpus,
//! `BENCH_golden.jsonl`, whose fault-free lines were checked against
//! the pre-chaos engine when they were recorded.)
//!
//! **Parity through chaos**: under *generated* fault plans — arbitrary
//! crashes, flaps, and loss onsets at arbitrary instants — every
//! request is still accounted for (`issued == completed + shed`), the
//! engine's internal ledger-parity asserts hold (the manager's and the
//! cluster's books agree at end of run; a panic fails the test), and
//! the same `(seed, plan)` pair replays bit-identically.

mod conformance;

use conformance::{fingerprint, Conformance};
use proptest::prelude::*;
use venice_loadgen::{
    elastic, engine, ArrivalProcess, FaultEvent, FaultPlan, LoadgenConfig, TenantMix,
};
use venice_sim::Time;

/// A small elastic flash-crowd run: every lease mechanism live, short
/// enough for proptest case counts.
fn chaos_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        arrival: ArrivalProcess::Bursty {
            base_rps: 8_000.0,
            burst_rps: 120_000.0,
            period: Time::from_ms(80),
            burst_len: Time::from_ms(30),
            crowd_users: 4,
            crowd_share: 0.85,
        },
        requests: 2_500,
        lease: Some(elastic::lease_policy()),
        ..LoadgenConfig::new(seed, TenantMix::web_frontend())
    }
}

/// Shapes raw generated draws into a valid fault schedule.
///
/// Crashes keep one outage per node (dropping per-node duplicates, so
/// outage intervals cannot overlap on one node), with arbitrary onsets
/// inside the ~60 ms run and arbitrary outage lengths — including
/// recoveries landing after the last request, which the drain path
/// must survive. Link draws on arbitrary *distinct* pairs alternate
/// between flaps and loss onsets; the scalar remote model ignores
/// links, and the congested model treats non-adjacent pairs as
/// cable-less no-ops — both must shrug, not panic.
fn build_plan(
    crash_draws: Vec<(u16, u64, u64)>,
    link_draws: Vec<(u16, u16, u64, u64, u16)>,
) -> Vec<FaultEvent> {
    let mut events = Vec::new();
    let mut seen = [false; 8];
    for (node, at_us, len_us) in crash_draws {
        if std::mem::replace(&mut seen[node as usize], true) {
            continue;
        }
        events.push(FaultEvent::NodeCrash {
            node,
            at: Time::from_us(at_us),
            recover_at: Time::from_us(at_us + len_us),
        });
    }
    for (a, b, at_us, len_us, pm) in link_draws {
        if a == b {
            continue;
        }
        events.push(if pm % 2 == 0 {
            FaultEvent::LinkFlap {
                a,
                b,
                at: Time::from_us(at_us),
                duration: Time::from_us(len_us),
            }
        } else {
            FaultEvent::PacketLoss {
                a,
                b,
                at: Time::from_us(at_us),
                per_mille: pm,
            }
        });
    }
    events
}

proptest! {
    /// An armed-but-inert plan (no events at all) runs the whole
    /// `ENABLED = true` code path — liveness checks in routing,
    /// admission, donor selection, establish/teardown landing — and
    /// must still reproduce the `NoFaults` run bit for bit, through
    /// every engine flavor (the fault path refuses sharding and falls
    /// back; the byte contract holds regardless).
    #[test]
    fn inert_plan_is_bit_identical_to_no_faults(seed in 0u64..50_000) {
        let config = chaos_config(seed);
        let (base_report, base_trace) =
            Conformance::new(&config).assert_engines_agree();
        let (inert_report, inert_trace) = Conformance::new(&config)
            .faults(FaultPlan::new(vec![]))
            .assert_engines_agree();
        prop_assert_eq!(
            fingerprint(&base_report, Some(&base_trace)),
            fingerprint(&inert_report, Some(&inert_trace))
        );
    }

    /// Under arbitrary generated fault plans: no request leaks, the
    /// ledger-parity asserts inside the engine hold at end of run, and
    /// the run replays bit-identically from the same `(seed, plan)` —
    /// through the sequential engine and every sharded width.
    #[test]
    fn conservation_and_parity_hold_under_arbitrary_fault_plans(
        seed in 0u64..50_000,
        crash_draws in prop::collection::vec((0u16..8, 1u64..60_000, 1u64..80_000), 1..4),
        link_draws in prop::collection::vec(
            (0u16..8, 0u16..8, 1u64..60_000, 1u64..20_000, 0u16..1001),
            0..3,
        ),
    ) {
        let events = build_plan(crash_draws, link_draws);
        let config = chaos_config(seed);
        // Ledger parity (manager books == cluster books, subleases
        // included) is asserted inside the engine at end of run: a
        // divergence panics and fails this test. The conformance driver
        // reruns the plan at every shard width, which doubles as the
        // same-plan-same-bits replay check.
        let (a, _) = Conformance::new(&config)
            .faults(FaultPlan::new(events.clone()))
            .assert_engines_agree();
        prop_assert_eq!(
            a.issued,
            a.completed + a.shed_total(),
            "requests leaked under {:?}",
            &events
        );
        // No shed reason went negative-by-wraparound or exploded past
        // the issue count.
        prop_assert!(a.shed_crash <= a.issued);
        // Same plan, same seed, same bits (untraced path too).
        let b = engine::Run::new(&config)
            .faults(FaultPlan::new(events))
            .execute()
            .report;
        prop_assert_eq!(a, b);
    }
}
