//! Acceptance: the v2 lease controller (ISSUE 3 criteria, pinned).
//!
//! (a) The predictive controller's p99 is *strictly below* the reactive
//! controller's on the identical flash-crowd seed; (b) a loaded donor
//! reclaims chunks mid-run through the real revoke path; (c) the
//! per-tenant quota ledger conserves bytes at every timeline event and
//! never exceeds its quota; (d) every v2 run replays bit-identically.

use std::collections::BTreeMap;

use venice_lease::LeaseEventKind;
use venice_loadgen::report::LoadReport;
use venice_loadgen::scenarios::report;
use venice_loadgen::{elastic_v2, engine};

/// Replays a report's lease timeline and checks the conservation law:
/// the per-tenant ledger values carried on the events always sum to the
/// running cluster-wide total.
fn assert_ledger_conserves(label: &str, r: &LoadReport) {
    let mut ledger: BTreeMap<u32, u64> = BTreeMap::new();
    for e in &r.lease.events {
        ledger.insert(e.tenant, e.tenant_bytes_after);
        let sum: u64 = ledger.values().sum();
        assert_eq!(
            sum, e.total_bytes_after,
            "{label}: ledger sum diverged at {e:?}"
        );
    }
}

#[test]
fn predictive_beats_reactive_and_donors_reclaim() {
    let family = &elastic_v2::FAMILY;
    let runs = family.run(family.seed, family.requests);
    let get = |label: &str| report(&runs, label);
    for run in &runs {
        let (label, r) = (&run.label, &run.report);
        println!(
            "{label:18} p50 {:8.1}us p99 {:8.1}us peak {:5} MB grows {:4} (pred {:3}) \
             revokes {:3} quota-denied {:4} shed {:5}",
            r.total.p50_us,
            r.total.p99_us,
            r.lease.peak_bytes >> 20,
            r.lease.grows,
            r.lease.predictive_grows,
            r.lease.revokes,
            r.lease.quota_denials,
            r.shed_total(),
        );
    }
    let reactive = get("venice-reactive");
    let predictive = get("venice-predictive");

    // (a) Same traffic, predictor armed: strictly lower p99, and the
    // early grows really were predictive.
    assert_eq!(reactive.issued, predictive.issued, "different traffic");
    assert!(
        predictive.total.p99_us < reactive.total.p99_us,
        "predictive p99 {:.1}us not strictly below reactive {:.1}us",
        predictive.total.p99_us,
        reactive.total.p99_us
    );
    assert!(
        predictive.lease.predictive_grows > 0,
        "predictor never fired"
    );
    assert_eq!(reactive.lease.predictive_grows, 0, "reactive run predicted");
    assert!(predictive
        .lease
        .events
        .iter()
        .any(|e| e.kind == LeaseEventKind::GrewPredictive && e.at.as_ns() > 0));

    // (b) Donor pressure: the armed run revokes mid-run; the passive
    // control — identical traffic — never does.
    let passive = get("donor-passive");
    let reclaim = get("donor-reclaim");
    assert_eq!(passive.issued, reclaim.issued, "different traffic");
    assert_eq!(passive.lease.revokes, 0);
    assert!(reclaim.lease.revokes > 0, "no donor ever reclaimed");
    let revoked_events: Vec<_> = reclaim
        .lease
        .events
        .iter()
        .filter(|e| e.kind == LeaseEventKind::Revoked)
        .collect();
    assert_eq!(revoked_events.len() as u64, reclaim.lease.revokes);
    for e in &revoked_events {
        assert!(e.at.as_ns() > 0, "revoke at setup time");
        assert_ne!(e.donor, e.node, "a donor cannot revoke a chunk from itself");
        assert_ne!(e.donor, venice_lease::NO_NODE, "revoke without a donor");
    }

    // (c) Quotas: the kv tenant's ledger never exceeds its 1 GB quota,
    // over-quota grows were refused locally, and the ledger conserves
    // bytes at every event in every elastic run.
    for run in &runs {
        assert_ledger_conserves(&run.label, &run.report);
    }
    for r in [passive, reclaim] {
        assert!(r.lease.quota_denials > 0, "quota never engaged");
        assert!(
            r.lease.tenant_bytes[0] <= 1 << 30,
            "kv ledger {} exceeds its quota",
            r.lease.tenant_bytes[0]
        );
    }
    // The unquota'd comparison rows never see a quota denial.
    assert_eq!(reactive.lease.quota_denials, 0);
    assert_eq!(predictive.lease.quota_denials, 0);

    // (d) Same-seed reruns are bit-identical, timeline included.
    let again = engine::Run::new(&elastic_v2::predictive_config(elastic_v2::V2_SEED))
        .execute()
        .report;
    assert_eq!(predictive, &again);
    let again = engine::Run::new(&elastic_v2::donor_config(elastic_v2::V2_SEED))
        .execute()
        .report;
    assert_eq!(reclaim, &again);
}
