//! Acceptance: lease failover through a mid-run node crash.
//!
//! The chaos criteria, pinned: under the identical flash-crowd traffic
//! and the identical fault schedule, (a) the crash really costs
//! something (crash sheds and failovers happen), (b) the elastic run's
//! cluster p99 stays below static provisioning's through the outage —
//! failover re-borrows the dead node's capacity on surviving donors
//! while static stays degraded, (c) the fault-free reference row stays
//! untouched by the chaos plumbing, and (d) the whole comparison is
//! bit-identical across reruns and rayon widths.

mod conformance;

use conformance::Conformance;
use venice_loadgen::scenarios::report;
use venice_loadgen::{engine, failover};

#[test]
fn elastic_failover_beats_static_through_a_node_crash() {
    let family = &failover::FAMILY;
    let runs = family.run(family.seed, family.requests);
    let get = |label: &str| report(&runs, label);
    for run in &runs {
        let (label, r) = (&run.label, &run.report);
        println!(
            "{label:18} p50 {:8.1}us p99 {:8.1}us shed {:6} (crash {:5}) failovers {:3} grows {:4} revokes {:3}",
            r.total.p50_us,
            r.total.p99_us,
            r.shed_total(),
            r.shed_crash,
            r.lease.failovers,
            r.lease.grows,
            r.lease.revokes,
        );
    }
    let stat = get("static-crash");
    let elas = get("elastic-failover");
    let clean = get("elastic-nofault");
    let storm = get("revoke-storm");

    // Every row sees the same traffic, and every request is accounted
    // for: the total conservation law holds under arbitrary fault plans.
    for run in &runs {
        let (label, r) = (&run.label, &run.report);
        assert_eq!(r.issued, stat.issued, "{label}: different traffic");
        assert_eq!(
            r.issued,
            r.completed + r.shed_total(),
            "{label}: requests leaked"
        );
    }

    // (a) The crash costs something on both crash rows, and the leases
    // touching the dead node really failed over on the elastic row.
    assert!(stat.shed_crash > 0, "static crash shed nothing");
    assert!(elas.shed_crash > 0, "elastic crash shed nothing");
    assert!(elas.lease.failovers > 0, "no lease failed over");
    assert_eq!(
        stat.lease.failovers, 0,
        "static provisioning has no manager to fail over"
    );
    // The storm kills three nodes at once: at least as many failovers,
    // and the armed donors really revoke under the simultaneous
    // pressure wave.
    assert!(storm.lease.failovers >= elas.lease.failovers);
    assert!(storm.shed_crash >= elas.shed_crash);
    assert!(storm.lease.revokes > 0, "no donor revoked under the storm");

    // (b) The headline: elastic failover holds a lower cluster p99
    // than static provisioning through the same outage.
    assert!(
        elas.total.p99_us < stat.total.p99_us,
        "elastic-failover p99 {:.1}us not below static-crash {:.1}us",
        elas.total.p99_us,
        stat.total.p99_us
    );

    // (c) The fault-free reference is genuinely fault-free.
    assert_eq!(clean.shed_crash, 0);
    assert_eq!(clean.lease.failovers, 0);
    // And the crash can only have hurt relative to it.
    assert!(elas.total.p99_us >= clean.total.p99_us);

    // (d) Same-seed, same-plan rerun is bit-identical.
    let again = engine::Run::new(&failover::elastic_config(failover::FAILOVER_SEED))
        .faults(failover::crash_plan())
        .execute()
        .report;
    assert_eq!(elas, &again);
}

/// The conformance dimension: the crash-plan run holds the byte
/// contract through every engine flavor (sequential reference, sharded
/// 2/4/8 — the fault path refuses sharding and falls back, which must
/// be byte-invisible). Scaled to 150k requests so the 3 s crash still
/// lands mid-run and the diff covers the chaos path, not just the
/// fault-free prefix.
#[test]
fn failover_run_holds_the_cross_engine_byte_contract() {
    let mut config = failover::elastic_config(failover::FAILOVER_SEED);
    config.requests = 150_000;
    let (report, _) = Conformance::new(&config)
        .faults(failover::crash_plan())
        .assert_engines_agree();
    assert!(report.shed_crash > 0, "the crash must land inside the run");
}

/// The rayon dimension: the failover comparison rerun at widths 1 and 8
/// byte-identical — chaos does not leak thread-count nondeterminism.
/// All env mutation lives in one test because the variable is
/// process-global; the workspace's rayon shim re-reads
/// `RAYON_NUM_THREADS` on every parallel call.
#[test]
fn failover_rows_are_identical_at_both_rayon_widths() {
    let mut per_width = Vec::new();
    for width in ["1", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", width);
        // 150k requests ≈ 3.8 s of traffic: the 3 s crash still lands
        // mid-run, so the diff covers the chaos path, not just the
        // fault-free prefix.
        per_width.push(failover::FAMILY.run(failover::FAILOVER_SEED, 150_000));
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(
        per_width[0], per_width[1],
        "failover rows depend on rayon width"
    );
}
