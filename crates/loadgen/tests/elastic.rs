//! Acceptance: the elastic lease manager under flash-crowd traffic.
//!
//! The ISSUE 2 criteria, pinned: a bursty-arrival scenario where the
//! elastic run (a) borrows *and* releases capacity mid-run, (b) holds a
//! strictly lower peak of provisioned remote memory than the static
//! baseline, (c) ends with a p99 no worse than static, and (d) replays
//! bit-identically from the same seed.

use venice_lease::LeaseEventKind;
use venice_loadgen::scenarios::report;
use venice_loadgen::{elastic, engine};

#[test]
fn elastic_beats_static_on_peak_memory_at_no_worse_p99() {
    let family = &elastic::FAMILY;
    let runs = family.run(family.seed, family.requests);
    let get = |label: &str| report(&runs, label);
    let stat = get("venice-static");
    let elas = get("venice-elastic");
    for run in &runs {
        let (label, r) = (&run.label, &run.report);
        println!(
            "{label:15} p50 {:8.1}us p99 {:8.1}us peak {:5} MB mean {:5} MB grows {:3} shrinks {:3} denials {:2} shed {:5}",
            r.total.p50_us,
            r.total.p99_us,
            r.lease.peak_bytes >> 20,
            r.lease.mean_bytes >> 20,
            r.lease.grows,
            r.lease.shrinks,
            r.lease.denials,
            r.shed_total(),
        );
    }

    // (a) Capacity moved mid-run, in both directions.
    let grew_midrun = elas
        .lease
        .events
        .iter()
        .filter(|e| e.kind == LeaseEventKind::Grew && e.at.as_ns() > 0)
        .count();
    let shrank_midrun = elas
        .lease
        .events
        .iter()
        .filter(|e| e.kind == LeaseEventKind::Shrank)
        .count();
    assert!(grew_midrun > 0, "no mid-run borrow");
    assert!(shrank_midrun > 0, "no mid-run release");

    // (b) Peak provisioned remote memory strictly lower than static.
    assert!(
        elas.lease.peak_bytes < stat.lease.peak_bytes,
        "elastic peak {} MB not below static peak {} MB",
        elas.lease.peak_bytes >> 20,
        stat.lease.peak_bytes >> 20
    );
    // The mean is lower too (the whole point of elasticity).
    assert!(elas.lease.mean_bytes < stat.lease.mean_bytes);

    // (c) p99 no worse than the static baseline.
    assert!(
        elas.total.p99_us <= stat.total.p99_us,
        "elastic p99 {:.1}us worse than static {:.1}us",
        elas.total.p99_us,
        stat.total.p99_us
    );

    // (d) Same-seed replay is bit-identical, lease timeline included.
    let again = engine::Run::new(&elastic::elastic_config(elastic::ELASTIC_SEED))
        .execute()
        .report;
    assert_eq!(elas, &again);

    // The baseline stacks, fed the identical arrival stream, can only be
    // slower per miss: their mean latency sits above Venice's.
    for label in ["sonuma", "swap-ib", "swap-eth"] {
        let r = get(label);
        assert_eq!(r.issued, stat.issued, "{label}: different traffic");
        assert!(
            r.total.mean_us > stat.total.mean_us,
            "{label} mean {:.1}us not above venice-static {:.1}us",
            r.total.mean_us,
            stat.total.mean_us
        );
    }
}
