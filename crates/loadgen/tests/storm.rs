//! The acceptance storm: a seeded run sustaining more than one million
//! simulated requests across the three canonical tenant mixes, reporting
//! per-tenant tails and throughput, and replaying bit-identically — plus
//! thread-count independence of the rayon sweep.

use venice_loadgen::scenarios::report;
use venice_loadgen::sweep::{self, SweepSpec};
use venice_loadgen::{elastic, engine, scenarios, RemoteStack, TenantMix};

#[test]
fn storm_sustains_a_million_requests_across_three_mixes() {
    let reports = scenarios::run_storm(0xCAFE);
    assert!(reports.len() >= 3, "need at least three tenant mixes");
    let issued: u64 = reports.iter().map(|r| r.issued).sum();
    let completed: u64 = reports.iter().map(|r| r.completed).sum();
    assert!(issued >= 1_000_000, "storm issued only {issued} requests");
    assert!(
        completed as f64 >= issued as f64 * 0.95,
        "storm lost too many requests: {completed}/{issued}"
    );
    let mut names: Vec<&str> = reports.iter().map(|r| r.mix.as_str()).collect();
    names.dedup();
    assert_eq!(names.len(), reports.len(), "mixes must be distinct");
    for r in &reports {
        assert!(r.duration.as_secs_f64() > 0.5, "{}: run too short", r.mix);
        for t in &r.tenants {
            assert!(t.completed > 0, "{}/{}: no completions", r.mix, t.tenant);
            assert!(t.p50_us > 0.0, "{}/{}: missing p50", r.mix, t.tenant);
            assert!(
                t.p50_us <= t.p99_us + 1e-9,
                "{}/{}: p50 {} above p99 {}",
                r.mix,
                t.tenant,
                t.p50_us,
                t.p99_us
            );
            assert!(
                t.throughput_rps > 0.0,
                "{}/{}: missing throughput",
                r.mix,
                t.tenant
            );
        }
        // The borrowed remote tier was really provisioned through the
        // Monitor Node.
        assert!(r.remote_leases > 0, "{}: no remote leases", r.mix);
    }
}

#[test]
fn storm_replays_bit_identically() {
    let a = scenarios::run_storm(0xF00D);
    let b = scenarios::run_storm(0xF00D);
    assert_eq!(a, b);
    let c = scenarios::run_storm(0xF00E);
    assert_ne!(a, c);
}

#[test]
fn figures_are_thread_count_independent_at_any_rayon_width() {
    let spec = SweepSpec {
        seed: 31,
        meshes: vec![(2, 2, 1)],
        mixes: vec![TenantMix::web_frontend(), TenantMix::analytics()],
        rates_rps: vec![10_000.0, 60_000.0],
        stacks: vec![RemoteStack::VeniceCrma, RemoteStack::Sonuma],
        requests_per_point: 1_500,
    };
    // All env mutation lives inside this single test: the var is
    // process-global and mutating it from two concurrently running tests
    // would race (which is also why the elastic half below shares this
    // test instead of getting its own). Unlike upstream rayon's
    // initialize-once global pool, the workspace's rayon shim re-reads
    // RAYON_NUM_THREADS on every parallel call, so each set_var below
    // really does change the fan-out width of the next run.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single = sweep::figures(&spec, &scenarios::run_rows(spec.rows(), false));
    let elastic_single = elastic::FAMILY.run(7, 6_000);
    std::env::set_var("RAYON_NUM_THREADS", "8");
    let many = sweep::figures(&spec, &scenarios::run_rows(spec.rows(), false));
    let elastic_many = elastic::FAMILY.run(7, 6_000);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(single, many, "sweep output depends on thread count");
    assert!(!single.is_empty());
    // The elastic figure family runs five engine configurations under
    // rayon; the lease timelines inside each report must be bit-identical
    // at any thread count.
    assert_eq!(
        elastic_single, elastic_many,
        "elastic comparison depends on thread count"
    );
    // And a direct serial rerun of the elastic config matches the
    // rayon-run copy, lease events included.
    let mut config = elastic::elastic_config(7);
    config.requests = 6_000;
    let serial = engine::Run::new(&config).execute().report;
    assert_eq!(&serial, report(&elastic_many, "venice-elastic"));
    assert!(!serial.lease.events.is_empty());
}
