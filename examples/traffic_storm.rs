//! Drive the Venice cluster at production scale: a million-request,
//! multi-tenant traffic storm, plus an overload experiment showing
//! admission control and QPair backpressure.
//!
//! ```text
//! cargo run --release --example traffic_storm
//! ```

use venice_loadgen::{
    engine, scenarios, AdmissionConfig, ArrivalProcess, LoadgenConfig, TenantMix,
};

fn main() {
    // 1. The headline storm: >1M seeded requests across three tenant
    //    mixes on a 16-node mesh, each node's remote tier provisioned
    //    through the Monitor-Node borrow flow.
    println!("=== storm: three tenant mixes, >1M requests total ===\n");
    let start = std::time::Instant::now();
    let reports = scenarios::run_storm(0x5EED);
    for r in &reports {
        println!("{}", r.render());
    }
    let issued: u64 = reports.iter().map(|r| r.issued).sum();
    println!(
        "storm issued {issued} requests in {:.2?} wall-clock\n",
        start.elapsed()
    );

    // 2. Overload: 2 Mrps offered against a policed front door — watch
    //    the rate limiter and per-node credit backpressure engage.
    println!("=== overload: 2 Mrps against a 150 krps policer ===\n");
    let overload = LoadgenConfig {
        arrival: ArrivalProcess::OpenPoisson {
            rate_rps: 2_000_000.0,
        },
        requests: 200_000,
        admission: AdmissionConfig {
            rate_limit_rps: 150_000.0,
            burst: 512,
            max_inflight: 1024,
            backlog_per_node: 64,
        },
        ..LoadgenConfig::new(13, TenantMix::web_frontend())
    };
    let r = engine::Run::new(&overload).execute().report;
    println!("{}", r.render());
    println!(
        "policer shed {} of {} offered; {} credit waits at the QPairs",
        r.shed_total(),
        r.issued,
        r.credit_waits
    );
}
