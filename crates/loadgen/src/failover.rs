//! The `loadgen-failover-8n` figure family: surviving a mid-run node
//! crash under a flash crowd.
//!
//! The chaos question the elastic family never asks: what happens when
//! a node fail-stops *while the crowd is on it*? The scenario reuses
//! the elastic family's bursty arrival ([`crate::elastic::bursty_arrival`])
//! and crashes one node 40 % into the run, recovering it at 70 %. Every
//! row sees the identical traffic and the identical fault plan — only
//! the remote tier's response differs:
//!
//! * **static-crash** — static provisioning. The dead node's leases are
//!   purged from the ledger and the cluster runs degraded until the
//!   node reboots; nothing re-provisions.
//! * **elastic-failover** — elastic leases. Grants touching the dead
//!   node fail over: surviving recipients immediately re-borrow on a
//!   live donor (paying the modeled establish latency), and the crowd's
//!   capacity follows the reroute.
//! * **elastic-nofault** — the same elastic run with no fault plan, the
//!   reference ceiling.
//! * **revoke-storm** — elastic leases with donor-pressure reclaim
//!   armed, under a three-node simultaneous crash: every surviving
//!   donor absorbs the failover wave at once, hits its pressure
//!   watermark, and revokes mid-storm — failover, re-grow, and reclaim
//!   all running against each other.
//!
//! The headline property (pinned by `tests/failover.rs`): the elastic
//! run's cluster p99 stays below the static run's *through* the crash —
//! failover re-provisions the crowd's capacity while static stays
//! degraded.

use venice::{Figure, Series};
use venice_sim::Time;

use crate::elastic;
use crate::engine::LoadgenConfig;
use crate::faults::{FaultEvent, FaultPlan};
use crate::scenarios::{Family, Row, RowRun};
use crate::stacks::RemoteStack;

/// Base seed of the published failover figures.
pub const FAILOVER_SEED: u64 = 0xFA170E;

/// Requests per comparison run: ~7.6 s of the elastic family's bursty
/// traffic, so the 3 s crash instant lands mid-run with bursts on both
/// sides of the outage.
const REQUESTS: u64 = 300_000;

/// The node the single-crash rows kill. Node 0 serves part of the flash
/// crowd (crowd users hash onto the low node ids of the 8-node mesh)
/// and holds a lease in every provisioning mode.
pub const CRASHED_NODE: u16 = 0;

/// The single-crash fault plan: [`CRASHED_NODE`] fail-stops at 3.1 s —
/// 100 ms *into* a flash-crowd burst (the 500 ms cycles put bursts at
/// [3.0 s, 3.2 s)), when its backlog and service slots are full — and
/// reboots at 5.5 s.
pub fn crash_plan() -> FaultPlan {
    FaultPlan::new(vec![FaultEvent::NodeCrash {
        node: CRASHED_NODE,
        at: Time::from_ms(3_100),
        recover_at: Time::from_ms(5_500),
    }])
}

/// The revoke-storm fault plan: nodes 0, 1, and 2 fail-stop at the same
/// instant, so every failed-over lease lands on the surviving donors at
/// once and donor pressure spikes cluster-wide.
pub fn storm_plan() -> FaultPlan {
    FaultPlan::new(
        (0..3u16)
            .map(|node| FaultEvent::NodeCrash {
                node,
                at: Time::from_ms(3_100),
                recover_at: Time::from_ms(5_500),
            })
            .collect(),
    )
}

/// The static run the crash rows degrade: the elastic family's static
/// Venice configuration at the failover request count.
pub fn static_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        requests: REQUESTS,
        ..elastic::static_config(seed, RemoteStack::VeniceCrma)
    }
}

/// The elastic run under the same traffic.
pub fn elastic_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        requests: REQUESTS,
        ..elastic::elastic_config(seed)
    }
}

/// The revoke-storm run: the elastic configuration with donor-pressure
/// reclaim armed, so when the three-node crash dumps every failed-over
/// lease onto the surviving donors at once, the pressured donors pull
/// chunks back mid-storm instead of riding it out.
pub fn storm_config(seed: u64) -> LoadgenConfig {
    let mut config = elastic_config(seed);
    let lease = config.lease.as_mut().expect("elastic config has a policy");
    lease.donor_high_watermark = 14;
    lease.revoke_cooldown_ticks = 60;
    config
}

/// The comparison set, in figure order.
fn rows(seed: u64) -> Vec<Row> {
    vec![
        (
            "static-crash".to_string(),
            static_config(seed),
            Some(crash_plan()),
        ),
        (
            "elastic-failover".to_string(),
            elastic_config(seed),
            Some(crash_plan()),
        ),
        ("elastic-nofault".to_string(), elastic_config(seed), None),
        (
            "revoke-storm".to_string(),
            storm_config(seed),
            Some(storm_plan()),
        ),
    ]
}

/// The `failover` registry entry. The gate runs 150k requests
/// (≈ 3.8 s of traffic) so the 3.1 s crash still lands mid-run and the
/// diff covers the chaos suffix, not just the fault-free prefix.
pub const FAMILY: Family = Family {
    id: "failover",
    seed: FAILOVER_SEED,
    requests: REQUESTS,
    gate_requests: 150_000,
    rows,
    traced: false,
    figure_ids: &["loadgen-failover-8n"],
    build: figures,
};

/// The `loadgen-failover-8n` figure: per-row latency, loss, and lease
/// recovery activity through the crash.
fn figures(runs: &[RowRun]) -> Vec<Figure> {
    let mut fig = Figure::new(
        "loadgen-failover-8n",
        "Flash crowd through a mid-run node crash, 8-node mesh",
        "per-config summary: latency through the outage, crash losses, failover activity",
    )
    .with_columns(vec![
        "p50 ms".to_string(),
        "p99 ms".to_string(),
        "shed %".to_string(),
        "crash sheds".to_string(),
        "failovers".to_string(),
        "grows".to_string(),
        "revokes".to_string(),
    ]);
    for run in runs {
        let (label, r) = (&run.label, &run.report);
        fig.add_measured(Series::new(
            label.clone(),
            vec![
                r.total.p50_us / 1_000.0,
                r.total.p99_us / 1_000.0,
                100.0 * r.shed_total() as f64 / r.issued.max(1) as f64,
                r.shed_crash as f64,
                r.lease.failovers as f64,
                r.lease.grows as f64,
                r.lease.revokes as f64,
            ],
        ));
    }
    fig.notes = "identical traffic and fault schedule per row: elastic failover re-borrows \
                 the dead node's leases on surviving donors and holds a lower cluster p99 \
                 than static provisioning through the outage; the revoke-storm row crashes \
                 three nodes at once to drive simultaneous donor pressure (no published \
                 reference)"
        .to_string();
    vec![fig]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_covers_the_advertised_rows() {
        let configs = rows(1);
        assert_eq!(configs.len(), 4);
        let labels: Vec<&str> = configs.iter().map(|(l, _, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "static-crash",
                "elastic-failover",
                "elastic-nofault",
                "revoke-storm"
            ]
        );
        // Exactly one fault-free reference row.
        assert_eq!(configs.iter().filter(|(_, _, p)| p.is_none()).count(), 1);
        // The storm really is simultaneous.
        let storm = storm_plan();
        assert_eq!(storm.crash_count(), 3);
    }

    #[test]
    fn crash_plan_lands_mid_run() {
        let plan = crash_plan();
        let [FaultEvent::NodeCrash {
            node,
            at,
            recover_at,
        }] = plan.events()[..]
        else {
            panic!("single-crash plan grew extra events");
        };
        assert_eq!(node, CRASHED_NODE);
        assert!(at > Time::ZERO && recover_at > at);
    }
}
