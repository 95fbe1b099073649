//! Characterization of the lease and fault control plane.
//!
//! A handful of small configurations that, between them, drive every
//! arm of the control plane: mid-run grows (reactive and predictive),
//! market subleases, shrinks, donor revokes (granted and denied),
//! crash failovers of visible grants, grants lost mid-establish and
//! mid-teardown, the static-provisioning crash purge, and the
//! re-establish after a failover.
//!
//! Each configuration runs through the cross-engine conformance driver
//! and pins a 64-bit FNV-1a hash of its fingerprint (report JSON plus
//! trace JSONL). The hashes were recorded before the control plane
//! left the request engine; a refactor that keeps them keeps every
//! decision, draw and ledger call in sequence. A recording-probe rerun
//! then checks, from the lease timeline and the lifecycle spans, that
//! each arm the configuration is meant to drive really fired.

mod conformance;

use conformance::{fingerprint, Conformance};
use venice_lease::LeaseEventKind;
use venice_loadgen::trace::fnv1a;
use venice_loadgen::{
    economy, elastic_v2, engine, failover, FaultEvent, FaultPlan, LoadReport, LoadgenConfig,
    RemoteStack,
};
use venice_sim::Time;
use venice_telemetry::{Span, SpanKind};

/// One characterized run: its report and every lifecycle span the
/// recording probe saw (closed and still open).
struct Observed {
    report: LoadReport,
    spans: Vec<Span>,
    crashes: Vec<Time>,
}

impl Observed {
    fn events(&self, kind: LeaseEventKind) -> impl Iterator<Item = &venice_lease::LeaseEvent> {
        self.report
            .lease
            .events
            .iter()
            .filter(move |e| e.kind == kind)
    }

    fn spans(&self, kind: SpanKind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// A grant written off (`FailedOver`) whose `kind` span on the same
    /// node and generation closed at the write-off instant.
    fn failed_over_after(&self, kind: SpanKind) -> bool {
        self.events(LeaseEventKind::FailedOver).any(|e| {
            self.spans(kind)
                .any(|s| s.node == e.node && s.generation == e.generation && s.end == Some(e.at))
        })
    }
}

/// Runs `config` (under `plan`) through the conformance driver, checks
/// its fingerprint hash against `want`, and reruns it under a recording
/// probe for the arm checks.
fn characterize(config: &LoadgenConfig, plan: Option<FaultPlan>, want: u64) -> Observed {
    let mut check = Conformance::new(config);
    if let Some(plan) = &plan {
        check = check.faults(plan.clone());
    }
    let (report, trace) = check.assert_engines_agree();
    let got = fnv1a(fingerprint(&report, Some(&trace)).as_bytes());
    let mut run = engine::Run::new(config).recording(Time::from_ms(50), 16);
    let crashes = plan
        .iter()
        .flat_map(|p| p.events())
        .filter_map(|e| match *e {
            FaultEvent::NodeCrash { at, .. } => Some(at),
            _ => None,
        })
        .collect();
    if let Some(plan) = plan {
        run = run.faults(plan);
    }
    let out = run.execute();
    assert_eq!(out.report, report, "the probe perturbed the run");
    let mut spans: Vec<Span> = out.probe.spans().closed().iter().map(|&(_, s)| s).collect();
    spans.extend(out.probe.spans().open_spans());
    assert_eq!(got, want, "fingerprint hash {got:#018x} moved");
    Observed {
        report,
        spans,
        crashes,
    }
}

/// The elastic flash crowd's requests, scaled so a run covers a few
/// 500 ms burst cycles.
const REQUESTS: u64 = 40_000;

/// A crash of `node` at `at_ms`, rebooting `down_ms` later.
fn crash(node: u16, at_ms: u64, down_ms: u64) -> FaultEvent {
    FaultEvent::NodeCrash {
        node,
        at: Time::from_ms(at_ms),
        recover_at: Time::from_ms(at_ms + down_ms),
    }
}

#[test]
fn economy_market_row() {
    let config = LoadgenConfig {
        requests: REQUESTS,
        ..economy::market_config(economy::ECONOMY_SEED)
    };
    let o = characterize(&config, None, 0x29fe_7dc6_10bb_aeee);
    assert!(
        o.events(LeaseEventKind::Grew).any(|e| e.at > Time::ZERO),
        "no mid-run grow"
    );
    assert!(
        o.events(LeaseEventKind::Subleased).count() > 0,
        "no sublease"
    );
}

#[test]
fn elastic_v2_donor_reclaim_row() {
    let config = LoadgenConfig {
        requests: REQUESTS,
        ..elastic_v2::donor_config(elastic_v2::V2_SEED)
    };
    let o = characterize(&config, None, 0x7edd_cee6_bdcc_4574);
    assert!(
        o.events(LeaseEventKind::GrewPredictive).count() > 0,
        "no predictive grow"
    );
    assert!(o.events(LeaseEventKind::Shrank).count() > 0, "no shrink");
    assert!(o.events(LeaseEventKind::Revoked).count() > 0, "no revoke");
    assert!(
        o.events(LeaseEventKind::RevokeDenied).count() > 0,
        "no revoke denial"
    );
    assert!(
        o.spans(SpanKind::Teardown).any(|s| s.end.is_some()),
        "no teardown landed"
    );
}

#[test]
fn failover_crash_rows() {
    let plan = FaultPlan::new(vec![crash(failover::CRASHED_NODE, 600, 300)]);
    let elastic = LoadgenConfig {
        requests: REQUESTS,
        ..failover::elastic_config(failover::FAILOVER_SEED)
    };
    let o = characterize(&elastic, Some(plan.clone()), 0x6c45_5c1a_20fa_e56e);
    assert!(
        o.events(LeaseEventKind::FailedOver)
            .any(|e| o.crashes.contains(&e.at)),
        "no visible grant failed over at the crash"
    );
    assert!(
        o.spans(SpanKind::Failover).any(|s| s.end.is_some()),
        "no replacement landed after a failover"
    );

    let stat = LoadgenConfig {
        requests: REQUESTS,
        ..failover::static_config(failover::FAILOVER_SEED)
    };
    assert_eq!(stat.stack, RemoteStack::VeniceCrma);
    let o = characterize(&stat, Some(plan), 0x0a76_7b1a_6b27_8762);
    // The crash purged the dead node's grants, and static provisioning
    // never re-borrows them: fewer nodes end the run holding a tier.
    assert!(
        o.report.lease.grows < u64::from(o.report.nodes),
        "static crash purged nothing"
    );
}

#[test]
fn revoke_storm_row() {
    let plan = FaultPlan::new((0..3).map(|node| crash(node, 600, 300)).collect());
    let config = LoadgenConfig {
        requests: REQUESTS,
        ..failover::storm_config(failover::FAILOVER_SEED)
    };
    let o = characterize(&config, Some(plan), 0x3b71_f961_76db_a324);
    assert!(
        o.events(LeaseEventKind::Revoked).count() > 0,
        "no revoke under the storm"
    );
    assert!(
        o.events(LeaseEventKind::FailedOver).count() > 0,
        "no failover under the storm"
    );
    // Three donors die at once, stranding grants still in their
    // establish flow.
    assert!(
        o.failed_over_after(SpanKind::Establish),
        "no grant lost mid-establish"
    );
}

#[test]
fn crash_into_a_revoke_teardown() {
    let config = LoadgenConfig {
        requests: REQUESTS,
        ..elastic_v2::donor_config(elastic_v2::V2_SEED)
    };
    // The donor-reclaim row revokes a chunk from node 0 at 62 ms and
    // its 25 ms teardown lands at 87 ms: crashing node 0 at 70 ms
    // strands that teardown against a dead recipient.
    let plan = FaultPlan::new(vec![crash(0, 70, 300)]);
    let o = characterize(&config, Some(plan), 0xec0c_91ab_0eb2_6828);
    assert!(
        o.failed_over_after(SpanKind::Teardown),
        "no grant lost mid-teardown"
    );
}

/// A crashed node borrows nothing while it is down: no grow, predictive
/// grow or sublease is confirmed for it, and no establish flow starts on
/// it, between its crash and its reboot. Its floor comes back through
/// the first lease tick after the reboot.
#[test]
fn a_crashed_recipient_stops_borrowing() {
    let (crash_at, recover_at) = (Time::from_ms(600), Time::from_ms(900));
    let node = failover::CRASHED_NODE;
    let config = LoadgenConfig {
        requests: REQUESTS,
        ..failover::elastic_config(failover::FAILOVER_SEED)
    };
    let out = engine::Run::new(&config)
        .recording(Time::from_ms(50), 16)
        .faults(FaultPlan::new(vec![crash(node, 600, 300)]))
        .execute();
    let down = |at: Time| at >= crash_at && at < recover_at;
    let grown: Vec<_> = out
        .report
        .lease
        .events
        .iter()
        .filter(|e| e.node == node && e.kind.opens_chunk() && down(e.at))
        .collect();
    assert!(grown.is_empty(), "the dead node borrowed: {grown:?}");
    let spans = out.probe.spans();
    let establishing: Vec<Span> = spans
        .closed()
        .iter()
        .map(|&(_, s)| s)
        .chain(spans.open_spans())
        .filter(|s| s.kind == SpanKind::Establish && s.node == node && down(s.start))
        .collect();
    assert!(
        establishing.is_empty(),
        "establish flows started on the dead node: {establishing:?}"
    );
    // The reboot restores the floor through the ordinary tick.
    assert!(
        out.report
            .lease
            .events
            .iter()
            .any(|e| e.node == node && e.kind.opens_chunk() && e.at >= recover_at),
        "the rebooted node never re-grew"
    );
}
