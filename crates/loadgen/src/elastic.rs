//! The `loadgen-elastic` figure family: static vs elastic provisioning
//! under a bursty flash-crowd arrival process.
//!
//! The scenario every capacity planner knows: traffic idles at a base
//! rate, then a flash crowd slams a few nodes for a fraction of each
//! cycle. **Static** provisioning must size every node for the worst
//! case and hold that memory for the whole run; **elastic** leases start
//! every node at a small floor, let the hot nodes borrow up beyond the
//! static level while the crowd lasts, and release back between bursts.
//! The figures compare the two Venice modes against the
//! `venice-baselines` stacks (soNUMA-style messaging, swap-to-remote)
//! under the *identical* arrival stream — same seed, same per-tenant
//! arrival split, only the remote tier swapped out.
//!
//! The headline property (pinned by `tests/elastic.rs`): the elastic run
//! holds a strictly lower peak of provisioned remote memory than the
//! static run *and* a p99 no worse, because capacity follows the crowd
//! instead of being spread uniformly.

use venice::{Figure, Series};
use venice_lease::LeaseConfig;
use venice_sim::Time;

use crate::engine::LoadgenConfig;
use crate::report::LoadReport;
use crate::scenarios::{Family, Row, RowRun, GATE_REQUESTS};
use crate::stacks::RemoteStack;
use crate::tenants::TenantMix;
use crate::ArrivalProcess;

/// Base seed of the published elastic figures.
pub const ELASTIC_SEED: u64 = 0xE1A57C;

/// The flash-crowd arrival process: 6 krps base load spiking to 90 krps
/// for 200 ms of every 500 ms cycle, with 85 % of in-burst arrivals
/// coming from a 4-user crowd (concentrating on 4 of the 8 nodes).
pub fn bursty_arrival() -> ArrivalProcess {
    ArrivalProcess::Bursty {
        base_rps: 6_000.0,
        burst_rps: 90_000.0,
        period: Time::from_ms(500),
        burst_len: Time::from_ms(200),
        crowd_users: 4,
        crowd_share: 0.85,
    }
}

/// The lease policy of the elastic run: 64 MB chunks between a 1-chunk
/// floor and a 6-chunk (384 MB) ceiling — hot nodes may grow *past* the
/// 256 MB static level, paid for by the cold nodes staying at the floor.
///
/// The establish flow costs ~33 ms per chunk (measured from the Fig 2
/// model), so the policy is tuned to ramp **once**: the release
/// cooldown (250 ticks) fits a 300 ms burst gap exactly once, meaning a
/// hot node sheds a single chunk between bursts and re-enters the next
/// burst still above the static level — it never pays the full ramp
/// again after the first burst identifies it. The high watermark (10)
/// sits far above the cold nodes' burst-time occupancy (~2.5), so
/// spillover traffic cannot ratchet cold nodes up over many cycles.
pub fn lease_policy() -> LeaseConfig {
    LeaseConfig {
        chunk_bytes: 64 << 20,
        min_chunks: 1,
        max_chunks: 6,
        high_watermark: 10,
        low_watermark: 3,
        grow_cooldown_ticks: 2,
        release_cooldown_ticks: 250,
        tick_interval: Time::from_ms(1),
        ..LeaseConfig::default()
    }
}

/// Requests per comparison run. Sized so the one cold-start ramp (the
/// ~35 ms window before the first burst's grows land, ~2.7 k affected
/// requests) stays well under 1 % of the run — the p99 then reflects
/// steady elastic behavior, not the unavoidable first identification
/// of the hot set.
const REQUESTS: u64 = 400_000;

/// A statically provisioned run (256 MB per node, held for the whole
/// run) on the given remote stack.
pub fn static_config(seed: u64, stack: RemoteStack) -> LoadgenConfig {
    LoadgenConfig {
        arrival: bursty_arrival(),
        requests: REQUESTS,
        stack,
        ..LoadgenConfig::new(seed, TenantMix::web_frontend())
    }
}

/// The elastic Venice run under the same traffic.
pub fn elastic_config(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        lease: Some(lease_policy()),
        ..static_config(seed, RemoteStack::VeniceCrma)
    }
}

/// The comparison set, in figure order.
fn rows(seed: u64) -> Vec<Row> {
    vec![
        (
            "venice-static".to_string(),
            static_config(seed, RemoteStack::VeniceCrma),
            None,
        ),
        ("venice-elastic".to_string(), elastic_config(seed), None),
        (
            "sonuma".to_string(),
            static_config(seed, RemoteStack::Sonuma),
            None,
        ),
        (
            "swap-ib".to_string(),
            static_config(seed, RemoteStack::SwapInfiniband),
            None,
        ),
        (
            "swap-eth".to_string(),
            static_config(seed, RemoteStack::SwapEthernet),
            None,
        ),
    ]
}

/// The `elastic` registry entry.
pub const FAMILY: Family = Family {
    id: "elastic",
    seed: ELASTIC_SEED,
    requests: REQUESTS,
    gate_requests: GATE_REQUESTS,
    rows,
    traced: false,
    figure_ids: &["loadgen-elastic-8n", "loadgen-elastic-timeline-8n"],
    build: figures,
};

/// The *minimum* cluster-wide borrowed memory (MB) within each of
/// `buckets` equal segments of the run, reconstructed from the lease
/// event timeline (static runs are flat at their provisioning level).
/// A minimum, not a point sample: the elastic tier's release dips are
/// short relative to the burst cycle, and point samples at bucket
/// boundaries can alias onto the re-grown phase and miss every dip.
fn provisioning_curve(report: &LoadReport, buckets: usize) -> Vec<f64> {
    let end = report.duration;
    let mut out = Vec::with_capacity(buckets);
    if report.lease.events.is_empty() {
        // Static: constant at the provisioned level.
        return vec![(report.lease.peak_bytes >> 20) as f64; buckets];
    }
    let mut idx = 0usize;
    let mut current = 0u64;
    // Setup-time (t = 0) bootstrap events establish the starting level;
    // they are provisioning, not mid-run movement.
    while idx < report.lease.events.len() && report.lease.events[idx].at == Time::ZERO {
        current = report.lease.events[idx].total_bytes_after;
        idx += 1;
    }
    for b in 1..=buckets {
        let t = end.scale(b as f64 / buckets as f64);
        let mut low = current;
        while idx < report.lease.events.len() && report.lease.events[idx].at <= t {
            current = report.lease.events[idx].total_bytes_after;
            low = low.min(current);
            idx += 1;
        }
        out.push((low >> 20) as f64);
    }
    out
}

/// The `loadgen-elastic` figures: a summary table and the provisioning
/// timeline showing capacity following the flash crowd mid-run.
fn figures(runs: &[RowRun]) -> Vec<Figure> {
    let mut summary = Figure::new(
        "loadgen-elastic-8n",
        "Static vs elastic provisioning under a flash crowd, 8-node mesh",
        "per-config summary: latency, provisioned remote memory, lease activity",
    )
    .with_columns(vec![
        "p50 ms".to_string(),
        "p99 ms".to_string(),
        "peak MB".to_string(),
        "mean MB".to_string(),
        "grows".to_string(),
        "shrinks".to_string(),
        "shed %".to_string(),
    ]);
    for run in runs {
        let (label, r) = (&run.label, &run.report);
        summary.add_measured(Series::new(
            label.clone(),
            vec![
                r.total.p50_us / 1_000.0,
                r.total.p99_us / 1_000.0,
                (r.lease.peak_bytes >> 20) as f64,
                (r.lease.mean_bytes >> 20) as f64,
                r.lease.grows as f64,
                r.lease.shrinks as f64,
                100.0 * r.shed_total() as f64 / r.issued.max(1) as f64,
            ],
        ));
    }
    summary.notes = "elastic leases follow the flash crowd: lower peak memory than static \
                     provisioning at a no-worse tail (no published reference)"
        .to_string();

    const BUCKETS: usize = 16;
    let mut timeline = Figure::new(
        "loadgen-elastic-timeline-8n",
        "Borrowed remote memory over the run (flash-crowd traffic)",
        "minimum cluster-wide borrowed MB within each of 16 equal run segments",
    )
    .with_columns((1..=BUCKETS).map(|b| format!("t{b}")).collect::<Vec<_>>());
    for run in runs {
        let (label, r) = (&run.label, &run.report);
        if label.starts_with("venice") {
            timeline.add_measured(Series::new(label.clone(), provisioning_curve(r, BUCKETS)));
        }
    }
    timeline.notes = "each segment's minimum sits below the elastic peak (the summary figure's \
                      'peak MB' column): hot nodes grow on each burst and release between \
                      bursts, while the static series never moves (no published reference)"
        .to_string();
    vec![summary, timeline]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_covers_all_stacks_and_modes() {
        let configs = rows(1);
        assert_eq!(configs.len(), 5);
        assert_eq!(
            configs.iter().filter(|(_, c, _)| c.lease.is_some()).count(),
            1,
            "exactly one elastic config"
        );
        let labels: Vec<&str> = configs.iter().map(|(l, _, _)| l.as_str()).collect();
        assert!(labels.contains(&"venice-static"));
        assert!(labels.contains(&"venice-elastic"));
        assert!(labels.contains(&"sonuma"));
    }

    #[test]
    fn provisioning_curve_tracks_events() {
        use venice_lease::{LeaseEvent, LeaseEventKind, Priority, NO_NODE, NO_TENANT};
        use venice_sim::Time;
        let mut r = engine_stub();
        r.duration = Time::from_ms(100);
        r.lease.events = vec![
            LeaseEvent {
                at: Time::from_ms(10),
                node: 0,
                donor: NO_NODE,
                kind: LeaseEventKind::Grew,
                chunks_after: 1,
                generation: 1,
                total_bytes_after: 128 << 20,
                tenant: NO_TENANT,
                tenant_bytes_after: 128 << 20,
                lessor: NO_TENANT,
                priority: Priority::Normal,
            },
            LeaseEvent {
                at: Time::from_ms(60),
                node: 0,
                donor: NO_NODE,
                kind: LeaseEventKind::Shrank,
                chunks_after: 0,
                generation: 1,
                total_bytes_after: 64 << 20,
                tenant: NO_TENANT,
                tenant_bytes_after: 64 << 20,
                lessor: NO_TENANT,
                priority: Priority::Normal,
            },
        ];
        let curve = provisioning_curve(&r, 10);
        // Bucket minima: the run starts empty (no setup events in this
        // synthetic timeline), holds 128 MB after the grow lands, and
        // dips to 64 MB in the bucket containing the release.
        assert_eq!(curve[0], 0.0); // (0,10ms]: entered empty
        assert_eq!(curve[1], 128.0); // held
        assert_eq!(curve[4], 128.0); // still held
        assert_eq!(curve[5], 64.0); // (50,60ms]: released
        assert_eq!(curve[9], 64.0);
    }

    fn engine_stub() -> LoadReport {
        let config = LoadgenConfig {
            requests: 200,
            ..LoadgenConfig::new(1, TenantMix::messaging())
        };
        crate::engine::Run::new(&config).execute().report
    }
}
