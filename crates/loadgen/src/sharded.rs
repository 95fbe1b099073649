//! The sharded parallel driver: per-node-group shards on rayon workers,
//! each one the sequential engine over the nodes it owns.
//!
//! # How a run shards
//!
//! Nodes interact with one another only through a handful of
//! mechanisms: elastic lease ticks (grants move bytes between arbitrary
//! donor/recipient pairs), the modeled congested fabric (every dispatch
//! reads shared per-link utilization windows), fault re-routing (a
//! crashed node's sessions bounce to survivors), and closed-loop /
//! replay arrival processes (one global arrival cursor). A
//! configuration that arms **none** of them has node groups that never
//! influence one another, which is exactly the committed `storm`
//! benchmark family (open-loop arrivals, static provisioning, scalar
//! remote model, no faults).
//!
//! Such a run splits its nodes into contiguous groups ([`partition`]),
//! and each rayon worker builds the sequential engine's
//! [`World`](crate::engine) over the whole mesh, owning one group, and
//! runs it to completion:
//!
//! * it draws the **whole** arrival stream in the engine's own RNG
//!   order (class, user, gap per arrival), so its draws are the
//!   sequential run's;
//! * it issues only the arrivals routed to its own nodes, through the
//!   engine's unchanged admission/dispatch/finish handlers — per-node
//!   state (admission, QPair credits, service slots, backlog) lives
//!   wholly inside the owning shard;
//! * for every other arrival it draws the service time the owning
//!   shard will draw, as if admitted, keeping the insulated service
//!   stream aligned.
//!
//! The shards merge once, in node order, through the engine's one
//! summarize path: per-class stats merge through commutative histogram
//! and counter sums, the trace concatenates and re-sorts by sequence
//! number, and the logical event count (`executed + fused`) counts each
//! owned arrival and completion exactly once. The result is
//! **byte-identical** to the sequential run at any shard count and any
//! thread count.
//!
//! # When a shard is not the sequential run
//!
//! Validity is decided after the run: the driver re-runs the whole
//! configuration sequentially when any shard
//!
//! * **shed a request at admission.** Shards draw foreign service times
//!   under an all-admitted assumption; the sequential engine skips the
//!   draw for a shed request, so one shed desynchronizes every later
//!   draw. (Backlog-overflow drops happen after the service draw and
//!   are *not* violations.)
//! * **stamped a same-node arrival/finish tie.** The sequential engine
//!   breaks the tie by global insertion order, which a shard cannot
//!   reconstruct; per-node stamps detect the tie in either firing
//!   order.
//!
//! Up to the first such event anywhere, every shard is exact, so the
//! shard holding it always reports it. The committed benchmark families
//! trip neither.

use std::ops::Range;

use rayon::prelude::*;
use venice_telemetry::{NoopProbe, Probe};

use crate::arrival::ArrivalProcess;
use crate::engine::{
    run_full, run_world, summarize, validate, EngineMetrics, LoadgenConfig, World,
};
use crate::faults::{FaultPlan, NoFaults};
use crate::remote::{RemoteModelCfg, ScalarCrma};
use crate::report::LoadReport;
use crate::trace::Trace;

/// Entry point behind [`Run::shards`](crate::engine::Run::shards):
/// runs the shards when the configuration's node groups are independent
/// and every shard stayed exact, and otherwise the sequential engine —
/// so the builder's output is byte-identical either way.
pub(crate) fn run_sharded_or_sequential<P: Probe>(
    config: &LoadgenConfig,
    replay_trace: Option<&Trace>,
    capture: bool,
    probe: P,
    faults: Option<FaultPlan>,
    shards: usize,
) -> (LoadReport, Option<Trace>, EngineMetrics, P) {
    // Replay and closed-loop runs drive arrivals through one global
    // cursor, probes observe the global event stream, fault plans
    // re-route sessions across node groups, lease ticks move memory
    // between any two nodes, and the congested fabric charges shared
    // links: each couples the node groups.
    let independent = matches!(
        config.arrival,
        ArrivalProcess::OpenPoisson { .. } | ArrivalProcess::Bursty { .. }
    ) && replay_trace.is_none()
        && faults.is_none()
        && !P::ENABLED
        && !P::ATTRIB
        && config.lease.is_none()
        && matches!(config.remote_model, RemoteModelCfg::Scalar);
    if independent {
        if let Some((report, trace, metrics)) = run_sharded(config, capture, shards) {
            return (report, trace, metrics, probe);
        }
    }
    run_full(config, replay_trace, capture, probe, faults)
}

/// Runs one shard per node group on rayon workers and merges them.
/// Returns `None` when the mesh cannot split or any shard's run was not
/// the sequential one ([`World::independent`]); the caller then re-runs
/// sequentially.
fn run_sharded(
    config: &LoadgenConfig,
    capture: bool,
    shards: usize,
) -> Option<(LoadReport, Option<Trace>, EngineMetrics)> {
    validate(config);
    let groups = partition(config.nodes(), shards);
    if groups.len() < 2 {
        return None;
    }
    let zipf = config.mix.user_sampler();
    let worlds: Vec<_> = groups
        .into_par_iter()
        .map(|owned| {
            let zipf = zipf.clone();
            let world = World::new(
                config, None, capture, NoopProbe, ScalarCrma, NoFaults, zipf, owned,
            );
            run_world(world)
        })
        .collect();
    if !worlds.iter().all(|(w, _)| w.independent()) {
        return None;
    }
    let (report, trace, metrics, NoopProbe) = summarize(config, worlds);
    Some((report, trace, metrics))
}

/// Splits node ids `0..nodes` into `shards` contiguous, near-even
/// ranges, earlier ranges taking the remainder. The split depends only
/// on `(nodes, shards)` — never on thread count or timing — so a
/// sharded run's work assignment is deterministic by construction.
///
/// `shards` is clamped to `1..=nodes`: asking for more shards than
/// nodes yields one node per shard, and zero shards means one.
fn partition(nodes: u16, shards: usize) -> Vec<Range<u16>> {
    let shards = shards.clamp(1, nodes as usize) as u16;
    let base = nodes / shards;
    let rem = nodes % shards;
    let mut out = Vec::with_capacity(shards as usize);
    let mut start = 0u16;
    for i in 0..shards {
        let len = base + u16::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, nodes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::engine::Run;
    use crate::tenants::TenantMix;
    use venice_sim::Time;

    // The storm family's shape (16-node mesh, 120 krps open loop) at a
    // test-sized request count: enough headroom that admission never
    // sheds, so the parallel path actually runs.
    fn storm_like(seed: u64, mix: TenantMix, requests: u64) -> LoadgenConfig {
        LoadgenConfig {
            mesh: (4, 2, 2),
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 120_000.0,
            },
            requests,
            ..LoadgenConfig::new(seed, mix)
        }
    }

    fn bytes(report: &LoadReport, trace: &Option<Trace>) -> (String, String) {
        (
            serde_json::to_string(report).expect("report serializes"),
            trace.as_ref().map(Trace::to_jsonl).unwrap_or_default(),
        )
    }

    #[test]
    fn sharded_run_is_byte_identical_to_sequential() {
        let poisson = storm_like(0x51AB, TenantMix::web_frontend(), 6_000);
        // Bursty arrivals draw the crowd user and the gap by the burst
        // phase of each arrival, foreign ones included.
        let bursty = LoadgenConfig {
            arrival: ArrivalProcess::Bursty {
                base_rps: 20_000.0,
                burst_rps: 150_000.0,
                period: Time::from_ms(20),
                burst_len: Time::from_ms(5),
                crowd_users: 4,
                crowd_share: 0.3,
            },
            ..poisson.clone()
        };
        for config in [poisson, bursty] {
            let seq = Run::new(&config).traced().execute();
            for shards in [2usize, 4, 8] {
                assert!(
                    run_sharded(&config, false, shards).is_some(),
                    "the parallel path must actually run, not fall back"
                );
                let out = Run::new(&config).traced().shards(shards).execute();
                assert_eq!(
                    bytes(&out.report, &out.trace),
                    bytes(&seq.report, &seq.trace),
                    "{shards} shards diverged"
                );
                assert_eq!(
                    out.metrics.events, seq.metrics.events,
                    "merged event count must equal the sequential count"
                );
            }
        }
    }

    #[test]
    fn every_storm_mix_runs_in_parallel_and_matches_sequential() {
        // The `storm-sharded` benchmark workload's rows at a test-sized
        // request count: each preset must take the parallel path, or the
        // benchmark would silently time the sequential engine.
        for mix in TenantMix::presets() {
            let name = mix.name.clone();
            let config = storm_like(0x5707, mix, 20_000);
            let seq = Run::new(&config).traced().execute();
            for shards in [2usize, 4] {
                let (report, trace, metrics) = run_sharded(&config, true, shards)
                    .unwrap_or_else(|| panic!("{name} fell back at {shards} shards"));
                assert_eq!(
                    bytes(&report, &trace),
                    bytes(&seq.report, &seq.trace),
                    "{name} diverged at {shards} shards"
                );
                assert_eq!(metrics.events, seq.metrics.events);
            }
        }
    }

    #[test]
    fn admission_pressure_falls_back_to_sequential_identically() {
        // A tiny in-flight cap forces admission sheds, which violate the
        // shards' all-admitted service draws: the builder must fall back
        // to the sequential engine and still match it byte for byte.
        let config = LoadgenConfig {
            admission: AdmissionConfig {
                max_inflight: 8,
                ..AdmissionConfig::default()
            },
            ..storm_like(0xFA11, TenantMix::web_frontend(), 4_000)
        };
        assert!(
            run_sharded(&config, false, 4).is_none(),
            "sheds must reject the parallel run"
        );
        let seq = Run::new(&config).traced().execute();
        assert!(seq.report.shed_overload > 0, "config must actually shed");
        let out = Run::new(&config).traced().shards(4).execute();
        assert_eq!(
            bytes(&out.report, &out.trace),
            bytes(&seq.report, &seq.trace)
        );
    }

    #[test]
    fn ineligible_configs_run_sequentially_through_the_builder() {
        // Elastic leases couple node groups at every tick; the builder
        // collapses to the sequential engine and output is unchanged.
        let config = LoadgenConfig {
            lease: Some(venice_lease::LeaseConfig::default()),
            ..storm_like(0xE1A5, TenantMix::web_frontend(), 3_000)
        };
        let seq = Run::new(&config).traced().execute();
        let out = Run::new(&config).traced().shards(8).execute();
        assert_eq!(
            bytes(&out.report, &out.trace),
            bytes(&seq.report, &seq.trace)
        );
    }

    #[test]
    fn shards_clamp_to_the_mesh() {
        // A 1-node mesh cannot split; the builder quietly runs the
        // sequential engine.
        let config = LoadgenConfig {
            mesh: (1, 1, 1),
            ..storm_like(0xC1A3, TenantMix::web_frontend(), 2_000)
        };
        let seq = Run::new(&config).execute();
        let out = Run::new(&config).shards(8).execute();
        assert_eq!(
            serde_json::to_string(&out.report).unwrap(),
            serde_json::to_string(&seq.report).unwrap()
        );
    }

    #[test]
    fn partition_is_contiguous_exhaustive_and_near_even() {
        for nodes in [1u16, 2, 7, 8, 16, 63] {
            for shards in [1usize, 2, 3, 4, 8, 100] {
                let ranges = partition(nodes, shards);
                assert_eq!(ranges.len(), shards.clamp(1, nodes as usize));
                // Contiguous and exhaustive.
                let mut next = 0u16;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, nodes);
                // Near-even: lengths differ by at most one.
                let lens: Vec<u16> = ranges.iter().map(|r| r.end - r.start).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "{nodes} nodes / {shards} shards: {lens:?}");
            }
        }
    }

    #[test]
    fn partition_clamps_degenerate_shard_counts() {
        assert_eq!(partition(4, 0), vec![0..4]);
        assert_eq!(partition(3, 8), vec![0..1, 1..2, 2..3]);
    }
}
