//! The sharded parallel driver: per-node-group shards, each one the
//! sequential engine over the nodes it owns, fed by one shared arrival
//! tape.
//!
//! # How a run shards
//!
//! Nodes interact with one another only through a handful of
//! mechanisms: elastic lease ticks (grants move bytes between arbitrary
//! donor/recipient pairs), the modeled congested fabric (every dispatch
//! reads shared per-link utilization windows) and fault re-routing (a
//! crashed node's requests bounce to survivors). A configuration that
//! arms **none** of them has node groups that never influence one
//! another, which is exactly the committed `storm` benchmark family
//! (static provisioning, scalar remote model, no faults). Replays run
//! sequentially too: this driver fills its tape only with freshly drawn
//! arrivals.
//!
//! Such a run splits its nodes into contiguous groups ([`partition`]).
//! Each group is a [`Shard`]: the sequential engine's world over the
//! whole mesh, owning one group, driven by the engine's unchanged
//! admission/dispatch/finish handlers. Per-node state (admission, QPair
//! credits, service slots, backlog) lives wholly inside the owning
//! shard. What the shards share is the arrival stream, and they share
//! it the way Venice nodes share a resource pool: it is produced once.
//!
//! ```text
//!             buffer k % 2: epoch k            buffer (k+1) % 2: epoch k+1
//!           +----+----+-- .. --+----+        +----+----+-- .. --+----+
//!  tape     | c0 | c1 |        | c7 |        | c0 | c1 |        | c7 |
//!           +----+----+-- .. --+----+        +----+----+-- .. --+----+
//!                 every chunk, in order               ^ claimed chunks
//!                        |                            |
//!  thread 0: shards 0, 2, ..: run epoch k to its end -> fill -> barrier
//!  thread 1: shards 1, 3, ..: run epoch k to its end -> fill -> barrier
//! ```
//!
//! * **The tape** ([`crate::tape`]). Each entry holds an arrival's gap
//!   from its predecessor, its tenant class, its user and its home node.
//!   While the shards run epoch `k`, the threads fill epoch `k + 1`.
//! * **The stride split.** A Poisson arrival draws exactly
//!   [`ArrivalDraws::POISSON_WORDS`] engine-RNG words (the first draws
//!   no gap), so any chunk of the stream starts a known number of words
//!   in. Every thread keeps its own clone of the engine RNG: it steps
//!   over the chunks other threads fill with raw words and draws only
//!   its own. An epoch is a handful of chunks, claimed from one atomic
//!   counter by each thread once its shards have run the current epoch,
//!   so a thread with lighter shards fills more. A bursty arrival's
//!   word count depends on the burst phase of its instant, so thread 0
//!   fills bursty epochs whole, in order.
//! * **The walk.** A shard runs the sequential world's arrival loop: it
//!   walks the tape, turning the gaps into instants with a running sum,
//!   and issues each arrival routed to its own nodes once its kernel has
//!   fired every event up to that instant, inclusive. It steps its
//!   service stream over every other arrival's service draws
//!   ([`CompiledService::draws`](crate::tenants::CompiledService::draws))
//!   instead of sampling them. Its engine RNG and its service stream
//!   therefore see the sequential run's draws, and its events fire in
//!   the sequential order: at any instant, every queued event before
//!   the arrival, an order a shard reads off its own nodes.
//! * **The pause.** A shard pauses when its handed tape runs out, and
//!   resumes the same loop on the next epoch: no event fires before the
//!   arrival loop reaches its instant, so nothing runs early.
//! * **The barrier.** The shards run on `min(rayon::current_num_threads(),
//!   shards)` threads: the calling thread and scoped workers. Every
//!   thread advances its shards and claims chunks at every epoch, then
//!   waits on one [`Barrier`], so no count of threads can deadlock.
//!
//! The shards merge once, in node order, through the engine's one
//! summarize path: per-class stats merge through commutative histogram
//! and counter sums, the trace concatenates and re-sorts by sequence
//! number, and the logical event count (`executed + fused`) counts each
//! owned arrival and completion exactly once. The result is
//! **byte-identical** to the sequential run at any shard count, thread
//! count and epoch length.
//!
//! # When a shard is not the sequential run
//!
//! A shard stops being the sequential run when it **sheds a request at
//! admission**. Shards step over foreign service draws under an
//! all-admitted assumption; the sequential engine skips the draws for a
//! shed request, so one shed desynchronizes every later draw.
//! (Backlog-overflow drops happen after the service draw and do not
//! count.)
//!
//! Up to the first shed anywhere, every shard is exact, so the shard
//! holding it always reports it. Each thread checks its shards after
//! every epoch; one that finds a shed stops and hangs up the barrier,
//! every thread stops at that round, and the driver re-runs the
//! configuration sequentially. The storm family never sheds at its
//! benchmark rates; the statically provisioned `elastic` rows do, and
//! fall back after the epoch of their first shed. [`ExecPath`] reports
//! which path ran and why.

use std::ops::Range;
use std::panic;
use std::thread;

use venice_telemetry::{NoopProbe, Probe};

use crate::arrival::ArrivalDraws;
use crate::engine::{
    run_full, summarize, validate, EngineMetrics, ExecPath, FallbackReason, IneligibleKind,
    LoadgenConfig, Shard,
};
use crate::faults::FaultPlan;
use crate::remote::RemoteModelCfg;
use crate::report::LoadReport;
use crate::tape::{Barrier, Drawer, Filler, HangUpOnDrop, Stream, Tape, EPOCH};
use crate::trace::Trace;

/// A run's report, trace and loop counters.
type Output = (LoadReport, Option<Trace>, EngineMetrics);

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
) -> ((LoadReport, Option<Trace>, EngineMetrics, P), ExecPath) {
    // Each condition couples the node groups (see `IneligibleKind`);
    // the first that holds, in declaration order, is the reason.
    let coupling = [
        (replay_trace.is_some(), IneligibleKind::Replay),
        (faults.is_some(), IneligibleKind::Faults),
        (P::ENABLED || P::ATTRIB, IneligibleKind::Probe),
        (config.lease.is_some(), IneligibleKind::Leases),
        (
            !matches!(config.remote_model, RemoteModelCfg::Scalar),
            IneligibleKind::CongestedFabric,
        ),
    ]
    .into_iter()
    .find_map(|(coupled, kind)| coupled.then_some(kind));
    let reason = match coupling {
        Some(kind) => FallbackReason::Ineligible(kind),
        None => match run_sharded(config, capture, shards, EPOCH, rayon::current_num_threads()) {
            Ok(((report, trace, metrics), width)) => {
                return ((report, trace, metrics, probe), ExecPath::Sharded { width })
            }
            Err(reason) => reason,
        },
    };
    let drawer = Drawer::for_run(config.requests);
    let out = run_full(config, replay_trace, capture, probe, faults, drawer);
    (out, ExecPath::Fallback { reason })
}

/// Runs one shard per node group on at most `threads` threads,
/// feeding them a tape of `epoch` arrivals per epoch, and merges them
/// with the shard count. Fails when the mesh cannot split or a shard
/// stopped being the sequential run ([`FallbackReason`]); the caller
/// then re-runs sequentially.
fn run_sharded(
    config: &LoadgenConfig,
    capture: bool,
    shards: usize,
    epoch: u64,
    threads: usize,
) -> Result<(Output, usize), FallbackReason> {
    validate(config);
    let groups = partition(config.nodes(), shards);
    let width = groups.len();
    if width < 2 {
        return Err(FallbackReason::Ineligible(IneligibleKind::SingleGroup));
    }
    let threads = threads.clamp(1, width);
    let draws = ArrivalDraws::new(config);
    let tape = Tape::new(config.requests, epoch);
    let epochs = tape.epochs();
    let barrier = Barrier::new(threads);
    // Thread `t` runs shards t, t + threads, ...: each builds its own
    // worlds, fills its share of the tape, and advances its shards.
    let mut finished = lockstep(threads, &barrier, |t| {
        // A bursty arrival's word count depends on its instant, so only
        // thread 0 fills those, every chunk in order.
        let mut filler = (t == 0 || draws.fixed_stride())
            .then(|| Filler::new(Stream::Drawn(draws.clone()), config.nodes()));
        let mut shards: Vec<_> = (t..width)
            .step_by(threads)
            .map(|i| (i, Shard::new(config, capture, groups[i].clone())))
            .collect();
        tape.fill(0, filler.as_mut());
        for k in 0..epochs {
            if barrier.wait().is_err() {
                break;
            }
            let chunks = tape.read(k);
            for (_, shard) in &mut shards {
                shard.advance(&chunks, k + 1 == epochs);
            }
            drop(chunks);
            if shards.iter().any(|(_, shard)| shard.violation().is_some()) {
                break;
            }
            if k + 1 < epochs {
                tape.fill(k + 1, filler.as_mut());
            }
        }
        shards
    });
    finished.sort_by_key(|&(i, _)| i);
    if let Some(reason) = finished.iter().find_map(|(_, shard)| shard.violation()) {
        return Err(reason);
    }
    let worlds = finished
        .into_iter()
        .map(|(_, shard)| shard.finish())
        .collect();
    let (report, trace, metrics, NoopProbe) = summarize(config, worlds);
    Ok(((report, trace, metrics), width))
}

/// Runs `work(t)` for every thread `t < threads` and concatenates what
/// they return, in thread order. The calling thread is thread 0, so a
/// 2-thread run spawns one thread, not two, and the caller does not sit
/// idle in `join`. A thread that stops early, by returning or by
/// unwinding, hangs up `barrier`, so its peers stop at the same round
/// instead of waiting for it; the first panic in thread order then
/// surfaces with its own payload.
fn lockstep<T: Send>(
    threads: usize,
    barrier: &Barrier,
    work: impl Fn(usize) -> Vec<T> + Sync,
) -> Vec<T> {
    let work = |t| {
        let _stop = HangUpOnDrop(barrier);
        work(t)
    };
    thread::scope(|scope| {
        let others: Vec<_> = (1..threads)
            .map(|t| {
                let work = &work;
                scope.spawn(move || work(t))
            })
            .collect();
        let mut all = work(0);
        for worker in others {
            all.extend(
                worker
                    .join()
                    .unwrap_or_else(|panic| panic::resume_unwind(panic)),
            );
        }
        all
    })
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
    use venice_sim::Time;

    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::arrival::ArrivalProcess;
    use crate::engine::Run;
    use crate::tape::panic_message;
    use crate::tenants::TenantMix;

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

    fn bursty(config: &LoadgenConfig) -> LoadgenConfig {
        // Bursty arrivals draw the crowd user and the gap by the burst
        // phase of each arrival, so one thread fills their epochs whole.
        LoadgenConfig {
            arrival: ArrivalProcess::Bursty {
                base_rps: 20_000.0,
                burst_rps: 150_000.0,
                period: Time::from_ms(20),
                burst_len: Time::from_ms(5),
                crowd_users: 4,
                crowd_share: 0.3,
            },
            ..config.clone()
        }
    }

    #[test]
    fn sharded_run_is_byte_identical_to_sequential() {
        let poisson = storm_like(0x51AB, TenantMix::web_frontend(), 6_000);
        let bursty = bursty(&poisson);
        for config in [poisson, bursty] {
            let seq = Run::new(&config).traced().execute();
            assert_eq!(seq.exec_path, ExecPath::Sequential);
            for shards in [2usize, 4, 8] {
                let out = Run::new(&config).traced().shards(shards).execute();
                assert_eq!(
                    out.exec_path,
                    ExecPath::Sharded { width: shards },
                    "the parallel path must actually run, not fall back"
                );
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
    fn epoch_length_and_thread_count_change_nothing() {
        // Short epochs put arrivals on every epoch boundary, leave shards
        // with no owned arrival in many epochs, and leave threads with
        // no chunk to fill; three threads split no width evenly.
        let poisson = storm_like(0xE90C, TenantMix::analytics(), 1_500);
        let bursty = bursty(&poisson);
        for config in [poisson, bursty] {
            let seq = Run::new(&config).traced().execute();
            for epoch in [1u64, 2, 3, 7] {
                for shards in [2usize, 3, 8] {
                    for threads in [1usize, 2, 3] {
                        let ((report, trace, metrics), width) =
                            run_sharded(&config, true, shards, epoch, threads)
                                .expect("the parallel path runs");
                        assert_eq!(width, shards);
                        let at = format!("epoch {epoch}, {shards} shards, {threads} threads");
                        assert_eq!(
                            bytes(&report, &trace),
                            bytes(&seq.report, &seq.trace),
                            "{at}: bytes diverged"
                        );
                        assert_eq!(metrics.events, seq.metrics.events, "{at}: events");
                    }
                }
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
                let out = Run::new(&config).traced().shards(shards).execute();
                assert_eq!(
                    out.exec_path,
                    ExecPath::Sharded { width: shards },
                    "{name} fell back at {shards} shards"
                );
                assert_eq!(
                    bytes(&out.report, &out.trace),
                    bytes(&seq.report, &seq.trace),
                    "{name} diverged at {shards} shards"
                );
                assert_eq!(out.metrics.events, seq.metrics.events);
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
        let seq = Run::new(&config).traced().execute();
        assert!(seq.report.shed_overload > 0, "config must actually shed");
        let out = Run::new(&config).traced().shards(4).execute();
        assert_eq!(
            out.exec_path,
            ExecPath::Fallback {
                reason: FallbackReason::Shed
            },
            "sheds must reject the parallel run"
        );
        assert_eq!(
            bytes(&out.report, &out.trace),
            bytes(&seq.report, &seq.trace)
        );
    }

    /// Runs `run` sequentially and at 4 shards: the sharded request must
    /// fall back for `kind` and still match the sequential bytes.
    fn falls_back<'c, 't, P: Probe>(run: impl Fn() -> Run<'c, 't, P>, kind: IneligibleKind) {
        let seq = run().traced().execute();
        let out = run().traced().shards(4).execute();
        assert_eq!(
            out.exec_path,
            ExecPath::Fallback {
                reason: FallbackReason::Ineligible(kind)
            }
        );
        assert_eq!(
            bytes(&out.report, &out.trace),
            bytes(&seq.report, &seq.trace)
        );
    }

    fn small() -> LoadgenConfig {
        storm_like(0xE1A5, TenantMix::web_frontend(), 2_000)
    }

    #[test]
    fn replay_is_ineligible() {
        let config = LoadgenConfig {
            // Leases too: the first coupling in kind order is reported.
            lease: Some(venice_lease::LeaseConfig::default()),
            ..small()
        };
        let trace = Run::new(&config).traced().execute().trace.unwrap();
        falls_back(|| Run::new(&config).replay(&trace), IneligibleKind::Replay);
    }

    #[test]
    fn faults_are_ineligible() {
        let config = small();
        let plan = FaultPlan::new(vec![crate::faults::FaultEvent::NodeCrash {
            node: 1,
            at: Time::from_ms(5),
            recover_at: Time::from_ms(10),
        }]);
        falls_back(
            || Run::new(&config).faults(plan.clone()),
            IneligibleKind::Faults,
        );
    }

    #[test]
    fn probes_are_ineligible() {
        let config = small();
        falls_back(
            || Run::new(&config).recording(Time::from_ms(1), 64),
            IneligibleKind::Probe,
        );
    }

    #[test]
    fn ineligible_configs_run_sequentially_through_the_builder() {
        // Elastic leases couple node groups at every tick; the builder
        // collapses to the sequential engine and output is unchanged.
        let config = LoadgenConfig {
            lease: Some(venice_lease::LeaseConfig::default()),
            ..small()
        };
        falls_back(|| Run::new(&config), IneligibleKind::Leases);
    }

    #[test]
    fn congested_fabric_is_ineligible() {
        let link = venice_fabric::LinkParams::venice_prototype();
        let params = crate::remote::FabricParams::from_link(
            link,
            Time::from_ms(1),
            crate::remote::PlacementPolicy::ScalarPriced,
        );
        let config = LoadgenConfig {
            remote_model: RemoteModelCfg::Congested(params),
            ..small()
        };
        falls_back(|| Run::new(&config), IneligibleKind::CongestedFabric);
    }

    #[test]
    fn shards_clamp_to_the_mesh() {
        // A 1-node mesh cannot split; the builder quietly runs the
        // sequential engine.
        let config = LoadgenConfig {
            mesh: (1, 1, 1),
            ..small()
        };
        falls_back(|| Run::new(&config), IneligibleKind::SingleGroup);
    }

    #[test]
    fn every_registry_row_takes_its_pinned_path_at_two_shards() {
        // The statically provisioned elastic rows shed at admission, so
        // their shards stop being the sequential run; every other
        // family but the storm arms leases or a fault plan.
        let shedding = ["venice-static", "sonuma", "swap-ib", "swap-eth"];
        for family in crate::scenarios::FAMILIES {
            for (label, config, plan) in family.rows_at(family.seed, family.gate_requests) {
                let mut run = Run::new(&config).shards(2);
                if let Some(plan) = plan {
                    run = run.faults(plan);
                }
                let path = run.execute().exec_path;
                let at = format!("{}/{label}: {path:?}", family.id);
                if family.id == "storm" {
                    assert_eq!(path, ExecPath::Sharded { width: 2 }, "{at}");
                } else if shedding.contains(&label.as_str()) {
                    let reason = FallbackReason::Shed;
                    assert_eq!(path, ExecPath::Fallback { reason }, "{at}");
                } else {
                    assert!(
                        matches!(
                            path,
                            ExecPath::Fallback {
                                reason: FallbackReason::Ineligible(
                                    IneligibleKind::Leases | IneligibleKind::Faults
                                )
                            }
                        ),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_panic_on_a_spawned_shard_thread_surfaces_without_hanging() {
        // Thread 2 fails mid-run while threads 0 and 1 wait for it at the
        // barrier, and also once both have gone to sleep there.
        for (failing_round, asleep) in [(3u32, 0usize), (5, 2)] {
            let barrier = Barrier::new(3);
            let outcome = panic::catch_unwind(|| {
                lockstep(3, &barrier, |t| {
                    for round in 0..20u32 {
                        if t == 2 && round == failing_round {
                            while barrier.sleepers() < asleep {
                                thread::yield_now();
                            }
                            panic!("shard thread {t} failed");
                        }
                        if barrier.wait().is_err() {
                            return vec![round];
                        }
                    }
                    vec![20]
                })
            });
            let panic = outcome.expect_err("the panic surfaces");
            assert_eq!(panic_message(panic), "shard thread 2 failed");
        }
    }

    #[test]
    fn a_panic_in_a_sharded_run_surfaces_at_every_thread_count() {
        // A mean gap of 4,000 s overflows the picosecond clock after
        // about 4,600 arrivals, in the third epoch, on every shard.
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: 2.5e-4 },
            ..storm_like(0x0F11, TenantMix::web_frontend(), 5 * EPOCH)
        };
        for threads in [1usize, 2, 3] {
            let outcome = panic::catch_unwind(|| run_sharded(&config, false, 4, EPOCH, threads));
            let panic = outcome.expect_err("the clock overflows");
            assert_eq!(panic_message(panic), "simulated time overflow", "{threads}");
        }
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
