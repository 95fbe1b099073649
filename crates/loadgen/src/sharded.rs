//! The sharded parallel driver: per-node-group shards, each one the
//! sequential engine over the nodes it owns, fed by one shared arrival
//! tape.
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
//!  thread 0: shards 0, 2, ..: scan epoch k, run to its end -> fill -> barrier
//!  thread 1: shards 1, 3, ..: scan epoch k, run to its end -> fill -> barrier
//! ```
//!
//! * **The tape.** The stream is cut into epochs of [`EPOCH`]
//!   arrivals. Each [`TapeEntry`] holds an arrival's gap from its
//!   predecessor, its tenant class, its user and its home node. The
//!   tape is double buffered: while the shards scan epoch `k`, the
//!   threads fill epoch `k + 1` into the other buffer.
//! * **The stride split.** A Poisson arrival draws exactly
//!   [`ArrivalDraws::POISSON_WORDS`] engine-RNG words (the first draws
//!   no gap), so any chunk of the stream starts a known number of words
//!   in. Every thread keeps its own clone of the engine RNG: it steps
//!   over the chunks other threads fill with raw words and draws only
//!   its own. An epoch is [`CHUNKS`] chunks, claimed from one atomic
//!   counter by each thread once its shards have run the current epoch,
//!   so a thread with lighter shards fills more. A bursty arrival's
//!   word count depends on the burst phase of its instant, so thread 0
//!   fills bursty epochs whole, in order.
//! * **The scan.** A shard turns the gaps into instants with a running
//!   sum, keeps the arrivals routed to its own nodes, and steps its
//!   service stream over every other arrival's service draws
//!   ([`CompiledService::draws`](crate::tenants::CompiledService::draws))
//!   instead of sampling them. Its engine RNG and its service stream
//!   therefore see the sequential run's draws.
//! * **The pause.** An epoch ends at its last arrival's instant. A
//!   shard runs its kernel up to that instant and stops: every later
//!   arrival lands at or after it. At the next epoch it scans the new
//!   tape and resumes its arrival chain before it pops any event.
//! * **The barrier.** The shards run on `min(rayon::current_num_threads(),
//!   shards)` threads: the calling thread and scoped workers. Every
//!   thread advances its shards and claims chunks at every epoch, then
//!   waits on one [`Barrier`], so no count of threads can deadlock. The
//!   barrier also separates each buffer's writers from its readers, so
//!   the per-chunk locks never contend. Its waiters yield for about
//!   half a millisecond before they sleep, so the common short wait
//!   never pays a wake-up.
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
//! Validity is decided after the run: the driver re-runs the whole
//! configuration sequentially when any shard
//!
//! * **shed a request at admission.** Shards step over foreign service
//!   draws under an all-admitted assumption; the sequential engine
//!   skips the draws for a shed request, so one shed desynchronizes
//!   every later draw. (Backlog-overflow drops happen after the service
//!   draw and are *not* violations.)
//! * **stamped a same-node arrival/finish tie.** The sequential engine
//!   breaks the tie by global insertion order, which a shard cannot
//!   reconstruct; per-node stamps detect the tie in either firing
//!   order.
//!
//! Up to the first such event anywhere, every shard is exact, so the
//! shard holding it always reports it. The committed benchmark families
//! trip neither. [`ExecPath`] reports which path ran and why.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, RwLock, RwLockReadGuard};
use std::thread;

use venice_sim::Time;
use venice_telemetry::{NoopProbe, Probe};

use crate::arrival::{ArrivalDraws, ArrivalProcess};
use crate::engine::{
    run_full, summarize, validate, EngineMetrics, ExecPath, FallbackReason, IneligibleKind,
    LoadgenConfig, Shard,
};
use crate::faults::FaultPlan;
use crate::pipe::Drawer;
use crate::remote::RemoteModelCfg;
use crate::report::LoadReport;
use crate::trace::Trace;

/// Arrivals per tape epoch. Both buffers of 24-byte entries together
/// take under 100 KB, and a 350k-request run crosses 171 barriers.
const EPOCH: u64 = 2048;

/// Fill chunks per epoch: the unit a thread claims, so a thread whose
/// shards finish an epoch early fills more of the next one.
const CHUNKS: u64 = 8;

/// Why no lock here is ever poisoned: each is held only across a swap
/// or a counter update, which cannot panic.
const UNPOISONED: &str = "tape and barrier locks guard no panicking code";

/// One open-loop arrival, as drawn ahead: an entry of the shared tape,
/// and of the sequential engine's arrival pipe ([`crate::pipe`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeEntry {
    /// Gap from the previous arrival (zero for the first).
    pub(crate) gap: Time,
    pub(crate) user: u64,
    pub(crate) class: u32,
    /// The node the arrival routes to: its user's home node.
    pub(crate) node: u16,
}

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
        (
            !matches!(
                config.arrival,
                ArrivalProcess::OpenPoisson { .. } | ArrivalProcess::Bursty { .. }
            ),
            IneligibleKind::ClosedLoop,
        ),
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
/// with the shard count. Fails when the mesh cannot split or any
/// shard's run was not the sequential one ([`FallbackReason`]); the
/// caller then re-runs sequentially.
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
    let zipf = config.mix.user_sampler();
    let draws = ArrivalDraws::new(config, zipf.clone());
    let tape = Tape::new(config.requests, epoch);
    let epochs = tape.epochs();
    let barrier = Barrier::new(threads);
    // Thread `t` runs shards t, t + threads, ...: each builds its own
    // worlds, fills its share of the tape, and advances its shards.
    let work = |t: usize| {
        // A bursty arrival's word count depends on its instant, so only
        // thread 0 fills those, every chunk in order.
        let mut filler =
            (t == 0 || draws.fixed_stride()).then(|| Filler::new(draws.clone(), config.nodes()));
        let mut shards = Vec::new();
        let mut failure = None;
        guarded(&mut failure, || {
            shards = (t..width)
                .step_by(threads)
                .map(|i| {
                    (
                        i,
                        Shard::new(config, capture, zipf.clone(), groups[i].clone()),
                    )
                })
                .collect();
            tape.fill(0, filler.as_mut());
        });
        barrier.wait();
        for k in 0..epochs {
            guarded(&mut failure, || {
                let chunks = tape.read(k);
                let entries = chunks.iter().flat_map(|chunk| chunk.iter());
                for (_, shard) in &mut shards {
                    shard.advance(entries.clone());
                }
                drop(chunks);
                if k + 1 < epochs {
                    tape.fill(k + 1, filler.as_mut());
                }
            });
            barrier.wait();
        }
        if let Some(panic) = failure {
            panic::resume_unwind(panic);
        }
        shards
            .into_iter()
            .map(|(i, shard)| (i, shard.finish()))
            .collect::<Vec<_>>()
    };
    let mut finished = thread::scope(|scope| {
        // The calling thread is worker 0, so a 2-thread run spawns one
        // thread, not two, and the caller does not sit idle in `join`.
        let others: Vec<_> = (1..threads)
            .map(|t| {
                let work = &work;
                scope.spawn(move || work(t))
            })
            .collect();
        let mut finished = work(0);
        for worker in others {
            finished.extend(
                worker
                    .join()
                    .unwrap_or_else(|panic| panic::resume_unwind(panic)),
            );
        }
        finished
    });
    finished.sort_by_key(|&(i, _)| i);
    let worlds: Vec<_> = finished.into_iter().map(|(_, world)| world).collect();
    if let Some(reason) = worlds.iter().find_map(|(w, _)| w.violation()) {
        return Err(reason);
    }
    let (report, trace, metrics, NoopProbe) = summarize(config, worlds);
    Ok(((report, trace, metrics), width))
}

/// A barrier whose waiters yield the processor for a while before they
/// sleep. Epochs are short and their waits mostly shorter still. A
/// newly spawned worker can start on its caller's core (observed on a
/// 2-core VM); if the two then took turns sleeping at every barrier,
/// that core's run queue would never hold two tasks and the scheduler
/// would never move one to the idle core. Yielding keeps both runnable,
/// so the idle core pulls one, and it skips the wake-up a sleeper
/// needs. Sleeping after the spin keeps a long wait (a peer descheduled
/// by the host, more threads than cores) from burning a processor.
struct Barrier {
    threads: usize,
    /// Threads arrived in the current round.
    arrived: Mutex<usize>,
    /// The round number; it moves only under `arrived`'s lock.
    round: AtomicU64,
    woken: Condvar,
}

/// Yields before a waiter sleeps, here and in the arrival pipe's ring:
/// 0.5–0.7 ms on a 2-core VM, longer than a typical epoch's imbalance
/// between threads.
pub(crate) const SPINS: u32 = 2_000;

impl Barrier {
    fn new(threads: usize) -> Self {
        Barrier {
            threads,
            arrived: Mutex::new(0),
            round: AtomicU64::new(0),
            woken: Condvar::new(),
        }
    }

    /// Blocks until every thread has called `wait` for this round.
    /// Everything a thread wrote before its call happens before
    /// everything any thread does after the round: through the lock for
    /// a sleeper, and through the `round` store (`Release`) and load
    /// (`Acquire`) for a spinner.
    fn wait(&self) {
        let mut arrived = self.arrived.lock().expect(UNPOISONED);
        let round = self.round.load(Ordering::Relaxed);
        *arrived += 1;
        if *arrived == self.threads {
            *arrived = 0;
            self.round.store(round + 1, Ordering::Release);
            drop(arrived);
            self.woken.notify_all();
            return;
        }
        drop(arrived);
        for _ in 0..SPINS {
            if self.round.load(Ordering::Acquire) != round {
                return;
            }
            thread::yield_now();
        }
        let mut arrived = self.arrived.lock().expect(UNPOISONED);
        while self.round.load(Ordering::Relaxed) == round {
            arrived = self.woken.wait(arrived).expect(UNPOISONED);
        }
    }
}

/// Runs `step` unless an earlier step on this thread panicked, keeping
/// that panic for the end of the run: a thread must still reach every
/// barrier, or its peers would wait forever.
fn guarded(failure: &mut Option<Box<dyn Any + Send>>, step: impl FnOnce()) {
    if failure.is_none() {
        if let Err(panic) = panic::catch_unwind(AssertUnwindSafe(step)) {
            *failure = Some(panic);
        }
    }
}

/// The double-buffered arrival tape: epoch `k` lives in buffer `k % 2`,
/// cut into chunks that threads claim and fill in any order.
struct Tape {
    requests: u64,
    epoch: u64,
    /// Arrivals per chunk.
    chunk: u64,
    /// One lock per chunk. The barrier separates a buffer's writers
    /// from its readers, so no lock ever waits.
    buffers: [Vec<RwLock<Vec<TapeEntry>>>; 2],
    /// The next unclaimed chunk, numbered across epochs.
    next: AtomicU64,
}

impl Tape {
    fn new(requests: u64, epoch: u64) -> Self {
        let chunk = epoch.div_ceil(CHUNKS);
        let chunks = epoch.div_ceil(chunk) as usize;
        Tape {
            requests,
            epoch,
            chunk,
            buffers: [(); 2].map(|()| (0..chunks).map(|_| RwLock::default()).collect()),
            next: AtomicU64::new(0),
        }
    }

    fn epochs(&self) -> u64 {
        self.requests.div_ceil(self.epoch)
    }

    /// Claims and fills chunks of epoch `k` until none is left (a
    /// thread without a filler fills nothing).
    fn fill(&self, k: u64, filler: Option<&mut Filler>) {
        let Some(filler) = filler else {
            return;
        };
        let chunks = self.buffers[0].len() as u64;
        let end = (k + 1) * chunks;
        // The counter publishes no data: a chunk's entries reach its
        // readers through its lock and the barrier, so `Relaxed` does.
        while let Ok(ticket) = self
            .next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                (t < end).then_some(t + 1)
            })
        {
            let start = k * self.epoch + (ticket % chunks) * self.chunk;
            let stop = (start + self.chunk).min((k + 1) * self.epoch);
            let arrivals = start.min(self.requests)..stop.min(self.requests);
            let slot = &self.buffers[k as usize % 2][(ticket % chunks) as usize];
            // Drawing into a thread-private vector and swapping it in
            // keeps the push loop off the cache line the chunk's lock
            // shares with its neighbors.
            let mut chunk = std::mem::take(&mut filler.spare);
            filler.draw(arrivals, &mut chunk);
            filler.spare = std::mem::replace(&mut *slot.write().expect(UNPOISONED), chunk);
        }
    }

    /// Read access to every chunk of epoch `k`, in arrival order.
    fn read(&self, k: u64) -> Vec<RwLockReadGuard<'_, Vec<TapeEntry>>> {
        self.buffers[k as usize % 2]
            .iter()
            .map(|chunk| chunk.read().expect(UNPOISONED))
            .collect()
    }
}

/// One thread's share of filling the tape, or the whole of an arrival
/// pipe's stream.
pub(crate) struct Filler {
    /// This thread's own clone of the engine RNG and arrival constants.
    draws: ArrivalDraws,
    /// Running sum of the gaps this filler drew: the absolute instant of
    /// its last arrival when it draws every chunk (bursty), which the
    /// burst phase needs; Poisson draws never read it.
    clock: Time,
    /// The arrival the RNG clone stands at.
    next: u64,
    nodes: u64,
    /// The vector swapped out of the last chunk filled, reused for the
    /// next.
    spare: Vec<TapeEntry>,
}

impl Filler {
    /// A filler standing at the first arrival of `draws`' stream, routing
    /// users over `nodes` nodes.
    pub(crate) fn new(draws: ArrivalDraws, nodes: u16) -> Self {
        Filler {
            draws,
            clock: Time::ZERO,
            next: 0,
            nodes: u64::from(nodes),
            spare: Vec::new(),
        }
    }

    /// Draws `arrivals` into `out`, first stepping over the words of the
    /// arrivals other threads drew since this filler's last chunk.
    pub(crate) fn draw(&mut self, arrivals: Range<u64>, out: &mut Vec<TapeEntry>) {
        self.draws.skip(self.next..arrivals.start.max(self.next));
        out.clear();
        for i in arrivals.clone() {
            let gap = if i == 0 {
                Time::ZERO
            } else {
                self.draws.gap(self.clock)
            };
            self.clock = self
                .clock
                .checked_add(gap)
                .expect("simulated time overflow");
            let (class, user) = self.draws.request(self.clock);
            out.push(TapeEntry {
                gap,
                user,
                class: class as u32,
                // The home node, hashed as the engine's router hashes it.
                node: (user % self.nodes) as u16,
            });
        }
        self.next = self.next.max(arrivals.end);
    }
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
    fn closed_loop_is_ineligible() {
        let config = LoadgenConfig {
            arrival: ArrivalProcess::ClosedLoop {
                sessions: 64,
                think: Time::from_us(200),
            },
            // Leases too: the first coupling in kind order is reported.
            lease: Some(venice_lease::LeaseConfig::default()),
            ..small()
        };
        falls_back(|| Run::new(&config), IneligibleKind::ClosedLoop);
    }

    #[test]
    fn replay_is_ineligible() {
        let config = small();
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
