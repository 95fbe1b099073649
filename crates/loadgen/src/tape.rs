//! The arrival tape: the one way a drawn or replayed arrival reaches a
//! world.
//!
//! A [`Filler`] draws a run's arrivals, or copies a trace's
//! records, onto a [`Tape`] of [`TapeEntry`]s cut into epochs of
//! [`EPOCH`] arrivals and each epoch into [`Chunk`]s. The tape is double
//! buffered, so epoch `k + 1` can be filled while worlds read epoch `k`,
//! and one [`Barrier`] round separates each epoch's writers from its
//! readers. A world holds shared handles to the chunks it was handed and
//! its arrival loop walks them one entry per arrival, running the kernel
//! up to each arrival's instant before it issues it, so the reads of
//! lines another core wrote hide between events.
//!
//! ```text
//!  simulation thread: barrier -> walk the chunks of epoch k, one per arrival -> barrier
//!  producer thread:   barrier -> fill epoch k+1 into buffer (k+1) % 2 -------> barrier
//! ```
//!
//! * **Sequential runs** ([`drive`]) take chunks from a [`Reader`],
//!   inside the arrival loop, once their handed chunks run out, so a
//!   world takes each next arrival at the same moment whoever fills the
//!   tape; [`Drawer::for_run`] picks who fills it. A sharded run's
//!   threads fill one tape and hand each shard every epoch
//!   ([`crate::sharded`]); a shard's loop pauses when its epoch runs
//!   out.
//! * **Replays** copy each record with the gap from the previous
//!   arrival's instant, never negative: a record out of order arrives at
//!   once, as the engine always replayed it.
//! * **Failures.** A thread that stops early hangs up the barrier, and
//!   every peer stops at the same round instead of waiting forever. A
//!   producer keeps its panic for the simulation thread to resume.
//!
//! The arrival stream has an RNG stream of its own that no simulated
//! node reads, so filling it ahead cannot change the event order: every
//! report, trace and event count is byte-identical whoever fills it.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use venice_sim::Time;

use crate::arrival::ArrivalDraws;
use crate::trace::RequestRecord;

/// Arrivals per tape epoch. Both buffers of 24-byte entries together
/// take under 100 KB, and a 350k-request run crosses 171 barriers.
pub(crate) const EPOCH: u64 = 2048;

/// Fill chunks per epoch: the unit a thread claims, so a sharded thread
/// whose shards finish an epoch early fills more of the next one.
const CHUNKS: u64 = 8;

/// Yields before a barrier waiter sleeps: 0.5–0.7 ms on a 2-core VM,
/// longer than a typical epoch's imbalance between threads.
const SPINS: u32 = 2_000;

/// Why no lock here is ever poisoned: each is held only across a swap
/// or a counter update, which cannot panic.
const UNPOISONED: &str = "tape and barrier locks guard no panicking code";

/// One arrival, as drawn or recorded ahead: an entry of the tape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeEntry {
    /// Gap from the previous arrival (for the first, from time zero).
    pub(crate) gap: Time,
    pub(crate) user: u64,
    pub(crate) class: u32,
    /// The node the arrival routes to: its user's home node.
    pub(crate) node: u16,
}

/// Who fills a sequential run's tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Drawer {
    /// The simulation thread, one epoch whenever it runs out.
    Inline,
    /// A scoped producer thread, one epoch ahead.
    Producer,
}

impl Drawer {
    /// The producer when a run of `requests` arrivals spans more than one
    /// epoch, the rayon pool has a second thread, and the caller is not a
    /// rayon worker (sweeps and figure families already run one row per
    /// worker); otherwise the simulation thread.
    pub(crate) fn for_run(requests: u64) -> Drawer {
        if requests > EPOCH
            && rayon::current_num_threads() >= 2
            && rayon::current_thread_index().is_none()
        {
            Drawer::Producer
        } else {
            Drawer::Inline
        }
    }
}

/// One chunk of the tape: a run of consecutive arrivals.
#[derive(Debug, Default)]
pub(crate) struct Chunk {
    pub(crate) entries: Vec<TapeEntry>,
}

/// The double-buffered arrival tape: epoch `k` lives in buffer `k % 2`,
/// cut into chunks that threads claim and fill in any order.
pub(crate) struct Tape {
    requests: u64,
    epoch: u64,
    /// Arrivals per chunk.
    chunk: u64,
    /// One slot per chunk, which a filler swaps a chunk into and a world
    /// takes a shared handle from. The barrier separates a buffer's
    /// writers from its readers, so no lock ever waits.
    buffers: [Vec<Mutex<Arc<Chunk>>>; 2],
    /// The next unclaimed chunk, numbered across epochs.
    next: AtomicU64,
}

impl Tape {
    /// A tape of `requests` arrivals in epochs of `epoch`.
    pub(crate) fn new(requests: u64, epoch: u64) -> Self {
        let chunk = epoch.div_ceil(CHUNKS);
        let chunks = epoch.div_ceil(chunk) as usize;
        Tape {
            requests,
            epoch,
            chunk,
            buffers: [(); 2].map(|()| (0..chunks).map(|_| Mutex::default()).collect()),
            next: AtomicU64::new(0),
        }
    }

    pub(crate) fn epochs(&self) -> u64 {
        self.requests.div_ceil(self.epoch)
    }

    /// Claims and fills chunks of epoch `k` until none is left (a
    /// thread without a filler fills nothing).
    pub(crate) fn fill(&self, k: u64, filler: Option<&mut Filler<'_>>) {
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
            // The spare is the chunk this filler swapped out last. A world
            // still holding it keeps it; the filler then starts a new one.
            let mut chunk = match filler.spare.take() {
                Some(spare) if Arc::strong_count(&spare) == 1 => spare,
                _ => Arc::new(Chunk {
                    entries: Vec::with_capacity(self.chunk as usize),
                }),
            };
            let unshared = Arc::get_mut(&mut chunk).expect("only this filler holds it");
            filler.draw(arrivals, unshared);
            let mut slot = slot.lock().expect(UNPOISONED);
            filler.spare = Some(std::mem::replace(&mut *slot, chunk));
        }
    }

    /// Every chunk of epoch `k`, in arrival order.
    pub(crate) fn read(&self, k: u64) -> Vec<Arc<Chunk>> {
        (0..self.buffers[0].len())
            .map(|c| self.read_chunk(k, c))
            .collect()
    }

    /// Chunk `c` of epoch `k`.
    fn read_chunk(&self, k: u64, c: usize) -> Arc<Chunk> {
        Arc::clone(&self.buffers[k as usize % 2][c].lock().expect(UNPOISONED))
    }
}

/// What a [`Filler`] copies onto the tape.
pub(crate) enum Stream<'t> {
    /// Fresh arrivals from a clone of the engine RNG.
    Drawn(ArrivalDraws),
    /// A recorded trace's arrivals, in record order.
    Replayed(&'t [RequestRecord]),
}

/// One thread's share of filling the tape, or all of it.
pub(crate) struct Filler<'t> {
    stream: Stream<'t>,
    /// Running sum of the gaps this filler wrote: the absolute instant of
    /// its last arrival when it fills every chunk, which a bursty draw's
    /// phase and a record's gap need; Poisson draws never read it.
    clock: Time,
    /// The arrival the stream stands at.
    next: u64,
    nodes: u64,
    /// The chunk swapped out of the last slot filled, reused for the
    /// next.
    spare: Option<Arc<Chunk>>,
}

impl<'t> Filler<'t> {
    /// A filler standing at the first arrival of `stream`, routing users
    /// over `nodes` nodes.
    pub(crate) fn new(stream: Stream<'t>, nodes: u16) -> Self {
        Filler {
            stream,
            clock: Time::ZERO,
            next: 0,
            nodes: u64::from(nodes),
            spare: None,
        }
    }

    /// Fills `chunk` with `arrivals`, first stepping over the arrivals
    /// other threads filled since this filler's last chunk.
    pub(crate) fn draw(&mut self, arrivals: Range<u64>, chunk: &mut Chunk) {
        let skipped = self.next..arrivals.start.max(self.next);
        self.next = self.next.max(arrivals.end);
        let out = &mut chunk.entries;
        out.clear();
        let nodes = self.nodes;
        // The home node, hashed as the engine's router hashes it.
        let entry = |gap, class, user: u64| TapeEntry {
            gap,
            user,
            class,
            node: (user % nodes) as u16,
        };
        match &mut self.stream {
            Stream::Drawn(draws) => {
                draws.skip(skipped);
                for i in arrivals {
                    let gap = if i == 0 {
                        Time::ZERO
                    } else {
                        draws.gap(self.clock)
                    };
                    let at = self.clock.checked_add(gap);
                    self.clock = at.expect("simulated time overflow");
                    let (class, user) = draws.request(self.clock);
                    out.push(entry(gap, class as u32, user));
                }
            }
            Stream::Replayed(records) => {
                let at = |i: u64| Time::from_ns(records[i as usize].at_ns);
                debug_assert!(skipped.is_empty(), "one filler copies a whole trace");
                for i in arrivals {
                    let gap = at(i).saturating_sub(self.clock);
                    self.clock = self.clock.max(at(i));
                    let rec = &records[i as usize];
                    out.push(entry(gap, rec.tenant, rec.user));
                }
            }
        }
    }
}

/// A barrier whose waiters yield the processor for a while before they
/// sleep, and which any thread can hang up.
///
/// A newly spawned thread can start on its caller's core (observed on a
/// 2-core VM); if the two took turns sleeping at every round, the
/// scheduler would never move one to the idle core. Yielding keeps both
/// runnable and skips the wake-up a sleeper needs; sleeping after the
/// spin keeps a long wait from burning a processor. A thread notifies
/// only when someone sleeps, so the common round makes no system call.
pub(crate) struct Barrier {
    threads: usize,
    state: Mutex<Round>,
    /// The round number; it moves only under `state`'s lock.
    round: AtomicU64,
    woken: Condvar,
}

/// A barrier's bookkeeping, under its lock.
#[derive(Debug, Default)]
struct Round {
    /// Threads arrived in the current round.
    arrived: usize,
    /// Threads asleep on the condition variable.
    sleepers: usize,
    /// Set once a thread stopped early.
    hung_up: bool,
}

/// The barrier was hung up: a peer stopped before this round.
#[derive(Debug)]
pub(crate) struct HungUp;

impl Barrier {
    pub(crate) fn new(threads: usize) -> Self {
        Barrier {
            threads,
            state: Mutex::default(),
            round: AtomicU64::new(0),
            woken: Condvar::new(),
        }
    }

    /// Blocks until every thread has called `wait` for this round, and
    /// returns whether this thread arrived before the last one. Fails,
    /// without joining the round, once the barrier is hung up: the flag
    /// is read under the lock a thread arrives under, so either the
    /// round completes for every thread or it completes for none.
    ///
    /// Everything a thread wrote before its call happens before
    /// everything any thread does after the round: through the lock for
    /// a sleeper, and through the `round` store (`Release`) and load
    /// (`Acquire`) for a spinner.
    pub(crate) fn wait(&self) -> Result<bool, HungUp> {
        let mut state = self.state.lock().expect(UNPOISONED);
        if state.hung_up {
            return Err(HungUp);
        }
        let round = self.round.load(Ordering::Relaxed);
        state.arrived += 1;
        if state.arrived == self.threads {
            state.arrived = 0;
            self.round.store(round + 1, Ordering::Release);
            self.notify(state);
            return Ok(false);
        }
        drop(state);
        for _ in 0..SPINS {
            if self.round.load(Ordering::Acquire) != round {
                return Ok(true);
            }
            thread::yield_now();
        }
        let mut state = self.state.lock().expect(UNPOISONED);
        state.sleepers += 1;
        while self.round.load(Ordering::Relaxed) == round && !state.hung_up {
            state = self.woken.wait(state).expect(UNPOISONED);
        }
        state.sleepers -= 1;
        if self.round.load(Ordering::Relaxed) == round {
            Err(HungUp)
        } else {
            Ok(true)
        }
    }

    /// Stops the barrier: every wait from now on fails, and so does every
    /// wait still short of its round. Never panics, so a thread can call
    /// it while unwinding.
    pub(crate) fn hang_up(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.hung_up = true;
        self.notify(state);
    }

    /// Threads asleep on the barrier now.
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> usize {
        self.state.lock().expect(UNPOISONED).sleepers
    }

    /// Releases `state`'s lock and wakes the sleepers, if any. A sleeper
    /// counts itself under the lock and holds it until its wait releases
    /// it, so one counted here is already waiting when notified.
    fn notify(&self, state: MutexGuard<'_, Round>) {
        let sleepers = state.sleepers;
        drop(state);
        if sleepers > 0 {
            self.woken.notify_all();
        }
    }
}

/// Hangs its barrier up when dropped. A thread that returns normally has
/// passed every round it takes part in, so only one that stops early, by
/// returning or unwinding, stops a peer.
pub(crate) struct HangUpOnDrop<'b>(pub(crate) &'b Barrier);

impl Drop for HangUpOnDrop<'_> {
    fn drop(&mut self) {
        self.0.hang_up();
    }
}

/// A sequential world's end of the tape: hands out each epoch, chunk by
/// chunk, after the barrier round that publishes it, filling it first
/// when no producer does. Hangs the barrier up when dropped, so a
/// producer never waits for a simulation thread that stopped.
pub(crate) struct Reader<'a> {
    tape: &'a Tape,
    barrier: HangUpOnDrop<'a>,
    /// The producer's panic, kept for the simulation thread.
    failure: &'a Mutex<Option<Box<dyn Any + Send>>>,
    /// The simulation thread's own filler when no producer draws.
    filler: Option<Filler<'a>>,
    /// Epochs past the barrier; the last of them is being read.
    epochs: u64,
    /// The next chunk of that epoch to read.
    chunk: usize,
    /// Epochs the simulation thread reached the barrier before the
    /// producer had filled them.
    pub(crate) waits: u64,
}

impl<'a> Reader<'a> {
    /// The next chunk of the stream, in arrival order. Past an epoch's
    /// last chunk, this fills or waits for the next epoch first; the
    /// caller has released the chunks it held of the epoch before.
    ///
    /// # Panics
    ///
    /// Panics past the run's last arrival, and with the producer's panic
    /// if the producer stopped before filling the next epoch.
    pub(crate) fn next_chunk(&mut self) -> Arc<Chunk> {
        if self.chunk == self.tape.buffers[0].len() {
            let k = self.epochs;
            assert!(k < self.tape.epochs(), "read past the run's last arrival");
            self.tape.fill(k, self.filler.as_mut());
            match self.barrier.0.wait() {
                Ok(waited) => self.waits += u64::from(waited),
                Err(HungUp) => {
                    // Only the producer hangs up while this side still reads.
                    let panic = self.failure.lock().expect(UNPOISONED).take();
                    panic::resume_unwind(
                        panic.expect("a producer that stops early left its panic"),
                    );
                }
            }
            self.epochs += 1;
            self.chunk = 0;
        }
        self.chunk += 1;
        self.tape.read_chunk(self.epochs - 1, self.chunk - 1)
    }

    /// Arrivals on the tape: the run's request count.
    pub(crate) fn requests(&self) -> u64 {
        self.tape.requests
    }

    /// Whether a producer thread fills the tape.
    pub(crate) fn pipelined(&self) -> bool {
        self.filler.is_none()
    }
}

/// Runs `body` with the tape reader of a sequential run of `requests`
/// arrivals, filled by `filler` on the thread `drawer` names. A producer
/// thread is scoped to the call: it has stopped by the time this returns
/// or unwinds.
pub(crate) fn drive<R>(
    filler: Filler<'_>,
    requests: u64,
    drawer: Drawer,
    body: impl for<'s> FnOnce(Reader<'s>) -> R,
) -> R {
    let tape = Tape::new(requests, EPOCH);
    let failure = Mutex::new(None);
    let reader = |barrier, filler| Reader {
        tape: &tape,
        barrier: HangUpOnDrop(barrier),
        failure: &failure,
        filler,
        epochs: 0,
        chunk: tape.buffers[0].len(),
        waits: 0,
    };
    match drawer {
        Drawer::Inline => body(reader(&Barrier::new(1), Some(filler))),
        Drawer::Producer => {
            let barrier = Barrier::new(2);
            thread::scope(|scope| {
                // The producer fills every epoch one round ahead of the
                // simulation thread, and keeps a panic for it instead of
                // unwinding into the scope.
                scope.spawn(|| {
                    let mut filler = filler;
                    let fill = AssertUnwindSafe(|| {
                        (0..tape.epochs()).try_for_each(|k| {
                            tape.fill(k, Some(&mut filler));
                            barrier.wait().map(drop)
                        })
                    });
                    if let Err(panic) = panic::catch_unwind(fill) {
                        *failure.lock().expect(UNPOISONED) = Some(panic);
                        barrier.hang_up();
                    }
                });
                body(reader(&barrier, None))
            })
        }
    }
}

/// The message a panic carried, or an empty string.
#[cfg(test)]
pub(crate) fn panic_message(panic: Box<dyn Any + Send>) -> String {
    match panic.downcast::<String>() {
        Ok(text) => *text,
        Err(panic) => panic
            .downcast::<&str>()
            .map(|text| text.to_string())
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use rayon::prelude::*;
    use venice_telemetry::{
        export_attrib_jsonl, export_jsonl, AttribProbe, NoopProbe, Probe, RecordingProbe,
    };

    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::engine::{run_full, EngineMetrics, LoadgenConfig, Run};
    use crate::report::LoadReport;
    use crate::telemetry::{tenant_labels, EVENT_KIND_LABELS};
    use crate::tenants::TenantMix;
    use crate::trace::Trace;

    /// Request counts around the edges of every arrival feed the engine
    /// has had (256-arrival blocks, a ring of four, epochs), and a run of
    /// many epochs.
    const COUNTS: [u64; 11] = [
        1,
        255,
        256,
        257,
        1023,
        1024,
        1025,
        EPOCH - 1,
        EPOCH,
        EPOCH + 1,
        5 * EPOCH + 7,
    ];

    fn poisson(seed: u64, requests: u64) -> LoadgenConfig {
        LoadgenConfig {
            requests,
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        }
    }

    fn bursty(seed: u64, requests: u64) -> LoadgenConfig {
        LoadgenConfig {
            arrival: ArrivalProcess::Bursty {
                base_rps: 20_000.0,
                burst_rps: 150_000.0,
                period: Time::from_ms(20),
                burst_len: Time::from_ms(5),
                crowd_users: 4,
                crowd_share: 0.3,
            },
            ..poisson(seed, requests)
        }
    }

    type Bytes = (String, String, u64, u64);

    /// Report JSON, trace JSONL, logical events and fused arrivals.
    fn bytes(report: &LoadReport, trace: &Option<Trace>, metrics: &EngineMetrics) -> Bytes {
        (
            serde_json::to_string(report).expect("report serializes"),
            trace.as_ref().map(Trace::to_jsonl).unwrap_or_default(),
            metrics.events,
            metrics.fused_arrivals,
        )
    }

    /// A traced run of `config` under `probe` with its arrivals drawn by
    /// `drawer`, checking the metrics name that drawer.
    fn run<P: Probe>(config: &LoadgenConfig, probe: P, drawer: Drawer) -> (Bytes, P) {
        let (report, trace, metrics, probe) = run_full(config, None, true, probe, None, drawer);
        assert_eq!(metrics.tape_producer, drawer == Drawer::Producer);
        if drawer == Drawer::Inline {
            assert_eq!(metrics.tape_epoch_waits, 0);
        }
        (bytes(&report, &trace, &metrics), probe)
    }

    #[test]
    fn piped_and_inline_runs_are_identical() {
        for requests in COUNTS {
            for config in [poisson(0x919E, requests), bursty(0x919E, requests)] {
                let (inline, _) = run(&config, NoopProbe, Drawer::Inline);
                let (piped, _) = run(&config, NoopProbe, Drawer::Producer);
                assert_eq!(piped, inline, "{requests} requests, {:?}", config.arrival);
                // The builder picks a drawer from the rayon pool; its bytes
                // are the same either way.
                let out = Run::new(&config).traced().execute();
                assert_eq!(bytes(&out.report, &out.trace, &out.metrics), inline);
            }
        }
    }

    #[test]
    fn probed_piped_and_inline_runs_are_identical() {
        let tick = Time::from_ms(5);
        for config in [poisson(0x9B0E, 3_000), bursty(0x9B0E, 3_000)] {
            let recorded = |drawer| {
                let (bytes, probe) = run(&config, RecordingProbe::new(tick, 256), drawer);
                let jsonl = export_jsonl("tape", config.seed, &probe, &EVENT_KIND_LABELS);
                (bytes, jsonl)
            };
            assert_eq!(recorded(Drawer::Producer), recorded(Drawer::Inline));
            let attributed = |drawer| {
                let (bytes, probe) = run(&config, AttribProbe::new(tick, 256), drawer);
                let labels = tenant_labels(&config);
                let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
                let runs = [("run", probe.attrib())];
                let jsonl = export_attrib_jsonl("tape", config.seed, &runs, &labels);
                (bytes, jsonl)
            };
            assert_eq!(attributed(Drawer::Producer), attributed(Drawer::Inline));
        }
    }

    #[test]
    fn the_producer_runs_only_off_rayon_workers_on_long_runs() {
        let long = EPOCH + 1;
        assert_eq!(Drawer::for_run(EPOCH), Drawer::Inline);
        let spare_core = rayon::current_num_threads() >= 2;
        let expected = if spare_core {
            Drawer::Producer
        } else {
            Drawer::Inline
        };
        assert_eq!(Drawer::for_run(long), expected);
        let config = poisson(0xD4A7, long);
        assert_eq!(
            Run::new(&config).execute().metrics.tape_producer,
            spare_core
        );
        // A row already running on a rayon worker draws its own arrivals.
        let on_worker: Vec<bool> = vec![config]
            .into_par_iter()
            .map(|config| Run::new(&config).execute().metrics.tape_producer)
            .collect();
        assert_eq!(on_worker, vec![false]);
    }

    fn filler(config: &LoadgenConfig) -> Filler<'static> {
        let draws = ArrivalDraws::new(config);
        Filler::new(Stream::Drawn(draws), config.nodes())
    }

    #[test]
    fn a_panicking_simulation_thread_stops_a_sleeping_producer() {
        let config = poisson(0x5EE9, 3 * EPOCH);
        let outcome = panic::catch_unwind(|| {
            drive(
                filler(&config),
                config.requests,
                Drawer::Producer,
                |mut reader| {
                    drop(reader.next_chunk());
                    // The producer fills the next epoch and sleeps on the
                    // barrier.
                    while reader.barrier.0.sleepers() == 0 {
                        thread::yield_now();
                    }
                    panic!("simulation failed");
                },
            )
        });
        assert_eq!(panic_message(outcome.unwrap_err()), "simulation failed");
    }

    /// A probe that panics at its `limit`-th event.
    struct PanicAt {
        events: u64,
        limit: u64,
    }

    impl Probe for PanicAt {
        const ENABLED: bool = true;

        fn on_event(&mut self, _kind: u8, _now: Time) {
            self.events += 1;
            assert!(self.events < self.limit, "probe gave up");
        }
    }

    #[test]
    fn a_panic_mid_run_surfaces_from_either_drawer() {
        let config = poisson(0x5EEA, 5 * EPOCH);
        for drawer in [Drawer::Inline, Drawer::Producer] {
            let probe = PanicAt {
                events: 0,
                limit: 2 * EPOCH,
            };
            let outcome =
                panic::catch_unwind(|| run_full(&config, None, false, probe, None, drawer));
            let Err(panic) = outcome else {
                panic!("the probe did not panic")
            };
            assert_eq!(panic_message(panic), "probe gave up", "{drawer:?}");
        }
    }

    #[test]
    fn a_producer_panic_reaches_the_simulation_thread() {
        // A mean gap of 4,000 s overflows the picosecond clock after
        // about 4,600 arrivals, in the third epoch.
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: 2.5e-4 },
            ..poisson(0x0F10, 5 * EPOCH)
        };
        for drawer in [Drawer::Inline, Drawer::Producer] {
            let outcome =
                panic::catch_unwind(|| run_full(&config, None, false, NoopProbe, None, drawer));
            let Err(panic) = outcome else {
                panic!("the clock did not overflow")
            };
            assert_eq!(
                panic_message(panic),
                "simulated time overflow",
                "{drawer:?}"
            );
        }
    }
}
