//! The sequential engine's arrival pipe: an open-loop run's arrivals,
//! drawn ahead in blocks, on a spare core when there is one.
//!
//! A sequential world does not sample an open-loop arrival's gap, class
//! and user itself. It reads them off a block of [`TapeEntry`]s that a
//! [`Filler`] drew, the same filler the sharded tape uses. The arrival
//! stream has an RNG stream of its own that no simulated node reads, so
//! drawing it ahead cannot change the event order: the same words feed
//! the same handlers in the same order, and every report, trace and event
//! count is byte-identical whoever draws them.
//!
//! ```text
//!                     ring: RING slots of BLOCK arrivals
//!                  +-----------+-----------+-----------+-----------+
//!   producer  -->  |  block 4  |  block 5  |  block 6  |  block 3  |  -->  simulation
//!   (Filler)       +-----------+-----------+-----------+-----------+       thread
//!      fills block k into slot k % RING        takes block k: swaps its     reads block 2
//!      once block k - RING was taken           spent block into the slot
//! ```
//!
//! * **Who draws** ([`Drawer::for_run`]). A scoped producer thread draws
//!   the blocks when the rayon pool has at least two threads, the run
//!   spans more than the ring holds, and the caller is not already a
//!   rayon worker. Sweeps and figure families already run one row per
//!   worker, so their rows must not double their thread count. Otherwise
//!   the simulation thread draws each block itself when it needs it.
//! * **The handoff.** Both sides yield the processor up to
//!   [`SPINS`] times before they sleep, as the sharded barrier does. The
//!   producer usually runs ahead and spins on a full ring; a side wakes
//!   the other only when it sleeps, so the common handoff costs two atomic
//!   stores and no system call. The ring's blocks are allocated once; the
//!   spent block the simulation thread hands back is the one the producer
//!   fills next.
//! * **Shutdown.** The producer stops after the run's last arrival or as
//!   soon as the simulation thread drops its pipe, also while unwinding
//!   from a panic. A panic on the producer reaches the simulation thread
//!   when it asks for the block that was never drawn.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use crate::sharded::{Filler, TapeEntry, SPINS};

/// Arrivals per block: 6 KB of entries, so the whole ring stays in a
/// core's L2 cache.
const BLOCK: u64 = 256;

/// Blocks the producer may draw ahead of the block being read.
const RING: u64 = 4;

/// Why no lock here is ever poisoned: each is held only across a swap,
/// a store, or a condition-variable wait on atomic loads.
const UNPOISONED: &str = "arrival pipe locks guard no panicking code";

/// Who draws a sequential open-loop run's arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Drawer {
    /// The simulation thread, one block whenever it runs out.
    Inline,
    /// A scoped producer thread, into the ring.
    Producer,
}

impl Drawer {
    /// The producer when a run of `requests` arrivals spans more than the
    /// ring, the rayon pool has a second thread, and the caller is not a
    /// rayon worker; otherwise the simulation thread.
    pub(crate) fn for_run(requests: u64) -> Drawer {
        if requests > RING * BLOCK
            && rayon::current_num_threads() >= 2
            && rayon::current_thread_index().is_none()
        {
            Drawer::Producer
        } else {
            Drawer::Inline
        }
    }
}

/// The simulation thread's end of the pipe: the block it reads and where
/// the next one comes from.
pub(crate) struct ArrivalPipe {
    block: Vec<TapeEntry>,
    /// Index of the next entry of `block` to read.
    next: usize,
    /// Blocks taken so far; the next one taken is block `taken`.
    taken: u64,
    source: Source,
    /// Times the next block was not drawn yet when the simulation thread
    /// asked for it.
    waits: u64,
}

// One pipe per run, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Source {
    Inline { filler: Filler, requests: u64 },
    Ring(Arc<Ring>),
}

impl ArrivalPipe {
    /// The next arrival of the stream.
    ///
    /// # Panics
    ///
    /// Panics past the run's last arrival, and with the producer's panic
    /// if the producer stopped before drawing this arrival.
    #[inline]
    pub(crate) fn next(&mut self) -> TapeEntry {
        if self.next == self.block.len() {
            self.refill();
        }
        let entry = self.block[self.next];
        self.next += 1;
        entry
    }

    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        let k = self.taken;
        match &mut self.source {
            Source::Inline { filler, requests } => {
                let start = k * BLOCK;
                assert!(start < *requests, "read past the run's last arrival");
                filler.draw(start..(start + BLOCK).min(*requests), &mut self.block);
            }
            Source::Ring(ring) => {
                if !ring.take(k, &mut self.block) {
                    self.waits += 1;
                }
            }
        }
        self.taken += 1;
        self.next = 0;
    }

    /// Times the simulation thread found the next block not drawn yet.
    pub(crate) fn waits(&self) -> u64 {
        self.waits
    }

    /// Whether a producer thread draws the arrivals.
    pub(crate) fn pipelined(&self) -> bool {
        matches!(self.source, Source::Ring(_))
    }
}

impl Drop for ArrivalPipe {
    fn drop(&mut self) {
        if let Source::Ring(ring) = &self.source {
            ring.hang_up();
        }
    }
}

/// Runs `body` with the arrival pipe of a sequential open-loop run of
/// `requests` arrivals, drawn by `filler` on the thread `drawer` names.
/// A producer thread is scoped to the call: it has stopped by the time
/// this returns or unwinds.
pub(crate) fn drive<R>(
    filler: Filler,
    requests: u64,
    drawer: Drawer,
    body: impl FnOnce(ArrivalPipe) -> R,
) -> R {
    let pipe = |source| ArrivalPipe {
        block: Vec::with_capacity(BLOCK as usize),
        next: 0,
        taken: 0,
        source,
        waits: 0,
    };
    match drawer {
        Drawer::Inline => body(pipe(Source::Inline { filler, requests })),
        Drawer::Producer => {
            let ring = Arc::new(Ring::new());
            // Allocated here, so the producer thread never allocates.
            let spare = Vec::with_capacity(BLOCK as usize);
            thread::scope(|scope| {
                let producer = Arc::clone(&ring);
                scope.spawn(move || producer.produce(filler, requests, spare));
                body(pipe(Source::Ring(ring)))
            })
        }
    }
}

/// The bounded ring between the producer and the simulation thread.
///
/// Block `k` lives in slot `k % RING`. The producer writes slot `k % RING`
/// only while `k < taken + RING`, and the simulation thread reads it only
/// once `filled > k`, so the two never touch one slot at once and its
/// lock never waits. The lock hands the block's entries over; the two
/// counters say whose turn it is.
struct Ring {
    slots: Vec<Mutex<Vec<TapeEntry>>>,
    /// Blocks the producer has published.
    filled: AtomicU64,
    /// Blocks the simulation thread has taken.
    taken: AtomicU64,
    /// Set when either side stops early: the simulation thread dropped
    /// its pipe, or the producer panicked.
    hung_up: AtomicBool,
    /// The producer's panic, kept for the simulation thread.
    failure: Mutex<Option<Box<dyn Any + Send>>>,
    /// Threads asleep on `woken`. A side that moves a counter or hangs up
    /// takes `lock` and notifies only when this is non-zero.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    woken: Condvar,
}

impl Ring {
    fn new() -> Self {
        Ring {
            slots: (0..RING)
                .map(|_| Mutex::new(Vec::with_capacity(BLOCK as usize)))
                .collect(),
            filled: AtomicU64::new(0),
            taken: AtomicU64::new(0),
            hung_up: AtomicBool::new(false),
            failure: Mutex::new(None),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            woken: Condvar::new(),
        }
    }

    /// The producer thread: draws every block in order into `spare` and
    /// swaps it into its slot, keeping a panic for the simulation thread
    /// instead of unwinding into the scope.
    fn produce(&self, filler: Filler, requests: u64, spare: Vec<TapeEntry>) {
        let run = AssertUnwindSafe(|| self.fill(filler, requests, spare));
        if let Err(panic) = panic::catch_unwind(run) {
            *self.failure.lock().expect(UNPOISONED) = Some(panic);
            self.hang_up();
        }
    }

    fn fill(&self, mut filler: Filler, requests: u64, mut spare: Vec<TapeEntry>) {
        for k in 0..requests.div_ceil(BLOCK) {
            self.wait_until(|| k < self.taken.load(SeqCst) + RING || self.hung_up.load(SeqCst));
            if self.hung_up.load(SeqCst) {
                return;
            }
            let start = k * BLOCK;
            filler.draw(start..(start + BLOCK).min(requests), &mut spare);
            let slot = &self.slots[(k % RING) as usize];
            spare = std::mem::replace(&mut *slot.lock().expect(UNPOISONED), spare);
            self.filled.store(k + 1, SeqCst);
            self.wake();
        }
    }

    /// Takes block `k` into `block`, handing the spent block back to the
    /// ring, and returns whether block `k` was drawn before the call.
    fn take(&self, k: u64, block: &mut Vec<TapeEntry>) -> bool {
        let drawn = || self.filled.load(SeqCst) > k;
        let ready = drawn();
        if !ready {
            self.wait_until(|| drawn() || self.hung_up.load(SeqCst));
            if !drawn() {
                // Only the producer hangs up while this side still reads.
                let panic = self.failure.lock().expect(UNPOISONED).take();
                panic::resume_unwind(panic.expect("a producer that stops early left its panic"));
            }
        }
        let slot = &self.slots[(k % RING) as usize];
        std::mem::swap(&mut *slot.lock().expect(UNPOISONED), block);
        self.taken.store(k + 1, SeqCst);
        self.wake();
        ready
    }

    /// Tells the other side this one stopped, waking it if it sleeps.
    /// Never panics: the simulation thread calls it while unwinding.
    fn hang_up(&self) {
        self.hung_up.store(true, SeqCst);
        self.wake();
    }

    /// Yields up to [`SPINS`] times for `ready`, then sleeps until a
    /// [`wake`](Self::wake) finds it true.
    ///
    /// No wake-up is lost: a sleeper counts itself in `sleepers` before
    /// its last check of `ready`, and a waker stores what `ready` reads
    /// before it reads `sleepers`. All four are `SeqCst`, so either the
    /// sleeper's check sees the store or the waker sees the sleeper. The
    /// waker then takes `lock` before it notifies, and the sleeper holds
    /// `lock` from its count until its wait releases it.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        for _ in 0..SPINS {
            if ready() {
                return;
            }
            thread::yield_now();
        }
        let mut guard = self.lock.lock().expect(UNPOISONED);
        self.sleepers.fetch_add(1, SeqCst);
        while !ready() {
            guard = self.woken.wait(guard).expect(UNPOISONED);
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    fn wake(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            // Taking the lock orders this notify after a sleeper's wait;
            // a poisoned lock is as good, so drop cannot panic here.
            drop(self.lock.lock());
            self.woken.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic;

    use rayon::prelude::*;
    use venice_sim::Time;
    use venice_telemetry::{
        export_attrib_jsonl, export_jsonl, AttribProbe, NoopProbe, Probe, RecordingProbe,
    };

    use super::*;
    use crate::arrival::{ArrivalDraws, ArrivalProcess};
    use crate::engine::{run_full, EngineMetrics, LoadgenConfig, Run};
    use crate::report::LoadReport;
    use crate::telemetry::{tenant_labels, EVENT_KIND_LABELS};
    use crate::tenants::TenantMix;
    use crate::trace::Trace;

    /// Request counts around the block edges, and a run of many blocks.
    const COUNTS: [u64; 5] = [1, BLOCK - 1, BLOCK, BLOCK + 1, 12 * BLOCK + 7];

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
        assert_eq!(metrics.arrivals_pipelined, drawer == Drawer::Producer);
        if drawer == Drawer::Inline {
            assert_eq!(metrics.arrival_waits, 0);
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
                let jsonl = export_jsonl("pipe", config.seed, &probe, &EVENT_KIND_LABELS);
                (bytes, jsonl)
            };
            assert_eq!(recorded(Drawer::Producer), recorded(Drawer::Inline));
            let attributed = |drawer| {
                let (bytes, probe) = run(&config, AttribProbe::new(tick, 256), drawer);
                let labels = tenant_labels(&config);
                let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
                let runs = [("run", probe.attrib())];
                let jsonl = export_attrib_jsonl("pipe", config.seed, &runs, &labels);
                (bytes, jsonl)
            };
            assert_eq!(attributed(Drawer::Producer), attributed(Drawer::Inline));
        }
    }

    #[test]
    fn the_producer_runs_only_off_rayon_workers_on_long_runs() {
        let long = RING * BLOCK + 1;
        assert_eq!(Drawer::for_run(RING * BLOCK), Drawer::Inline);
        let spare_core = rayon::current_num_threads() >= 2;
        let expected = if spare_core {
            Drawer::Producer
        } else {
            Drawer::Inline
        };
        assert_eq!(Drawer::for_run(long), expected);
        let config = poisson(0xD4A7, long);
        assert_eq!(
            Run::new(&config).execute().metrics.arrivals_pipelined,
            spare_core
        );
        // A row already running on a rayon worker draws its own arrivals.
        let on_worker: Vec<bool> = vec![config]
            .into_par_iter()
            .map(|config| Run::new(&config).execute().metrics.arrivals_pipelined)
            .collect();
        assert_eq!(on_worker, vec![false]);
    }

    fn filler(config: &LoadgenConfig) -> Filler {
        let draws = ArrivalDraws::new(config, config.mix.user_sampler());
        Filler::new(draws, config.nodes())
    }

    fn message(panic: Box<dyn Any + Send>) -> String {
        match panic.downcast::<String>() {
            Ok(text) => *text,
            Err(panic) => panic
                .downcast::<&str>()
                .map(|text| text.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn a_panicking_simulation_thread_stops_a_sleeping_producer() {
        let config = poisson(0x5EE9, 50 * BLOCK);
        let outcome = panic::catch_unwind(|| {
            drive(
                filler(&config),
                config.requests,
                Drawer::Producer,
                |mut pipe| {
                    pipe.next();
                    let Source::Ring(ring) = &pipe.source else {
                        unreachable!("the producer draws")
                    };
                    // The producer fills the ring and sleeps on it.
                    while ring.sleepers.load(SeqCst) == 0 {
                        thread::yield_now();
                    }
                    panic!("simulation failed");
                },
            )
        });
        assert_eq!(message(outcome.unwrap_err()), "simulation failed");
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
        let config = poisson(0x5EEA, 40 * BLOCK);
        for drawer in [Drawer::Inline, Drawer::Producer] {
            let probe = PanicAt {
                events: 0,
                limit: 5 * BLOCK,
            };
            let outcome =
                panic::catch_unwind(|| run_full(&config, None, false, probe, None, drawer));
            let Err(panic) = outcome else {
                panic!("the probe did not panic")
            };
            assert_eq!(message(panic), "probe gave up", "{drawer:?}");
        }
    }

    #[test]
    fn a_producer_panic_reaches_the_simulation_thread() {
        // A mean gap of 10^4 s overflows the picosecond clock after about
        // 1,800 arrivals, several blocks into the run.
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: 1e-4 },
            ..poisson(0x0F10, 40 * BLOCK)
        };
        for drawer in [Drawer::Inline, Drawer::Producer] {
            let outcome =
                panic::catch_unwind(|| run_full(&config, None, false, NoopProbe, None, drawer));
            let Err(panic) = outcome else {
                panic!("the clock did not overflow")
            };
            assert_eq!(message(panic), "simulated time overflow", "{drawer:?}");
        }
    }
}
