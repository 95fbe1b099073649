//! The event loop: typed events over user state.
//!
//! Every Venice experiment is a `Kernel<S, E>` where `S` holds the
//! modeled world (nodes, channels, tables) and `E` is the event type: a
//! plain enum implementing [`SimEvent`]. Events are scheduled *by value*
//! — no heap allocation, no virtual dispatch — and fired through a
//! monomorphic `match`.
//!
//! The split between [`Kernel`] (owns state, runs the loop) and
//! [`Scheduler`] (owns the queue and clock) is what lets an event borrow
//! the state mutably while still enqueueing new events. A caller that
//! owns a stream of its own, such as the loadgen engine's arrival tape,
//! drives the clock itself: [`Kernel::run_until`] fires every event due
//! by the stream's next instant, and [`Kernel::parts_mut`] then lets the
//! caller act on the world at that instant.

use std::marker::PhantomData;

use crate::queue::{EventQueue, QueueStats};
use crate::time::Time;

/// A typed simulation event over world state `S`.
///
/// Implementations are plain data — typically one enum per simulation —
/// consumed by value when they fire. The kernel moves the event out of
/// the queue and into [`fire`](Self::fire), so a steady-state simulation
/// performs **zero heap allocations per event**: no `Box`, no vtable,
/// and the `match` inside `fire` monomorphizes into direct calls.
///
/// # Example
///
/// ```
/// use venice_sim::{Kernel, Scheduler, SimEvent, Time};
///
/// struct World { pings: u32, pongs: u32 }
///
/// enum Ev { Ping, Pong }
///
/// impl SimEvent<World> for Ev {
///     fn fire(self, w: &mut World, s: &mut Scheduler<World, Ev>) {
///         match self {
///             Ev::Ping => {
///                 w.pings += 1;
///                 // Follow-ups are scheduled by value, no Box.
///                 s.schedule_event_in(Time::from_us(1), Ev::Pong);
///             }
///             Ev::Pong => w.pongs += 1,
///         }
///     }
/// }
///
/// let mut k: Kernel<World, Ev> = Kernel::new(World { pings: 0, pongs: 0 });
/// k.schedule_event(Time::ZERO, Ev::Ping);
/// k.run();
/// assert_eq!((k.state().pings, k.state().pongs), (1, 1));
/// ```
pub trait SimEvent<S>: Sized {
    /// Applies the event to the world; may schedule follow-up events.
    fn fire(self, state: &mut S, sched: &mut Scheduler<S, Self>);
}

/// Clock plus pending-event queue; handed to every event so it can
/// schedule follow-ups.
pub struct Scheduler<S, E> {
    now: Time,
    queue: EventQueue<E>,
    executed: u64,
    /// Hard cap on executed events; guards against runaway models.
    event_limit: u64,
    _state: PhantomData<fn(&mut S)>,
}

impl<S, E> Scheduler<S, E> {
    fn new() -> Self {
        Scheduler {
            now: Time::ZERO,
            queue: EventQueue::new(),
            executed: 0,
            event_limit: u64::MAX,
            _state: PhantomData,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules typed event `event` to fire `delay` after the current
    /// time.
    #[inline]
    pub fn schedule_event_in(&mut self, delay: Time, event: E) {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulated time overflow");
        self.queue.push(at, event);
    }

    /// Schedules typed event `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (events may not run
    /// in the past).
    #[inline]
    pub fn schedule_event_at(&mut self, at: Time, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Peak number of simultaneously pending events so far.
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_len()
    }

    /// Cumulative event-queue traffic counters (sorted-run and ring
    /// pushes, refills, far-list promotions); see [`QueueStats`].
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// `(live, high-water)` entry-slab occupancy: pending events filed
    /// in the queue's ring or far list versus the most it has held; see
    /// [`EventQueue::slab_occupancy`].
    pub fn slab_occupancy(&self) -> (usize, usize) {
        self.queue.slab_occupancy()
    }

    /// `(earliest, latest)` fire times among pending events — how far
    /// into the simulated future the run has committed work. `None`
    /// when the queue is empty.
    pub fn pending_time_span(&self) -> Option<(Time, Time)> {
        self.queue.pending_time_span()
    }
}

impl<S, E> std::fmt::Debug for Scheduler<S, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

/// A discrete-event simulation: user state plus the event loop over
/// typed events `E: SimEvent<S>`.
///
/// # Example: a minimal simulation
///
/// A tiny server: arrivals every 10 µs, a fixed 25 µs service time, one
/// slot — a request either starts service immediately or queues behind
/// the busy slot. The whole simulation is one enum and one `match`, and
/// every event is scheduled by value (no `Box`, no vtable):
///
/// ```
/// use venice_sim::{Kernel, Scheduler, SimEvent, Time};
///
/// struct Server { queued: u32, busy_until: Time, served: u32 }
///
/// enum Ev { Arrive(u32), Finish }
///
/// impl SimEvent<Server> for Ev {
///     fn fire(self, w: &mut Server, s: &mut Scheduler<Server, Ev>) {
///         match self {
///             Ev::Arrive(remaining) => {
///                 w.queued += 1;
///                 if w.busy_until <= s.now() {
///                     // Idle slot: start service now.
///                     w.busy_until = s.now() + Time::from_us(25);
///                     s.schedule_event_at(w.busy_until, Ev::Finish);
///                 }
///                 if remaining > 0 {
///                     s.schedule_event_in(Time::from_us(10), Ev::Arrive(remaining - 1));
///                 }
///             }
///             Ev::Finish => {
///                 w.queued -= 1;
///                 w.served += 1;
///                 if w.queued > 0 {
///                     // Next in line takes the slot.
///                     w.busy_until = s.now() + Time::from_us(25);
///                     s.schedule_event_at(w.busy_until, Ev::Finish);
///                 }
///             }
///         }
///     }
/// }
///
/// let server = Server { queued: 0, busy_until: Time::ZERO, served: 0 };
/// let mut k: Kernel<Server, Ev> = Kernel::new(server);
/// k.schedule_event(Time::ZERO, Ev::Arrive(3)); // 4 arrivals in all
/// k.run();
/// assert_eq!(k.state().served, 4);
/// // Arrivals outpace the 25 µs service: the last departure is at 100 µs.
/// assert_eq!(k.now(), Time::from_us(100));
/// ```
pub struct Kernel<S, E> {
    state: S,
    sched: Scheduler<S, E>,
}

impl<S, E> Kernel<S, E> {
    /// Creates a kernel at time zero over `state`.
    pub fn new(state: S) -> Self {
        Kernel {
            state,
            sched: Scheduler::new(),
        }
    }

    /// Caps the number of events a `run` may execute. Exceeding the cap
    /// panics, which turns accidental event storms into loud failures.
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.sched.event_limit = limit;
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Shared access to the user state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the user state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// The state and the scheduler at once, for a caller that acts on
    /// the world between events: after [`run_until`](Kernel::run_until)
    /// it can change the state and schedule follow-ups at the instant it
    /// ran to.
    pub fn parts_mut(&mut self) -> (&mut S, &mut Scheduler<S, E>) {
        (&mut self.state, &mut self.sched)
    }

    /// Consumes the kernel, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Schedules typed event `event` to fire `delay` after the current
    /// time.
    pub fn schedule_event(&mut self, delay: Time, event: E) {
        self.sched.schedule_event_in(delay, event);
    }

    /// Schedules typed event `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_event_at(&mut self, at: Time, event: E) {
        self.sched.schedule_event_at(at, event);
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.sched.executed()
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// Peak number of simultaneously pending events so far (peak
    /// event-queue depth).
    pub fn peak_pending(&self) -> usize {
        self.sched.peak_pending()
    }

    /// Cumulative event-queue traffic counters (sorted-run and ring
    /// pushes, refills, far-list promotions); see [`QueueStats`].
    pub fn queue_stats(&self) -> QueueStats {
        self.sched.queue_stats()
    }

    /// `(live, high-water)` occupancy of the queue's entry slab.
    pub fn slab_occupancy(&self) -> (usize, usize) {
        self.sched.slab_occupancy()
    }

    /// `(earliest, latest)` fire times among pending events, or `None`
    /// when the queue is empty.
    pub fn pending_time_span(&self) -> Option<(Time, Time)> {
        self.sched.pending_time_span()
    }
}

impl<S, E: SimEvent<S>> Kernel<S, E> {
    /// Runs until the queue is empty. Returns the final simulated time.
    /// To stop at an instant instead, use [`run_until`](Kernel::run_until).
    ///
    /// # Panics
    ///
    /// Panics if the configured event limit is exceeded.
    pub fn run(&mut self) -> Time {
        while self.step() {}
        self.sched.now
    }

    /// Executes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_until(Time::MAX)
    }

    /// Fires every pending event due at or before `at`, in time order,
    /// then moves the clock to `at`. A caller that
    /// feeds the world a stream of its own calls this at each item's
    /// instant and then acts through [`parts_mut`](Kernel::parts_mut):
    /// every event due by then, one at `at` itself included, has fired.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time, or if the
    /// configured event limit is exceeded.
    pub fn run_until(&mut self, at: Time) {
        assert!(at >= self.sched.now, "cannot run into the past");
        // Most calls find nothing due: one read of the queue head
        // answers those before the step loop is entered.
        if self.sched.queue.peek_time().is_some_and(|t| t <= at) {
            while self.step_until(at) {}
        }
        self.sched.now = at;
    }

    /// Executes the next event if it is due at or before `limit`.
    fn step_until(&mut self, limit: Time) -> bool {
        match self.sched.queue.pop_at_or_before(limit) {
            None => false,
            Some((at, event)) => {
                self.sched.now = at;
                self.sched.executed += 1;
                assert!(
                    self.sched.executed <= self.sched.event_limit,
                    "event limit exceeded at {at}: runaway simulation?"
                );
                event.fire(&mut self.state, &mut self.sched);
                true
            }
        }
    }
}

impl<S: std::fmt::Debug, E> std::fmt::Debug for Kernel<S, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.sched.now)
            .field("pending", &self.sched.pending())
            .field("state", &self.state)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A typed counter event used by the tests below.
    enum CounterEv {
        Bump(u32),
        Chain { left: u32, gap: Time },
    }

    impl SimEvent<u32> for CounterEv {
        fn fire(self, n: &mut u32, s: &mut Scheduler<u32, CounterEv>) {
            match self {
                CounterEv::Bump(by) => *n += by,
                CounterEv::Chain { left, gap } => {
                    *n += 1;
                    if left > 1 {
                        s.schedule_event_in(
                            gap,
                            CounterEv::Chain {
                                left: left - 1,
                                gap,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Appends its value to a log when it fires.
    struct Push(u32);

    impl SimEvent<Vec<u32>> for Push {
        fn fire(self, v: &mut Vec<u32>, _: &mut Scheduler<Vec<u32>, Push>) {
            v.push(self.0);
        }
    }

    /// Schedules itself forever, one nanosecond apart.
    struct Forever;

    impl SimEvent<()> for Forever {
        fn fire(self, _: &mut (), s: &mut Scheduler<(), Forever>) {
            s.schedule_event_in(Time::from_ns(1), Forever);
        }
    }

    /// Schedules a follow-up earlier than itself.
    struct Backwards;

    impl SimEvent<()> for Backwards {
        fn fire(self, _: &mut (), s: &mut Scheduler<(), Backwards>) {
            s.schedule_event_at(Time::from_ns(5), Backwards);
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut k = Kernel::new(Vec::new());
        k.schedule_event(Time::from_ns(30), Push(3));
        k.schedule_event(Time::from_ns(10), Push(1));
        k.schedule_event(Time::from_ns(20), Push(2));
        let end = k.run();
        assert_eq!(k.state(), &vec![1, 2, 3]);
        assert_eq!(end, Time::from_ns(30));
    }

    #[test]
    fn events_can_chain() {
        let mut k = Kernel::new(0u32);
        k.schedule_event(
            Time::ZERO,
            CounterEv::Chain {
                left: 5,
                gap: Time::from_ns(10),
            },
        );
        k.run();
        assert_eq!(*k.state(), 5);
        assert_eq!(k.now(), Time::from_ns(40));
        assert_eq!(k.executed(), 5);
    }

    #[test]
    fn pending_time_span_tracks_the_committed_future() {
        let mut k = Kernel::new(0u32);
        assert_eq!(k.pending_time_span(), None);
        for i in 1..=5 {
            k.schedule_event(Time::from_ns(i * 10), CounterEv::Bump(1));
        }
        assert_eq!(
            k.pending_time_span(),
            Some((Time::from_ns(10), Time::from_ns(50)))
        );
        k.step();
        assert_eq!(
            k.pending_time_span(),
            Some((Time::from_ns(20), Time::from_ns(50)))
        );
    }

    #[test]
    fn horizon_stops_the_loop() {
        let mut k = Kernel::new(0u32);
        for i in 1..=5 {
            k.schedule_event(Time::from_ns(i * 10), CounterEv::Bump(1));
        }
        k.run_until(Time::from_ns(25));
        assert_eq!(*k.state(), 2); // events at 10 and 20 only
        assert_eq!(k.pending(), 3);
        assert_eq!(k.now(), Time::from_ns(25));
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_runaways() {
        let mut k = Kernel::new(()).with_event_limit(100);
        k.schedule_event(Time::ZERO, Forever);
        k.run();
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut k = Kernel::new(());
        k.schedule_event(Time::from_ns(10), Backwards);
        k.run();
    }

    #[test]
    fn typed_events_run_and_chain() {
        let mut k: Kernel<u32, CounterEv> = Kernel::new(0);
        k.schedule_event(Time::from_ns(5), CounterEv::Bump(10));
        k.schedule_event(
            Time::ZERO,
            CounterEv::Chain {
                left: 4,
                gap: Time::from_ns(3),
            },
        );
        let end = k.run();
        assert_eq!(*k.state(), 14);
        assert_eq!(end, Time::from_ns(9));
        assert_eq!(k.executed(), 5);
        assert!(k.peak_pending() >= 2);
    }

    #[test]
    fn typed_events_respect_horizon_and_limit() {
        let mut k: Kernel<u32, CounterEv> = Kernel::new(0).with_event_limit(3);
        for i in 0..5 {
            k.schedule_event(Time::from_ns(i * 5), CounterEv::Bump(1));
        }
        k.run_until(Time::from_ns(10));
        assert_eq!(*k.state(), 3); // 0, 5, 10: exactly the limit
        assert_eq!(k.pending(), 2);
        assert_eq!(k.executed(), 3);
    }

    #[test]
    fn run_until_fires_every_event_due_by_its_instant() {
        // Every 4 ns a stream item lands that bumps the counter by 100
        // and queues a bump of 1 one nanosecond later; a chain of 1s
        // runs every 2 ns beside it, so every item ties with a chain
        // event. Fed through `run_until`, each item sees every event due
        // at or before its instant fired, its own tie included, exactly
        // as stepping the kernel by hand up to that instant does.
        let items: Vec<Time> = (0..50).map(|i| Time::from_ns(4 * i)).collect();
        let chain = || CounterEv::Chain {
            left: 100,
            gap: Time::from_ns(2),
        };

        let mut driven: Kernel<u32, CounterEv> = Kernel::new(0);
        driven.schedule_event(Time::ZERO, chain());
        let mut driven_log = Vec::new();
        for &at in &items {
            driven.run_until(at);
            assert_eq!(driven.now(), at);
            assert!(driven.pending_time_span().is_none_or(|(t, _)| t > at));
            let (n, s) = driven.parts_mut();
            *n += 100;
            s.schedule_event_in(Time::from_ns(1), CounterEv::Bump(1));
            driven_log.push(*n);
        }
        driven.run();

        let mut stepped: Kernel<u32, CounterEv> = Kernel::new(0);
        stepped.schedule_event(Time::ZERO, chain());
        let mut stepped_log = Vec::new();
        for &at in &items {
            while stepped.pending_time_span().is_some_and(|(t, _)| t <= at) {
                stepped.step();
            }
            let n = stepped.state_mut();
            *n += 100;
            stepped_log.push(*n);
            stepped.schedule_event_at(at + Time::from_ns(1), CounterEv::Bump(1));
        }
        stepped.run();

        assert_eq!(driven_log, stepped_log);
        assert_eq!(driven.state(), stepped.state());
        assert_eq!(driven.now(), stepped.now());
        assert_eq!(driven.executed(), stepped.executed());
        assert_eq!(*driven.state(), 100 + 50 * 100 + 50);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn run_until_rejects_the_past() {
        let mut k: Kernel<u32, CounterEv> = Kernel::new(0);
        k.run_until(Time::from_ns(10));
        k.run_until(Time::from_ns(5));
    }
}
