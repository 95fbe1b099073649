//! The event loop: typed events over user state, with a boxed-closure
//! compatibility layer.
//!
//! Every Venice experiment is a `Kernel<S, E>` where `S` holds the
//! modeled world (nodes, channels, tables) and `E` is the event type.
//! Two flavors share one loop:
//!
//! * **Typed events** (the fast path): `E` is a plain enum implementing
//!   [`SimEvent`]. Events are scheduled *by value* — no heap allocation,
//!   no virtual dispatch — and fired through a monomorphic `match`. This
//!   is what the loadgen engine runs on.
//! * **Boxed closures** (the compatibility layer): the
//!   `FnOnce(&mut S, &mut Scheduler<S>)` API, wrapped in
//!   [`ClosureEvent`] — which itself just implements [`SimEvent`].
//!   `E` defaults to `ClosureEvent<S>`, so `Kernel<S>` with a closure
//!   `schedule` is all a caller writes; the fabric's packet simulator
//!   (`venice_fabric::netsim`) and the runtime tests do.
//!
//! The split between [`Kernel`] (owns state, runs the loop) and
//! [`Scheduler`] (owns the queue and clock) is what lets an event borrow
//! the state mutably while still enqueueing new events.

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

/// A boxed-closure event: the compatibility layer over [`SimEvent`].
///
/// This is the original event representation — one heap allocation and
/// one indirect call per event (except for zero-sized closures, which
/// `Box` stores without allocating). New simulations should define a
/// typed event enum instead; this wrapper exists so the large body of
/// closure-based models and tests keeps working unchanged.
pub struct ClosureEvent<S>(BoxedHandler<S>);

/// The boxed closure a [`ClosureEvent`] wraps.
type BoxedHandler<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

impl<S> SimEvent<S> for ClosureEvent<S> {
    fn fire(self, state: &mut S, sched: &mut Scheduler<S, Self>) {
        (self.0)(state, sched)
    }
}

/// Clock plus pending-event queue; handed to every event so it can
/// schedule follow-ups.
pub struct Scheduler<S, E = ClosureEvent<S>> {
    now: Time,
    queue: EventQueue<E>,
    executed: u64,
    /// Hard cap on executed events; guards against runaway models.
    event_limit: u64,
    /// Stop the run loop once the clock passes this point.
    horizon: Time,
    _state: PhantomData<fn(&mut S)>,
}

impl<S, E> Scheduler<S, E> {
    fn new() -> Self {
        Scheduler {
            now: Time::ZERO,
            queue: EventQueue::new(),
            executed: 0,
            event_limit: u64::MAX,
            horizon: Time::MAX,
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

    /// Timestamp of the next pending event, if any.
    ///
    /// Together with [`advance_to`](Self::advance_to) this enables
    /// **lookahead fusion**: a handler that knows its own follow-up time
    /// `t` may process the follow-up immediately — skipping the queue
    /// round-trip — when `t` lies *strictly* before every pending event
    /// (a later-scheduled event never outranks pending ties, so strict
    /// inequality preserves the exact pop order).
    #[inline]
    pub fn next_event_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Advances the clock to `at` without executing an event, for
    /// lookahead fusion (see [`next_event_time`](Self::next_event_time)).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, beyond a pending event, or beyond
    /// the run horizon — any of which would break event ordering.
    #[inline]
    pub fn advance_to(&mut self, at: Time) {
        assert!(at >= self.now, "cannot advance into the past");
        assert!(
            self.queue
                .peek_time()
                .map(|next| at <= next)
                .unwrap_or(true),
            "cannot advance past a pending event"
        );
        assert!(at <= self.horizon, "cannot advance past the horizon");
        self.now = at;
    }
}

impl<S> Scheduler<S> {
    /// Schedules closure `f` to run `delay` after the current time
    /// (compatibility path; allocates unless `f` is zero-sized).
    pub fn schedule_in<F>(&mut self, delay: Time, f: F)
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        self.schedule_event_in(delay, ClosureEvent(Box::new(f)));
    }

    /// Schedules closure `f` at absolute time `at` (compatibility path).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (events may not run
    /// in the past).
    pub fn schedule_at<F>(&mut self, at: Time, f: F)
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        self.schedule_event_at(at, ClosureEvent(Box::new(f)));
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

/// A discrete-event simulation: user state plus the event loop.
///
/// `Kernel<S>` is the closure-compatible flavor; `Kernel<S, E>` with a
/// typed `E: SimEvent<S>` is the zero-allocation fast path.
///
/// # Example: closures (compat flavor)
///
/// ```
/// use venice_sim::{Kernel, Time};
/// let mut k = Kernel::new(0u32);
/// k.schedule(Time::from_ns(1), |n: &mut u32, _| *n += 1);
/// k.run();
/// assert_eq!(*k.state(), 1);
/// ```
///
/// # Example: a minimal typed-event simulation
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
pub struct Kernel<S, E = ClosureEvent<S>> {
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

    /// Stops the run loop once the clock would pass `horizon`; pending
    /// later events are left in the queue.
    pub fn with_horizon(mut self, horizon: Time) -> Self {
        self.sched.horizon = horizon;
        self
    }

    /// Moves the horizon of a kernel already in use: a later
    /// [`run`](Kernel::run) stops once the clock would pass `horizon`.
    /// A driver that feeds a kernel in batches pauses it this way at the
    /// last instant its batch covers.
    pub fn set_horizon(&mut self, horizon: Time) {
        self.sched.horizon = horizon;
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
    /// Runs until the queue is empty (or the horizon/event limit is hit).
    /// Returns the final simulated time.
    ///
    /// # Panics
    ///
    /// Panics if the configured event limit is exceeded.
    pub fn run(&mut self) -> Time {
        while self.step() {}
        self.sched.now
    }

    /// Executes a single event. Returns `false` when the queue is empty or
    /// the next event lies beyond the horizon.
    pub fn step(&mut self) -> bool {
        match self.sched.queue.pop_at_or_before(self.sched.horizon) {
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

impl<S> Kernel<S> {
    /// Schedules closure `f` to run `delay` after the current time
    /// (compatibility path).
    pub fn schedule<F>(&mut self, delay: Time, f: F)
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        self.sched.schedule_in(delay, f);
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

    #[test]
    fn events_run_in_time_order() {
        let mut k = Kernel::new(Vec::new());
        k.schedule(Time::from_ns(30), |v: &mut Vec<u32>, _| v.push(3));
        k.schedule(Time::from_ns(10), |v: &mut Vec<u32>, _| v.push(1));
        k.schedule(Time::from_ns(20), |v: &mut Vec<u32>, _| v.push(2));
        let end = k.run();
        assert_eq!(k.state(), &vec![1, 2, 3]);
        assert_eq!(end, Time::from_ns(30));
    }

    #[test]
    fn events_can_chain() {
        let mut k = Kernel::new(0u64);
        fn tick(n: &mut u64, s: &mut Scheduler<u64>) {
            *n += 1;
            if *n < 5 {
                s.schedule_in(Time::from_ns(10), tick);
            }
        }
        k.schedule(Time::ZERO, tick);
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
            k.schedule(Time::from_ns(i * 10), |n: &mut u32, _| *n += 1);
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
        let mut k = Kernel::new(0u32).with_horizon(Time::from_ns(25));
        for i in 1..=5 {
            k.schedule(Time::from_ns(i * 10), |n: &mut u32, _| *n += 1);
        }
        k.run();
        assert_eq!(*k.state(), 2); // events at 10 and 20 only
        assert_eq!(k.pending(), 3);
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_runaways() {
        let mut k = Kernel::new(()).with_event_limit(100);
        fn forever(_: &mut (), s: &mut Scheduler<()>) {
            s.schedule_in(Time::from_ns(1), forever);
        }
        k.schedule(Time::ZERO, forever);
        k.run();
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut k = Kernel::new(());
        k.schedule(Time::from_ns(10), |_, s| {
            s.schedule_at(Time::from_ns(5), |_, _| {});
        });
        k.run();
    }

    /// A typed counter event used by the generic-path tests below.
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
        let mut k: Kernel<u32, CounterEv> = Kernel::new(0).with_horizon(Time::from_ns(10));
        for i in 0..5 {
            k.schedule_event(Time::from_ns(i * 5), CounterEv::Bump(1));
        }
        k.run();
        assert_eq!(*k.state(), 3); // 0, 5, 10
        assert_eq!(k.pending(), 2);
    }

    #[test]
    fn typed_and_closure_kernels_agree() {
        // The same chain model through both event representations lands
        // on identical state, clock, and executed-event counts.
        let mut typed: Kernel<u32, CounterEv> = Kernel::new(0);
        typed.schedule_event(
            Time::ZERO,
            CounterEv::Chain {
                left: 100,
                gap: Time::from_ns(7),
            },
        );
        typed.run();

        let mut boxed = Kernel::new(0u32);
        fn chain(n: &mut u32, s: &mut Scheduler<u32>) {
            *n += 1;
            if *n < 100 {
                s.schedule_in(Time::from_ns(7), chain);
            }
        }
        boxed.schedule(Time::ZERO, chain);
        boxed.run();

        assert_eq!(typed.state(), boxed.state());
        assert_eq!(typed.now(), boxed.now());
        assert_eq!(typed.executed(), boxed.executed());
    }
}
