//! Property tests for the simulation kernel's invariants.

use std::collections::BTreeSet;

use proptest::prelude::*;
use venice_sim::{EventQueue, Kernel, Scheduler, SimEvent, Time, TokenBucket};

/// Width of one event-queue slot in picoseconds (about 4.19 µs).
const SLOT_PS: u64 = 1 << 22;

/// Span of the event queue's slot ring in picoseconds (about 17.2 ms).
const SPAN_PS: u64 = SLOT_PS * 4096;

/// Appends its delay to the log when it fires.
struct Log(u64);

impl SimEvent<Vec<u64>> for Log {
    fn fire(self, v: &mut Vec<u64>, _: &mut Scheduler<Vec<u64>, Log>) {
        v.push(self.0);
    }
}

proptest! {
    /// The event queue pops in nondecreasing time order, and equal
    /// timestamps pop in insertion order.
    #[test]
    fn event_queue_is_stable_and_sorted(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ns(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    /// The event queue pops exactly what a `BTreeSet<(Time, seq)>` pops
    /// over random push/pop interleavings whose hops cross its slot
    /// ring's edges: zero, within a slot, across slots, past the ring's
    /// span, whole seconds, `Time::MAX`, and pushes earlier than the
    /// current slot. Horizon pops look inside and beyond the next slot,
    /// and the queue is cleared mid-stream. `peek_time`, `len` and the
    /// pending span agree with the model after every operation.
    #[test]
    fn event_queue_matches_an_ordered_set_across_ring_edges(
        ops in prop::collection::vec((0u8..16, 0u64..u64::MAX), 1..600),
    ) {
        let mut q = EventQueue::new();
        let mut model: BTreeSet<(Time, u64)> = BTreeSet::new();
        // `now` follows the pops, as a simulator's clock does; popping a
        // `Time::MAX` entry leaves it where it was.
        let (mut now, mut seq) = (0u64, 0u64);
        for (op, raw) in ops {
            let push_at = match op {
                0 => Some(now),
                1 => Some(now.saturating_add(raw % SLOT_PS)),
                2 | 3 => Some(now.saturating_add(raw % (16 * SLOT_PS))),
                4 => Some(now.saturating_add(raw % SPAN_PS)),
                5 => Some(now.saturating_add(SPAN_PS + raw % (4 * SPAN_PS))),
                6 => Some(now.saturating_add((1 + raw % 4) * 1_000_000_000_000)),
                7 => Some(if raw % 2 == 0 { u64::MAX } else { now }),
                8 => Some(now.saturating_sub(raw % (8 * SLOT_PS))),
                _ => None,
            };
            if let Some(at) = push_at {
                q.push(Time::from_ps(at), seq);
                model.insert((Time::from_ps(at), seq));
                seq += 1;
            } else if op == 15 && raw % 8 == 0 {
                q.clear();
                model.clear();
            } else {
                let horizon = match op {
                    12 => now.saturating_add(raw % SLOT_PS),
                    13 => now.saturating_add(raw % (2 * SPAN_PS)),
                    14 => now.saturating_sub(raw % SLOT_PS),
                    _ => u64::MAX,
                };
                let horizon = Time::from_ps(horizon);
                let want = model.first().copied().filter(|&(at, _)| at <= horizon);
                if let Some(entry) = want {
                    model.remove(&entry);
                }
                let got = q.pop_at_or_before(horizon);
                prop_assert_eq!(got, want);
                if let Some((at, _)) = got.filter(|&(at, _)| at < Time::MAX) {
                    now = at.as_ps();
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.first().map(|&(at, _)| at));
            let span = model.first().zip(model.last()).map(|(a, b)| (a.0, b.0));
            prop_assert_eq!(q.pending_time_span(), span);
        }
        while let Some(entry) = model.pop_first() {
            prop_assert_eq!(q.pop(), Some(entry));
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.pop(), None);
    }

    /// Running a kernel executes every scheduled event exactly once and
    /// the clock ends at the latest event time.
    #[test]
    fn kernel_executes_everything(delays in prop::collection::vec(1u64..10_000, 1..100)) {
        let mut k = Kernel::new(Vec::<u64>::new());
        let max = *delays.iter().max().unwrap();
        for &d in &delays {
            k.schedule_event(Time::from_ns(d), Log(d));
        }
        let end = k.run();
        prop_assert_eq!(k.state().len(), delays.len());
        prop_assert_eq!(end, Time::from_ns(max));
        prop_assert_eq!(k.pending(), 0);
    }

    /// A token bucket never admits traffic faster than its configured
    /// rate over any window starting from a drained state.
    #[test]
    fn token_bucket_enforces_rate(
        rate in 1.0f64..40.0,
        burst in 64u64..4096,
        sizes in prop::collection::vec(1u64..2048, 1..100),
    ) {
        let mut tb = TokenBucket::new(rate, burst);
        let mut now = Time::ZERO;
        let mut sent = 0u64;
        for &s in &sizes {
            now = tb.reserve(now, s);
            sent += s;
        }
        if now > Time::ZERO {
            // Bytes admitted beyond the initial burst must fit the rate.
            let max_bytes = burst as f64 + rate * 0.125e9 * now.as_secs_f64() + 1.0;
            prop_assert!(
                (sent as f64) <= max_bytes + sizes.last().copied().unwrap() as f64,
                "sent {sent} in {now}, cap {max_bytes}"
            );
        }
    }

    /// Time arithmetic round-trips through unit conversions.
    #[test]
    fn time_conversions_consistent(ns in 0u64..u64::MAX / 2_000) {
        let t = Time::from_ns(ns);
        prop_assert_eq!(t.as_ns(), ns);
        prop_assert_eq!(Time::from_ps(t.as_ps()), t);
        prop_assert!(t.as_secs_f64() >= 0.0);
    }

    /// Saturating subtraction never underflows and ordinary addition is
    /// monotone.
    #[test]
    fn time_ordering(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let ta = Time::from_ns(a);
        let tb = Time::from_ns(b);
        prop_assert!(ta + tb >= ta);
        prop_assert!(ta.saturating_sub(tb) <= ta);
        if a >= b {
            prop_assert_eq!(ta.saturating_sub(tb) + tb, ta);
        }
    }
}
