//! Insertion-stable priority queue of timestamped events: a ring of
//! time slots (a calendar queue, Brown 1988; a timing wheel, Varghese &
//! Lauck 1987).
//!
//! * **Order.** Same-timestamp events pop in insertion order, so runs
//!   with the same seed cannot diverge: each entry's fire time and
//!   sequence number pack into one `u128` key (`at` picoseconds high,
//!   `seq` low), a *total* order any correct queue pops identically.
//! * **Slots.** A slot is `at_ps >> 22`, about 4.19 µs; the ring has
//!   4,096 slot heads, a 17.2 ms span. A push into a later slot files
//!   its entry at the head of that slot's list in O(1). The lists thread
//!   one entry slab by `u32` index, with a free list, so a steady-state
//!   simulation stops allocating. An occupancy bitmap plus a summary word
//!   finds the next occupied slot in two `trailing_zeros`.
//! * **The sorted run.** The current slot's entries, and any push at or
//!   before the current slot (including pushes into the past, which
//!   standalone users make), sit in a run sorted descending. A non-empty
//!   queue always has a non-empty run, so a pop or peek reads its last
//!   entry; the pop that empties it moves the next occupied slot in.
//! * **The far list.** Entries beyond the ring's span wait on a far list
//!   that caches its minimum slot, and move into the ring once its span
//!   reaches them, before any later slot pops.
//!
//! The constants fit the push-ahead distances recorded from every push
//! of one full pass of the repo benchmark's `storm` (1.59 M pushes) and
//! `flash-crash` (1.36 M) workloads. The loadgen engine has since taken
//! arrivals out of the queue (its caller issues them between
//! [`Kernel::run_until`](crate::Kernel::run_until) calls), so `storm`
//! now pushes only its completions:
//!
//! | workload | pushes | land ahead by |
//! |---|---|---|
//! | `storm` | arrivals (46%; no longer pushed) | 4–33 µs: one to eight slots |
//! | `storm` | completions | 67 µs–4.3 ms, none beyond |
//! | `flash-crash` | 99.9% | within 8.6 ms: inside the span |
//! | `flash-crash` | lease flows, fault ticks | up to 4.4 s: the far list |

use std::cmp::Reverse;

use crate::time::Time;

/// log2 of a slot's width in picoseconds: 2^22 ps ≈ 4.19 µs.
const SLOT_SHIFT: u32 = 22;

/// Slot heads in the ring: 4,096 slots span ≈ 17.2 ms.
const SLOTS: usize = 4096;

/// Occupancy words, one bit per slot head.
const WORDS: usize = SLOTS / 64;

/// End of a slab list.
const NIL: u32 = u32::MAX;

/// `(at_ps << 64) | seq`: one compare orders by time, then insertion.
#[inline]
fn pack(at_ps: u64, seq: u64) -> u128 {
    ((at_ps as u128) << 64) | seq as u128
}

/// The fire time packed in the high half of a key.
#[inline]
fn time_of(packed: u128) -> Time {
    Time::from_ps((packed >> 64) as u64)
}

/// Passive work counters of one [`EventQueue`], exposed for telemetry.
///
/// One increment per push or pop. The field names predate the slot
/// ring: `near_*` counts the sorted run, `heap_*` the ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes into the sorted run (at or before the current slot, or
    /// into an empty queue).
    pub near_hits: u64,
    /// Pushes filed in a later slot or on the far list.
    pub heap_pushes: u64,
    /// Far-list promotions into the ring.
    pub near_spills: u64,
    /// Pops that needed no refill.
    pub near_pops: u64,
    /// Pops that emptied the run and refilled it from the ring.
    pub heap_pops: u64,
}

impl QueueStats {
    /// Ring operations: ring pushes, far-list promotions and refills.
    pub fn sifts(&self) -> u64 {
        self.heap_pushes + self.near_spills + self.heap_pops
    }

    /// Total pops served.
    pub fn pops(&self) -> u64 {
        self.near_pops + self.heap_pops
    }

    /// Total pushes accepted. Equal to [`pops`](Self::pops) once a queue
    /// drains.
    pub fn pushes(&self) -> u64 {
        self.near_hits + self.heap_pushes
    }

    /// Folds another queue's counters into this one, field by field: how
    /// a sharded run sums its sub-kernels' traffic. Plain sums keep every
    /// conservation law (`pushes == pops` on drained queues) and cannot
    /// depend on shard count or merge order.
    pub fn absorb(&mut self, other: QueueStats) {
        self.near_hits += other.near_hits;
        self.heap_pushes += other.heap_pushes;
        self.near_spills += other.near_spills;
        self.near_pops += other.near_pops;
        self.heap_pops += other.heap_pops;
    }
}

/// A slab node on a slot list, the far list or (`event: None`) the free
/// list; `next` links it to the rest of its list.
struct Node<E> {
    at_ps: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// A time-ordered, insertion-stable event queue.
///
/// # Example
///
/// ```
/// use venice_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(10), "b");
/// q.push(Time::from_ns(5), "a");
/// q.push(Time::from_ns(10), "c");
/// assert_eq!(q.pop(), Some((Time::from_ns(5), "a")));
/// assert_eq!(q.pop(), Some((Time::from_ns(10), "b")));
/// assert_eq!(q.pop(), Some((Time::from_ns(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Entries at or before slot `cur`, sorted descending by packed key
    /// (minimum last). Non-empty whenever the queue is.
    run: Vec<(u128, E)>,
    /// The run's slot. Ring entries lie in slots `cur + 1 ..
    /// cur + SLOTS`, far entries at `cur + SLOTS` or later.
    cur: u64,
    /// Slot list heads, indexed by `slot % SLOTS`; `bits` marks the
    /// non-empty ones and `summary` the non-zero words of `bits`.
    heads: Box<[u32; SLOTS]>,
    bits: [u64; WORDS],
    summary: u64,
    /// Far list head and minimum slot (`u64::MAX` when empty).
    far: u32,
    far_min: u64,
    slab: Vec<Node<E>>,
    /// Free list head.
    free: u32,
    len: usize,
    next_seq: u64,
    peak: usize,
    stats: QueueStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            cur: 0,
            heads: Box::new([NIL; SLOTS]),
            bits: [0; WORDS],
            summary: 0,
            far: NIL,
            far_min: u64::MAX,
            slab: Vec::new(),
            free: NIL,
            len: 0,
            next_seq: 0,
            peak: 0,
            stats: QueueStats::default(),
        }
    }

    /// Inserts `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let (at_ps, seq) = (at.as_ps(), self.next_seq);
        self.next_seq += 1;
        let slot = at_ps >> SLOT_SHIFT;
        if self.len == 0 {
            // Ring and far list are empty: the run may start anywhere.
            self.cur = slot;
        }
        if slot <= self.cur {
            let key = pack(at_ps, seq);
            let pos = self.run.partition_point(|&(k, _)| k > key);
            self.run.insert(pos, (key, event));
            self.stats.near_hits += 1;
        } else {
            let i = self.alloc(at_ps, seq, event);
            self.link(i, slot);
            self.stats.heap_pushes += 1;
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Takes a slab node for a live, not yet linked entry.
    fn alloc(&mut self, at_ps: u64, seq: u64, event: E) -> u32 {
        let node = Node {
            at_ps,
            seq,
            next: NIL,
            event: Some(event),
        };
        if self.free == NIL {
            assert!(self.slab.len() < NIL as usize, "event queue slab overflow");
            self.slab.push(node);
            (self.slab.len() - 1) as u32
        } else {
            let i = self.free;
            self.free = self.slab[i as usize].next;
            self.slab[i as usize] = node;
            i
        }
    }

    /// Files slab node `i`, due in `slot` (after `cur`), at the head of
    /// its slot's list or, beyond the ring's span, of the far list.
    fn link(&mut self, i: u32, slot: u64) {
        let head = if slot - self.cur < SLOTS as u64 {
            let h = slot as usize % SLOTS;
            self.bits[h / 64] |= 1 << (h % 64);
            self.summary |= 1 << (h / 64);
            &mut self.heads[h]
        } else {
            self.far_min = self.far_min.min(slot);
            &mut self.far
        };
        self.slab[i as usize].next = std::mem::replace(head, i);
    }

    /// Removes and returns the earliest event, breaking timestamp ties in
    /// insertion order.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_at_or_before(Time::MAX)
    }

    /// Removes and returns the earliest event **iff** its timestamp does
    /// not exceed `horizon`. One key access serves both the horizon
    /// check and the pop — the kernel's hot loop, fused.
    pub fn pop_at_or_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        let at = time_of(self.run.last()?.0);
        if at > horizon {
            return None;
        }
        let (_, event) = self.run.pop()?;
        self.len -= 1;
        if self.run.is_empty() && self.len > 0 {
            self.refill();
            self.stats.heap_pops += 1;
        } else {
            self.stats.near_pops += 1;
        }
        Some((at, event))
    }

    /// Moves the next occupied slot into the (empty) run, first promoting
    /// the far entries the ring's span reaches from there. Every ring
    /// slot is below `cur + SLOTS` and every far slot at or above it, so
    /// the far list only supplies the next slot when the ring is empty.
    fn refill(&mut self) {
        let next = self.next_ring_slot().unwrap_or(self.far_min);
        self.cur = next;
        if self.far_min - next < SLOTS as u64 {
            self.promote_far();
        }
        let h = next as usize % SLOTS;
        let mut i = std::mem::replace(&mut self.heads[h], NIL);
        self.bits[h / 64] &= !(1 << (h % 64));
        if self.bits[h / 64] == 0 {
            self.summary &= !(1 << (h / 64));
        }
        while i != NIL {
            let node = &mut self.slab[i as usize];
            let event = node.event.take().expect("a listed node is live");
            self.run.push((pack(node.at_ps, node.seq), event));
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = i;
            i = next;
        }
        // Lists are filed newest first, so a slot pushed in time order
        // arrives already descending.
        self.run.sort_unstable_by_key(|&(k, _)| Reverse(k));
    }

    /// The earliest occupied ring slot. Every ring slot lies in
    /// `cur + 1 .. cur + SLOTS`, so it is the first occupied head at or
    /// after `cur`'s, cyclically.
    fn next_ring_slot(&self) -> Option<u64> {
        if self.summary == 0 {
            return None;
        }
        let start = self.cur as usize % SLOTS;
        let (w, b) = (start / 64, start % 64);
        let here = self.bits[w] & (!0u64 << b);
        let found = if here != 0 {
            w * 64 + here.trailing_zeros() as usize
        } else {
            // Words after `w`, else wrap to the lowest occupied word.
            let later = self.summary & (!1u64 << w);
            let word = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
            word * 64 + self.bits[word].trailing_zeros() as usize
        };
        Some(self.cur + ((found + SLOTS - start) % SLOTS) as u64)
    }

    /// Re-files the far list: entries within the ring's span move into
    /// their slots, the rest rebuild the list and its minimum.
    fn promote_far(&mut self) {
        let mut i = std::mem::replace(&mut self.far, NIL);
        self.far_min = u64::MAX;
        while i != NIL {
            let Node { at_ps, next, .. } = self.slab[i as usize];
            let slot = at_ps >> SLOT_SHIFT;
            self.stats.near_spills += u64::from(slot - self.cur < SLOTS as u64);
            self.link(i, slot);
            i = next;
        }
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.run.last().map(|&(k, _)| time_of(k))
    }

    /// The `(earliest, latest)` timestamps among pending events, or
    /// `None` when empty: the lookahead horizon a profiler needs ("how
    /// far into the simulated future has the run committed work"), at
    /// the cost of one scan of the pending entries.
    pub fn pending_time_span(&self) -> Option<(Time, Time)> {
        Some((self.peek_time()?, self.pending_times().max()?))
    }

    /// Timestamps of all pending events, in no particular order. Reads
    /// the keys only; the caller sorts or folds as needed.
    pub fn pending_times(&self) -> impl Iterator<Item = Time> + '_ {
        let slab = self.slab.iter().filter(|n| n.event.is_some());
        self.run
            .iter()
            .map(|&(k, _)| time_of(k))
            .chain(slab.map(|n| Time::from_ps(n.at_ps)))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`len`](Self::len) over the queue's lifetime
    /// (peak event-queue depth; not reset by [`clear`](Self::clear)).
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Work counters accumulated over the queue's lifetime (not reset by
    /// [`clear`](Self::clear)); see [`QueueStats`].
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Entry-slab occupancy as `(live, high-water)`: entries in the ring
    /// or the far list (not the run), and the most the slab has held
    /// since creation or the last [`clear`](Self::clear). Telemetry
    /// exports these as `slab_live`/`slab_cap`.
    pub fn slab_occupancy(&self) -> (usize, usize) {
        (self.len - self.run.len(), self.slab.len())
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        let (next_seq, peak, stats) = (self.next_seq, self.peak, self.stats);
        *self = EventQueue {
            next_seq,
            peak,
            stats,
            ..Self::new()
        };
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("peak", &self.peak)
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(5), ());
        q.push(Time::from_ns(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_stable() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(10), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(Time::from_ns(10), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.push(Time::from_us(round * 100 + i), round * 8 + i);
            }
            for i in 0..8u64 {
                assert_eq!(q.pop().unwrap().1, round * 8 + i);
            }
        }
        // Steady-state churn reuses freed slab nodes: the slab never
        // grows past the most entries filed in the ring at once.
        let cap = q.slab_occupancy().1;
        assert!(cap <= 8, "slab grew to {cap}");
        assert_eq!(q.peak_len(), 8);
    }

    #[test]
    fn matches_reference_model_on_random_interleaving() {
        // A deterministic xorshift drives a random push/pop interleaving
        // with dense timestamp ties; every pop must return exactly what a
        // naive min-by-(time, insertion-index) reference model returns.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut q = EventQueue::new();
        let mut pending: Vec<(u64, u64)> = Vec::new(); // (at_ns, seq)
        let mut seq = 0u64;
        let pop_and_check = |q: &mut EventQueue<u64>, pending: &mut Vec<(u64, u64)>| {
            let (at, got) = q.pop().unwrap();
            let min = pending
                .iter()
                .enumerate()
                .min_by_key(|&(_, p)| p)
                .map(|(i, _)| i)
                .unwrap();
            let expect = pending.remove(min);
            assert_eq!((at.as_ns(), got), expect);
        };
        for _ in 0..4_000 {
            if step() % 3 != 0 || pending.is_empty() {
                let at = step() % 64;
                q.push(Time::from_ns(at), seq);
                pending.push((at, seq));
                seq += 1;
            } else {
                pop_and_check(&mut q, &mut pending);
            }
        }
        while !pending.is_empty() {
            pop_and_check(&mut q, &mut pending);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(Time::from_ns(i), i);
        }
        for _ in 0..10 {
            q.pop();
        }
        q.push(Time::from_ns(1), 1);
        assert_eq!(q.peak_len(), 10);
    }

    #[test]
    fn stats_split_near_buffer_and_heap_traffic() {
        // `near_*` counts the sorted run, `heap_*` the ring.
        let mut q = EventQueue::new();
        // Pushes within the current slot circulate through the run
        // alone: no ring traffic.
        for i in (0..8u64).rev() {
            q.push(Time::from_ns(i), i);
        }
        for _ in 0..8 {
            q.pop();
        }
        let s = q.stats();
        assert_eq!(s.near_hits, 8);
        assert_eq!(s.near_pops, 8);
        assert_eq!(s.heap_pushes, 0);
        assert_eq!(s.heap_pops, 0);
        assert_eq!(s.sifts(), 0, "one-slot chains never touch the ring");
        assert_eq!(s.pops(), 8);

        // Events in later slots are filed in the ring behind a run
        // occupant; every pop that empties the run refills it from the
        // next slot, except the one that empties the queue.
        q.push(Time::from_ns(10), 0);
        for i in 0..4u64 {
            q.push(Time::from_us(10 * (i + 1)), i);
        }
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.near_hits, 9);
        assert_eq!(s.heap_pushes, 4);
        assert_eq!(s.heap_pops, 4);
        assert_eq!(s.near_pops, 9);
        assert_eq!(s.pops(), 13);
    }

    #[test]
    fn stats_count_near_spills() {
        // `near_spills` counts far-list promotions: entries beyond the
        // ring's 17.2 ms span wait on the far list and move into the
        // ring one by one as its span reaches them.
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 0u64);
        for i in 1..=5u64 {
            q.push(Time::from_ms(20 * i), i);
        }
        q.push(Time::from_us(100), 6);
        let s = q.stats();
        assert_eq!((s.near_hits, s.heap_pushes, s.near_spills), (1, 6, 0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 6, 1, 2, 3, 4, 5]);
        assert_eq!(q.stats().near_spills, 5);
        assert_eq!(q.stats().heap_pops, 6);
    }

    #[test]
    fn a_far_event_pops_in_order_after_a_microsecond_stream() {
        // A 30 ms lease flow, pushed before a stream of µs-scale events,
        // waits on the far list and pops exactly where its time falls.
        const LEASE: u64 = u64::MAX;
        let mut q = EventQueue::new();
        q.push(Time::ZERO, 0u64);
        q.push(Time::from_ms(30), LEASE);
        let mut last = Time::ZERO;
        let mut lease_at = None;
        while let Some((at, v)) = q.pop() {
            assert!(at >= last, "time went back from {last} to {at}");
            last = at;
            if v == LEASE {
                lease_at = Some(at);
            } else if at < Time::from_ms(40) {
                // Each stream event schedules the next 7 µs later.
                q.push(at + Time::from_us(7), v + 1);
            }
        }
        assert_eq!(lease_at, Some(Time::from_ms(30)));
        let s = q.stats();
        assert_eq!(s.near_spills, 1, "the lease waited on the far list");
        assert_eq!(s.pushes(), s.pops());
    }

    #[test]
    fn slab_occupancy_tracks_live_heap_entries() {
        let mut q = EventQueue::new();
        assert_eq!(q.slab_occupancy(), (0, 0));
        q.push(Time::from_ns(1), 1u64); // the run: not in the slab
        assert_eq!(q.slab_occupancy(), (0, 0));
        q.push(Time::from_us(100), 2); // a later slot
        q.push(Time::from_ms(200), 3); // the far list
        assert_eq!(q.slab_occupancy(), (2, 2));
        q.pop();
        // The refill moved the 100 µs entry into the run; its node is
        // free and the high-water mark stays at two.
        assert_eq!(q.slab_occupancy(), (1, 2));
        q.push(Time::from_us(300), 4); // reuses the freed node
        assert_eq!(q.slab_occupancy(), (2, 2));
        q.clear();
        assert_eq!(q.slab_occupancy(), (0, 0));
    }

    #[test]
    fn pending_time_span_covers_near_and_heap() {
        let mut q = EventQueue::new();
        assert_eq!(q.pending_time_span(), None);
        assert_eq!(q.pending_times().count(), 0);
        // One near-buffer occupant.
        q.push(Time::from_ns(50), 0u64);
        assert_eq!(
            q.pending_time_span(),
            Some((Time::from_ns(50), Time::from_ns(50)))
        );
        // Far-future events land in the heap; the span must see both
        // stores. The heap's max is a leaf, not the root.
        for i in 0..6u64 {
            q.push(Time::from_ns(1_000 + i * 100), i);
        }
        q.push(Time::from_ns(10), 9);
        assert_eq!(
            q.pending_time_span(),
            Some((Time::from_ns(10), Time::from_ns(1_500)))
        );
        // The timestamp multiset matches what was pushed.
        let mut times: Vec<u64> = q.pending_times().map(|t| t.as_ns()).collect();
        times.sort_unstable();
        assert_eq!(
            times,
            vec![10, 50, 1_000, 1_100, 1_200, 1_300, 1_400, 1_500]
        );
        // Popping the minimum tightens the lower edge.
        q.pop();
        assert_eq!(q.pending_time_span().unwrap().0, Time::from_ns(50));
        // Entries filed in a later slot and on the far list count too.
        q.push(Time::from_us(40), 10);
        q.push(Time::from_secs(2), 11);
        assert_eq!(
            q.pending_time_span(),
            Some((Time::from_ns(50), Time::from_secs(2)))
        );
        assert_eq!(q.pending_times().count(), 9);
    }

    #[test]
    fn max_time_events_survive_packing() {
        // Time::MAX in the packed key's high half must not collide with
        // or overflow earlier keys.
        let mut q = EventQueue::new();
        q.push(Time::MAX, "late");
        q.push(Time::ZERO, "early");
        q.push(Time::MAX, "later");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn golden_interleaving_pins_counters_occupancy_and_pop_order() {
        // A fixed pseudo-random simulation-shaped workload: pushes land a
        // short or a long hop past the last popped time, a third of the
        // steps pop, and the queue is cleared twice mid-stream. The pop
        // order hash, pop count and peak depth are pinned for any
        // representation; the counters and slab occupancy are the slot
        // ring's.
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut q = EventQueue::new();
        let (mut now, mut hash, mut pops) = (0u64, 0xcbf29ce484222325u64, 0u64);
        let fold = |hash: &mut u64, word: u64| {
            for b in word.to_le_bytes() {
                *hash = (*hash ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        let mut occupancy = Vec::new();
        for i in 0..30_000u64 {
            if i == 10_000 || i == 20_000 {
                occupancy.push(q.slab_occupancy());
                q.clear();
                occupancy.push(q.slab_occupancy());
            }
            let r = step();
            if r % 3 == 0 && !q.is_empty() {
                let (at, v) = q.pop().unwrap();
                now = at.as_ns();
                fold(&mut hash, now);
                fold(&mut hash, v);
                pops += 1;
            } else {
                let hop = if r % 5 == 0 {
                    step() % 50_000
                } else {
                    step() % 40
                };
                q.push(Time::from_ns(now + hop), i);
            }
        }
        occupancy.push(q.slab_occupancy());
        while let Some((at, v)) = q.pop() {
            fold(&mut hash, at.as_ns());
            fold(&mut hash, v);
            pops += 1;
        }
        occupancy.push(q.slab_occupancy());
        // Representation-independent: the pop order, pop count and peak
        // depth any correct queue reproduces.
        assert_eq!(
            (q.peak_len(), pops, hash),
            (3345, 13366, 0x7b87b54d6d866574)
        );
        // The slot ring's own counters and slab occupancy.
        assert_eq!(
            (q.stats(), occupancy),
            (
                QueueStats {
                    near_hits: 17142,
                    heap_pushes: 2818,
                    near_spills: 0,
                    near_pops: 13353,
                    heap_pops: 13,
                },
                vec![
                    (814, 814),
                    (0, 0),
                    (928, 928),
                    (0, 0),
                    (1072, 1072),
                    (0, 1072)
                ]
            )
        );
    }

    /// Drives `q` with a deterministic workload over `events` pushes,
    /// interleaving pops, and returns the drained pop sequence.
    fn drive(q: &mut EventQueue<u64>, items: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (i, &(at, v)) in items.iter().enumerate() {
            q.push(Time::from_ns(at), v);
            // Interleave pops so the near buffer and heap both see
            // mid-stream traffic, not just a bulk drain.
            if i % 3 == 2 {
                out.extend(q.pop().map(|(t, v)| (t.as_ns(), v)));
            }
        }
        while let Some((t, v)) = q.pop() {
            out.push((t.as_ns(), v));
        }
        out
    }

    #[test]
    fn partitioned_queues_merge_into_consistent_stats() {
        // The sharded-kernel shape: one logical workload split across
        // two sub-kernel queues by node parity. The merged QueueStats
        // must satisfy exactly the conservation laws a single queue
        // satisfies, and the merge must be order-independent.
        let items: Vec<(u64, u64)> = (0..200u64)
            .map(|i| ((i * 37) % 512 + (i % 7) * 900, i))
            .collect();
        let mut whole = EventQueue::new();
        let whole_pops = drive(&mut whole, &items);
        assert_eq!(whole_pops.len(), items.len());

        let left: Vec<(u64, u64)> = items.iter().copied().filter(|(_, v)| v % 2 == 0).collect();
        let right: Vec<(u64, u64)> = items.iter().copied().filter(|(_, v)| v % 2 == 1).collect();
        let (mut qa, mut qb) = (EventQueue::new(), EventQueue::new());
        let pops_a = drive(&mut qa, &left);
        let pops_b = drive(&mut qb, &right);
        assert_eq!(pops_a.len() + pops_b.len(), items.len());

        let mut merged = qa.stats();
        merged.absorb(qb.stats());
        let mut flipped = qb.stats();
        flipped.absorb(qa.stats());
        assert_eq!(merged, flipped, "absorb must be commutative");
        // Conservation: every push is either a near hit or a heap push,
        // every pop near or heap, drained queues pop what they pushed,
        // and spills never exceed near entries — for the merged stats
        // exactly as for the whole-workload queue's.
        for stats in [whole.stats(), merged] {
            assert_eq!(stats.pushes(), items.len() as u64);
            assert_eq!(stats.pops(), items.len() as u64);
            assert_eq!(stats.pushes(), stats.near_hits + stats.heap_pushes);
            assert_eq!(stats.pops(), stats.near_pops + stats.heap_pops);
            assert!(stats.near_spills <= stats.near_hits);
        }
        // Merged slab occupancy: both drained, so zero live entries and
        // a capacity that is the sum of the per-queue footprints.
        let (live_a, cap_a) = qa.slab_occupancy();
        let (live_b, cap_b) = qb.slab_occupancy();
        assert_eq!(live_a + live_b, 0);
        assert!(cap_a + cap_b <= whole.slab_occupancy().1 + items.len());
    }
}
