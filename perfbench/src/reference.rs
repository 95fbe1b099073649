//! A fixed reference computation, timed around every pass.
//!
//! The host this benchmark was built on drifts: the same pass ran from
//! 260 ms to 440 ms within minutes, as neighbours loaded the machine.
//! Dividing each pass's wall time by the wall time of a computation that
//! no change to the repository can alter cancels most of that drift. Half
//! of the computation runs right before the pass and half right after, so
//! both halves see the load the pass saw. The computation mixes the
//! simulator's kinds of work: a small binary heap of timestamped events,
//! a logarithm per event, and random read-modify-writes into a 4 MiB
//! table on every other event. On the recorder, over
//! ten 10-second runs per workload, median pass wall times spread by up to
//! 25 % (quartile distance over median) while the pass ÷ reference ratios
//! spread by 2–7 %.
//!
//! `setup_s` must be reported in seconds, so it is read on a normalized
//! clock on which one reference computation takes [`NOMINAL_S`]: set-up
//! wall time ÷ reference wall time × `NOMINAL_S`. Raw set-up medians moved
//! by up to 76 % between two sets of ten runs on the recorder.
//!
//! Its constants are part of the benchmark's definition: changing any of
//! them changes every reported ratio.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events processed per half; a whole reference computation is two
/// halves.
const HALF_EVENTS: u64 = 400_000;
/// Pending events in the heap.
const DEPTH: u64 = 128;
/// Table slots (8 bytes each): 4 MiB.
const TABLE: usize = 1 << 19;

/// Seconds one whole reference computation takes on the normalized clock.
pub const NOMINAL_S: f64 = 0.1;

/// The reference computation's state, allocated once so that every
/// timing touches resident memory.
pub struct Reference {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
    rng: u64,
}

impl Reference {
    pub fn new() -> Self {
        let mut r = Reference {
            heap: BinaryHeap::with_capacity(DEPTH as usize),
            table: vec![0; TABLE],
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        for id in 0..DEPTH {
            let at = r.next() % 1_000_000;
            r.heap.push(Reverse((at, id)));
        }
        r
    }

    /// xorshift64: the reference's only source of randomness.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Runs half the computation and returns its wall time in seconds.
    pub fn time_half(&mut self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..black_box(HALF_EVENTS) {
            let Reverse((at, id)) = self.heap.pop().expect("the heap holds DEPTH events");
            let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            let gap = (-(1.0 - u).ln() * 100_000.0) as u64;
            self.heap.push(Reverse((at + gap, id)));
            if gap & 1 == 0 {
                let slot = self.next() as usize & (TABLE - 1);
                self.table[slot] = self.table[slot].wrapping_add(gap);
            }
            sum = sum.wrapping_add(at);
        }
        black_box(sum);
        start.elapsed().as_secs_f64()
    }
}
