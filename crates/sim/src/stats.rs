//! Measurement utilities: the log-bucketed latency histogram.
//!
//! Latency quantiles (p50 to p99.9 per tenant) are read from samples
//! collected inside the simulator.

use crate::time::Time;

/// HDR-style log-bucketed latency histogram with bounded relative error.
///
/// Plain power-of-two buckets are far too lossy for tail-latency
/// reporting (p99 vs p99.9 can land in the same bucket), so
/// `LogHistogram` subdivides every power-of-two range into `2^sub_bits` linear
/// sub-buckets, bounding the relative quantile error at `2^-sub_bits`
/// (&lt; 1 % at the default 7 sub-bits). Only the occupied bucket range is
/// stored: an unrecorded histogram holds no heap buffer, and the stored
/// window grows geometrically in both directions from the first sample
/// (samples spanning a microsecond to ten milliseconds need about 2,000
/// of the 7,424 buckets, 16 KB). Used by `venice-loadgen` for per-tenant
/// p50/p95/p99/p99.9.
///
/// # Example
///
/// ```
/// use venice_sim::{stats::LogHistogram, Time};
/// let mut h = LogHistogram::new();
/// for us in 1..=1000u64 {
///     h.record(Time::from_us(us));
/// }
/// let p50 = h.quantile(0.50).unwrap();
/// // Within 1% of the exact median (500 us).
/// assert!((p50.as_us_f64() - 500.0).abs() / 500.0 < 0.01 + 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    sub_bits: u32,
    /// Counts of buckets `base..base + counts.len()`, a window holding
    /// every recorded sample's bucket; empty until the first sample.
    counts: Vec<u64>,
    /// Bucket index of `counts[0]`.
    base: usize,
    count: u64,
    sum: Time,
    min: Time,
    max: Time,
}

impl LogHistogram {
    /// Default sub-bucket resolution: 2^7 = 128 linear sub-buckets per
    /// power of two, i.e. ≤ 0.79 % relative error.
    pub const DEFAULT_SUB_BITS: u32 = 7;

    /// Buckets stored once the first sample arrives: one power of two's
    /// worth at the default resolution.
    const FIRST_WINDOW: usize = 128;

    /// Creates an empty histogram at the default resolution.
    pub fn new() -> Self {
        Self::with_resolution(Self::DEFAULT_SUB_BITS)
    }

    /// Creates an empty histogram with `2^sub_bits` sub-buckets per
    /// power-of-two range.
    ///
    /// # Panics
    ///
    /// Panics if `sub_bits` is not in `[1, 16]`.
    pub fn with_resolution(sub_bits: u32) -> Self {
        assert!((1..=16).contains(&sub_bits), "sub_bits out of range");
        LogHistogram {
            sub_bits,
            counts: Vec::new(),
            base: 0,
            count: 0,
            sum: Time::ZERO,
            min: Time::MAX,
            max: Time::ZERO,
        }
    }

    /// Number of buckets at this resolution (the exclusive upper bound
    /// of [`bucket_of`](Self::bucket_of)).
    pub fn bucket_len(&self) -> usize {
        let blocks = 64 - self.sub_bits as usize + 1;
        blocks << self.sub_bits
    }

    /// The bucket index `sample` falls into — the same index
    /// [`record`](Self::record) increments. Exposed so side tables
    /// keyed by latency bucket (e.g. per-bucket stage attribution) can
    /// stay aligned with the histogram's own binning.
    pub fn bucket_of(&self, sample: Time) -> usize {
        self.index_of(sample.as_ps())
    }

    /// Largest value mapping to bucket `idx`, as a [`Time`] — the edge
    /// [`quantile`](Self::quantile) reports before clamping to the max.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.bucket_len()`.
    pub fn bucket_upper_edge(&self, idx: usize) -> Time {
        assert!(idx < self.bucket_len(), "bucket index out of range");
        Time::from_ps(self.upper_edge(idx))
    }

    /// Bucket index for a raw picosecond value.
    #[inline]
    fn index_of(&self, ps: u64) -> usize {
        let sub = self.sub_bits;
        if ps < (1 << sub) {
            return ps as usize;
        }
        let msb = 63 - ps.leading_zeros();
        let block = (msb - sub + 1) as usize;
        let sub_idx = ((ps >> (msb - sub)) & ((1 << sub) - 1)) as usize;
        (block << sub) | sub_idx
    }

    /// Largest value mapping to bucket `idx` (the reported quantile edge).
    fn upper_edge(&self, idx: usize) -> u64 {
        let sub = self.sub_bits;
        let block = idx >> sub;
        if block == 0 {
            return idx as u64;
        }
        let msb = block as u32 + sub - 1;
        let sub_idx = (idx & ((1 << sub) - 1)) as u64;
        let width = 1u64 << (msb - sub);
        // The topmost bucket's exclusive upper bound is 2^64; saturate
        // instead of overflowing (callers clamp to the recorded max).
        (1u64 << msb)
            .checked_add((sub_idx + 1) * width)
            .map(|upper| upper - 1)
            .unwrap_or(u64::MAX)
    }

    /// Widens the stored window to hold buckets `lo..=hi`. A window that
    /// must move at least doubles (the first one holds `FIRST_WINDOW`
    /// buckets), and its spare room goes to the side that needed it, so
    /// a histogram reallocates a handful of times at most.
    fn cover(&mut self, lo: usize, hi: usize) {
        let (old_lo, old_len) = (self.base, self.counts.len());
        let old_hi = old_lo + old_len;
        if old_len > 0 && old_lo <= lo && hi < old_hi {
            return;
        }
        let (need_lo, need_hi) = if old_len == 0 {
            (lo, hi + 1)
        } else {
            (lo.min(old_lo), (hi + 1).max(old_hi))
        };
        let total = self.bucket_len();
        let len = (need_hi - need_lo)
            .max(2 * old_len)
            .max(Self::FIRST_WINDOW)
            .min(total);
        let spare = len - (need_hi - need_lo);
        // A first window is centred on its sample; a grown one extends
        // below only when it grew downward.
        let below = match old_len {
            0 => spare / 2,
            _ if need_lo < old_lo => spare,
            _ => 0,
        };
        let base = need_lo.saturating_sub(below).min(total - len);
        // Grown by reallocation, which can extend the buffer where it lies
        // instead of leaving the old one behind as a hole; the stored
        // counts then move up by however far the base moved down.
        let shift = if old_len == 0 { 0 } else { old_lo - base };
        self.counts.reserve_exact(len - old_len);
        self.counts.resize(len, 0);
        self.counts.copy_within(..old_len, shift);
        self.counts[..shift].fill(0);
        self.base = base;
    }

    /// Counts a sample in bucket `idx`, outside the stored window: the
    /// out-of-line half of [`record`](Self::record).
    #[cold]
    #[inline(never)]
    fn record_outside(&mut self, idx: usize) {
        self.cover(idx, idx);
        self.counts[idx - self.base] += 1;
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: Time) {
        let idx = self.index_of(sample.as_ps());
        match self.counts.get_mut(idx.wrapping_sub(self.base)) {
            Some(c) => *c += 1,
            None => self.record_outside(idx),
        }
        self.count += 1;
        // Saturate the running sum: extreme samples must not poison the
        // whole histogram (the mean degrades, quantiles stay exact).
        self.sum = self.sum.checked_add(sample).unwrap_or(Time::MAX);
        if sample < self.min {
            self.min = sample;
        }
        if sample > self.max {
            self.max = sample;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean, or [`Time::ZERO`] when empty.
    pub fn mean(&self) -> Time {
        if self.count == 0 {
            Time::ZERO
        } else {
            self.sum / self.count
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<Time> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<Time> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` when empty.
    ///
    /// The result is the upper edge of the bucket holding the rank-`⌈qN⌉`
    /// sample, clamped to the recorded maximum: it is never below the
    /// exact quantile and overshoots it by at most a `2^-sub_bits`
    /// fraction.
    pub fn quantile(&self, q: f64) -> Option<Time> {
        self.quantiles([q]).map(|[t]| t)
    }

    /// Convenience tail summary: (p50, p95, p99, p99.9).
    pub fn tail(&self) -> Option<(Time, Time, Time, Time)> {
        self.quantiles([0.50, 0.95, 0.99, 0.999])
            .map(|[p50, p95, p99, p999]| (p50, p95, p99, p999))
    }

    /// The [`quantile`](Self::quantile) of each of `qs`, ascending, in
    /// one walk over the occupied buckets `bucket_of(min)..=bucket_of(max)`
    /// (every sample lies in that range); `None` when empty.
    fn quantiles<const N: usize>(&self, qs: [f64; N]) -> Option<[Time; N]> {
        if self.count == 0 {
            return None;
        }
        let targets = qs.map(|q| ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64);
        let mut out = [self.max; N];
        let (lo, hi) = (self.bucket_of(self.min), self.bucket_of(self.max));
        let mut next = 0;
        let mut seen = 0u64;
        let occupied = &self.counts[lo - self.base..=hi - self.base];
        for (i, &c) in occupied.iter().enumerate() {
            seen += c;
            while next < N && seen >= targets[next] {
                out[next] = Time::from_ps(self.upper_edge(lo + i)).min(self.max);
                next += 1;
            }
            if next == N {
                break;
            }
        }
        Some(out)
    }

    /// Folds `other` into `self` (used to merge per-shard histograms),
    /// adding only `other`'s occupied buckets.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different resolutions.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.sub_bits, other.sub_bits, "resolution mismatch");
        if other.count == 0 {
            return;
        }
        let (lo, hi) = (other.bucket_of(other.min), other.bucket_of(other.max));
        self.cover(lo, hi);
        let mine = &mut self.counts[lo - self.base..=hi - self.base];
        let theirs = &other.counts[lo - other.base..=hi - other.base];
        for (a, b) in mine.iter_mut().zip(theirs) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.checked_add(other.sum).unwrap_or(Time::MAX);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_is_exact_below_subbucket_range() {
        let mut h = LogHistogram::with_resolution(7);
        for ps in 0..100u64 {
            h.record(Time::from_ps(ps));
        }
        // Values below 2^7 ps land in exact unit buckets.
        assert_eq!(h.quantile(0.5), Some(Time::from_ps(49)));
        assert_eq!(h.quantile(1.0), Some(Time::from_ps(99)));
        assert_eq!(h.min(), Some(Time::ZERO));
    }

    #[test]
    fn log_histogram_bounds_relative_error() {
        let mut h = LogHistogram::new();
        let mut samples: Vec<u64> = (0..5000u64)
            .map(|i| (i * 2_654_435_761) % 10_000_000 + 1)
            .collect();
        for &s in &samples {
            h.record(Time::from_ns(s));
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((samples.len() as f64) * q).ceil().max(1.0) as usize - 1;
            let exact = Time::from_ns(samples[rank]);
            let est = h.quantile(q).unwrap();
            assert!(est >= exact, "q={q}: {est} < exact {exact}");
            let rel = (est.as_ps() - exact.as_ps()) as f64 / exact.as_ps() as f64;
            assert!(rel <= 1.0 / 128.0 + 1e-9, "q={q}: rel err {rel}");
        }
    }

    #[test]
    fn log_histogram_handles_extreme_samples() {
        // Samples at the top of the u64 range must not overflow the
        // bucket-edge arithmetic.
        let mut h = LogHistogram::new();
        h.record(Time::MAX);
        h.record(Time::from_ps(u64::MAX - 1));
        // Both land in the topmost bucket; the edge saturates and the
        // clamp to the recorded max keeps the estimate exact.
        assert_eq!(h.quantile(1.0), Some(Time::MAX));
        assert_eq!(h.quantile(0.01), Some(Time::MAX));
        assert_eq!(h.max(), Some(Time::MAX));
    }

    #[test]
    fn log_histogram_bucket_api_matches_recording() {
        let mut h = LogHistogram::new();
        for us in [1u64, 17, 900, 4096] {
            h.record(Time::from_us(us));
        }
        // Every recorded sample sits at or below its bucket's upper edge,
        // and the edge maps back to the same bucket (edges are members).
        for us in [1u64, 17, 900, 4096] {
            let t = Time::from_us(us);
            let idx = h.bucket_of(t);
            assert!(idx < h.bucket_len());
            let edge = h.bucket_upper_edge(idx);
            assert!(edge >= t);
            assert_eq!(h.bucket_of(edge), idx);
        }
        // A quantile's bucket is reachable through the public index, so
        // side tables binned by `bucket_of` align with quantile lookups.
        let p99 = h.quantile(0.99).unwrap();
        assert!(h.bucket_of(p99) < h.bucket_len());
    }

    #[test]
    fn log_histogram_merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for i in 1..=1000u64 {
            let t = Time::from_us(i * 7 % 997 + 1);
            if i % 2 == 0 {
                a.record(t);
            } else {
                b.record(t);
            }
            whole.record(t);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.mean(), whole.mean());
        for q in [0.5, 0.95, 0.99, 0.999] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn log_histogram_empty_and_tail() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), None);
        assert!(h.tail().is_none());
        let mut h = LogHistogram::new();
        h.record(Time::from_ms(3));
        let (p50, p95, p99, p999) = h.tail().unwrap();
        assert_eq!(p50, Time::from_ms(3));
        assert_eq!(p999, Time::from_ms(3));
        assert!(p95 <= p99);
    }

    const QS: [f64; 9] = [0.0, 0.001, 0.25, 0.5, 0.95, 0.99, 0.999, 0.9999, 1.0];

    /// Every one of `h`'s 7,424 bucket counts, stored or not: the dense
    /// layout the windowed one must read like.
    fn dense(h: &LogHistogram) -> Vec<u64> {
        let mut all = vec![0; h.bucket_len()];
        all[h.base..][..h.counts.len()].copy_from_slice(&h.counts);
        all
    }

    /// The quantile read without the occupied-range bound: a walk over
    /// every dense bucket from the first.
    fn full_walk_quantile(h: &LogHistogram, q: f64) -> Option<Time> {
        if h.count == 0 {
            return None;
        }
        let target = ((h.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in dense(h).into_iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Time::from_ps(h.upper_edge(i)).min(h.max));
            }
        }
        Some(h.max)
    }

    /// Checks every bounded read of `h` against the full walk.
    fn assert_reads_match_full_walk(h: &LogHistogram, what: &str) {
        for q in QS {
            assert_eq!(h.quantile(q), full_walk_quantile(h, q), "{what}: q={q}");
        }
        let full = [0.50, 0.95, 0.99, 0.999].map(|q| full_walk_quantile(h, q));
        let tail = h.tail();
        assert_eq!(tail.map(|t| t.0), full[0], "{what}: p50");
        assert_eq!(tail.map(|t| t.1), full[1], "{what}: p95");
        assert_eq!(tail.map(|t| t.2), full[2], "{what}: p99");
        assert_eq!(tail.map(|t| t.3), full[3], "{what}: p99.9");
    }

    /// Merges `b` into a copy of `a` and checks it against a merge that
    /// adds every dense bucket.
    fn assert_merge_matches_full_walk(a: &LogHistogram, b: &LogHistogram, what: &str) {
        let mut merged = a.clone();
        merged.merge(b);
        let want: Vec<u64> = dense(a).iter().zip(dense(b)).map(|(x, y)| x + y).collect();
        assert_eq!(dense(&merged), want, "{what}: buckets");
        assert_eq!(
            (merged.count, merged.sum, merged.min, merged.max),
            (
                a.count + b.count,
                a.sum.checked_add(b.sum).unwrap_or(Time::MAX),
                a.min.min(b.min),
                a.max.max(b.max)
            ),
            "{what}: totals"
        );
        assert_reads_match_full_walk(&merged, what);
    }

    fn recorded(samples: impl IntoIterator<Item = u64>) -> LogHistogram {
        let mut h = LogHistogram::new();
        for ps in samples {
            h.record(Time::from_ps(ps));
        }
        h
    }

    #[test]
    fn bounded_reads_match_a_full_walk() {
        let mut rng = crate::rng::SimRng::seed(0x4157);
        // Seeded samples spread over every power of two, so both ends
        // of the bucket range are exercised.
        let mut random = |n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    let bits: u32 = rng.gen_range(0..64);
                    rng.next_u64() >> bits
                })
                .collect()
        };
        let cases = [
            ("empty", Vec::new()),
            ("one sample", vec![1_234_567]),
            ("a 0 ps sample", vec![0]),
            ("0 ps among others", vec![0, 0, 5, 900_000, 3]),
            ("top block", vec![u64::MAX, u64::MAX - 1, 1 << 63]),
            ("unit buckets only", (0..100).collect()),
            ("random 10", random(10)),
            ("random 1000", random(1000)),
            ("random 20000", random(20_000)),
        ];
        for (what, samples) in &cases {
            assert_reads_match_full_walk(&recorded(samples.iter().copied()), what);
        }
        for (a_what, a) in &cases {
            for (b_what, b) in &cases {
                let (a, b) = (recorded(a.iter().copied()), recorded(b.iter().copied()));
                assert_merge_matches_full_walk(&a, &b, &format!("{a_what} + {b_what}"));
            }
        }
    }

    #[test]
    fn merging_disjoint_ranges_matches_a_full_walk() {
        // Microsecond samples and millisecond samples share no bucket;
        // each side's occupied range lies wholly outside the other's.
        let low = recorded((1..=500).map(|i| i * 2_000_000));
        let high = recorded((1..=300).map(|i| i * 7_000_000_000));
        assert_merge_matches_full_walk(&low, &high, "low + high");
        assert_merge_matches_full_walk(&high, &low, "high + low");
        // Stored windows that share no bucket either: the merge widens
        // the receiving window across the gap.
        let (tiny, huge) = (recorded([1, 2, 3]), recorded([1 << 62, 3 << 61]));
        assert!(
            tiny.base + tiny.counts.len() <= huge.base,
            "windows are disjoint"
        );
        assert_merge_matches_full_walk(&tiny, &huge, "tiny + huge");
        assert_merge_matches_full_walk(&huge, &tiny, "huge + tiny");
        let mut both = low.clone();
        both.merge(&high);
        assert_eq!(both.quantile(0.5), low.quantile(0.8));
        assert_eq!(both.quantile(1.0), high.quantile(1.0));
    }

    #[test]
    fn bucket_len_is_the_full_dense_range() {
        let h = LogHistogram::new();
        assert_eq!(h.bucket_len(), 7_424);
        assert_eq!(h.bucket_of(Time::MAX), 7_423);
        assert_eq!(h.bucket_upper_edge(7_423), Time::MAX);
        assert_eq!(LogHistogram::with_resolution(1).bucket_len(), 128);
    }

    #[test]
    fn an_unrecorded_histogram_holds_no_heap_buffer() {
        let mut h = LogHistogram::new();
        assert_eq!(h.counts.capacity(), 0);
        h.merge(&LogHistogram::new());
        assert_eq!(h.counts.capacity(), 0);
        assert_eq!((h.count(), h.quantile(0.5)), (0, None));
        let c = h.clone();
        assert_eq!(c.counts.capacity(), 0);
        h.record(Time::from_us(3));
        assert!(h.counts.capacity() > 0 && h.counts.len() < h.bucket_len());
    }

    #[test]
    fn a_sample_below_the_stored_range_widens_it_downward() {
        let mut h = recorded([5_000_000_000]);
        let (base, len) = (h.base, h.counts.len());
        assert!(base > 0 && len < h.bucket_len());
        h.record(Time::from_ps(3));
        assert!(h.base <= h.bucket_of(Time::from_ps(3)));
        assert_eq!(h.base + h.counts.len(), base + len, "grew downward only");
        assert_eq!(dense(&h)[3], 1);
        assert_eq!(dense(&h).iter().sum::<u64>(), 2);
        assert_eq!(h.quantile(0.5), Some(Time::from_ps(3)));
        assert_reads_match_full_walk(&h, "below the range");
        // Then one above it: both ends now recorded.
        h.record(Time::from_ps(u64::MAX));
        assert_eq!(dense(&h)[h.bucket_len() - 1], 1);
        assert_reads_match_full_walk(&h, "below then above the range");
    }

    #[test]
    fn zero_and_top_block_samples_span_the_whole_range() {
        let h = recorded([0, u64::MAX, 0, 1 << 63, 77]);
        assert_eq!((h.base, h.counts.len()), (0, h.bucket_len()));
        assert_eq!(dense(&h)[0], 2);
        assert_eq!(h.quantile(0.0), Some(Time::ZERO));
        assert_eq!(h.quantile(1.0), Some(Time::MAX));
        assert_reads_match_full_walk(&h, "0 ps and top block");
        let top = recorded([u64::MAX]);
        assert_eq!(top.base + top.counts.len(), top.bucket_len());
        assert_reads_match_full_walk(&top, "top block alone");
    }

    #[test]
    fn merging_into_an_empty_histogram_copies_the_occupied_range() {
        for samples in [
            vec![1_234_567],
            vec![0, 9, u64::MAX],
            (1..=400).map(|i| i * 999).collect(),
        ] {
            let src = recorded(samples);
            let mut empty = LogHistogram::new();
            empty.merge(&src);
            assert_eq!(dense(&empty), dense(&src));
            assert_eq!(empty.tail(), src.tail());
            assert_merge_matches_full_walk(&LogHistogram::new(), &src, "empty + src");
        }
    }
}
