//! Zipfian key sampling (YCSB-style).
//!
//! Key popularity in caching tiers is heavy-tailed; the Redis experiments
//! also use uniform draws (the paper's "10000 random queries"). We
//! implement the standard Gray et al. zipfian generator with an
//! analytically computable hit-rate helper, so capacity sweeps do not need
//! millions of samples.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use venice_sim::SimRng;

/// Zipfian sampler over `n` items with skew `theta` (0 = uniform-ish,
/// 0.99 = YCSB default).
///
/// # Example
///
/// ```
/// use venice_workloads::ZipfSampler;
/// use venice_sim::SimRng;
///
/// let z = ZipfSampler::new(1000, 0.99);
/// let mut rng = SimRng::seed(1);
/// let k = z.sample(&mut rng);
/// assert!(k < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^theta`, hoisted out of [`ZipfSampler::sample`]: the rank-1
    /// threshold is a constant of the distribution, and `powf` per draw
    /// was the sampler's single largest cost on the loadgen hot path.
    half_pow_theta: f64,
}

/// Largest `n` whose normalizer is summed term by term; larger `n` add
/// an Euler–Maclaurin tail, which keeps setup cheap at the paper's
/// dataset sizes.
const EXACT: u64 = 100_000;

/// The normalizer `zeta(n, theta)`, memoized process-wide by
/// `(n, theta bits)`: every sweep row and run builds samplers over the
/// same few populations, and the exact head sum is most of a row's setup.
/// The value is computed once by [`zeta_uncached`], so it is bit-identical
/// to an uncached call whichever thread computes it first.
fn zeta(n: u64, theta: f64) -> f64 {
    static MEMO: OnceLock<Mutex<HashMap<(u64, u64), f64>>> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    let key = (n, theta.to_bits());
    if let Some(&z) = memo.lock().expect("zeta memo poisoned").get(&key) {
        return z;
    }
    // Computed outside the lock so rows with different keys do not
    // serialize; a racing duplicate computes the same bits.
    let z = zeta_uncached(n, theta);
    *memo
        .lock()
        .expect("zeta memo poisoned")
        .entry(key)
        .or_insert(z)
}

fn zeta_uncached(n: u64, theta: f64) -> f64 {
    if n <= EXACT {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=EXACT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        // integral_{EXACT}^{n} x^-theta dx
        let a = EXACT as f64;
        let b = n as f64;
        head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
    }
}

impl ZipfSampler {
    /// Creates a sampler over `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            theta,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws an item rank in `[0, n)`; rank 0 is the most popular.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Fraction of draws landing in the `k` most popular items —
    /// the cache hit rate of an LFU/LRU-warm cache holding `k` items.
    pub fn hit_rate(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        if k == 0 {
            return 0.0;
        }
        zeta(k, self.theta) / self.zetan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range_and_skewed() {
        let z = ZipfSampler::new(1000, 0.99);
        let mut rng = SimRng::seed(42);
        let mut top10 = 0;
        let draws = 20_000;
        for _ in 0..draws {
            let s = z.sample(&mut rng);
            assert!(s < 1000);
            if s < 10 {
                top10 += 1;
            }
        }
        // Top 1% of items should capture a large share under 0.99 skew.
        let share = top10 as f64 / draws as f64;
        assert!(share > 0.3, "top-10 share = {share}");
    }

    #[test]
    fn low_theta_is_nearly_uniform() {
        let z = ZipfSampler::new(100, 0.01);
        // Analytic hit rate of half the items should be near 0.5.
        let hr = z.hit_rate(50);
        assert!((0.45..0.60).contains(&hr), "hit rate = {hr}");
    }

    #[test]
    fn hit_rate_monotone_and_bounded() {
        let z = ZipfSampler::new(10_000, 0.99);
        let mut prev = 0.0;
        for k in [0u64, 1, 10, 100, 1000, 10_000, 20_000] {
            let h = z.hit_rate(k);
            assert!((0.0..=1.0).contains(&h));
            assert!(h >= prev);
            prev = h;
        }
        assert_eq!(z.hit_rate(10_000), 1.0);
    }

    #[test]
    fn analytic_hit_rate_matches_sampling() {
        let z = ZipfSampler::new(1000, 0.8);
        let mut rng = SimRng::seed(7);
        let k = 100;
        let draws = 50_000;
        let hits = (0..draws).filter(|_| z.sample(&mut rng) < k).count();
        let measured = hits as f64 / draws as f64;
        let analytic = z.hit_rate(k);
        assert!(
            (measured - analytic).abs() < 0.05,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn large_n_setup_is_fast_and_sane() {
        let z = ZipfSampler::new(100_000_000, 0.99);
        let h = z.hit_rate(1_000_000);
        assert!((0.0..=1.0).contains(&h));
        let mut rng = SimRng::seed(3);
        for _ in 0..100 {
            assert!(z.sample(&mut rng) < 100_000_000);
        }
    }

    #[test]
    fn memoized_zeta_is_bit_equal_to_the_uncached_sum() {
        for n in [1, 2, 999, EXACT - 1, EXACT, EXACT + 1, 4_000_000] {
            for theta in [0.0, 0.5, 0.99] {
                let want = zeta_uncached(n, theta).to_bits();
                // First call fills the memo, the second reads it.
                assert_eq!(zeta(n, theta).to_bits(), want, "n={n} theta={theta}");
                assert_eq!(zeta(n, theta).to_bits(), want, "n={n} theta={theta}");
            }
        }
    }

    #[test]
    fn racing_first_calls_agree_bit_for_bit() {
        use rayon::prelude::*;
        use std::sync::Barrier;
        // A key no other test uses, so every worker races on an empty
        // memo entry; the barrier lines the first calls up.
        let (n, theta) = (EXACT + 12_345, 0.8125);
        let workers = rayon::current_num_threads();
        let barrier = Barrier::new(workers);
        let bits: Vec<u64> = (0..workers)
            .into_par_iter()
            .map(|_| {
                barrier.wait();
                ZipfSampler::new(n, theta).zetan.to_bits()
            })
            .collect();
        let want = zeta_uncached(n, theta).to_bits();
        assert!(bits.iter().all(|&b| b == want), "{bits:x?} vs {want:x}");
    }

    #[test]
    #[should_panic]
    fn invalid_theta_rejected() {
        ZipfSampler::new(10, 1.0);
    }
}
