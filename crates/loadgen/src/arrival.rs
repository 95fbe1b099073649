//! Arrival processes.
//!
//! Every load shape is open loop: requests arrive independent of
//! completions (an internet-facing front door, where overload is
//! possible and admission control matters), either by a Poisson process
//! at a fixed rate or by a Poisson process whose rate switches between
//! a base and a burst phase.
//!
//! `ArrivalDraws` is the one place an arrival's gap, class and user
//! are drawn, from the run's arrival stream; the tape fillers
//! (`crate::tape`) draw every run's arrivals through it, so an
//! identical seed replays an identical arrival trace.

use std::ops::Range;

use venice_sim::{SimRng, Time};
use venice_workloads::ZipfSampler;

use crate::engine::{seed_streams, LoadgenConfig};

/// How requests enter the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at `rate_rps` requests per second.
    OpenPoisson {
        /// Offered load in requests per second.
        rate_rps: f64,
    },
    /// Bursty open-loop arrivals: a Poisson process whose rate switches
    /// between `base_rps` and `burst_rps` on a fixed cycle (a modulated
    /// Poisson process — the canonical model for diurnal spikes and flash
    /// crowds). During the burst window a `crowd_share` fraction of
    /// arrivals comes from a small *flash crowd* of `crowd_users` users
    /// (uniform over ranks `[0, crowd_users)`), concentrating demand on
    /// the few nodes those users map to — the scenario elastic leases
    /// exist for.
    Bursty {
        /// Off-burst offered rate (requests per second).
        base_rps: f64,
        /// In-burst offered rate (requests per second).
        burst_rps: f64,
        /// Cycle length; the burst occupies the start of each cycle.
        period: Time,
        /// Burst duration within each cycle (must be `< period`).
        burst_len: Time,
        /// Flash-crowd population active during bursts (0 disables the
        /// crowd; bursts then keep the mix's normal user skew).
        crowd_users: u64,
        /// Fraction of in-burst arrivals drawn from the flash crowd.
        crowd_share: f64,
    },
}

impl ArrivalProcess {
    /// Whether `now` falls inside a burst window (always `false` for
    /// plain Poisson arrivals).
    pub fn in_burst(&self, now: Time) -> bool {
        match self {
            ArrivalProcess::Bursty {
                period, burst_len, ..
            } => now.as_ps() % period.as_ps() < burst_len.as_ps(),
            _ => false,
        }
    }

    /// Validates the process parameters (the engine calls this before a
    /// run, so misconfiguration fails loudly at setup instead of deep in
    /// the event loop).
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite rates, a zero burst period,
    /// a burst filling (or exceeding) its period, or a crowd share
    /// outside `[0, 1]`.
    pub fn validate(&self) {
        match self {
            ArrivalProcess::OpenPoisson { rate_rps } => {
                assert!(
                    rate_rps.is_finite() && *rate_rps > 0.0,
                    "arrival rate must be positive, got {rate_rps}"
                );
            }
            ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                period,
                burst_len,
                crowd_share,
                ..
            } => {
                assert!(
                    base_rps.is_finite() && *base_rps > 0.0,
                    "base rate must be positive, got {base_rps}"
                );
                assert!(
                    burst_rps.is_finite() && *burst_rps > 0.0,
                    "burst rate must be positive, got {burst_rps}"
                );
                assert!(*period > Time::ZERO, "burst period must be positive");
                assert!(
                    burst_len < period,
                    "burst length {burst_len} must be shorter than the period {period}"
                );
                assert!(
                    (0.0..=1.0).contains(crowd_share),
                    "crowd share must be in [0, 1], got {crowd_share}"
                );
            }
        }
    }

    /// The instantaneous offered rate at `now`; always `Some`, since
    /// every process has a rate. The `Option` stays in the signature
    /// because callers outside this workspace (the benchmark crate)
    /// unwrap it.
    pub fn rate_at(&self, now: Time) -> Option<f64> {
        match self {
            ArrivalProcess::OpenPoisson { rate_rps } => Some(*rate_rps),
            ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                ..
            } => Some(if self.in_burst(now) {
                *burst_rps
            } else {
                *base_rps
            }),
        }
    }
}

/// Draws an exponential duration with the given mean.
///
/// Uses inverse-CDF sampling; the uniform draw is clamped away from 1 so
/// the logarithm stays finite.
pub fn exponential(rng: &mut SimRng, mean: Time) -> Time {
    let u = rng.unit().min(1.0 - 1e-12);
    mean.scale(-(1.0 - u).ln())
}

/// The engine RNG and the arrival constants it draws against: the one
/// place an arrival's gap, class and user are drawn. Arrivals are drawn
/// ahead onto the arrival tape by a filler over a copy
/// (`crate::tape::Filler`), for a sharded or a sequential run.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalDraws {
    rng: SimRng,
    weights: Vec<f64>,
    /// `weights.iter().sum()`, hoisted for the per-arrival class draw.
    weight_total: f64,
    zipf: ZipfSampler,
    arrival: ArrivalProcess,
    /// Precomputed `(off-burst, in-burst)` exponential gap means of the
    /// arrival process — the per-arrival division and float→[`Time`]
    /// conversion hoisted to setup (both halves equal for plain
    /// Poisson).
    gaps: (Time, Time),
}

impl ArrivalDraws {
    /// Engine-RNG words one [`OpenPoisson`](ArrivalProcess::OpenPoisson)
    /// arrival draws after the first: the gap, the class and the user
    /// each take one `unit()`. The first arrival draws no gap.
    pub(crate) const POISSON_WORDS: u64 = 3;

    /// The arrival draws of a run of `config`, from the arrival stream
    /// of its seed ([`seed_streams`]).
    pub(crate) fn new(config: &LoadgenConfig) -> Self {
        // Per-phase mean gaps, computed once with the exact expression
        // the per-arrival path used to evaluate (`1/rate` through
        // `Time::from_secs_f64`), so the hoisted values are bit-identical.
        let gaps = match config.arrival {
            ArrivalProcess::OpenPoisson { rate_rps } => {
                let gap = Time::from_secs_f64(1.0 / rate_rps);
                (gap, gap)
            }
            ArrivalProcess::Bursty {
                base_rps,
                burst_rps,
                ..
            } => (
                Time::from_secs_f64(1.0 / base_rps),
                Time::from_secs_f64(1.0 / burst_rps),
            ),
        };
        ArrivalDraws {
            rng: seed_streams(config.seed).0,
            weight_total: config.mix.weights().iter().sum(),
            weights: config.mix.weights(),
            zipf: config.mix.user_sampler(),
            arrival: config.arrival,
            gaps,
        }
    }

    /// The exponential gap from an arrival at `now` to the next, at the
    /// process's rate at `now`.
    #[inline]
    pub(crate) fn gap(&mut self, now: Time) -> Time {
        let (base, burst) = self.gaps;
        // Phase selection mirrors ArrivalProcess::rate_at exactly; the
        // per-phase mean gaps were precomputed from the same rates.
        let mean = if self.arrival.in_burst(now) {
            burst
        } else {
            base
        };
        exponential(&mut self.rng, mean)
    }

    /// Draws one request's tenant class and user for an arrival at
    /// `now`. During a bursty process's burst window, a `crowd_share`
    /// fraction of arrivals comes from the flash-crowd population
    /// instead of the mix's Zipf tail.
    #[inline]
    pub(crate) fn request(&mut self, now: Time) -> (usize, u64) {
        let class = self
            .rng
            .weighted_index_with_total(&self.weights, self.weight_total);
        let user = if let ArrivalProcess::Bursty {
            crowd_users,
            crowd_share,
            ..
        } = self.arrival
        {
            if crowd_users > 0 && self.arrival.in_burst(now) && self.rng.chance(crowd_share) {
                self.rng.gen_range(0..crowd_users)
            } else {
                self.zipf.sample(&mut self.rng)
            }
        } else {
            self.zipf.sample(&mut self.rng)
        };
        (class, user)
    }

    /// Steps over the engine-RNG words of `arrivals` without drawing
    /// them. Valid only for Poisson arrivals, whose word count is fixed
    /// ([`Self::POISSON_WORDS`]).
    pub(crate) fn skip(&mut self, arrivals: Range<u64>) {
        if arrivals.is_empty() {
            return;
        }
        debug_assert!(self.fixed_stride(), "only Poisson arrivals skip by stride");
        let words =
            Self::POISSON_WORDS * (arrivals.end - arrivals.start) - u64::from(arrivals.start == 0);
        for _ in 0..words {
            self.rng.next_u64();
        }
    }

    /// Whether every arrival draws the same number of words, so tape
    /// fillers can split an epoch by stride.
    pub(crate) fn fixed_stride(&self) -> bool {
        matches!(self.arrival, ArrivalProcess::OpenPoisson { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_draw_a_fixed_word_count() {
        // Tape fillers split a Poisson epoch by stride: every arrival
        // draws exactly POISSON_WORDS engine-RNG words, the first one
        // fewer (it draws no gap), so skipping a range of arrivals lands
        // where drawing them does.
        let config = LoadgenConfig {
            requests: 1_000,
            ..LoadgenConfig::new(0x57D1, crate::tenants::TenantMix::web_frontend())
        };
        assert!(matches!(config.arrival, ArrivalProcess::OpenPoisson { .. }));
        let mut drawn = ArrivalDraws::new(&config);
        let mut stepped = drawn.clone();
        let mut now = Time::ZERO;
        for i in 0..1_000u64 {
            if i > 0 {
                now = now.checked_add(drawn.gap(now)).unwrap();
            }
            drawn.request(now);
            if i == 400 {
                stepped.skip(0..401);
                assert_eq!(drawn.clone().rng.next_u64(), stepped.clone().rng.next_u64());
            }
        }
        stepped.skip(401..1_000);
        assert_eq!(drawn.rng.next_u64(), stepped.rng.next_u64());
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed(11);
        let mean = Time::from_us(50);
        let n = 20_000;
        let total: Time = (0..n).map(|_| exponential(&mut rng, mean)).sum();
        let avg_us = total.as_us_f64() / n as f64;
        assert!((45.0..55.0).contains(&avg_us), "avg {avg_us}us");
    }

    #[test]
    #[should_panic(expected = "shorter than the period")]
    fn burst_filling_its_period_rejected() {
        ArrivalProcess::Bursty {
            base_rps: 1_000.0,
            burst_rps: 2_000.0,
            period: Time::from_ms(100),
            burst_len: Time::from_ms(100),
            crowd_users: 0,
            crowd_share: 0.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        ArrivalProcess::Bursty {
            base_rps: 1_000.0,
            burst_rps: 2_000.0,
            period: Time::ZERO,
            burst_len: Time::ZERO,
            crowd_users: 0,
            crowd_share: 0.0,
        }
        .validate();
    }

    #[test]
    fn bursty_phases_and_rates() {
        let a = ArrivalProcess::Bursty {
            base_rps: 10_000.0,
            burst_rps: 80_000.0,
            period: Time::from_ms(100),
            burst_len: Time::from_ms(30),
            crowd_users: 4,
            crowd_share: 0.9,
        };
        assert!(a.in_burst(Time::ZERO));
        assert!(a.in_burst(Time::from_ms(29)));
        assert!(!a.in_burst(Time::from_ms(30)));
        assert!(!a.in_burst(Time::from_ms(99)));
        assert!(a.in_burst(Time::from_ms(100))); // next cycle
        assert_eq!(a.rate_at(Time::from_ms(10)), Some(80_000.0));
        assert_eq!(a.rate_at(Time::from_ms(50)), Some(10_000.0));
        // Non-bursty processes never burst.
        let open = ArrivalProcess::OpenPoisson { rate_rps: 1.0 };
        assert!(!open.in_burst(Time::from_ms(5)));
        assert_eq!(open.rate_at(Time::ZERO), Some(1.0));
    }
}
