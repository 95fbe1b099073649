//! Simulated time.
//!
//! Venice latencies span five orders of magnitude: sub-nanosecond on-chip
//! switch hops up to multi-second workload executions. We represent time as
//! integer **picoseconds** in a `u64`, which covers ~213 days of simulated
//! time — far beyond any experiment in the paper — while keeping exact
//! arithmetic for serialization delays such as "64 bytes at 5 Gbps"
//! (102.4 ns, not representable in integer nanoseconds).
//!
//! # Rounding
//!
//! Every float-to-`Time` conversion ([`Time::from_secs_f64`],
//! [`Time::serialize_bytes`], [`Time::from_cycles`], [`Time::scale`])
//! rounds to the nearest picosecond, ties away from zero, and saturates
//! at [`Time::MAX`]: exactly `f64::round(x) as u64` for every picosecond
//! count `x` they compute, which their argument checks keep non-negative.
//! They do so with one float add and the float's bits (`round_ps`),
//! because on the baseline x86-64 target, which has no rounding
//! instruction, `f64::round` is an out-of-line soft-float call, and
//! `Time::scale` runs once per request.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in (or span of) simulated time, stored in integer picoseconds.
///
/// `Time` is used both as an absolute timestamp and as a duration; the
/// kernel only ever compares and adds values, so a single type keeps the
/// API small, mirroring `std::time::Duration` usage in practice.
///
/// # Example
///
/// ```
/// use venice_sim::Time;
/// let t = Time::from_us(1) + Time::from_ns(400);
/// assert_eq!(t.as_ns(), 1_400);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

impl Time {
    /// The zero instant (simulation start).
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000_000)
    }

    /// Creates a time from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time in seconds: {s}");
        Time(round_ps(s * 1e12))
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Time in whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Time in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; clamps at [`Time::ZERO`].
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// The duration needed to move `bytes` across a link of `gbps`
    /// gigabits per second (serialization delay).
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive.
    #[inline]
    pub fn serialize_bytes(bytes: u64, gbps: f64) -> Time {
        assert!(gbps > 0.0, "bandwidth must be positive, got {gbps}");
        // bits / (gbits/s) = ns; work in ps for precision.
        let ps = (bytes as f64 * 8.0) / gbps * 1_000.0;
        Time(round_ps(ps))
    }

    /// Duration of `cycles` cycles at `mhz` megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not strictly positive.
    pub fn from_cycles(cycles: u64, mhz: f64) -> Time {
        assert!(mhz > 0.0, "frequency must be positive, got {mhz}");
        let ps = cycles as f64 * 1e6 / mhz;
        Time(round_ps(ps))
    }

    /// Scales the time by a dimensionless factor.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    #[inline]
    pub fn scale(self, f: f64) -> Time {
        assert!(f.is_finite() && f >= 0.0, "invalid scale factor {f}");
        Time(round_ps(self.0 as f64 * f))
    }

    /// Ratio of two durations as `f64`; returns 0 when `rhs` is zero.
    pub fn ratio(self, rhs: Time) -> f64 {
        if rhs.0 == 0 {
            0.0
        } else {
            self.0 as f64 / rhs.0 as f64
        }
    }
}

/// `x.round() as u64` for `x >= 0` (`-0.0` and `+∞` included) without
/// the soft-float call: the nearest integer, ties away from zero,
/// saturating at `u64::MAX`.
///
/// An `f64` at or above 2^52 is already an integer, so the cast is
/// exact. Below it, adding 2^52 rounds `x` to the nearest integer `k`,
/// ties to even, and leaves `2^52 + k` in the float, whose bits are
/// `2^52`'s bits plus `k`: no float-to-integer conversion at all. Both
/// subtractions in `x - ((x + 2^52) - 2^52)` are exact (Sterbenz), so
/// the difference is exactly 0.5 only at a tie that went down, which
/// goes up instead. The common `(x + 0.5) as u64` is not exact: it
/// rounds `0.49999999999999994` up.
#[inline]
fn round_ps(x: f64) -> u64 {
    const TWO_52: f64 = (1u64 << 52) as f64;
    debug_assert!(x >= 0.0, "round_ps takes non-negative values, got {x}");
    if x >= TWO_52 {
        return x as u64;
    }
    let shifted = x + TWO_52;
    let k = shifted.to_bits() - TWO_52.to_bits();
    k + u64::from(x - (shifted - TWO_52) == 0.5)
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_ns(7).as_ps(), 7_000);
        assert_eq!(Time::from_us(3).as_ns(), 3_000);
        assert_eq!(Time::from_ms(2).as_us(), 2_000);
        assert_eq!(Time::from_secs(1).as_ms_f64(), 1_000.0);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(100);
        let b = Time::from_ns(40);
        assert_eq!(a + b, Time::from_ns(140));
        assert_eq!(a - b, Time::from_ns(60));
        assert_eq!(a * 3, Time::from_ns(300));
        assert_eq!(a / 4, Time::from_ns(25));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
    }

    #[test]
    fn serialization_delay_matches_hand_computation() {
        // 64 bytes at 5 Gbps = 512 bits / 5 Gbps = 102.4 ns.
        let t = Time::serialize_bytes(64, 5.0);
        assert_eq!(t.as_ps(), 102_400);
    }

    #[test]
    fn cycles_at_frequency() {
        // 667 MHz (the prototype's Cortex-A9): 1 cycle = 1499.25 ps.
        let t = Time::from_cycles(1000, 667.0);
        assert_eq!(t.as_ns(), 1_499);
    }

    #[test]
    fn scale_and_ratio() {
        let t = Time::from_ns(200);
        assert_eq!(t.scale(1.5), Time::from_ns(300));
        assert!((t.ratio(Time::from_ns(100)) - 2.0).abs() < 1e-12);
        assert_eq!(t.ratio(Time::ZERO), 0.0);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(Time::ZERO.to_string(), "0s");
        assert_eq!(Time::from_ps(12).to_string(), "12ps");
        assert_eq!(Time::from_ns(1).to_string(), "1.000ns");
        assert_eq!(Time::from_us(1).to_string(), "1.000us");
        assert_eq!(Time::from_ms(1).to_string(), "1.000ms");
        assert_eq!(Time::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Time = [Time::from_ns(1), Time::from_ns(2), Time::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_ns(6));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Time::from_secs_f64(1e-9), Time::from_ns(1));
        assert_eq!(Time::from_secs_f64(0.5).as_ms_f64(), 500.0);
    }

    #[test]
    #[should_panic]
    fn negative_seconds_panics() {
        let _ = Time::from_secs_f64(-1.0);
    }

    /// `round_ps` must be `f64::round` followed by the saturating cast.
    fn check_round(x: f64) {
        assert_eq!(
            round_ps(x),
            x.round() as u64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn round_ps_matches_f64_round_on_its_edges() {
        const TWO_52: f64 = (1u64 << 52) as f64;
        for x in [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            1_000_000.5,
            0.49999999999999994,
            0.5000000000000001,
            TWO_52 - 0.5,
            TWO_52 - 1.0,
            TWO_52,
            TWO_52 + 0.5,
            TWO_52 + 1.0,
            2.0 * TWO_52 + 1.0,
            2.0 * TWO_52 + 2.0,
            18_446_744_073_709_551_616.0, // 2^64
            f64::MAX,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
        ] {
            check_round(x);
        }
        assert_eq!(round_ps(0.49999999999999994), 0);
        assert_eq!(round_ps(2.5), 3);
        assert_eq!(round_ps(TWO_52 - 0.5), 1 << 52);
        assert_eq!(round_ps(f64::INFINITY), u64::MAX);
    }

    proptest! {
        /// Every non-negative finite `f64`: 1,024 consecutive bit
        /// patterns from a uniform start.
        #[test]
        fn round_ps_matches_f64_round_on_every_bit_pattern(
            start in 0u64..0x7FF0_0000_0000_0000,
        ) {
            for bits in start..(start + 1024).min(0x7FF0_0000_0000_0000) {
                check_round(f64::from_bits(bits));
            }
        }

        /// The same, below 2^53, where the fraction decides.
        #[test]
        fn round_ps_matches_f64_round_below_two_to_the_53(
            start in 0u64..0x4340_0000_0000_0000,
        ) {
            for bits in start..start + 1024 {
                check_round(f64::from_bits(bits));
            }
        }

        /// Service jitter: `base · (0.9 + 0.2u)` over a run of unit draws
        /// `u = k / 2^53`, the product [`Time::scale`] rounds.
        #[test]
        fn round_ps_matches_f64_round_on_service_jitter(
            base in 0u64..1 << 44,
            k in 0u64..1 << 53,
        ) {
            for k in k..(k + 1024).min(1 << 53) {
                let u = k as f64 * (1.0 / (1u64 << 53) as f64);
                check_round(base as f64 * (0.9 + 0.2 * u));
            }
        }
    }
}
