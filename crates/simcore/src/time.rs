//! Simulation clock types.
//!
//! The simulator measures time in integer **nanoseconds** so that event
//! ordering is exact and platform independent: [`SimTime`] and
//! [`SimDuration`] implement total ordering ([`Ord`]) and hashing, which
//! `f64` seconds cannot.
//!
//! Conversions to and from floating-point seconds are provided for the
//! analytical layers (queueing formulas, rate estimation) that naturally
//! work in seconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of nanoseconds per second, as used by the clock types.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is a monotone, totally ordered instant. Subtracting two
/// instants yields a [`SimDuration`].
///
/// # Example
///
/// ```
/// use simcore::time::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_millis(40);
/// assert_eq!(t1 - t0, SimDuration::from_millis(40));
/// assert!((t1.as_secs_f64() - 0.040).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The latest representable instant; useful as an "infinitely far away"
    /// sentinel for events that are currently unscheduled.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole nanoseconds since simulation start.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from floating-point seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    #[must_use]
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        u64_to_f64(self.0) / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`] instead of
    /// overflowing.
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulation time, in nanoseconds.
///
/// # Example
///
/// ```
/// use simcore::time::SimDuration;
///
/// let frame = SimDuration::from_secs_f64(1.0 / 30.0);
/// assert!((frame.as_secs_f64() - 0.0333333).abs() < 1e-6);
/// assert_eq!(frame * 3, SimDuration::from_nanos(99_999_999));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from floating-point seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Whole nanoseconds in this span.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in floating-point seconds.
    #[must_use]
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        u64_to_f64(self.0) / NANOS_PER_SEC as f64
    }

    /// `true` if this span is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Adds two spans, saturating at [`SimDuration::MAX`].
    #[must_use]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Subtracts, saturating at zero.
    #[must_use]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// `n as f64`. Below 2^63 — every instant of a simulation — it goes
/// through the signed conversion, one instruction on x86-64 without
/// AVX-512, where the unsigned one is a multi-instruction sequence.
/// Both round the same integer to the same nearest `f64`.
#[inline]
pub(crate) fn u64_to_f64(n: u64) -> f64 {
    if let Ok(signed) = i64::try_from(n) {
        signed as f64
    } else {
        u64_to_f64_cold(n)
    }
}

#[cold]
fn u64_to_f64_cold(n: u64) -> f64 {
    n as f64
}

/// `x as u64` for `0 <= x <= u64::MAX as f64`, through the signed
/// conversion below 2^63 (see [`u64_to_f64`]). Both truncate toward
/// zero.
#[inline]
fn f64_to_u64(x: f64) -> u64 {
    const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
    if x < TWO_POW_63 {
        x as i64 as u64
    } else {
        f64_to_u64_cold(x)
    }
}

#[cold]
fn f64_to_u64_cold(x: f64) -> u64 {
    x as u64
}

#[inline]
fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "time in seconds must be finite and non-negative, got {secs}"
    );
    let nanos = secs * NANOS_PER_SEC as f64;
    assert!(
        nanos <= u64::MAX as f64,
        "time in seconds too large to represent: {secs}"
    );
    // `nanos.round() as u64` without the libm call `round` compiles to
    // on targets without SSE4.1. For non-negative `nanos` the fraction
    // `nanos - truncated` is exact, and it is zero from 2^52 on, so
    // rounding half up from it is exactly `round`'s half-away-from-zero.
    let truncated = f64_to_u64(nanos);
    if nanos - u64_to_f64(truncated) >= 0.5 {
        truncated + 1
    } else {
        truncated
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs_f64() {
        let t = SimTime::from_secs_f64(123.456789);
        assert!((t.as_secs_f64() - 123.456789).abs() < 1e-9);
    }

    #[test]
    fn secs_to_nanos_matches_round_to_nearest() {
        let mut probes = vec![
            0.0,
            0.49e-9,
            0.5e-9,
            1.5e-9,
            2.5e-9,
            f64::MIN_POSITIVE,
            u64::MAX as f64 / 1e9,
        ];
        // Values on both sides of every half-nanosecond boundary, up to
        // and past 2^52 ns, where every f64 is an integer.
        for n in [
            0u64,
            1,
            2,
            7,
            1_000,
            123_456_789,
            1 << 40,
            1 << 51,
            1 << 52,
            1 << 53,
        ] {
            let half = (n as f64 + 0.5) / 1e9;
            let (below, above) = (half.next_down(), half.next_up());
            probes.extend([half, below, above]);
        }
        // Uniform draws at every decade from 1 ns to 10^7 s.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..160_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
            probes.push(unit * 10f64.powi(i % 16 - 8));
        }
        for secs in probes {
            let expected = (secs * NANOS_PER_SEC as f64).round() as u64;
            assert_eq!(secs_to_nanos(secs), expected, "secs = {secs:e}");
        }
    }

    #[test]
    fn conversions_match_the_unsigned_casts() {
        let mut ints = vec![
            0u64,
            1,
            (1 << 53) + 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX,
        ];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Every bit width, so both branches see many values.
            ints.push(x >> (i % 64));
        }
        for n in ints {
            assert_eq!(u64_to_f64(n).to_bits(), (n as f64).to_bits(), "{n}");
            assert_eq!(
                SimDuration::from_nanos(n).as_secs_f64().to_bits(),
                (n as f64 / 1e9).to_bits()
            );
            let f = n as f64;
            if f <= u64::MAX as f64 {
                assert_eq!(f64_to_u64(f), f as u64, "{f:e}");
                assert_eq!(f64_to_u64(f.next_down()), f.next_down() as u64);
            }
        }
    }

    #[test]
    fn arithmetic_time_duration() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!((t + d).as_nanos(), 140);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_nanos(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_nanos(3).saturating_sub(SimDuration::from_nanos(8)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_sum_and_mul() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
        assert_eq!(
            SimDuration::from_millis(3) * 4,
            SimDuration::from_millis(12)
        );
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimTime::from_secs_f64(0.25).to_string(), "0.250000s");
    }

    #[test]
    fn conversion_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1_000), SimDuration::from_millis(1));
        assert_eq!(SimDuration::from_millis(1_000), SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), NANOS_PER_SEC);
    }
}
