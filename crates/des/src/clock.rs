//! Simulated time.
//!
//! Time in this engine is an integer cycle count (`u64`). The paper
//! expresses all service times, waits, inter-arrival times, and deadlines
//! in processor cycles, so an integer clock is exact: there is no
//! floating-point drift over long streams.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in device cycles since simulation
/// start.
///
/// `SimTime` is ordered and supports the small amount of arithmetic a
/// simulation needs: adding a duration (another `SimTime`, interpreted as
/// a span) and subtracting an earlier time to get a span. Subtraction
/// panics (in all build profiles) if it would underflow, because a
/// negative span always indicates a causality bug in the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; useful as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct a time from a raw cycle count.
    #[inline]
    pub const fn from_cycles(cycles: u64) -> Self {
        SimTime(cycles)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// The cycle count as `f64` (for statistics and reporting only).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier > self`; a negative span is a causality bug.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimTime {
        assert!(
            earlier.0 <= self.0,
            "causality violation: span from {} to {}",
            earlier,
            self
        );
        SimTime(self.0 - earlier.0)
    }

    /// Saturating addition of a span.
    #[inline]
    pub fn saturating_add(self, span: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(span.0))
    }

    /// Round a `f64` cycle quantity to the nearest integer time.
    ///
    /// Values are clamped to `[0, u64::MAX]`; NaN maps to zero. This is
    /// how continuous optimizer outputs (e.g. wait times `w_i`) are
    /// realized on the integer simulation clock.
    pub fn from_f64_rounded(cycles: f64) -> SimTime {
        if cycles.is_nan() || cycles <= 0.0 {
            SimTime(0)
        } else if cycles >= u64::MAX as f64 {
            SimTime(u64::MAX)
        } else {
            SimTime(cycles.round() as u64)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulated horizon exceeds u64 cycles"),
        )
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_cycles(42);
        assert_eq!(t.cycles(), 42);
        assert_eq!(t.as_f64(), 42.0);
        assert_eq!(SimTime::ZERO.cycles(), 0);
    }

    #[test]
    fn add_and_since() {
        let a = SimTime::from_cycles(10);
        let b = SimTime::from_cycles(25);
        assert_eq!((a + SimTime::from_cycles(15)), b);
        assert_eq!(b.since(a).cycles(), 15);
        assert_eq!((b - a).cycles(), 15);
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn since_panics_on_negative_span() {
        let _ = SimTime::from_cycles(1).since(SimTime::from_cycles(2));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimTime::from_cycles(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn f64_rounding_edge_cases() {
        assert_eq!(SimTime::from_f64_rounded(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_f64_rounded(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_f64_rounded(2.5).cycles(), 3);
        assert_eq!(SimTime::from_f64_rounded(2.4).cycles(), 2);
        assert_eq!(SimTime::from_f64_rounded(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_cycles(7).to_string(), "7cy");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_cycles(1) < SimTime::from_cycles(2));
        assert!(SimTime::MAX > SimTime::ZERO);
    }
}
