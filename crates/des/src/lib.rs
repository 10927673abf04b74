//! # des — a deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate used by the pipeline
//! simulator in this workspace. It is deliberately generic: nothing in
//! here knows about SIMD pipelines, deadlines, or scheduling strategies.
//!
//! The engine is organized around a few small pieces:
//!
//! * [`calendar::Calendar`] — a pending-event set (priority queue) with a
//!   *stable* tie-break: events scheduled for the same timestamp fire in
//!   the order they were scheduled. Determinism of the whole simulation
//!   rests on this property.
//! * [`clock::SimTime`] — the simulated clock, a `u64` cycle count whose
//!   `+` and `-` panic on overflow and on negative spans, so arithmetic
//!   bugs surface as panics rather than silent wraparound.
//! * [`rng::RngStream`] — splittable deterministic random-number streams.
//!   Each simulation entity derives its own stream from a master seed, so
//!   adding a new entity never perturbs the random draws of existing ones.
//! * [`stats`] — online statistics (mean/variance via Welford, or folded
//!   per 256-sample chunk by [`stats::MomentAccumulator`]; min/max,
//!   fixed-bin histograms) used to accumulate measurements without
//!   storing full traces.
//! * [`obs::ObsSink`] — per-stage distributions and event counters a
//!   simulator fills through its hooks.
//!
//! ## Example
//!
//! ```
//! use des::prelude::*;
//!
//! // A toy simulation: two periodic sources write into a shared counter.
//! let mut cal: Calendar<&'static str> = Calendar::new();
//! cal.schedule(SimTime::ZERO, "a");
//! cal.schedule(SimTime::from_cycles(5), "b");
//! let mut fired = Vec::new();
//! while let Some(ev) = cal.pop() {
//!     fired.push((ev.time.cycles(), ev.payload));
//!     if fired.len() < 4 {
//!         cal.schedule(ev.time + SimTime::from_cycles(10), ev.payload);
//!     }
//! }
//! assert_eq!(fired[0], (0, "a"));
//! assert_eq!(fired[1], (5, "b"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod clock;
pub mod obs;
pub mod rng;
pub mod stats;

/// Convenience re-exports of the most commonly used engine types.
pub mod prelude {
    pub use crate::calendar::{Calendar, Event};
    pub use crate::clock::SimTime;
    pub use crate::obs::{ObsReport, ObsSink};
    pub use crate::rng::RngStream;
    pub use crate::stats::{Histogram, MomentAccumulator, OnlineStats};
}
