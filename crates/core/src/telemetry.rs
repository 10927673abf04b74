//! Per-solve telemetry attached to schedules.
//!
//! Every optimizer in this crate reports *how* it arrived at a schedule:
//! iteration counts, the final residual, the per-step residual series,
//! and wall time. The enforced schedules come from exact water-filling
//! (its iterations are deadline-price evaluations); the interior-point
//! oracle the tests compare against also reports its barrier-weight
//! trajectory and phase-1 effort. The data rides on
//! [`crate::WaitSchedule`] / [`crate::MonolithicSchedule`] so callers
//! (the bench harness, the CLI) can aggregate it into run manifests
//! without re-instrumenting each solver.
//!
//! A sweep cell keeps only the counts, as a [`CellTelemetry`]: a grid
//! holds thousands of cells, and the method name, residual series and
//! wall time would cost each of them heap allocations and clock reads.
//! The sweep times its solves per row segment instead
//! ([`crate::comparison::SweepLayers`]).

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// How a single solve went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveTelemetry {
    /// Algorithm that produced the result (e.g. `"water-filling"`,
    /// `"interior-point"`, `"breakpoint"`, `"scan"`).
    pub method: String,
    /// Iteration count in the method's natural unit: total Newton
    /// iterations (phase-1 included) for interior point, budget
    /// evaluations for water-filling, objective evaluations for the
    /// integer searches.
    pub iterations: u64,
    /// Final residual in the method's natural unit: duality-gap bound
    /// for interior point, deadline-budget slack for water-filling,
    /// 0 for exact integer searches.
    pub residual: f64,
    /// Barrier weight trajectory (interior point only; empty otherwise).
    pub barrier_mu: Vec<f64>,
    /// Per-iteration convergence series in the method's residual unit:
    /// duality-gap bound per barrier stage for interior point,
    /// deadline-budget slack per budget evaluation at a positive price
    /// for water-filling (the λ = 0 check that the deadline is slack at
    /// the stability caps records none).
    /// Empty for exact integer searches.
    pub residual_series: Vec<f64>,
    /// Wall-clock time the solve took, in microseconds.
    pub wall_micros: f64,
    /// Phase-1 (feasibility restoration) Newton iterations, when the
    /// method ran a phase-1 (interior point only; `None` otherwise).
    pub phase1_iterations: Option<u64>,
}

impl SolveTelemetry {
    /// Telemetry with everything zeroed except the method name; callers
    /// fill the rest in as the solve proceeds.
    pub fn new(method: impl Into<String>) -> Self {
        SolveTelemetry {
            method: method.into(),
            iterations: 0,
            residual: 0.0,
            barrier_mu: Vec::new(),
            residual_series: Vec::new(),
            wall_micros: 0.0,
            phase1_iterations: None,
        }
    }
}

/// What a sweep cell keeps of one solve: the counts of a
/// [`SolveTelemetry`], without its method name, series or wall time.
/// It holds no heap data, so a cell costs only its solves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellTelemetry {
    /// Iteration count, as [`SolveTelemetry::iterations`].
    pub iterations: u64,
    /// Final residual, as [`SolveTelemetry::residual`].
    pub residual: f64,
}

impl From<&SolveTelemetry> for CellTelemetry {
    fn from(t: &SolveTelemetry) -> Self {
        CellTelemetry {
            iterations: t.iterations,
            residual: t.residual,
        }
    }
}

/// Measure the wall time of `f` and stamp it (in microseconds) onto the
/// telemetry its result carries via the returned closure's output.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_zeroes_everything_but_method() {
        let t = SolveTelemetry::new("water-filling");
        assert_eq!(t.method, "water-filling");
        assert_eq!(t.iterations, 0);
        assert_eq!(t.phase1_iterations, None);
        assert!(t.barrier_mu.is_empty());
        assert!(t.residual_series.is_empty());
    }

    #[test]
    fn timed_reports_nonnegative_micros() {
        let (v, us) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(us >= 0.0);
    }

    #[test]
    fn serializes_roundtrip() {
        let mut t = SolveTelemetry::new("interior-point");
        t.iterations = 12;
        t.barrier_mu = vec![1.0, 20.0];
        t.residual_series = vec![0.5, 0.05, 0.005];
        t.phase1_iterations = Some(3);
        let v = serde_json::to_value(&t).unwrap();
        let back: SolveTelemetry = serde_json::from_value(&v).unwrap();
        assert_eq!(back, t);
    }
}
