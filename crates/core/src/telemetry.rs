//! Per-solve telemetry attached to schedules.
//!
//! Every optimizer in this crate can report *how* it arrived at a
//! schedule — iteration counts, the final residual, the barrier weight
//! trajectory (for interior-point solves), wall time, and whether a
//! fallback path produced the answer. The data rides on
//! [`crate::WaitSchedule`] / [`crate::MonolithicSchedule`] so callers
//! (the bench harness, the CLI) can aggregate it into run manifests
//! without re-instrumenting each solver.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// How a single solve went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveTelemetry {
    /// Algorithm that produced the result (e.g. `"water-filling"`,
    /// `"interior-point"`, `"breakpoint"`, `"scan"`).
    pub method: String,
    /// Iteration count in the method's natural unit: total Newton
    /// iterations (phase-1 included) for interior point, bisection steps
    /// for water-filling, objective evaluations for the integer
    /// searches.
    pub iterations: u64,
    /// Final residual in the method's natural unit: duality-gap bound
    /// for interior point, deadline-budget slack for water-filling,
    /// 0 for exact integer searches.
    pub residual: f64,
    /// Barrier weight trajectory (interior point only; empty otherwise).
    pub barrier_mu: Vec<f64>,
    /// Per-iteration convergence series in the method's residual unit:
    /// duality-gap bound per barrier stage for interior point,
    /// deadline-budget slack per bisection step for water-filling.
    /// Empty for exact integer searches.
    pub residual_series: Vec<f64>,
    /// Wall-clock time the solve took, in microseconds.
    pub wall_micros: f64,
    /// True if this result came from a fallback path after the primary
    /// method failed (e.g. water-filling → interior point on zero-gain
    /// pipelines).
    pub fallback: bool,
    /// True if the solve was seeded from a warm-start hint (a nearby
    /// instance's schedule) rather than started cold.
    pub warm_start: bool,
    /// Phase-1 (feasibility restoration) Newton iterations, when the
    /// method ran a phase-1 (interior point only; `None` otherwise).
    pub phase1_iterations: Option<u64>,
    /// Iterations a comparable cold solve used minus this solve's
    /// iterations, when the caller measured one (e.g. the calibration
    /// loop comparing against its previous round). Negative means the
    /// warm start hurt.
    pub iterations_saved: Option<i64>,
    /// Newton factorization the interior-point solve used: `"dense"` or
    /// `"banded"`. `None` for non-Newton methods. Skipped when absent so
    /// existing serialized telemetry stays byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub factorization: Option<String>,
    /// Bandwidth of the banded factorization (only when `factorization`
    /// is `"banded"`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub bandwidth: Option<u64>,
    /// Wall-clock microseconds the solve spent assembling, factoring,
    /// and solving Newton KKT systems (banded interior point only;
    /// `None` otherwise). Separates the O(N·bw²) per-step kernel from
    /// line-search barrier evaluations so scaling benches can gate on
    /// the factorization cost rather than instance conditioning.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub newton_solve_micros: Option<f64>,
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
            fallback: false,
            warm_start: false,
            phase1_iterations: None,
            iterations_saved: None,
            factorization: None,
            bandwidth: None,
            newton_solve_micros: None,
        }
    }

    /// Record which Newton factorization an interior-point solve used,
    /// from the solver's reported banded bandwidth (`None` = dense).
    pub fn record_factorization(&mut self, banded_bandwidth: Option<usize>) {
        match banded_bandwidth {
            Some(bw) => {
                self.factorization = Some("banded".to_string());
                self.bandwidth = Some(bw as u64);
            }
            None => {
                self.factorization = Some("dense".to_string());
                self.bandwidth = None;
            }
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
        assert!(!t.fallback);
        assert!(!t.warm_start);
        assert_eq!(t.phase1_iterations, None);
        assert_eq!(t.iterations_saved, None);
        assert!(t.barrier_mu.is_empty());
        assert!(t.residual_series.is_empty());
        assert_eq!(t.factorization, None);
        assert_eq!(t.bandwidth, None);
        assert_eq!(t.newton_solve_micros, None);
    }

    #[test]
    fn factorization_fields_skip_when_absent_and_roundtrip_when_set() {
        let t = SolveTelemetry::new("water-filling");
        let v = serde_json::to_value(&t).unwrap();
        let rendered = serde_json::to_string(&v).unwrap();
        assert!(!rendered.contains("factorization"));
        assert!(!rendered.contains("bandwidth"));
        assert!(!rendered.contains("newton_solve_micros"));

        let mut t = SolveTelemetry::new("interior-point");
        t.record_factorization(Some(1));
        assert_eq!(t.factorization.as_deref(), Some("banded"));
        assert_eq!(t.bandwidth, Some(1));
        let back: SolveTelemetry =
            serde_json::from_value(&serde_json::to_value(&t).unwrap()).unwrap();
        assert_eq!(back, t);

        t.record_factorization(None);
        assert_eq!(t.factorization.as_deref(), Some("dense"));
        assert_eq!(t.bandwidth, None);
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
        t.warm_start = true;
        t.phase1_iterations = Some(3);
        t.iterations_saved = Some(-2);
        let v = serde_json::to_value(&t).unwrap();
        let back: SolveTelemetry = serde_json::from_value(&v).unwrap();
        assert_eq!(back, t);
    }
}
