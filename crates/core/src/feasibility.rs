//! Schedulability analysis for the enforced-waits strategy.
//!
//! Before optimizing, we decide whether *any* choice of waits satisfies
//! the constraints of the paper's Figure 1. The analysis rests on the
//! **minimal period vector**: the componentwise-smallest firing periods
//! compatible with the per-edge stability constraints and `x_i ≥ t_i`.
//!
//! The edge constraint `x_i · g_{i-1} ≤ x_{i-1}` reads "upstream must
//! fire at least `g_{i-1}` times as often as downstream"; it *raises*
//! the floor of upstream periods when a downstream stage is slow. The
//! minimal periods therefore come from a backward recursion
//!
//! ```text
//! x̂_{N-1} = t_{N-1},     x̂_i = max(t_i, g_i · x̂_{i+1})
//! ```
//!
//! Feasibility then requires (a) `x̂_0 ≤ v·τ0` (the head can keep up with
//! arrivals even at its minimal period) and (b) `Σ b_i·x̂_i ≤ D` (the
//! deadline is loose enough at the all-minimal point, which minimizes
//! the weighted period sum because every other feasible point dominates
//! it componentwise).

use dataflow_model::{PipelineSpec, RtParams};
use std::fmt;

/// Why no enforced-waits schedule exists for an operating point.
#[derive(Debug, Clone, PartialEq)]
pub enum FeasibilityError {
    /// Even firing at its minimal period, the head node cannot keep up
    /// with the arrival rate: `x̂_0 > v·τ0`.
    ArrivalRateTooHigh {
        /// Minimal achievable head period.
        min_head_period: f64,
        /// Largest admissible head period `v·τ0`.
        max_head_period: f64,
    },
    /// The deadline is below the smallest achievable latency bound.
    DeadlineTooTight {
        /// `Σ b_i·x̂_i`, the smallest achievable bound.
        min_deadline: f64,
        /// The requested deadline.
        deadline: f64,
    },
    /// Backlog factor vector has the wrong length or non-positive
    /// entries.
    BadBacklogFactors {
        /// Explanation.
        reason: String,
    },
    /// Monolithic batching: no block size `M ∈ [1, max_block_size]` is
    /// stable (`T̄(M) ≤ M·τ0`) and meets the deadline.
    NoFeasibleBlockSize {
        /// The largest block size the deadline could allow, `⌊D/(b·τ0)⌋`.
        max_block_size: u64,
        /// The requested deadline.
        deadline: f64,
        /// The inter-arrival time.
        tau0: f64,
    },
}

impl fmt::Display for FeasibilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeasibilityError::ArrivalRateTooHigh {
                min_head_period,
                max_head_period,
            } => write!(
                f,
                "arrival rate too high: head period must be >= {min_head_period:.3} but stability \
                 requires <= v*tau0 = {max_head_period:.3}"
            ),
            FeasibilityError::DeadlineTooTight {
                min_deadline,
                deadline,
            } => write!(
                f,
                "deadline {deadline:.3} below minimum achievable latency bound {min_deadline:.3}"
            ),
            FeasibilityError::BadBacklogFactors { reason } => {
                write!(f, "bad backlog factors: {reason}")
            }
            FeasibilityError::NoFeasibleBlockSize {
                max_block_size,
                deadline,
                tau0,
            } => write!(
                f,
                "no feasible block size in [1, {max_block_size}] (deadline {deadline:.0}, tau0 {tau0:.1})"
            ),
        }
    }
}

impl std::error::Error for FeasibilityError {}

/// The componentwise-minimal feasible firing periods `x̂` (see module
/// docs). Every feasible period vector dominates this one.
pub fn minimal_periods(pipeline: &PipelineSpec) -> Vec<f64> {
    minimal_periods_of(&pipeline.service_times(), &pipeline.mean_gains())
}

/// [`minimal_periods`] from the service times `t` and mean gains `g`.
pub(crate) fn minimal_periods_of(t: &[f64], g: &[f64]) -> Vec<f64> {
    let n = t.len();
    let mut x = t.to_vec();
    for i in (0..n.saturating_sub(1)).rev() {
        // Edge i → i+1 requires x_i >= g_i * x_{i+1}.
        x[i] = x[i].max(g[i] * x[i + 1]);
    }
    x
}

/// Check whether the enforced-waits problem (paper Fig. 1) has any
/// feasible point for this pipeline, operating point, and backlog
/// factors `b`.
pub fn check_enforced_feasibility(
    pipeline: &PipelineSpec,
    params: &RtParams,
    b: &[f64],
) -> Result<(), FeasibilityError> {
    check_backlog_factors(pipeline.len(), b)?;
    check_minimal_periods(
        &minimal_periods(pipeline),
        pipeline.vector_width(),
        params,
        b,
    )
}

/// The backlog-factor half of [`check_enforced_feasibility`]: one
/// strictly positive, finite factor per node.
pub(crate) fn check_backlog_factors(nodes: usize, b: &[f64]) -> Result<(), FeasibilityError> {
    if b.len() != nodes {
        return Err(FeasibilityError::BadBacklogFactors {
            reason: format!("expected {nodes} factors, got {}", b.len()),
        });
    }
    if let Some(bad) = b.iter().find(|&&bi| bi <= 0.0 || !bi.is_finite()) {
        return Err(FeasibilityError::BadBacklogFactors {
            reason: format!("factor {bad} is not strictly positive and finite"),
        });
    }
    Ok(())
}

/// The operating-point half of [`check_enforced_feasibility`], on the
/// minimal periods `xmin` of a pipeline of vector width `v`.
pub(crate) fn check_minimal_periods(
    xmin: &[f64],
    v: u32,
    params: &RtParams,
    b: &[f64],
) -> Result<(), FeasibilityError> {
    let max_head = v as f64 * params.tau0;
    if xmin[0] > max_head {
        return Err(FeasibilityError::ArrivalRateTooHigh {
            min_head_period: xmin[0],
            max_head_period: max_head,
        });
    }
    let min_deadline: f64 = xmin.iter().zip(b).map(|(&x, &bi)| bi * x).sum();
    if min_deadline > params.deadline {
        return Err(FeasibilityError::DeadlineTooTight {
            min_deadline,
            deadline: params.deadline,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_model::{GainModel, PipelineSpecBuilder};

    fn blast() -> PipelineSpec {
        PipelineSpecBuilder::new(128)
            .stage("s0", 287.0, GainModel::Bernoulli { p: 0.379 })
            .stage(
                "s1",
                955.0,
                GainModel::CensoredPoisson {
                    mean: 1.920,
                    cap: 16,
                },
            )
            .stage("s2", 402.0, GainModel::Bernoulli { p: 0.0332 })
            .stage("s3", 2753.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap()
    }

    #[test]
    fn minimal_periods_backward_recursion() {
        let p = blast();
        let x = minimal_periods(&p);
        // Stage 3: its own service time.
        assert_eq!(x[3], 2753.0);
        // Stage 2: max(402, 0.0332·2753 ≈ 91.4) = 402.
        assert_eq!(x[2], 402.0);
        // Stage 1: max(955, g1·402). g1 is the censored-Poisson mean ≈ 1.92,
        // so g1·402 ≈ 772 < 955.
        assert_eq!(x[1], 955.0);
        // Stage 0: max(287, 0.379·955 ≈ 362) = 362: the edge constraint
        // raises the head's floor above its own service time.
        assert!((x[0] - 0.379 * 955.0).abs() < 1e-9, "{}", x[0]);
    }

    #[test]
    fn minimal_periods_expansion_raises_upstream() {
        // A strongly expanding stage forces its *upstream* to fire faster
        // relative to downstream, i.e. raises downstream requirements on
        // the upstream period floor.
        let p = PipelineSpecBuilder::new(32)
            .stage("a", 10.0, GainModel::Deterministic { k: 8 })
            .stage("b", 50.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap();
        let x = minimal_periods(&p);
        assert_eq!(x[1], 50.0);
        assert_eq!(x[0], 400.0); // 8 × 50 > 10
    }

    #[test]
    fn feasible_blast_point_passes() {
        let p = blast();
        let params = RtParams::new(10.0, 2e5).unwrap();
        assert!(check_enforced_feasibility(&p, &params, &[1.0, 3.0, 9.0, 6.0]).is_ok());
    }

    #[test]
    fn tight_deadline_rejected_with_bound() {
        let p = blast();
        let b = [1.0, 3.0, 9.0, 6.0];
        let xmin = minimal_periods(&p);
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(10.0, min_d - 1.0).unwrap();
        match check_enforced_feasibility(&p, &params, &b) {
            Err(FeasibilityError::DeadlineTooTight { min_deadline, .. }) => {
                assert!((min_deadline - min_d).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Just above the bound: feasible.
        let params = RtParams::new(10.0, min_d + 1.0).unwrap();
        assert!(check_enforced_feasibility(&p, &params, &b).is_ok());
    }

    #[test]
    fn arrival_rate_limit() {
        let p = blast();
        // x̂_0 ≈ 362; need v·τ0 ≥ 362 → τ0 ≥ 2.83. τ0 = 2 should fail.
        let params = RtParams::new(2.0, 1e9).unwrap();
        assert!(matches!(
            check_enforced_feasibility(&p, &params, &[1.0; 4]),
            Err(FeasibilityError::ArrivalRateTooHigh { .. })
        ));
        let params = RtParams::new(3.0, 1e9).unwrap();
        assert!(check_enforced_feasibility(&p, &params, &[1.0; 4]).is_ok());
    }

    #[test]
    fn backlog_factor_validation() {
        let p = blast();
        let params = RtParams::new(10.0, 1e6).unwrap();
        assert!(matches!(
            check_enforced_feasibility(&p, &params, &[1.0, 1.0]),
            Err(FeasibilityError::BadBacklogFactors { .. })
        ));
        assert!(matches!(
            check_enforced_feasibility(&p, &params, &[1.0, 0.0, 1.0, 1.0]),
            Err(FeasibilityError::BadBacklogFactors { .. })
        ));
        assert!(matches!(
            check_enforced_feasibility(&p, &params, &[1.0, f64::NAN, 1.0, 1.0]),
            Err(FeasibilityError::BadBacklogFactors { .. })
        ));
    }

    #[test]
    fn error_display() {
        let e = FeasibilityError::ArrivalRateTooHigh {
            min_head_period: 362.0,
            max_head_period: 256.0,
        };
        assert!(e.to_string().contains("arrival rate"));
        let e = FeasibilityError::DeadlineTooTight {
            min_deadline: 100.0,
            deadline: 50.0,
        };
        assert!(e.to_string().contains("deadline"));
    }
}
