//! Extension: enforced waits with *flexible* processor shares.
//!
//! The paper's implementation model (§2.2) fixes each node's processor
//! share at `1/N`; its conclusion (§7) asks about "more coarse-grained
//! division of processor time between pipeline stages". This module
//! implements the natural generalization: give node `i` a share
//! `φ_i > 0` with `Σ φ_i ≤ 1`, so a firing that needs `c_i` raw device
//! cycles takes `c_i / φ_i` wall-clock cycles under its share.
//!
//! Two observations make the joint `(φ, x)` design problem collapse
//! back to the Fig.-1 machinery:
//!
//! 1. **Utilization is share-independent.** The fraction of total
//!    processor time consumed is `Σ φ_i · (c_i/φ_i) / x_i = Σ c_i/x_i`,
//!    no matter how shares are assigned.
//! 2. **Shares only affect feasibility**, through `x_i ≥ c_i/φ_i`.
//!    Given any period vector `x`, the cheapest shares satisfying it
//!    are `φ_i = c_i/x_i`, which fit the processor iff
//!    `Σ c_i/x_i ≤ 1` — i.e. iff the *utilization itself* is at most 1.
//!
//! So the optimal flexible-share design solves the Fig.-1 program with
//! the per-node floors `x_i ≥ t_i` **removed** (only positivity
//! remains), and is feasible exactly when its optimal value is ≤ 1.
//! Equal shares are a special case, so the flexible optimum is never
//! worse — and is strictly better whenever some equal-share floor
//! `x_i ≥ N·c_i` binds, i.e. at tight deadlines with skewed service
//! times (BLAST's alignment stage is 10× its seeding stage).

use crate::enforced::ChainProblem;
use crate::feasibility::FeasibilityError;
use crate::schedule::ScheduleError;
use dataflow_model::{GainModel, PipelineSpec, PipelineSpecBuilder, RtParams};
use serde::{Deserialize, Serialize};

/// A flexible-share schedule: periods, the shares realizing them, and
/// the processor utilization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlexibleSchedule {
    /// Firing periods `x_i` (cycles).
    pub periods: Vec<f64>,
    /// Processor shares `φ_i = c_i / x_i` (sum ≤ 1).
    pub shares: Vec<f64>,
    /// Wall-clock service times under the chosen shares,
    /// `t_i = c_i/φ_i = x_i` — every node is busy for exactly its whole
    /// period, waiting zero: flexible shares convert waiting into a
    /// smaller share instead.
    pub service_times: Vec<f64>,
    /// Processor utilization `Σ c_i/x_i` (≤ 1 for a valid schedule).
    pub utilization: f64,
    /// Worst-case latency bound `Σ b_i·x_i`.
    pub latency_bound: f64,
}

/// The flexible-shares design problem.
#[derive(Debug, Clone)]
pub struct FlexibleSharesProblem<'a> {
    pipeline: &'a PipelineSpec,
    params: RtParams,
    b: Vec<f64>,
}

impl<'a> FlexibleSharesProblem<'a> {
    /// Construct from a pipeline whose service times are the paper's
    /// equal-share `t_i` (so raw device cycles are `c_i = t_i / N`).
    pub fn new(pipeline: &'a PipelineSpec, params: RtParams, b: Vec<f64>) -> Self {
        FlexibleSharesProblem {
            pipeline,
            params,
            b,
        }
    }

    /// Raw per-firing device cycles `c_i = t_i / N`.
    pub fn raw_cycles(&self) -> Vec<f64> {
        let n = self.pipeline.len() as f64;
        self.pipeline
            .service_times()
            .iter()
            .map(|t| t / n)
            .collect()
    }

    /// Solve the flexible-share program.
    ///
    /// Internally this builds a *relaxed pipeline* whose service times
    /// are a tiny ε (removing the per-node floors) and reuses the
    /// Fig.-1 water-filling solver; the resulting minimal utilization
    /// decides feasibility.
    pub fn solve(&self) -> Result<FlexibleSchedule, ScheduleError> {
        let c = self.raw_cycles();
        let n = self.pipeline.len();
        if self.b.len() != n || self.b.iter().any(|&bi| bi <= 0.0 || bi.is_nan()) {
            return Err(ScheduleError::Infeasible(
                FeasibilityError::BadBacklogFactors {
                    reason: "need one strictly positive factor per stage".into(),
                },
            ));
        }

        // Relaxed pipeline: floors shrunk to ε of the raw cost, gains
        // unchanged. The Fig.-1 solver then optimizes the same objective
        // shape (Σ (t_i/N)/x_i with t_i = N·ε·c_i ∝ c_i) over the same
        // chain/head/deadline constraints.
        let eps = 1e-6;
        let mut builder = PipelineSpecBuilder::new(self.pipeline.vector_width());
        for (node, &ci) in self.pipeline.nodes().iter().zip(&c) {
            builder = builder.stage(
                node.name.clone(),
                (ci * eps).max(f64::MIN_POSITIVE),
                node.gain.clone(),
            );
        }
        let relaxed = builder
            .build()
            .map_err(|e| ScheduleError::Solver(format!("relaxed pipeline: {e}")))?;

        let sched = ChainProblem::new(&relaxed, self.params, self.b.clone()).solve()?;

        // Evaluate the *true* utilization at the optimized periods.
        let utilization: f64 = c.iter().zip(&sched.periods).map(|(&ci, &xi)| ci / xi).sum();
        if utilization > 1.0 + 1e-9 {
            return Err(ScheduleError::Infeasible(
                FeasibilityError::DeadlineTooTight {
                    min_deadline: self.params.deadline * utilization,
                    deadline: self.params.deadline,
                },
            ));
        }
        let shares: Vec<f64> = c
            .iter()
            .zip(&sched.periods)
            .map(|(&ci, &xi)| ci / xi)
            .collect();
        let latency_bound = sched
            .periods
            .iter()
            .zip(&self.b)
            .map(|(&x, &bi)| bi * x)
            .sum();
        Ok(FlexibleSchedule {
            service_times: sched.periods.clone(),
            shares,
            utilization,
            latency_bound,
            periods: sched.periods,
        })
    }

    /// The equal-share (paper) baseline at the same operating point, for
    /// comparison.
    pub fn equal_share_baseline(&self) -> Result<f64, ScheduleError> {
        ChainProblem::new(self.pipeline, self.params, self.b.clone())
            .solve()
            .map(|s| s.active_fraction)
    }
}

/// Convenience: the pipeline with gains preserved but service times
/// replaced, used by tests and experiments.
pub fn with_service_times(p: &PipelineSpec, times: &[f64]) -> PipelineSpec {
    assert_eq!(times.len(), p.len());
    let mut b = PipelineSpecBuilder::new(p.vector_width());
    for (node, &t) in p.nodes().iter().zip(times) {
        b = b.stage(node.name.clone(), t, node.gain.clone());
    }
    b.build().expect("times validated by caller")
}

/// A convenience constructor used in docs/tests: a pipeline with the
/// given service times and all-deterministic unit gains.
pub fn uniform_pipeline(times: &[f64], v: u32) -> PipelineSpec {
    let mut b = PipelineSpecBuilder::new(v);
    for (i, &t) in times.iter().enumerate() {
        b = b.stage(format!("s{i}"), t, GainModel::Deterministic { k: 1 });
    }
    b.build().expect("valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::blast;

    const PAPER_B: [f64; 4] = [1.0, 3.0, 9.0, 6.0];

    #[test]
    fn shares_sum_to_at_most_one_and_realize_periods() {
        let p = blast();
        let params = RtParams::new(10.0, 5e4).unwrap();
        let prob = FlexibleSharesProblem::new(&p, params, PAPER_B.to_vec());
        let s = prob.solve().unwrap();
        assert!(s.shares.iter().sum::<f64>() <= 1.0 + 1e-9);
        assert!(s.shares.iter().all(|&f| f > 0.0));
        let c = prob.raw_cycles();
        for ((ci, xi), fi) in c.iter().zip(&s.periods).zip(&s.shares) {
            // x_i = c_i / φ_i exactly (service time fills the period).
            assert!((xi - ci / fi).abs() < 1e-6 * xi, "{xi} vs {}", ci / fi);
        }
        assert!(s.latency_bound <= params.deadline * (1.0 + 1e-9));
    }

    #[test]
    fn flexible_never_worse_than_equal_shares() {
        let p = blast();
        for (tau0, d) in [(5.0, 3e4), (10.0, 5e4), (10.0, 1e5), (30.0, 2e5)] {
            let params = RtParams::new(tau0, d).unwrap();
            let prob = FlexibleSharesProblem::new(&p, params, PAPER_B.to_vec());
            let flexible = prob.solve().unwrap().utilization;
            let equal = prob.equal_share_baseline().unwrap();
            assert!(
                flexible <= equal + 1e-6,
                "tau0={tau0} D={d}: flexible {flexible} vs equal {equal}"
            );
        }
    }

    #[test]
    fn flexible_strictly_better_at_tight_deadlines() {
        // At a deadline near the equal-share minimum (~2.34e4 with the
        // paper's b), the equal-share floors bind hard; flexible shares
        // dodge them.
        let p = blast();
        let params = RtParams::new(10.0, 2.5e4).unwrap();
        let prob = FlexibleSharesProblem::new(&p, params, PAPER_B.to_vec());
        let flexible = prob.solve().unwrap().utilization;
        let equal = prob.equal_share_baseline().unwrap();
        assert!(
            flexible < equal * 0.9,
            "expected a clear win at a tight deadline: {flexible} vs {equal}"
        );
    }

    #[test]
    fn flexible_schedules_below_equal_share_min_deadline() {
        // Equal shares are infeasible below Σ b_i·x̂_i ≈ 2.34e4. The
        // flexible minimum is (Σ √(c_i·b_i))² ≈ 1.68e4 (water-filling
        // with the utilization-1 budget), so D = 1.8e4 separates the
        // two regimes.
        let p = blast();
        let params = RtParams::new(10.0, 1.8e4).unwrap();
        let prob = FlexibleSharesProblem::new(&p, params, PAPER_B.to_vec());
        assert!(
            prob.equal_share_baseline().is_err(),
            "equal shares should be infeasible"
        );
        let s = prob.solve().unwrap();
        assert!(s.utilization <= 1.0 + 1e-9, "{}", s.utilization);
    }

    #[test]
    fn overload_is_reported_infeasible() {
        // Deadline so tight that even utilization 1 cannot meet it:
        // Σ b_i x_i ≤ D forces Σ c_i/x_i > 1.
        let p = blast();
        let params = RtParams::new(10.0, 1500.0).unwrap();
        let prob = FlexibleSharesProblem::new(&p, params, PAPER_B.to_vec());
        assert!(matches!(prob.solve(), Err(ScheduleError::Infeasible(_))));
    }

    #[test]
    fn shares_skew_toward_expensive_stages() {
        let p = blast();
        let params = RtParams::new(10.0, 3e4).unwrap();
        let s = FlexibleSharesProblem::new(&p, params, PAPER_B.to_vec())
            .solve()
            .unwrap();
        // The alignment stage (c = 688 raw cycles) should claim more of
        // the processor than the seeding stage (c = 72).
        assert!(
            s.shares[3] > s.shares[0],
            "shares should follow cost: {:?}",
            s.shares
        );
    }

    #[test]
    fn helpers_build_pipelines() {
        let p = uniform_pipeline(&[10.0, 20.0], 8);
        assert_eq!(p.len(), 2);
        let q = with_service_times(&p, &[5.0, 7.0]);
        assert_eq!(q.service_times(), vec![5.0, 7.0]);
        assert_eq!(q.vector_width(), 8);
    }
}
