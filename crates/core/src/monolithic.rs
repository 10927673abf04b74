//! The monolithic batching strategy (paper §5).
//!
//! The pipeline is treated as a single throughput-oriented unit with no
//! ability to insert waits between nodes. Items accumulate into blocks
//! of `M`; each block is pushed through the entire pipeline at once. The
//! block size solves the integer program of the paper's Figure 2:
//!
//! ```text
//! min  ρ0·T̄(M)/M
//! s.t. T̄(M) ≤ M/ρ0                    (block finishes before next fills)
//!      b·M/ρ0 + S·T̄(M) ≤ D            (worst-case response ≤ deadline)
//! where T̄(M) = Σ_i ⌈M·G_i/v⌉·t_i
//! ```
//!
//! `b` is the monolithic queue multiplier (a newly arrived item may find
//! `b − 1` full blocks ahead of it) and `S ≥ 1` scales average block
//! time to worst case. The paper found `b = 1, S = 1` to be miss-free in
//! simulation because large blocks average away stochastic gain
//! fluctuations (§6.2); both parameters stay available here for
//! sensitivity studies.
//!
//! The program reads only `v`, the service times `t_i` and the per-node
//! totals `G_i`, so chains and DAGs pose the same problem
//! ([`BlockModel`]); [`MonolithicDagProblem`] is the same type.
//!
//! # Why a few candidates solve it exactly
//!
//! [`MonolithicProblem::solve`] evaluates every `M ∈ [1, ⌊D/(b·τ0)⌋]`
//! and is the oracle. [`MonolithicProblem::solve_fast`] evaluates the
//! same objective at a few hundred candidates and returns the same `M`:
//!
//! * The latency bound `b·M·τ0 + S·T̄(M)` is nondecreasing in `M` (both
//!   terms are, in floating point too), so the deadline-feasible block
//!   sizes are a prefix `[1, M_D]`; a binary search finds `M_D`.
//! * `T̄(M)` only changes where some `⌈M·G_i/v⌉` steps up, after the
//!   breakpoints `M = ⌊k·v/G_i⌋`. Between two breakpoints `T̄` is
//!   constant, so the objective `ρ0·T̄/M` strictly falls and stability
//!   `T̄ ≤ M·τ0`, once met, stays met. The best feasible `M` of each such
//!   run is its last one.
//!
//! So the minimum over `[1, M_D]` lies at `M_D` or at a breakpoint
//! `⌊k·v/G_i⌋ ≤ M_D`. Both neighbours of each breakpoint are candidates
//! too, since the floating-point ceiling can step one `M` early or late.
//! Ties go to the smaller `M`, as in the scan, so the two agree bit for
//! bit.

use crate::schedule::ScheduleError;
use crate::telemetry::{timed, SolveTelemetry};
use dataflow_model::analysis::block_time;
use dataflow_model::{PipelineSpec, RtParams, Topology};
use serde::{Deserialize, Serialize};
use solver::integer::{minimize_scan, IntOpt};

/// An optimized monolithic schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonolithicSchedule {
    /// Optimal block size `M`.
    pub block_size: u64,
    /// Average time to process one block, `T̄(M)`.
    pub block_time: f64,
    /// Predicted active fraction `ρ0·T̄(M)/M`.
    pub active_fraction: f64,
    /// Worst-case response bound `b·M·τ0 + S·T̄(M)` at this `M`.
    pub latency_bound: f64,
    /// Queue multiplier used.
    pub b: f64,
    /// Worst-case scale used.
    pub s: f64,
    /// How the solve went (objective evaluations, wall time, …).
    pub telemetry: Option<SolveTelemetry>,
}

/// A model the Fig.-2 program can be posed on. A chain's `G_i` is its
/// cumulative gain product and a DAG's the sum of its in-edge flows; on
/// [`Topology::chain`] the two agree bit for bit.
pub trait BlockModel {
    /// The vector width `v`, then the node-indexed service times `t_i`
    /// and total gains `G_i`.
    fn block_model(&self) -> (u32, Vec<f64>, Vec<f64>);
}

impl BlockModel for PipelineSpec {
    fn block_model(&self) -> (u32, Vec<f64>, Vec<f64>) {
        (
            self.vector_width(),
            self.service_times(),
            self.total_gains(),
        )
    }
}

impl BlockModel for Topology {
    fn block_model(&self) -> (u32, Vec<f64>, Vec<f64>) {
        (
            self.vector_width(),
            self.service_times(),
            self.total_gains(),
        )
    }
}

/// The Fig.-2 design problem.
#[derive(Debug, Clone)]
pub struct MonolithicProblem {
    vector_width: u32,
    service_times: Vec<f64>,
    totals: Vec<f64>,
    params: RtParams,
    b: f64,
    s: f64,
}

/// The Fig.-2 program on a DAG [`Topology`]: the same type as
/// [`MonolithicProblem`], because `T̄(M)` only needs the totals `G_i`.
pub type MonolithicDagProblem = MonolithicProblem;

impl MonolithicProblem {
    /// Construct with queue multiplier `b ≥ 1` and worst-case scale
    /// `s ≥ 1`.
    ///
    /// # Panics
    /// Panics on non-finite or sub-unit parameters.
    pub fn new(model: &impl BlockModel, params: RtParams, b: f64, s: f64) -> Self {
        assert!(b.is_finite() && b >= 1.0, "queue multiplier b must be >= 1");
        assert!(s.is_finite() && s >= 1.0, "worst-case scale S must be >= 1");
        let (vector_width, service_times, totals) = model.block_model();
        MonolithicProblem {
            vector_width,
            service_times,
            totals,
            params,
            b,
            s,
        }
    }

    /// The operating point.
    pub fn params(&self) -> &RtParams {
        &self.params
    }

    /// Largest block size the deadline could possibly allow:
    /// `b·M·τ0 ≤ D` (the processing term only tightens this).
    pub fn max_block_size(&self) -> u64 {
        let m = self.params.deadline / (self.b * self.params.tau0);
        if m < 1.0 {
            0
        } else if m >= u64::MAX as f64 {
            u64::MAX
        } else {
            m.floor() as u64
        }
    }

    fn block_time(&self, m: u64) -> f64 {
        block_time(self.vector_width, &self.service_times, &self.totals, m)
    }

    fn latency_bound(&self, m: u64, block_time: f64) -> f64 {
        self.b * m as f64 * self.params.tau0 + self.s * block_time
    }

    /// Objective at block size `m`, or `None` if `m` is infeasible.
    pub fn objective(&self, m: u64) -> Option<f64> {
        if m == 0 {
            return None;
        }
        let t = self.block_time(m);
        let stable = t <= m as f64 * self.params.tau0;
        if !stable || self.latency_bound(m, t) > self.params.deadline {
            return None;
        }
        Some(self.params.rho0() * t / m as f64)
    }

    /// Solve exactly by exhaustive scan over `M ∈ [1, max_block_size]`.
    pub fn solve(&self) -> Result<MonolithicSchedule, ScheduleError> {
        self.solve_with("scan", |f| minimize_scan(1, self.max_block_size(), f))
    }

    /// Solve exactly by evaluating only `M_D` and the ceiling
    /// breakpoints below it (see the module docs). Returns the same
    /// schedule as [`Self::solve`] from about `3·M_D·Σ G_i/v`
    /// evaluations; where that exceeds `M_D`, it scans `[1, M_D]`.
    pub fn solve_fast(&self) -> Result<MonolithicSchedule, ScheduleError> {
        self.solve_with("breakpoint", |f| self.breakpoint_search(f))
    }

    fn breakpoint_search(&self, f: &mut dyn FnMut(u64) -> Option<f64>) -> Option<IntOpt> {
        let m_d = self.deadline_limit();
        let v = self.vector_width as f64;
        // Node i has about M_D·G_i/v breakpoints below M_D. With narrow
        // vectors and large gains, three candidates per breakpoint
        // outnumber [1, M_D] itself, and the scan is the cheaper exact
        // search.
        let breakpoints: f64 = self.totals.iter().map(|&g| m_d as f64 * g / v).sum();
        if 3.0 * breakpoints >= m_d as f64 {
            return minimize_scan(1, m_d, f);
        }
        let mut best: Option<IntOpt> = None;
        let mut consider = |m: u64| {
            if let Some(value) = f(m) {
                // Ties go to the smaller M, as in the scan.
                if !best.is_some_and(|b| (b.value, b.arg) <= (value, m)) {
                    best = Some(IntOpt { arg: m, value });
                }
            }
        };
        for &g in self.totals.iter().filter(|&&g| g > 0.0) {
            for k in 1u64.. {
                let m = (k as f64 * v / g).floor() as u64;
                if m.saturating_sub(1) > m_d {
                    break;
                }
                for m in m.saturating_sub(1).max(1)..=m.saturating_add(1).min(m_d) {
                    consider(m);
                }
            }
        }
        consider(m_d);
        best
    }

    /// `M_D`: the largest `M ≤ max_block_size` whose latency bound meets
    /// the deadline, or 0 if none does. The bound is nondecreasing in
    /// `M`, so this bisects.
    fn deadline_limit(&self) -> u64 {
        let meets = |m: u64| self.latency_bound(m, self.block_time(m)) <= self.params.deadline;
        let (mut lo, mut hi) = (0, self.max_block_size());
        while lo < hi {
            let mid = hi - (hi - lo) / 2;
            if meets(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// Run `search` over [`Self::objective`], counting evaluations, and
    /// build the schedule at the block size it returns.
    fn solve_with(
        &self,
        method: &str,
        search: impl FnOnce(&mut dyn FnMut(u64) -> Option<f64>) -> Option<IntOpt>,
    ) -> Result<MonolithicSchedule, ScheduleError> {
        let mut evaluations = 0u64;
        let (best, wall_micros) = timed(|| {
            search(&mut |m| {
                evaluations += 1;
                self.objective(m)
            })
        });
        let best = best.ok_or_else(|| {
            ScheduleError::Solver(format!(
                "no feasible block size in [1, {}] (deadline {:.0}, tau0 {:.1})",
                self.max_block_size(),
                self.params.deadline,
                self.params.tau0
            ))
        })?;
        let block_time = self.block_time(best.arg);
        let mut telemetry = SolveTelemetry::new(method);
        telemetry.iterations = evaluations;
        telemetry.wall_micros = wall_micros;
        Ok(MonolithicSchedule {
            block_size: best.arg,
            block_time,
            active_fraction: best.value,
            latency_bound: self.latency_bound(best.arg, block_time),
            b: self.b,
            s: self.s,
            telemetry: Some(telemetry),
        })
    }
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
    fn solves_blast_at_moderate_point() {
        let p = blast();
        let params = RtParams::new(50.0, 2e5).unwrap();
        let prob = MonolithicProblem::new(&p, params, 1.0, 1.0);
        let s = prob.solve().unwrap();
        assert!(s.block_size >= 1);
        assert!(s.active_fraction > 0.0 && s.active_fraction <= 1.0);
        assert!(s.latency_bound <= 2e5);
        // Stability must hold at the chosen M.
        assert!(s.block_time <= s.block_size as f64 * 50.0);
    }

    #[test]
    fn fast_solver_matches_exact_scan() {
        let p = blast();
        // The τ0 = 8 cells sit just above the stability limit, where the
        // feasible block sizes are scattered runs far below M_D.
        for (tau0, d) in [
            (10.0, 1e5),
            (30.0, 2e5),
            (50.0, 3.5e5),
            (100.0, 5e4),
            (1.0, 1e5),
            (8.0, 2.63e5),
            (8.0, 3.07e5),
            (8.0, 3.28e5),
        ] {
            let params = RtParams::new(tau0, d).unwrap();
            let prob = MonolithicProblem::new(&p, params, 1.0, 1.0);
            match (prob.solve(), prob.solve_fast()) {
                (Ok(exact), Ok(fast)) => {
                    assert_eq!(
                        (exact.block_size, exact.active_fraction),
                        (fast.block_size, fast.active_fraction),
                        "tau0={tau0} D={d}: exact vs fast"
                    );
                    if tau0 == 8.0 {
                        assert_eq!(fast.block_size, 15831, "D={d}");
                    }
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("feasibility disagreement at tau0={tau0} D={d}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn active_fraction_scales_inversely_with_tau0() {
        // Paper §6.3: monolithic active fraction ~ 1/τ0.
        let p = blast();
        let d = 3.5e5;
        let af = |tau0: f64| {
            MonolithicProblem::new(&p, RtParams::new(tau0, d).unwrap(), 1.0, 1.0)
                .solve()
                .unwrap()
                .active_fraction
        };
        let a25 = af(25.0);
        let a50 = af(50.0);
        let a100 = af(100.0);
        assert!(a25 > a50 && a50 > a100);
        // Roughly inverse scaling once M is large.
        assert!((a50 / a100 - 2.0).abs() < 0.3, "a50/a100 = {}", a50 / a100);
    }

    #[test]
    fn insensitive_to_deadline_once_large() {
        // Paper §6.3: monolithic active fraction tends to a constant in D.
        let p = blast();
        let tau0 = 50.0;
        let af = |d: f64| {
            MonolithicProblem::new(&p, RtParams::new(tau0, d).unwrap(), 1.0, 1.0)
                .solve()
                .unwrap()
                .active_fraction
        };
        let a2 = af(2e5);
        let a35 = af(3.5e5);
        assert!(
            (a2 - a35).abs() / a35 < 0.12,
            "large-D insensitivity: {a2} vs {a35}"
        );
    }

    #[test]
    fn infeasible_when_arrivals_too_fast() {
        // τ0 = 1: one item per cycle; T̄(M)/M ≥ 4397/128 ≈ 34 ≫ 1.
        let p = blast();
        let params = RtParams::new(1.0, 3.5e5).unwrap();
        let prob = MonolithicProblem::new(&p, params, 1.0, 1.0);
        assert!(prob.solve().is_err());
    }

    #[test]
    fn infeasible_when_deadline_tiny() {
        let p = blast();
        let params = RtParams::new(50.0, 1000.0).unwrap();
        let prob = MonolithicProblem::new(&p, params, 1.0, 1.0);
        assert!(prob.solve().is_err());
    }

    #[test]
    fn higher_b_or_s_never_improves() {
        let p = blast();
        let params = RtParams::new(50.0, 1e5).unwrap();
        let base = MonolithicProblem::new(&p, params, 1.0, 1.0)
            .solve()
            .unwrap();
        let b2 = MonolithicProblem::new(&p, params, 2.0, 1.0)
            .solve()
            .unwrap();
        let s2 = MonolithicProblem::new(&p, params, 1.0, 2.0)
            .solve()
            .unwrap();
        assert!(b2.active_fraction >= base.active_fraction - 1e-12);
        assert!(s2.active_fraction >= base.active_fraction - 1e-12);
    }

    #[test]
    fn max_block_size_formula() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let prob = MonolithicProblem::new(&p, params, 2.0, 1.0);
        assert_eq!(prob.max_block_size(), 5000);
    }

    #[test]
    fn objective_rejects_zero_and_infeasible() {
        let p = blast();
        let params = RtParams::new(50.0, 1e5).unwrap();
        let prob = MonolithicProblem::new(&p, params, 1.0, 1.0);
        assert!(prob.objective(0).is_none());
        // Stability: M=1 takes 4397 cycles but only 50 accumulate → None.
        assert!(prob.objective(1).is_none());
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn rejects_sub_unit_b() {
        let p = blast();
        let params = RtParams::new(50.0, 1e5).unwrap();
        MonolithicProblem::new(&p, params, 0.5, 1.0);
    }
}
