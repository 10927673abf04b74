//! The enforced-waits strategy (paper §4).
//!
//! Each node `n_i` is given a fixed wait `w_i`: after every firing it
//! sleeps exactly `w_i` cycles before firing again, so its firing period
//! is `x_i = t_i + w_i`. The waits solve the convex program of the
//! paper's Figure 1 (restated in terms of periods `x`):
//!
//! ```text
//! min (1/N) Σ t_i/x_i
//! s.t. x_0 ≤ v·τ0                     (head keeps up with arrivals)
//!      g_{i-1}·x_i ≤ x_{i-1}          (each edge is stable)
//!      Σ b_i·x_i ≤ D                  (deadline with backlog factors)
//!      x_i ≥ t_i                      (waits are nonnegative)
//! ```
//!
//! Two independent solution methods are provided and cross-checked in
//! tests:
//!
//! * [`SolveMethod::InteriorPoint`] — the general log-barrier Newton
//!   method from the `solver` crate, applied directly.
//! * [`SolveMethod::WaterFilling`] — an exact specialized method: the
//!   substitution `z_i = G_i·x_i` turns the edge constraints into a
//!   monotonicity requirement (`z` nonincreasing) and the head bound
//!   into `z_i ≤ v·τ0`, leaving a separable convex objective. For a
//!   fixed deadline price λ the inner problem is solved exactly by
//!   pool-adjacent-violators. Within one block structure the budget is
//!   affine in `μ = λ^(-1/2)`, so a few bracketed Newton steps find the
//!   exact λ that exhausts (or slackens) the deadline budget, and the
//!   schedule is the closed form at that λ.

use crate::feasibility::{check_backlog_factors, check_minimal_periods, minimal_periods_of};
use crate::price::{exact_price, seed_mu};
use crate::schedule::ScheduleError;
use crate::telemetry::{timed, SolveTelemetry};
use dataflow_model::analysis::enforced_active_fraction;
use dataflow_model::{PipelineSpec, RtParams};
use obs_trace::{SpanSink, Track};
use serde::{Deserialize, Serialize};
use solver::convex::{
    find_interior_point_detailed, minimize, minimize_warm, ConvexProblem, SolverOptions,
};
use solver::linalg::{BandedMat, Mat};
use solver::linear::ConstraintSet;

/// Which algorithm solves the Fig.-1 program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveMethod {
    /// General log-barrier interior-point Newton method.
    InteriorPoint,
    /// Exact specialized water-filling (exact deadline price + PAV).
    WaterFilling,
}

/// A warm-start hint: the periods of a nearby instance's solution (the
/// previous calibration round, or an adjacent sweep cell), used to seed
/// the solve instead of starting cold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarmStart {
    /// Firing periods `x_i` of the nearby solution.
    pub periods: Vec<f64>,
}

impl WarmStart {
    /// Warm-start hint from an already-solved schedule.
    pub fn from_schedule(schedule: &WaitSchedule) -> Self {
        WarmStart {
            periods: schedule.periods.clone(),
        }
    }
}

/// An optimized enforced-waits schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WaitSchedule {
    /// Per-node waits `w_i ≥ 0` (cycles).
    pub waits: Vec<f64>,
    /// Per-node firing periods `x_i = t_i + w_i` (cycles).
    pub periods: Vec<f64>,
    /// Predicted active fraction `(1/N) Σ t_i/x_i`.
    pub active_fraction: f64,
    /// Backlog factors `b_i` the schedule was designed for.
    pub backlog_factors: Vec<f64>,
    /// Worst-case latency bound `Σ b_i·x_i` at this schedule.
    pub latency_bound: f64,
    /// Method that produced the schedule.
    pub method: SolveMethod,
    /// How the solve went (iterations, residual, wall time, …).
    pub telemetry: Option<SolveTelemetry>,
}

/// The Fig.-1 design problem: a pipeline, an operating point, and
/// backlog factors capturing worst-case queue growth.
#[derive(Debug, Clone)]
pub struct EnforcedWaitsProblem<'a> {
    pipeline: &'a PipelineSpec,
    params: RtParams,
    b: Vec<f64>,
    /// Service times `t_i`.
    t: Vec<f64>,
    /// Total gains `G_i`.
    g_total: Vec<f64>,
    /// Minimal periods `x̂` (see [`crate::minimal_periods`]).
    xmin: Vec<f64>,
    /// Water-filling weights over `z_i = G_i·x_i`: objective `a_i` (from
    /// `t_i/(N·x_i) = a_i/z_i`), budget `c_i` (from `b_i·x_i = c_i·z_i`)
    /// and lower bound `lo_i = t_i·G_i`.
    a: Vec<f64>,
    c: Vec<f64>,
    lo: Vec<f64>,
}

/// Reusable buffers for the cells of a sweep row
/// ([`EnforcedWaitsProblem::solve_cell`]).
#[derive(Default)]
pub(crate) struct CellScratch {
    pav: Pav,
    /// The last cell's firing periods.
    pub(crate) periods: Vec<f64>,
}

impl<'a> EnforcedWaitsProblem<'a> {
    /// Construct the problem. `b` must have one strictly positive factor
    /// per pipeline stage (the paper's `b_i`; `⌈g_i⌉` is the optimistic
    /// starting choice, calibrated upward empirically in §6.2).
    pub fn new(pipeline: &'a PipelineSpec, params: RtParams, b: Vec<f64>) -> Self {
        let t = pipeline.service_times();
        // One pass over the gain laws (a censored Poisson mean is an
        // `exp` and a PMF sum) serves the minimal periods and the totals
        // `G_i = Π_{j<i} g_j`, multiplied as `PipelineSpec::total_gains`
        // does.
        let g = pipeline.mean_gains();
        let g_total: Vec<f64> = (g.iter())
            .scan(1.0, |into, &gi| {
                let total = *into;
                *into *= gi;
                Some(total)
            })
            .collect();
        let n = t.len();
        let a = (0..n).map(|i| t[i] * g_total[i] / n as f64).collect();
        // A short `b` is reported by the feasibility check, not here.
        let c = (b.iter().zip(&g_total)).map(|(bi, gi)| bi / gi).collect();
        let lo = (0..n).map(|i| t[i] * g_total[i]).collect();
        EnforcedWaitsProblem {
            pipeline,
            params,
            b,
            xmin: minimal_periods_of(&t, &g),
            t,
            g_total,
            a,
            c,
            lo,
        }
    }

    /// The paper's optimistic starting backlog factors `b_i = ⌈g_i⌉`
    /// (clamped up to 1 so factors stay positive for filter stages).
    pub fn optimistic_backlog(pipeline: &PipelineSpec) -> Vec<f64> {
        pipeline
            .mean_gains()
            .iter()
            .map(|g| g.ceil().max(1.0))
            .collect()
    }

    /// The pipeline being scheduled.
    pub fn pipeline(&self) -> &PipelineSpec {
        self.pipeline
    }

    /// The operating point.
    pub fn params(&self) -> &RtParams {
        &self.params
    }

    /// The backlog factors.
    pub fn backlog_factors(&self) -> &[f64] {
        &self.b
    }

    /// Move the problem to another operating point of the same pipeline
    /// (a sweep row's next cell).
    pub(crate) fn set_params(&mut self, params: RtParams) {
        self.params = params;
    }

    /// [`crate::check_enforced_feasibility`] on the stored minimal periods.
    fn check_feasibility(&self) -> Result<(), ScheduleError> {
        check_backlog_factors(self.pipeline.len(), &self.b)?;
        check_minimal_periods(
            &self.xmin,
            self.pipeline.vector_width(),
            &self.params,
            &self.b,
        )?;
        Ok(())
    }

    /// Build the Fig.-1 constraint set over the period variables `x`.
    pub fn constraint_set(&self) -> ConstraintSet {
        let n = self.pipeline.len();
        let t = self.pipeline.service_times();
        let g = self.pipeline.mean_gains();
        let v_tau0 = self.pipeline.vector_width() as f64 * self.params.tau0;
        let mut cs = ConstraintSet::new(n);
        cs.push_upper_bound(0, v_tau0, "head rate: x0 <= v*tau0");
        for i in 1..n {
            if g[i - 1] > 0.0 {
                let mut coeffs = vec![0.0; n];
                coeffs[i] = g[i - 1];
                coeffs[i - 1] = -1.0;
                cs.push(coeffs, 0.0, format!("edge {}->{} stability", i - 1, i));
            }
        }
        cs.push(self.b.clone(), self.params.deadline, "deadline");
        for (i, &ti) in t.iter().enumerate() {
            cs.push_lower_bound(i, ti, format!("x{i} >= t{i}"));
        }
        cs
    }

    /// Solve for the optimal waits with the chosen method.
    pub fn solve(&self, method: SolveMethod) -> Result<WaitSchedule, ScheduleError> {
        self.solve_inner(method, None, None, 0)
    }

    /// [`EnforcedWaitsProblem::solve`] seeded from a nearby solution.
    ///
    /// The interior-point method converges to the cold schedule (within
    /// solver tolerance) in fewer iterations: it skips its loose early
    /// centering steps, or runs phase-1 from the warm point instead of
    /// from scratch. Water-filling only seeds its first deadline-price
    /// step from the hint and returns the cold schedule bit for bit.
    /// The returned telemetry has `warm_start = true`.
    pub fn solve_warm(
        &self,
        method: SolveMethod,
        warm: &WarmStart,
    ) -> Result<WaitSchedule, ScheduleError> {
        self.solve_inner(method, Some(warm), None, 0)
    }

    /// [`EnforcedWaitsProblem::solve`] with solver span tracing: emits
    /// an enclosing solve span on [`Track::solver`]`(attempt)` (wall
    /// microseconds as the time axis), with one child `price` span per
    /// water-filling budget evaluation or one `centering` span per
    /// interior-point barrier step.
    pub fn solve_traced(
        &self,
        method: SolveMethod,
        sink: &mut SpanSink,
        attempt: u64,
    ) -> Result<WaitSchedule, ScheduleError> {
        self.solve_inner(method, None, Some(sink), attempt)
    }

    fn solve_inner(
        &self,
        method: SolveMethod,
        warm: Option<&WarmStart>,
        mut spans: Option<&mut SpanSink>,
        attempt: u64,
    ) -> Result<WaitSchedule, ScheduleError> {
        self.check_feasibility()?;
        let warm = self.usable(warm);
        if let Some(sink) = spans.as_deref_mut() {
            let name = match method {
                SolveMethod::InteriorPoint => "solve interior-point",
                SolveMethod::WaterFilling => "solve water-filling",
            };
            sink.enter(Track::solver(attempt), name, "solver", 0.0);
        }
        let (result, micros) = timed(|| match (method, warm) {
            (SolveMethod::InteriorPoint, None) => {
                self.solve_interior_point(spans.as_deref_mut(), attempt)
            }
            (SolveMethod::InteriorPoint, Some(w)) => {
                self.solve_interior_point_warm(&w.periods, spans.as_deref_mut(), attempt)
            }
            (SolveMethod::WaterFilling, w) => {
                self.solve_waterfilling(w.map(|w| &w.periods[..]), spans.as_deref_mut(), attempt)
            }
        });
        if let Some(sink) = spans {
            sink.exit(micros);
        }
        let (periods, mut telemetry) = result?;
        telemetry.wall_micros = micros;
        let mut schedule = self.schedule_from_periods(periods, method);
        schedule.telemetry = Some(telemetry);
        Ok(schedule)
    }

    /// A hint with the wrong arity came from a different pipeline; it is
    /// ignored rather than indexed out of bounds.
    fn usable<'w>(&self, warm: Option<&'w WarmStart>) -> Option<&'w WarmStart> {
        warm.filter(|w| w.periods.len() == self.pipeline.len())
    }

    /// [`Self::solve_with_fallback_warm`] (or, without a hint,
    /// [`Self::solve_with_fallback`]) for one cell of a sweep row: the
    /// active fraction and the telemetry (the caller stamps the wall
    /// time), with the firing periods left in `scratch.periods`. The
    /// water-filling buffers in `scratch` carry over from cell to cell;
    /// the answer is the public solve's bit for bit.
    pub(crate) fn solve_cell(
        &self,
        warm: Option<&WarmStart>,
        scratch: &mut CellScratch,
    ) -> Result<(f64, Option<SolveTelemetry>), ScheduleError> {
        self.check_feasibility()?;
        let hint = self.usable(warm).map(|w| &w.periods[..]);
        let Ok(telemetry) = self.waterfill(hint, None, 0, &mut scratch.pav) else {
            // Water-filling declined: the interior-point fallback.
            let s = self.solve_with_fallback_inner(warm, None, 0)?;
            scratch.periods.clone_from(&s.periods);
            return Ok((s.active_fraction, s.telemetry));
        };
        scratch.periods.clear();
        let z = &scratch.pav.z;
        scratch
            .periods
            .extend(z.iter().zip(&self.g_total).map(|(&z, &g)| z / g));
        self.clamp_to_service_times(&mut scratch.periods);
        Ok((
            enforced_active_fraction(self.pipeline, &scratch.periods),
            Some(telemetry),
        ))
    }

    /// Solve with water-filling, falling back to the interior-point
    /// method when the specialized solver declines the instance (e.g.
    /// pipelines with zero-mean-gain stages). The returned schedule's
    /// telemetry records whether the fallback was taken.
    pub fn solve_with_fallback(&self) -> Result<WaitSchedule, ScheduleError> {
        self.solve_with_fallback_inner(None, None, 0)
    }

    /// [`EnforcedWaitsProblem::solve_with_fallback`] seeded from a
    /// nearby solution (see [`EnforcedWaitsProblem::solve_warm`]). The
    /// hint seeds both the water-filling attempt and, if taken, the
    /// interior-point fallback.
    pub fn solve_with_fallback_warm(
        &self,
        warm: &WarmStart,
    ) -> Result<WaitSchedule, ScheduleError> {
        self.solve_with_fallback_inner(Some(warm), None, 0)
    }

    /// [`EnforcedWaitsProblem::solve_with_fallback`] with solver span
    /// tracing. The water-filling attempt lands on
    /// [`Track::solver`]`(attempt)`; if it declines the instance a
    /// `kkt-fallback` instant is emitted there and the interior-point
    /// retry lands on `attempt + 1`.
    pub fn solve_with_fallback_traced(
        &self,
        sink: &mut SpanSink,
        attempt: u64,
    ) -> Result<WaitSchedule, ScheduleError> {
        self.solve_with_fallback_inner(None, Some(sink), attempt)
    }

    fn solve_with_fallback_inner(
        &self,
        warm: Option<&WarmStart>,
        mut spans: Option<&mut SpanSink>,
        attempt: u64,
    ) -> Result<WaitSchedule, ScheduleError> {
        match self.solve_inner(
            SolveMethod::WaterFilling,
            warm,
            spans.as_deref_mut(),
            attempt,
        ) {
            Ok(s) => Ok(s),
            Err(ScheduleError::Infeasible(e)) => Err(ScheduleError::Infeasible(e)),
            Err(_) => {
                if let Some(sink) = spans.as_deref_mut() {
                    sink.instant(Track::solver(attempt), "kkt-fallback", 0.0);
                }
                let mut s =
                    self.solve_inner(SolveMethod::InteriorPoint, warm, spans, attempt + 1)?;
                if let Some(t) = s.telemetry.as_mut() {
                    t.fallback = true;
                }
                Ok(s)
            }
        }
    }

    /// Numerical solutions can sit a hair below `t_i`; clamp so waits
    /// are exactly nonnegative.
    fn clamp_to_service_times(&self, periods: &mut [f64]) {
        for (x, &ti) in periods.iter_mut().zip(&self.t) {
            if *x < ti {
                *x = ti;
            }
        }
    }

    fn schedule_from_periods(&self, mut periods: Vec<f64>, method: SolveMethod) -> WaitSchedule {
        self.clamp_to_service_times(&mut periods);
        let waits: Vec<f64> = periods
            .iter()
            .zip(&self.t)
            .map(|(&x, &ti)| x - ti)
            .collect();
        let active_fraction = enforced_active_fraction(self.pipeline, &periods);
        let latency_bound = periods.iter().zip(&self.b).map(|(&x, &bi)| bi * x).sum();
        WaitSchedule {
            waits,
            periods,
            active_fraction,
            backlog_factors: self.b.clone(),
            latency_bound,
            method,
            telemetry: None,
        }
    }

    fn solve_interior_point(
        &self,
        mut spans: Option<&mut SpanSink>,
        attempt: u64,
    ) -> Result<(Vec<f64>, SolveTelemetry), ScheduleError> {
        let t0 = std::time::Instant::now();
        let elapsed_us = |t0: &std::time::Instant| t0.elapsed().as_secs_f64() * 1e6;
        let cs = self.constraint_set();
        let opts = SolverOptions::default();
        // Start from the minimal periods, nudged to the interior by the
        // solver's phase-1.
        let x0 = &self.xmin;
        let radius = (self.params.deadline
            + self.pipeline.vector_width() as f64 * self.params.tau0)
            .max(1.0)
            * 4.0;
        let (interior, phase1_newtons) = match self.analytic_interior_seed(&cs) {
            Some(seed) => (seed, 0),
            None => find_interior_point_detailed(&cs, x0, radius, &opts)
                .map_err(|e| ScheduleError::Solver(format!("phase-1: {e}")))?,
        };
        let phase1_done = elapsed_us(&t0);
        if let Some(sink) = spans.as_deref_mut() {
            sink.span(
                Track::solver(attempt),
                "phase-1",
                "solver",
                0.0,
                phase1_done,
            );
        }
        let sol = minimize(&self.objective(), &cs, &interior, &opts)
            .map_err(|e| ScheduleError::Solver(e.to_string()))?;
        if let Some(sink) = spans {
            // One child span per barrier centering step, laid out
            // back-to-back from the end of phase-1 using the solver's
            // per-step wall timings.
            let mut at = phase1_done;
            for (i, &dur) in sol.barrier_wall_micros.iter().enumerate() {
                sink.span_detail(
                    Track::solver(attempt),
                    "centering",
                    "solver",
                    format!(
                        "t={:.3e} newtons={}",
                        sol.barrier_ts[i], sol.barrier_newtons[i]
                    ),
                    at,
                    at + dur,
                );
                sink.counter(
                    Track::solver(attempt),
                    "residual",
                    at + dur,
                    cs.len().max(1) as f64 / sol.barrier_ts[i],
                );
                sink.counter(
                    Track::solver(attempt),
                    "barrier-mu",
                    at + dur,
                    sol.barrier_ts[i],
                );
                at += dur;
            }
        }
        let mut telemetry = SolveTelemetry::new("interior-point");
        telemetry.iterations = (phase1_newtons + sol.newton_iters) as u64;
        telemetry.residual = sol.gap;
        telemetry.barrier_mu = sol.barrier_ts.clone();
        // Duality-gap bound m/t at each barrier stage: the certified
        // distance to optimal as centering progressed.
        telemetry.residual_series = sol
            .barrier_ts
            .iter()
            .map(|&t| cs.len().max(1) as f64 / t)
            .collect();
        telemetry.phase1_iterations = Some(phase1_newtons as u64);
        telemetry.record_factorization(sol.banded_bandwidth);
        telemetry.newton_solve_micros = sol.newton_solve_micros;
        Ok((sol.x, telemetry))
    }

    fn solve_interior_point_warm(
        &self,
        warm: &[f64],
        spans: Option<&mut SpanSink>,
        attempt: u64,
    ) -> Result<(Vec<f64>, SolveTelemetry), ScheduleError> {
        let cs = self.constraint_set();
        let opts = SolverOptions::default();
        let radius = (self.params.deadline
            + self.pipeline.vector_width() as f64 * self.params.tau0)
            .max(1.0)
            * 4.0;
        // Optimal schedules sit on constraint boundaries (clamped
        // x_i = t_i, tight deadlines), so a raw hint is almost never
        // strictly feasible and would force a phase-1 restore. Nudge it
        // into the interior first; fall back to the raw hint (and the
        // solver's phase-1) when the nudge cannot find room.
        let seed = self.interiorized_warm(warm);
        let seed_ref: &[f64] = seed.as_deref().unwrap_or(warm);
        let ws = minimize_warm(&self.objective(), &cs, seed_ref, radius, &opts)
            .map_err(|e| ScheduleError::Solver(e.to_string()))?;
        if let Some(sink) = spans {
            let track = Track::solver(attempt);
            sink.instant(
                track,
                if ws.warm_feasible {
                    "warm-start"
                } else {
                    "warm-restore"
                },
                0.0,
            );
            let mut at = 0.0;
            for (i, &dur) in ws.solution.barrier_wall_micros.iter().enumerate() {
                sink.span_detail(
                    track,
                    "centering",
                    "solver",
                    format!(
                        "t={:.3e} newtons={}",
                        ws.solution.barrier_ts[i], ws.solution.barrier_newtons[i]
                    ),
                    at,
                    at + dur,
                );
                sink.counter(
                    track,
                    "residual",
                    at + dur,
                    cs.len().max(1) as f64 / ws.solution.barrier_ts[i],
                );
                sink.counter(track, "barrier-mu", at + dur, ws.solution.barrier_ts[i]);
                at += dur;
            }
        }
        let mut telemetry = SolveTelemetry::new("interior-point");
        telemetry.iterations = (ws.phase1_newtons + ws.solution.newton_iters) as u64;
        telemetry.residual = ws.solution.gap;
        telemetry.barrier_mu = ws.solution.barrier_ts.clone();
        telemetry.residual_series = ws
            .solution
            .barrier_ts
            .iter()
            .map(|&t| cs.len().max(1) as f64 / t)
            .collect();
        telemetry.warm_start = true;
        telemetry.phase1_iterations = Some(ws.phase1_newtons as u64);
        telemetry.record_factorization(ws.solution.banded_bandwidth);
        telemetry.newton_solve_micros = ws.solution.newton_solve_micros;
        Ok((ws.solution.x, telemetry))
    }

    /// Push a warm hint strictly inside the Fig.-1 feasible region, in
    /// the water-filling substitution space `z_i = G_i·x_i` where the
    /// constraints reduce to box bounds (`lo_i ≤ z_i`, `z_0 ≤ cap`),
    /// monotonicity (`z` nonincreasing), and the deadline budget.
    /// Returns `None` when there is no room (razor-thin feasible set or
    /// zero-gain stages); callers then let phase-1 handle the raw hint.
    fn interiorized_warm(&self, warm: &[f64]) -> Option<Vec<f64>> {
        const EPS: f64 = 1e-6;
        let (g_total, c, lo) = (&self.g_total, &self.c, &self.lo);
        if g_total.iter().any(|&g| g <= 0.0) {
            return None;
        }
        let n = self.pipeline.len();
        let cap = self.pipeline.vector_width() as f64 * self.params.tau0;

        let mut z: Vec<f64> = (0..n)
            .map(|i| (g_total[i] * warm[i]).max(lo[i] * (1.0 + EPS)))
            .collect();
        z[0] = z[0].min(cap * (1.0 - EPS));

        // Restore strict deadline slack by shrinking toward the lower
        // bounds if the hint exhausted (or overshot) the budget.
        let budget = |z: &[f64]| -> f64 { z.iter().zip(c).map(|(&zi, &ci)| zi * ci).sum() };
        let target = self.params.deadline * (1.0 - EPS);
        let b_now = budget(&z);
        if b_now >= target {
            let b_lo: f64 = lo.iter().zip(c).map(|(&li, &ci)| li * ci).sum();
            if b_lo >= target {
                return None;
            }
            let s = (target - b_lo) / (b_now - b_lo);
            for (zi, &li) in z.iter_mut().zip(lo) {
                *zi = li + s * (*zi - li);
            }
        }
        // Strict monotonicity (edge stability), squeezing downward only
        // so the budget cannot regrow.
        for i in 1..n {
            z[i] = z[i].min(z[i - 1] * (1.0 - 1e-9));
        }
        // The squeeze may have collided with a lower bound; if so the
        // region is too thin to nudge into.
        for i in 0..n {
            if z[i] < lo[i] * (1.0 + EPS / 2.0) {
                return None;
            }
        }
        Some(z.iter().zip(g_total).map(|(&zi, &gi)| zi / gi).collect())
    }

    fn objective(&self) -> ActiveFractionObjective {
        ActiveFractionObjective {
            t_over_n: self
                .pipeline
                .service_times()
                .iter()
                .map(|ti| ti / self.pipeline.len() as f64)
                .collect(),
            // Chain adjacency: each edge constraint couples x_{i-1} and
            // x_i, so the KKT system is tridiagonal (plus the dense
            // deadline row the solver folds in by low-rank correction).
            bandwidth: Some(1),
        }
    }

    /// Analytic strictly-interior starting point for deep pipelines.
    ///
    /// Phase-1 solves a dense augmented Newton system — O(n³) per step —
    /// which at hundreds of stages dwarfs the banded centering it
    /// precedes. The minimal periods pushed into the interior by the
    /// same nudge the warm path uses are strictly feasible whenever the
    /// feasible set has any width, so deep solves can skip phase-1
    /// entirely. Paper-scale problems (n < 32, where the dense path
    /// runs anyway) keep the phase-1 route and its exact telemetry.
    fn analytic_interior_seed(&self, cs: &ConstraintSet) -> Option<Vec<f64>> {
        if self.pipeline.len() < 32 {
            return None;
        }
        let seed = self.interiorized_warm(&self.xmin)?;
        cs.constraints()
            .iter()
            .all(|c| c.slack(&seed) > 0.0)
            .then_some(seed)
    }

    /// Exact water-filling: the smallest deadline price λ whose
    /// pool-adjacent-violators schedule `z(λ)` fits the deadline, from
    /// [`exact_price`]. A warm hint (periods) only seeds the first price
    /// step, so warm and cold solves return the same schedule.
    fn solve_waterfilling(
        &self,
        warm: Option<&[f64]>,
        spans: Option<&mut SpanSink>,
        attempt: u64,
    ) -> Result<(Vec<f64>, SolveTelemetry), ScheduleError> {
        let mut pav = Pav::default();
        let telemetry = self.waterfill(warm, spans, attempt, &mut pav)?;
        Ok((
            pav.z
                .iter()
                .zip(&self.g_total)
                .map(|(&z, &gt)| z / gt)
                .collect(),
            telemetry,
        ))
    }

    /// The water-filling core behind [`Self::solve_waterfilling`] and
    /// [`Self::solve_cell`]: leaves the scaled periods `z_i = G_i·x_i` of
    /// the schedule in `pav.z` and returns the telemetry (without wall
    /// time). The clock is read only for spans.
    fn waterfill(
        &self,
        warm: Option<&[f64]>,
        mut spans: Option<&mut SpanSink>,
        attempt: u64,
        pav: &mut Pav,
    ) -> Result<SolveTelemetry, ScheduleError> {
        let (t, g_total) = (&self.t, &self.g_total);
        let (a, c, lo) = (&self.a, &self.c, &self.lo);
        if g_total.iter().any(|&g| g <= 0.0) {
            return Err(ScheduleError::Solver(
                "water-filling requires strictly positive mean gains; use InteriorPoint".into(),
            ));
        }
        let cap = self.pipeline.vector_width() as f64 * self.params.tau0;
        let deadline = self.params.deadline;
        debug_assert!(
            lo.iter().all(|&l| l <= cap * (1.0 + 1e-9)),
            "feasibility precheck should guarantee lo <= cap"
        );

        let budget_of = |z: &[f64]| -> f64 { z.iter().zip(c).map(|(&zi, &ci)| zi * ci).sum() };
        // The latency bound `schedule_from_periods` reports for z.
        let latency_of = |z: &[f64]| -> f64 {
            z.iter()
                .zip(g_total)
                .zip(t)
                .zip(&self.b)
                .map(|(((&zi, &gi), &ti), &bi)| bi * (zi / gi).max(ti))
                .sum()
        };

        let mut telemetry = SolveTelemetry::new("water-filling");
        telemetry.warm_start = warm.is_some();
        // Generic instances take a handful of price steps.
        telemetry.residual_series.reserve(8);
        let clock = spans.is_some().then(std::time::Instant::now);
        let elapsed_us = || clock.map_or(0.0, |t0| t0.elapsed().as_secs_f64() * 1e6);
        let track = Track::solver(attempt);
        let mu0 = seed_mu(deadline, a, c, g_total, lo, cap, warm);

        let lambda = exact_price(deadline, mu0, |lambda| {
            let started = elapsed_us();
            let (slope, offset) = pav.solve(a, c, lo, cap, lambda);
            let used = budget_of(&pav.z);
            // The z-space budget and the reported bound `Σ b_i·x_i`
            // round differently; both must meet the deadline.
            let fits = used <= deadline && latency_of(&pav.z) <= deadline;
            telemetry.iterations += 1;
            if lambda > 0.0 {
                telemetry.residual_series.push((deadline - used).abs());
            }
            if let Some(sink) = spans.as_deref_mut() {
                let now = elapsed_us();
                sink.span_detail(
                    track,
                    "price",
                    "solver",
                    format!("lambda={lambda:.4e} fits={fits}"),
                    started,
                    now,
                );
                sink.counter(track, "residual", now, (deadline - used).abs());
            }
            (fits, slope, offset)
        })
        .ok_or_else(|| {
            ScheduleError::Solver("water-filling found no deadline price that fits".into())
        })?;
        pav.solve(a, c, lo, cap, lambda);
        telemetry.residual = (deadline - budget_of(&pav.z)).abs();
        Ok(telemetry)
    }
}

/// The active-fraction objective `(1/N) Σ t_i/x_i` for the
/// interior-point solver (Fig.-1 chains and, via
/// [`crate::dag::EnforcedDagProblem`], DAG node sets). The Hessian is
/// diagonal, so the declared `bandwidth` comes entirely from the
/// constraint adjacency profile the owner computed: `Some(1)` for
/// chains (each edge couples adjacent periods), the topo-order span for
/// DAGs, `None` to force the dense Newton path.
pub(crate) struct ActiveFractionObjective {
    pub(crate) t_over_n: Vec<f64>,
    pub(crate) bandwidth: Option<usize>,
}

impl ConvexProblem for ActiveFractionObjective {
    fn dim(&self) -> usize {
        self.t_over_n.len()
    }
    fn value(&self, x: &[f64]) -> f64 {
        x.iter().zip(&self.t_over_n).map(|(&xi, &ai)| ai / xi).sum()
    }
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        for i in 0..x.len() {
            grad[i] = -self.t_over_n[i] / (x[i] * x[i]);
        }
    }
    fn hessian(&self, x: &[f64], h: &mut Mat) {
        for i in 0..x.len() {
            h[(i, i)] = 2.0 * self.t_over_n[i] / (x[i] * x[i] * x[i]);
        }
    }
    fn bandwidth(&self) -> Option<usize> {
        self.bandwidth
    }
    fn hessian_banded(&self, x: &[f64], h: &mut BandedMat) {
        for (i, xi) in x.iter().enumerate() {
            *h.at_mut(i, i) = 2.0 * self.t_over_n[i] / (xi * xi * xi);
        }
    }
}

/// One pooled block of [`Pav`].
#[derive(Clone, Copy)]
struct PavBlock {
    a_sum: f64,
    c_sum: f64,
    lo_max: f64,
    len: usize,
    value: f64,
}

/// Pool-adjacent-violators with reusable buffers.
#[derive(Default)]
struct Pav {
    blocks: Vec<PavBlock>,
    /// The last solution.
    z: Vec<f64>,
}

impl Pav {
    /// Exact minimizer of `Σ_i a_i/z_i + λ·c_i·z_i` subject to
    /// `z_0 ≥ z_1 ≥ … ≥ z_{n-1}`, `lo_i ≤ z_i ≤ cap`, written to `self.z`.
    /// Each pooled block takes the value
    /// `clamp(√(Σa / (λ·Σc)), max lo over block, cap)`. Returns the
    /// budget `Σ c_i·z_i` of this block structure as `slope·μ + offset`
    /// with `μ = λ^(-1/2)`: a free block adds `√(Σa·Σc)` to the slope, a
    /// clamped one its `Σc·value` to the offset.
    fn solve(&mut self, a: &[f64], c: &[f64], lo: &[f64], cap: f64, lambda: f64) -> (f64, f64) {
        let raw = |a_sum: f64, c_sum: f64| (a_sum / (lambda * c_sum)).sqrt();
        let stack = &mut self.blocks;
        stack.clear();
        for i in 0..a.len() {
            let mut blk = PavBlock {
                a_sum: a[i],
                c_sum: c[i],
                lo_max: lo[i],
                len: 1,
                value: raw(a[i], c[i]).clamp(lo[i], cap),
            };
            // Nonincreasing order: the previous block's value must be >=
            // the new block's. Pool while violated.
            while let Some(prev) = stack.last() {
                if prev.value >= blk.value {
                    break;
                }
                let prev = stack.pop().expect("just peeked");
                blk.a_sum += prev.a_sum;
                blk.c_sum += prev.c_sum;
                blk.lo_max = blk.lo_max.max(prev.lo_max);
                blk.len += prev.len;
                blk.value = raw(blk.a_sum, blk.c_sum).clamp(blk.lo_max, cap);
            }
            stack.push(blk);
        }
        self.z.clear();
        let (mut slope, mut offset) = (0.0, 0.0);
        for blk in stack.iter() {
            self.z.resize(self.z.len() + blk.len, blk.value);
            let r = raw(blk.a_sum, blk.c_sum);
            if r > blk.lo_max && r < cap {
                slope += (blk.a_sum * blk.c_sum).sqrt();
            } else {
                offset += blk.c_sum * blk.value;
            }
        }
        (slope, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::minimal_periods;
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

    const PAPER_B: [f64; 4] = [1.0, 3.0, 9.0, 6.0];

    fn solve_both(
        pipeline: &PipelineSpec,
        tau0: f64,
        d: f64,
        b: &[f64],
    ) -> (WaitSchedule, WaitSchedule) {
        let params = RtParams::new(tau0, d).unwrap();
        let prob = EnforcedWaitsProblem::new(pipeline, params, b.to_vec());
        let ip = prob.solve(SolveMethod::InteriorPoint).unwrap();
        let wf = prob.solve(SolveMethod::WaterFilling).unwrap();
        (ip, wf)
    }

    #[test]
    fn methods_agree_on_blast_tight_deadline() {
        let p = blast();
        let (ip, wf) = solve_both(&p, 10.0, 5e4, &PAPER_B);
        assert!(
            (ip.active_fraction - wf.active_fraction).abs() < 1e-5,
            "IP {} vs WF {}",
            ip.active_fraction,
            wf.active_fraction
        );
        for (a, b) in ip.periods.iter().zip(&wf.periods) {
            assert!(
                (a - b).abs() / b < 1e-3,
                "{:?} vs {:?}",
                ip.periods,
                wf.periods
            );
        }
    }

    #[test]
    fn methods_agree_on_blast_loose_deadline() {
        let p = blast();
        let (ip, wf) = solve_both(&p, 10.0, 3.5e5, &PAPER_B);
        assert!(
            (ip.active_fraction - wf.active_fraction).abs() < 1e-5,
            "IP {} vs WF {}",
            ip.active_fraction,
            wf.active_fraction
        );
    }

    #[test]
    fn solutions_are_feasible() {
        let p = blast();
        for (tau0, d) in [(1.0, 2e4), (3.0, 5e4), (10.0, 1e5), (100.0, 3.5e5)] {
            let params = RtParams::new(tau0, d).unwrap();
            let prob = EnforcedWaitsProblem::new(&p, params, PAPER_B.to_vec());
            if let Ok(s) = prob.solve(SolveMethod::WaterFilling) {
                let cs = prob.constraint_set();
                assert!(
                    cs.is_feasible(&s.periods, 1e-6 * d),
                    "WF infeasible at tau0={tau0} D={d}: {:?}",
                    s.periods
                );
                assert!(s.waits.iter().all(|&w| w >= 0.0));
                assert!(s.latency_bound <= d * (1.0 + 1e-9));
            }
            if let Ok(s) = prob.solve(SolveMethod::InteriorPoint) {
                let cs = prob.constraint_set();
                assert!(
                    cs.is_feasible(&s.periods, 1e-6 * d),
                    "IP infeasible at tau0={tau0} D={d}: {:?}",
                    s.periods
                );
            }
        }
    }

    #[test]
    fn larger_deadline_means_lower_active_fraction() {
        let p = blast();
        let mut prev = f64::INFINITY;
        for d in [2.5e4, 5e4, 1e5, 2e5, 3.5e5] {
            let params = RtParams::new(5.0, d).unwrap();
            let prob = EnforcedWaitsProblem::new(&p, params, PAPER_B.to_vec());
            let s = prob.solve(SolveMethod::WaterFilling).unwrap();
            assert!(
                s.active_fraction <= prev + 1e-12,
                "active fraction should be nonincreasing in D"
            );
            prev = s.active_fraction;
        }
    }

    #[test]
    fn active_fraction_insensitive_to_tau0_when_deadline_binds() {
        // Paper §6.3: enforced-waits is insensitive to τ0 except at the
        // smallest values (where stability binds).
        let p = blast();
        let d = 1e5;
        let af = |tau0: f64| {
            let params = RtParams::new(tau0, d).unwrap();
            EnforcedWaitsProblem::new(&p, params, PAPER_B.to_vec())
                .solve(SolveMethod::WaterFilling)
                .unwrap()
                .active_fraction
        };
        let a50 = af(50.0);
        let a100 = af(100.0);
        assert!(
            (a50 - a100).abs() / a50 < 0.01,
            "large tau0 should not matter: {a50} vs {a100}"
        );
    }

    #[test]
    fn unbounded_deadline_hits_stability_caps() {
        let p = blast();
        let tau0 = 10.0;
        let params = RtParams::new(tau0, 1e12).unwrap();
        let prob = EnforcedWaitsProblem::new(&p, params, PAPER_B.to_vec());
        let s = prob.solve(SolveMethod::WaterFilling).unwrap();
        // All periods at stability bounds: x_i = v·τ0/G_i.
        let g = p.total_gains();
        for (i, &gi) in g.iter().enumerate() {
            let cap = 128.0 * tau0 / gi;
            assert!(
                (s.periods[i] - cap).abs() / cap < 1e-9,
                "period {i}: {} vs cap {cap}",
                s.periods[i]
            );
        }
        // And the active fraction equals the analytic limit.
        let limit = dataflow_model::analysis::enforced_limit_active_fraction(&p, prob.params());
        assert!((s.active_fraction - limit).abs() < 1e-9);
    }

    #[test]
    fn infeasible_deadline_reported() {
        let p = blast();
        let params = RtParams::new(10.0, 1000.0).unwrap();
        let prob = EnforcedWaitsProblem::new(&p, params, PAPER_B.to_vec());
        assert!(matches!(
            prob.solve(SolveMethod::WaterFilling),
            Err(ScheduleError::Infeasible(_))
        ));
        assert!(matches!(
            prob.solve(SolveMethod::InteriorPoint),
            Err(ScheduleError::Infeasible(_))
        ));
    }

    #[test]
    fn stored_pipeline_data_matches_the_pipeline() {
        let p = blast();
        let prob =
            EnforcedWaitsProblem::new(&p, RtParams::new(10.0, 1e5).unwrap(), PAPER_B.to_vec());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&prob.g_total), bits(&p.total_gains()));
        assert_eq!(bits(&prob.xmin), bits(&minimal_periods(&p)));
        assert_eq!(bits(&prob.t), bits(&p.service_times()));
    }

    #[test]
    fn optimistic_backlog_factors() {
        let p = blast();
        let b = EnforcedWaitsProblem::optimistic_backlog(&p);
        assert_eq!(b, vec![1.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn methods_agree_on_random_pipelines() {
        // A light-weight deterministic fuzz over pipeline shapes.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..30 {
            let n = 2 + (next() * 5.0) as usize;
            let mut builder = PipelineSpecBuilder::new(64);
            for i in 0..n {
                let t = 10.0 + next() * 1000.0;
                let gain = 0.05 + next() * 3.0;
                builder = builder.stage(
                    format!("n{i}"),
                    t,
                    GainModel::Empirical {
                        pmf: {
                            // two-point distribution with the target mean
                            let k = gain.ceil().max(1.0) as u32;
                            let p_hi = gain / k as f64;
                            vec![(0, 1.0 - p_hi), (k, p_hi)]
                        },
                    },
                );
            }
            let p = builder.build().unwrap();
            let b: Vec<f64> = p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect();
            let tau0 = 5.0 + next() * 50.0;
            let xmin = minimal_periods(&p);
            if xmin[0] > 64.0 * tau0 {
                continue; // unstable operating point; skip
            }
            let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
            let d = min_d * (1.2 + next() * 4.0);
            let params = RtParams::new(tau0, d).unwrap();
            let prob = EnforcedWaitsProblem::new(&p, params, b);
            let ip = prob.solve(SolveMethod::InteriorPoint);
            let wf = prob.solve(SolveMethod::WaterFilling);
            match (ip, wf) {
                (Ok(ip), Ok(wf)) => {
                    assert!(
                        (ip.active_fraction - wf.active_fraction).abs()
                            < 1e-4 * wf.active_fraction.max(1e-6),
                        "trial {trial}: IP {} vs WF {} (n={n}, tau0={tau0:.1}, D={d:.0})",
                        ip.active_fraction,
                        wf.active_fraction
                    );
                }
                (ip, wf) => panic!("trial {trial}: solver disagreement: {ip:?} vs {wf:?}"),
            }
        }
    }

    #[test]
    fn traced_solves_emit_solver_spans() {
        let p = blast();
        let params = RtParams::new(10.0, 5e4).unwrap();
        let prob = EnforcedWaitsProblem::new(&p, params, PAPER_B.to_vec());
        let mut sink = SpanSink::with_defaults();
        let wf = prob
            .solve_traced(SolveMethod::WaterFilling, &mut sink, 0)
            .unwrap();
        let ip = prob
            .solve_traced(SolveMethod::InteriorPoint, &mut sink, 1)
            .unwrap();
        // Traced solves produce the same schedules as plain ones.
        let plain = prob.solve(SolveMethod::WaterFilling).unwrap();
        assert_eq!(wf.periods, plain.periods);

        let log = sink.finish();
        let count = |attempt: u64, name: &str| {
            log.spans
                .iter()
                .filter(|s| s.track == Track::solver(attempt) && s.name == name)
                .count() as u64
        };
        // Enclosing solve spans at depth 0, one per attempt.
        assert_eq!(count(0, "solve water-filling"), 1);
        assert_eq!(count(1, "solve interior-point"), 1);
        for s in &log.spans {
            if s.name.starts_with("solve ") {
                assert_eq!(s.depth, 0);
                assert!(s.dur > 0.0, "solve span has wall time");
            } else {
                assert_eq!(s.depth, 1, "child spans nest inside the solve");
            }
        }
        // Water-filling: every budget evaluation is one iteration and
        // leaves one `price` span.
        let wf_tel = wf.telemetry.expect("telemetry");
        assert_eq!(count(0, "price"), wf_tel.iterations);
        // Interior point: one centering span per barrier step, plus the
        // phase-1 span.
        let ip_tel = ip.telemetry.expect("telemetry");
        assert_eq!(count(1, "centering"), ip_tel.barrier_mu.len() as u64);
        assert_eq!(count(1, "phase-1"), 1);
    }

    #[test]
    fn fallback_traced_emits_instant_and_retries_on_next_track() {
        // A filter stage with zero mean gain: water-filling declines,
        // the interior-point fallback must answer.
        let p = PipelineSpecBuilder::new(128)
            .stage("kill", 100.0, GainModel::Deterministic { k: 0 })
            .stage("dead", 50.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap();
        let params = RtParams::new(10.0, 1e6).unwrap();
        let prob = EnforcedWaitsProblem::new(&p, params, vec![1.0, 1.0]);
        let mut sink = SpanSink::with_defaults();
        let s = prob
            .solve_with_fallback_traced(&mut sink, 0)
            .expect("fallback solves");
        assert!(s.telemetry.as_ref().unwrap().fallback);
        let log = sink.finish();
        assert!(log
            .instants
            .iter()
            .any(|i| i.track == Track::solver(0) && i.name == "kkt-fallback"));
        assert!(log
            .spans
            .iter()
            .any(|s| s.track == Track::solver(1) && s.name == "solve interior-point"));
    }

    #[test]
    fn warm_start_converges_to_cold_schedule_both_methods() {
        let p = blast();
        // Warm each cell from its neighbor's schedule (smaller deadline).
        let deadlines = [3e4, 5e4, 1e5, 2e5, 3.5e5];
        for w in deadlines.windows(2) {
            let (d_prev, d) = (w[0], w[1]);
            let prev = EnforcedWaitsProblem::new(
                &p,
                RtParams::new(10.0, d_prev).unwrap(),
                PAPER_B.to_vec(),
            )
            .solve(SolveMethod::WaterFilling)
            .unwrap();
            let hint = WarmStart::from_schedule(&prev);
            let prob =
                EnforcedWaitsProblem::new(&p, RtParams::new(10.0, d).unwrap(), PAPER_B.to_vec());
            // Water-filling: the hint only seeds the price search, so the
            // schedule is the cold one bit for bit.
            let cold = prob.solve(SolveMethod::WaterFilling).unwrap();
            let warm = prob.solve_warm(SolveMethod::WaterFilling, &hint).unwrap();
            assert!(warm.telemetry.as_ref().unwrap().warm_start);
            assert_eq!(warm.periods, cold.periods, "D={d}");
            assert_eq!(warm.active_fraction, cold.active_fraction, "D={d}");
            let cold = prob.solve(SolveMethod::InteriorPoint).unwrap();
            let warm = prob.solve_warm(SolveMethod::InteriorPoint, &hint).unwrap();
            assert!(warm.telemetry.as_ref().unwrap().warm_start);
            assert!(
                (warm.active_fraction - cold.active_fraction).abs() < 1e-5,
                "InteriorPoint at D={d}: warm {} vs cold {}",
                warm.active_fraction,
                cold.active_fraction
            );
            for (a, b) in warm.periods.iter().zip(&cold.periods) {
                assert!(
                    (a - b).abs() / b < 1e-3,
                    "InteriorPoint at D={d}: {:?} vs {:?}",
                    warm.periods,
                    cold.periods
                );
            }
        }
    }

    #[test]
    fn warm_start_uses_fewer_iterations_on_blast() {
        // Acceptance criterion: mean interior-point iterations with
        // warm-start enabled < disabled on the Table-1 BLAST pipeline.
        // Water-filling's exact price search takes a handful of budget
        // evaluations either way; its warm solve must return the cold
        // schedule bit for bit.
        let p = blast();
        let deadlines = [3e4, 5e4, 8e4, 1.2e5, 2e5, 3.5e5];
        let mut prev: Option<WaitSchedule> = None;
        let mut cold_ip = 0u64;
        let mut warm_ip = 0u64;
        let mut warmed = 0u32;
        for &d in &deadlines {
            let prob =
                EnforcedWaitsProblem::new(&p, RtParams::new(10.0, d).unwrap(), PAPER_B.to_vec());
            let ip_cold = prob.solve(SolveMethod::InteriorPoint).unwrap();
            let wf_cold = prob.solve(SolveMethod::WaterFilling).unwrap();
            if let Some(prev) = &prev {
                let hint = WarmStart::from_schedule(prev);
                let ip_warm = prob.solve_warm(SolveMethod::InteriorPoint, &hint).unwrap();
                let wf_warm = prob.solve_warm(SolveMethod::WaterFilling, &hint).unwrap();
                cold_ip += ip_cold.telemetry.as_ref().unwrap().iterations;
                warm_ip += ip_warm.telemetry.as_ref().unwrap().iterations;
                assert_eq!(wf_warm.periods, wf_cold.periods, "D={d}");
                warmed += 1;
            }
            prev = Some(wf_cold);
        }
        assert!(warmed > 0);
        assert!(
            warm_ip < cold_ip,
            "mean warm IP iterations {} should beat cold {}",
            warm_ip as f64 / warmed as f64,
            cold_ip as f64 / warmed as f64
        );
    }

    #[test]
    fn mismatched_warm_hint_is_ignored_not_fatal() {
        let p = blast();
        let prob =
            EnforcedWaitsProblem::new(&p, RtParams::new(10.0, 5e4).unwrap(), PAPER_B.to_vec());
        let hint = WarmStart {
            periods: vec![100.0, 200.0], // wrong arity for a 4-stage pipeline
        };
        let s = prob.solve_warm(SolveMethod::WaterFilling, &hint).unwrap();
        let cold = prob.solve(SolveMethod::WaterFilling).unwrap();
        assert_eq!(s.periods, cold.periods);
        // The hint was dropped, so the solve ran cold.
        assert!(!s.telemetry.as_ref().unwrap().warm_start);
    }

    #[test]
    fn warm_fallback_still_answers_on_zero_gain_pipelines() {
        let p = PipelineSpecBuilder::new(128)
            .stage("kill", 100.0, GainModel::Deterministic { k: 0 })
            .stage("dead", 50.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap();
        let params = RtParams::new(10.0, 1e6).unwrap();
        let prob = EnforcedWaitsProblem::new(&p, params, vec![1.0, 1.0]);
        let cold = prob.solve_with_fallback().unwrap();
        let warm = prob
            .solve_with_fallback_warm(&WarmStart::from_schedule(&cold))
            .unwrap();
        let t = warm.telemetry.as_ref().unwrap();
        assert!(t.fallback && t.warm_start);
        assert!((warm.active_fraction - cold.active_fraction).abs() < 1e-5);
    }

    fn deep_chain(n: usize) -> PipelineSpec {
        let mut builder = PipelineSpecBuilder::new(128);
        for i in 0..n {
            builder = builder.stage(
                format!("s{i}"),
                100.0 + i as f64,
                GainModel::Bernoulli { p: 0.9 },
            );
        }
        builder.build().unwrap()
    }

    #[test]
    fn deep_chain_ip_uses_banded_factorization_and_matches_water_filling() {
        let p = deep_chain(64);
        let b = EnforcedWaitsProblem::optimistic_backlog(&p);
        let min_d: f64 = minimal_periods(&p)
            .iter()
            .zip(&b)
            .map(|(x, bi)| x * bi)
            .sum();
        let params = RtParams::new(5.0, min_d * 2.0).unwrap();
        let prob = EnforcedWaitsProblem::new(&p, params, b);
        let ip = prob.solve(SolveMethod::InteriorPoint).unwrap();
        let wf = prob.solve(SolveMethod::WaterFilling).unwrap();
        let tel = ip.telemetry.as_ref().unwrap();
        assert_eq!(tel.factorization.as_deref(), Some("banded"));
        assert_eq!(tel.bandwidth, Some(1));
        // The analytic interior seed replaces phase-1 at depth.
        assert_eq!(tel.phase1_iterations, Some(0));
        assert!(
            (ip.active_fraction - wf.active_fraction).abs() < 1e-5,
            "IP {} vs WF {}",
            ip.active_fraction,
            wf.active_fraction
        );
        for (a, b) in ip.periods.iter().zip(&wf.periods) {
            assert!((a - b).abs() / b < 1e-3, "banded IP diverged from WF");
        }
        assert!(prob.constraint_set().is_feasible(&ip.periods, 1e-6 * min_d));
    }

    #[test]
    fn deep_chain_warm_ip_stays_banded_and_converges() {
        let p = deep_chain(48);
        let b = EnforcedWaitsProblem::optimistic_backlog(&p);
        let min_d: f64 = minimal_periods(&p)
            .iter()
            .zip(&b)
            .map(|(x, bi)| x * bi)
            .sum();
        let prob =
            EnforcedWaitsProblem::new(&p, RtParams::new(5.0, min_d * 2.0).unwrap(), b.clone());
        let cold = prob.solve(SolveMethod::InteriorPoint).unwrap();
        let near = EnforcedWaitsProblem::new(&p, RtParams::new(5.0, min_d * 2.1).unwrap(), b);
        let warm = near
            .solve_warm(SolveMethod::InteriorPoint, &WarmStart::from_schedule(&cold))
            .unwrap();
        let cold_near = near.solve(SolveMethod::InteriorPoint).unwrap();
        let tel = warm.telemetry.as_ref().unwrap();
        assert!(tel.warm_start);
        assert_eq!(tel.factorization.as_deref(), Some("banded"));
        assert!((warm.active_fraction - cold_near.active_fraction).abs() < 1e-5);
    }

    #[test]
    fn paper_scale_ip_keeps_dense_factorization() {
        let p = blast();
        let prob =
            EnforcedWaitsProblem::new(&p, RtParams::new(10.0, 5e4).unwrap(), PAPER_B.to_vec());
        let s = prob.solve(SolveMethod::InteriorPoint).unwrap();
        let tel = s.telemetry.as_ref().unwrap();
        assert_eq!(tel.factorization.as_deref(), Some("dense"));
        assert_eq!(tel.bandwidth, None);
        // Water-filling telemetry does not claim a factorization at all.
        let wf = prob.solve(SolveMethod::WaterFilling).unwrap();
        assert_eq!(wf.telemetry.as_ref().unwrap().factorization, None);
    }

    #[test]
    fn pav_respects_monotonicity_and_bounds() {
        let a = [5.0, 1.0, 3.0, 0.5];
        let c = [1.0, 2.0, 0.5, 1.0];
        let lo = [0.1, 0.2, 0.4, 0.3];
        let cap = 100.0;
        for lambda in [1e-4, 1e-2, 1.0, 100.0] {
            let mut pav = Pav::default();
            pav.solve(&a, &c, &lo, cap, lambda);
            let z = &pav.z;
            for w in z.windows(2) {
                assert!(w[0] >= w[1] - 1e-12, "not nonincreasing: {z:?}");
            }
            for (zi, &loi) in z.iter().zip(&lo) {
                assert!(
                    *zi >= loi - 1e-12 && *zi <= cap + 1e-12,
                    "out of box: {z:?}"
                );
            }
        }
    }

    #[test]
    fn pav_matches_bruteforce_on_small_instance() {
        // 3 variables, grid brute force.
        let a = [2.0, 0.3, 1.0];
        let c = [1.0, 1.0, 1.0];
        let lo = [0.5, 0.5, 0.5];
        let cap = 5.0;
        let lambda = 0.7;
        let obj = |z: &[f64]| -> f64 {
            z.iter()
                .zip(&a)
                .zip(&c)
                .map(|((&zi, &ai), &ci)| ai / zi + lambda * ci * zi)
                .sum()
        };
        let mut pav = Pav::default();
        pav.solve(&a, &c, &lo, cap, lambda);
        let z = pav.z;
        let steps = 80;
        let mut best = f64::INFINITY;
        for i0 in 0..=steps {
            let z0 = lo[0] + (cap - lo[0]) * i0 as f64 / steps as f64;
            for i1 in 0..=steps {
                let z1 = lo[1] + (cap - lo[1]) * i1 as f64 / steps as f64;
                if z1 > z0 {
                    continue;
                }
                for i2 in 0..=steps {
                    let z2 = lo[2] + (cap - lo[2]) * i2 as f64 / steps as f64;
                    if z2 > z1 {
                        continue;
                    }
                    best = best.min(obj(&[z0, z1, z2]));
                }
            }
        }
        assert!(
            obj(&z) <= best + 1e-3,
            "PAV {} worse than brute force {best}",
            obj(&z)
        );
    }
}
