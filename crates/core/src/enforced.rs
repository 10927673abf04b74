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
//! [`EnforcedProblem`] poses it on any [`dataflow_model::Topology`]
//! (see the crate's `dag` module for the DAG form) and is the one public
//! design problem. A chain topology goes to the chain kernel in this
//! module, which solves the program exactly by water-filling. The
//! substitution `z_i = G_i·x_i` turns the edge constraints into a
//! monotonicity requirement (`z` nonincreasing) and the head bound into
//! `z_0 ≤ v·τ0`, leaving a separable convex objective. For a fixed
//! deadline price λ the inner problem is solved exactly by
//! pool-adjacent-violators. Within one block structure the budget is
//! affine in `μ = λ^(-1/2)`, so a few bracketed Newton steps find the
//! exact λ that exhausts (or slackens) the deadline budget
//! (the crate's `price` module), and the schedule is the closed form at
//! that λ. A sweep row moves one kernel along its deadlines and reuses
//! its buffers, so a cell allocates nothing.
//!
//! # Zero-gain segments
//!
//! A stage whose mean gain is 0 never feeds its successor, so the edge
//! row after it is slack and drops out of the program (see
//! [`EnforcedProblem::constraint_set`]). The chain then splits into
//! *segments*: each runs from the start of the chain, or from the stage
//! after a zero-gain stage, to the next zero-gain stage. A segment's
//! totals `G_i` are taken from the segment's first stage, PAV pools only
//! within a segment, and only the first segment has the head cap; the
//! others are bounded by the deadline alone. Every segment is priced at
//! one shared λ, so their budget slopes and offsets add and the exact
//! price search applies unchanged. At λ = 0 an uncapped segment's
//! periods, and so the budget, are infinite: a zero price never fits.
//!
//! # The oracle
//!
//! [`EnforcedProblem::solve_interior_point`] solves the same program
//! with the `solver` crate's dense log-barrier interior point, O(N³) per
//! Newton step. Nothing in production calls it: it is the independent
//! method the tests hold water-filling to, next to the
//! [`EnforcedProblem::verify_kkt`] certificate.

pub use crate::dag::EnforcedProblem;
use crate::feasibility::{check_backlog_factors, check_minimal_periods, minimal_periods_of};
use crate::price::{exact_price, seed_mu};
use crate::schedule::ScheduleError;
use crate::telemetry::{timed, CellTelemetry, SolveTelemetry};
use dataflow_model::{PipelineSpec, RtParams};
use obs_trace::{SpanSink, Track};
use serde::{Deserialize, Serialize};
use solver::convex::{find_interior_point_detailed, minimize, ConvexProblem, SolverOptions};
use solver::linalg::Mat;
use solver::linear::ConstraintSet;

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
    /// How the solve went (method, iterations, residual, wall time, …).
    pub telemetry: Option<SolveTelemetry>,
}

/// The Fig.-1 design problem on a chain: the kernel behind
/// [`EnforcedProblem`] on chain topologies and behind the sweep's rows.
#[derive(Debug, Clone)]
pub(crate) struct ChainProblem {
    /// The vector width `v`.
    v: u32,
    params: RtParams,
    b: Vec<f64>,
    /// Service times `t_i`.
    t: Vec<f64>,
    /// Mean gains `g_i`.
    g: Vec<f64>,
    /// Total gains `G_i`, taken from the start of each zero-gain segment
    /// (see module docs).
    g_total: Vec<f64>,
    /// First stage of every segment after the first: the stages that
    /// follow a zero-gain stage.
    starts: Vec<usize>,
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
/// ([`ChainProblem::solve_cell`]).
#[derive(Default)]
pub(crate) struct CellScratch {
    pav: Pav,
    periods: Vec<f64>,
}

impl ChainProblem {
    /// Construct the problem. `b` must have one strictly positive factor
    /// per pipeline stage (the paper's `b_i`).
    pub(crate) fn new(pipeline: &PipelineSpec, params: RtParams, b: Vec<f64>) -> Self {
        let t = pipeline.service_times();
        // One pass over the gain laws (a censored Poisson mean is an
        // `exp` and a PMF sum) serves the minimal periods and the totals
        // `G_i = Π_{j<i} g_j`, multiplied as `PipelineSpec::total_gains`
        // does and restarted at 1 after a zero gain.
        let g = pipeline.mean_gains();
        let g_total: Vec<f64> = (g.iter())
            .scan(1.0, |into, &gi| {
                let total = *into;
                *into = if gi > 0.0 { total * gi } else { 1.0 };
                Some(total)
            })
            .collect();
        let n = t.len();
        let starts = (1..n).filter(|&i| g[i - 1] <= 0.0).collect();
        let a = (0..n).map(|i| t[i] * g_total[i] / n as f64).collect();
        // A short `b` is reported by the feasibility check, not here.
        let c = (b.iter().zip(&g_total)).map(|(bi, gi)| bi / gi).collect();
        let lo = (0..n).map(|i| t[i] * g_total[i]).collect();
        ChainProblem {
            v: pipeline.vector_width(),
            params,
            b,
            xmin: minimal_periods_of(&t, &g),
            t,
            g,
            g_total,
            starts,
            a,
            c,
            lo,
        }
    }

    /// The service times `t_i`.
    pub(crate) fn service_times(&self) -> &[f64] {
        &self.t
    }

    /// Move the problem to another operating point of the same pipeline
    /// (a sweep row's next cell).
    pub(crate) fn set_params(&mut self, params: RtParams) {
        self.params = params;
    }

    /// [`crate::check_feasibility`] on the stored minimal periods.
    fn check_feasibility(&self) -> Result<(), ScheduleError> {
        check_backlog_factors(self.t.len(), &self.b)?;
        check_minimal_periods(&self.xmin, 0, self.v, &self.params, &self.b)?;
        Ok(())
    }

    /// Build the Fig.-1 constraint set over the period variables `x`.
    /// The edge row after a zero-gain stage is slack and left out.
    pub(crate) fn constraint_set(&self) -> ConstraintSet {
        let (t, g) = (&self.t, &self.g);
        let n = t.len();
        let v_tau0 = self.v as f64 * self.params.tau0;
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

    /// Solve for the optimal waits by exact water-filling.
    pub(crate) fn solve(&self) -> Result<WaitSchedule, ScheduleError> {
        self.solve_inner(None, 0)
    }

    /// [`Self::solve`] with solver span tracing: emits an enclosing
    /// `solve water-filling` span on [`Track::solver`]`(attempt)` (wall
    /// microseconds as the time axis), with one child `price` span per
    /// budget evaluation.
    pub(crate) fn solve_traced(
        &self,
        sink: &mut SpanSink,
        attempt: u64,
    ) -> Result<WaitSchedule, ScheduleError> {
        self.solve_inner(Some(sink), attempt)
    }

    fn solve_inner(
        &self,
        mut spans: Option<&mut SpanSink>,
        attempt: u64,
    ) -> Result<WaitSchedule, ScheduleError> {
        self.check_feasibility()?;
        if let Some(sink) = spans.as_deref_mut() {
            sink.enter(Track::solver(attempt), "solve water-filling", "solver", 0.0);
        }
        let mut pav = Pav::default();
        // Generic instances take a handful of price steps.
        let mut series = Vec::with_capacity(8);
        let (result, micros) =
            timed(|| self.waterfill(spans.as_deref_mut(), attempt, &mut pav, Some(&mut series)));
        if let Some(sink) = spans {
            sink.exit(micros);
        }
        let counts = result?;
        let mut telemetry = SolveTelemetry::new("water-filling");
        telemetry.iterations = counts.iterations;
        telemetry.residual = counts.residual;
        telemetry.residual_series = series;
        telemetry.wall_micros = micros;
        let mut schedule = self.schedule_from_periods(self.periods_of(&pav.z).collect());
        schedule.telemetry = Some(telemetry);
        Ok(schedule)
    }

    /// [`Self::solve`] for one cell of a sweep row: the active fraction
    /// and the solve's counts. The water-filling buffers in `scratch`
    /// carry over from cell to cell, so a cell allocates nothing once
    /// they have grown; the answer is the public solve's bit for bit.
    pub(crate) fn solve_cell(
        &self,
        scratch: &mut CellScratch,
    ) -> Result<(f64, CellTelemetry), ScheduleError> {
        self.check_feasibility()?;
        let telemetry = self.waterfill(None, 0, &mut scratch.pav, None)?;
        let periods = &mut scratch.periods;
        periods.clear();
        periods.extend(self.periods_of(&scratch.pav.z));
        self.clamp_to_service_times(periods);
        Ok((self.active_fraction(periods), telemetry))
    }

    /// The dense interior-point oracle: the same program solved by the
    /// `solver` crate's log-barrier method over
    /// [`Self::constraint_set`], from a phase-1 point near the minimal
    /// periods (see [`EnforcedProblem::solve_interior_point`]).
    pub(crate) fn solve_interior_point(&self) -> Result<WaitSchedule, ScheduleError> {
        self.check_feasibility()?;
        let (result, micros) = timed(|| {
            let cs = self.constraint_set();
            dense_interior_point(&self.t, &cs, &self.xmin, &self.params, self.v)
        });
        let (periods, mut telemetry) = result?;
        telemetry.wall_micros = micros;
        let mut schedule = self.schedule_from_periods(periods);
        schedule.telemetry = Some(telemetry);
        Ok(schedule)
    }

    /// The periods `x_i = z_i/G_i` of scaled periods `z`.
    fn periods_of<'z>(&'z self, z: &'z [f64]) -> impl Iterator<Item = f64> + 'z {
        z.iter().zip(&self.g_total).map(|(&z, &g)| z / g)
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

    /// The active fraction `(1/N) Σ t_i/x_i` at `periods`.
    fn active_fraction(&self, periods: &[f64]) -> f64 {
        let n = self.t.len() as f64;
        self.t
            .iter()
            .zip(periods)
            .map(|(&t, &x)| t / x)
            .sum::<f64>()
            / n
    }

    fn schedule_from_periods(&self, mut periods: Vec<f64>) -> WaitSchedule {
        self.clamp_to_service_times(&mut periods);
        let waits: Vec<f64> = periods
            .iter()
            .zip(&self.t)
            .map(|(&x, &ti)| x - ti)
            .collect();
        let active_fraction = self.active_fraction(&periods);
        let latency_bound = periods.iter().zip(&self.b).map(|(&x, &bi)| bi * x).sum();
        WaitSchedule {
            waits,
            periods,
            active_fraction,
            backlog_factors: self.b.clone(),
            latency_bound,
            telemetry: None,
        }
    }

    /// Exact water-filling: the smallest deadline price λ whose
    /// pool-adjacent-violators schedule `z(λ)` fits the deadline, from
    /// [`exact_price`]. Leaves the scaled periods `z_i = G_i·x_i` of the
    /// schedule in `pav.z`, pushes the residual series onto `series` when
    /// given, and returns the counts. The clock is read only for spans.
    fn waterfill(
        &self,
        mut spans: Option<&mut SpanSink>,
        attempt: u64,
        pav: &mut Pav,
        mut series: Option<&mut Vec<f64>>,
    ) -> Result<CellTelemetry, ScheduleError> {
        let (t, g_total) = (&self.t, &self.g_total);
        let (a, c, lo) = (&self.a, &self.c, &self.lo);
        if g_total.iter().any(|&g| !(g > 0.0 && g.is_finite())) {
            return Err(ScheduleError::Solver(
                "a total gain under- or overflows the float range".into(),
            ));
        }
        let cap = self.v as f64 * self.params.tau0;
        let deadline = self.params.deadline;
        let capped = self.starts.first().copied().unwrap_or(lo.len());
        debug_assert!(
            lo[..capped].iter().all(|&l| l <= cap * (1.0 + 1e-9)),
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

        let mut telemetry = CellTelemetry {
            iterations: 0,
            residual: 0.0,
        };
        let clock = spans.is_some().then(std::time::Instant::now);
        let elapsed_us = || clock.map_or(0.0, |t0| t0.elapsed().as_secs_f64() * 1e6);
        let track = Track::solver(attempt);
        let starts = &self.starts;

        let lambda = exact_price(deadline, seed_mu(deadline, a, c), |lambda| {
            let started = elapsed_us();
            let (slope, offset) = pav.solve(a, c, lo, cap, starts, lambda);
            let used = budget_of(&pav.z);
            // The z-space budget and the reported bound `Σ b_i·x_i`
            // round differently; both must meet the deadline.
            let fits = used <= deadline && latency_of(&pav.z) <= deadline;
            telemetry.iterations += 1;
            if let Some(series) = series.as_deref_mut().filter(|_| lambda > 0.0) {
                series.push((deadline - used).abs());
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
        pav.solve(a, c, lo, cap, starts, lambda);
        telemetry.residual = (deadline - budget_of(&pav.z)).abs();
        Ok(telemetry)
    }
}

/// The interior-point oracle behind
/// [`EnforcedProblem::solve_interior_point`] on chains and DAGs: phase-1
/// from `x0`, then the dense barrier method on the active-fraction
/// objective with service times `t`. Returns the periods and the
/// telemetry (without wall time).
pub(crate) fn dense_interior_point(
    t: &[f64],
    cs: &ConstraintSet,
    x0: &[f64],
    params: &RtParams,
    vector_width: u32,
) -> Result<(Vec<f64>, SolveTelemetry), ScheduleError> {
    let opts = SolverOptions::default();
    // Phase-1 search radius: generous against the largest period a
    // feasible schedule can take.
    let radius = (params.deadline + vector_width as f64 * params.tau0).max(1.0) * 4.0;
    let (interior, phase1_newtons) = find_interior_point_detailed(cs, x0, radius, &opts)
        .map_err(|e| ScheduleError::Solver(format!("phase-1: {e}")))?;
    let objective = ActiveFractionObjective {
        t_over_n: t.iter().map(|ti| ti / t.len() as f64).collect(),
    };
    let sol = minimize(&objective, cs, &interior, &opts)
        .map_err(|e| ScheduleError::Solver(e.to_string()))?;
    let mut telemetry = SolveTelemetry::new("interior-point");
    telemetry.iterations = (phase1_newtons + sol.newton_iters) as u64;
    telemetry.residual = sol.gap;
    // Duality-gap bound m/t at each barrier stage: the certified
    // distance to optimal as centering progressed.
    telemetry.residual_series = (sol.barrier_ts.iter())
        .map(|&t| cs.len().max(1) as f64 / t)
        .collect();
    telemetry.barrier_mu = sol.barrier_ts;
    telemetry.phase1_iterations = Some(phase1_newtons as u64);
    Ok((sol.x, telemetry))
}

/// The active-fraction objective `(1/N) Σ t_i/x_i` for the
/// interior-point oracle. Its Hessian is diagonal.
struct ActiveFractionObjective {
    t_over_n: Vec<f64>,
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
}

/// One pooled block of [`Pav`].
#[derive(Clone, Copy)]
struct PavBlock {
    a_sum: f64,
    c_sum: f64,
    lo_max: f64,
    len: usize,
    value: f64,
    /// The unclamped value lies strictly inside the block's bounds.
    free: bool,
}

impl PavBlock {
    /// Set the value to `clamp(√(Σa / (λ·Σc)), lo_max, cap)`.
    fn settle(&mut self, lambda: f64, cap: f64) {
        let raw = (self.a_sum / (lambda * self.c_sum)).sqrt();
        self.value = raw.clamp(self.lo_max, cap);
        self.free = raw > self.lo_max && raw < cap;
    }
}

/// Pool-adjacent-violators with reusable buffers.
#[derive(Default)]
struct Pav {
    blocks: Vec<PavBlock>,
    /// The last solution.
    z: Vec<f64>,
}

impl Pav {
    /// Exact minimizer of `Σ_i a_i/z_i + λ·c_i·z_i` subject to `z`
    /// nonincreasing within each segment and `lo_i ≤ z_i`, with
    /// `z_i ≤ cap` in the first segment, written to `self.z`. Segments
    /// after the first begin at `starts`. Each pooled block takes the
    /// value `clamp(√(Σa / (λ·Σc)), max lo over block, cap)`. Returns
    /// the budget `Σ c_i·z_i` of this block structure as
    /// `slope·μ + offset` with `μ = λ^(-1/2)`: a free block adds
    /// `√(Σa·Σc)` to the slope, a clamped one its `Σc·value` to the
    /// offset.
    fn solve(
        &mut self,
        a: &[f64],
        c: &[f64],
        lo: &[f64],
        cap: f64,
        starts: &[usize],
        lambda: f64,
    ) -> (f64, f64) {
        let stack = &mut self.blocks;
        stack.clear();
        // Blocks below `floor` belong to earlier segments.
        let (mut cap, mut floor) = (cap, 0);
        let mut starts = starts.iter().peekable();
        for i in 0..a.len() {
            if starts.next_if_eq(&&i).is_some() {
                (cap, floor) = (f64::INFINITY, stack.len());
            }
            let mut blk = PavBlock {
                a_sum: a[i],
                c_sum: c[i],
                lo_max: lo[i],
                len: 1,
                value: 0.0,
                free: false,
            };
            blk.settle(lambda, cap);
            // Nonincreasing order: the previous block's value must be >=
            // the new block's. Pool while violated.
            while stack.len() > floor {
                let prev = stack[stack.len() - 1];
                if prev.value >= blk.value {
                    break;
                }
                stack.pop();
                blk.a_sum += prev.a_sum;
                blk.c_sum += prev.c_sum;
                blk.lo_max = blk.lo_max.max(prev.lo_max);
                blk.len += prev.len;
                blk.settle(lambda, cap);
            }
            stack.push(blk);
        }
        self.z.clear();
        let (mut slope, mut offset) = (0.0, 0.0);
        for blk in stack.iter() {
            self.z.resize(self.z.len() + blk.len, blk.value);
            if blk.free {
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
    use crate::feasibility::minimal_periods_of;
    use crate::fixtures::blast;
    use dataflow_model::{GainModel, PipelineSpecBuilder, Topology};

    const PAPER_B: [f64; 4] = [1.0, 3.0, 9.0, 6.0];

    fn solve_both(
        pipeline: &PipelineSpec,
        tau0: f64,
        d: f64,
        b: &[f64],
    ) -> (WaitSchedule, WaitSchedule) {
        let params = RtParams::new(tau0, d).unwrap();
        let prob = ChainProblem::new(pipeline, params, b.to_vec());
        let ip = prob.solve_interior_point().unwrap();
        let wf = prob.solve().unwrap();
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
            let prob = ChainProblem::new(&p, params, PAPER_B.to_vec());
            if let Ok(s) = prob.solve() {
                let cs = prob.constraint_set();
                assert!(
                    cs.is_feasible(&s.periods, 1e-6 * d),
                    "WF infeasible at tau0={tau0} D={d}: {:?}",
                    s.periods
                );
                assert!(s.waits.iter().all(|&w| w >= 0.0));
                assert!(s.latency_bound <= d * (1.0 + 1e-9));
            }
            if let Ok(s) = prob.solve_interior_point() {
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
            let prob = ChainProblem::new(&p, params, PAPER_B.to_vec());
            let s = prob.solve().unwrap();
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
            ChainProblem::new(&p, params, PAPER_B.to_vec())
                .solve()
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
        let prob = ChainProblem::new(&p, params, PAPER_B.to_vec());
        let s = prob.solve().unwrap();
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
        let limit = dataflow_model::analysis::enforced_limit_active_fraction(&p, &params);
        assert!((s.active_fraction - limit).abs() < 1e-9);
    }

    #[test]
    fn infeasible_deadline_reported() {
        let p = blast();
        let params = RtParams::new(10.0, 1000.0).unwrap();
        let prob = ChainProblem::new(&p, params, PAPER_B.to_vec());
        assert!(matches!(prob.solve(), Err(ScheduleError::Infeasible(_))));
        assert!(matches!(
            prob.solve_interior_point(),
            Err(ScheduleError::Infeasible(_))
        ));
    }

    #[test]
    fn stored_pipeline_data_matches_the_pipeline() {
        let p = blast();
        let prob = ChainProblem::new(&p, RtParams::new(10.0, 1e5).unwrap(), PAPER_B.to_vec());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let xmin = crate::minimal_periods(&Topology::chain(&p));
        assert_eq!(bits(&prob.g_total), bits(&p.total_gains()));
        assert_eq!(bits(&prob.xmin), bits(&xmin));
        assert_eq!(bits(&prob.t), bits(&p.service_times()));
    }

    #[test]
    fn optimistic_backlog_factors() {
        let t = Topology::chain(&blast());
        let b = EnforcedProblem::optimistic_backlog(&t);
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
            let xmin = minimal_periods_of(&p.service_times(), &p.mean_gains());
            if xmin[0] > 64.0 * tau0 {
                continue; // unstable operating point; skip
            }
            let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
            let d = min_d * (1.2 + next() * 4.0);
            let params = RtParams::new(tau0, d).unwrap();
            let prob = ChainProblem::new(&p, params, b);
            let ip = prob.solve_interior_point();
            let wf = prob.solve();
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
        let prob = ChainProblem::new(&p, params, PAPER_B.to_vec());
        let mut sink = SpanSink::with_defaults();
        let wf = prob.solve_traced(&mut sink, 0).unwrap();
        // Traced solves produce the same schedules as plain ones.
        let plain = prob.solve().unwrap();
        assert_eq!(wf.periods, plain.periods);

        let log = sink.finish();
        let count = |name: &str| {
            log.spans
                .iter()
                .filter(|s| s.track == Track::solver(0) && s.name == name)
                .count() as u64
        };
        // One enclosing solve span at depth 0.
        assert_eq!(count("solve water-filling"), 1);
        for s in &log.spans {
            if s.name.starts_with("solve ") {
                assert_eq!(s.depth, 0);
                assert!(s.dur > 0.0, "solve span has wall time");
            } else {
                assert_eq!(s.depth, 1, "child spans nest inside the solve");
            }
        }
        // Every budget evaluation is one iteration and leaves one
        // `price` span.
        assert_eq!(count("price"), wf.telemetry.expect("telemetry").iterations);
    }

    #[test]
    fn zero_gain_stage_splits_the_chain_in_closed_form() {
        // The kill stage drops everything, so the dead stage after it
        // has no stability row: the head takes its cap and the dead
        // stage takes whatever deadline is left.
        let p = PipelineSpecBuilder::new(128)
            .stage("kill", 100.0, GainModel::Deterministic { k: 0 })
            .stage("dead", 50.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap();
        let (tau0, d) = (10.0, 1e6);
        let prob = ChainProblem::new(&p, RtParams::new(tau0, d).unwrap(), vec![1.0, 1.0]);
        let mut sink = SpanSink::with_defaults();
        let s = prob
            .solve_traced(&mut sink, 0)
            .expect("water-filling answers");
        assert_eq!(s.periods[0], 128.0 * tau0);
        assert!(
            (s.periods[1] - (d - 128.0 * tau0)).abs() <= 1e-9 * d,
            "{:?}",
            s.periods
        );
        assert!(s.latency_bound <= d);
        let log = sink.finish();
        let solves = log.spans.iter().filter(|s| s.name.starts_with("solve "));
        assert_eq!(
            solves.map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["solve water-filling"]
        );
        assert!(log.instants.iter().all(|i| i.name != "kkt-fallback"));
    }

    #[test]
    fn pav_respects_monotonicity_and_bounds() {
        let a = [5.0, 1.0, 3.0, 0.5];
        let c = [1.0, 2.0, 0.5, 1.0];
        let lo = [0.1, 0.2, 0.4, 0.3];
        let cap = 100.0;
        for lambda in [1e-4, 1e-2, 1.0, 100.0] {
            let mut pav = Pav::default();
            pav.solve(&a, &c, &lo, cap, &[], lambda);
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
        pav.solve(&a, &c, &lo, cap, &[], lambda);
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
