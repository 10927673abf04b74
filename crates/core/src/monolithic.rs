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
//! So the minimum over `[1, M_D]` lies at `M_D` or at the end of a run:
//! an `M` where some node's `⌈M·G_i/v⌉` is smaller than at `M + 1`. In
//! floating point that `M` is a breakpoint `⌊k·v/G_i⌋` or one of its
//! neighbours, since the ceiling can step one `M` early or late; the
//! candidates are those of the three where node `i`'s ceiling does
//! step. Ties go to the smaller `M`, as in the scan, so the two agree
//! bit for bit.
//!
//! Before any of this, `T̄(M) ≥ M·Σ t_i·G_i/v` for every `M`, so when `τ0`
//! is below that stability floor no block size is stable and the search
//! answers at once.
//!
//! # One table per pipeline
//!
//! The run ends and `T̄` at each depend only on `v`, `t_i` and `G_i`,
//! never on `τ0` or `D`. So the search splits in two: a [`BlockTable`]
//! of `(M, T̄(M))` at every run end up to a bound, built once per
//! pipeline, and a walk per operating point that finds `M_D`, then tests
//! stability and evaluates `ρ0·T̄/M` on the entries below `M_D` and on
//! `M_D` itself. The table stores the same candidates, computed by the
//! same float expressions, that a per-point search would enumerate, and
//! the walk keeps the same tie rule, so a table shared by a whole sweep
//! (sized at the grid's largest `M_D`) returns exactly what each cell's
//! own [`MonolithicProblem::solve_fast`] would. Where `3·Σ G_i/v ≥ 1`,
//! run ends are nearly every `M`, and the table holds every `M`: the
//! walk is then the scan over `[1, M_D]` with `T̄` precomputed. A table
//! costs 16 B per entry, as many entries as one cell at the bound would
//! evaluate.

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

/// The per-pipeline half of [`MonolithicProblem::solve_fast`]: the
/// ascending ceiling run ends up to a bound, each with its `T̄(M)` (see
/// the module docs). It reads only `v`, `t_i` and `G_i`, so one table
/// serves every operating point whose `M_D` it reaches. Build one with
/// [`MonolithicProblem::block_table`] or [`BlockTable::covering`]; walk
/// it with [`MonolithicProblem::solve_on`].
#[derive(Debug, Clone, Default)]
pub struct BlockTable {
    /// `(M, T̄(M))`, ascending in `M`.
    entries: Vec<(u64, f64)>,
    /// Every run end `≤ bound` is an entry.
    bound: u64,
}

impl BlockTable {
    /// The table for `model` under `(b, s)` that reaches the largest
    /// `M_D` of `points`. `M_D` grows with the deadline, so for a grid
    /// it is enough to pass each `τ0` at the grid's largest deadline.
    ///
    /// # Panics
    /// As [`MonolithicProblem::new`] on bad `b` or `s`.
    pub fn covering(
        model: &impl BlockModel,
        points: impl IntoIterator<Item = RtParams>,
        b: f64,
        s: f64,
    ) -> Self {
        let mut points = points.into_iter();
        let Some(first) = points.next() else {
            return Self::default();
        };
        let mut prob = MonolithicProblem::new(model, first, b, s);
        let mut bound = prob.table_bound();
        for params in points {
            prob.params = params;
            bound = bound.max(prob.table_bound());
        }
        prob.block_table(bound)
    }

    /// Largest `M` the table covers.
    pub fn bound(&self) -> u64 {
        self.bound
    }
}

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
        if self.latency_bound(m, t) > self.params.deadline {
            return None;
        }
        self.stable_objective(m, t)
    }

    /// `ρ0·T̄/M` at block size `m` with block time `t`, or `None` unless
    /// the block finishes before the next fills.
    fn stable_objective(&self, m: u64, t: f64) -> Option<f64> {
        (t <= m as f64 * self.params.tau0).then(|| self.params.rho0() * t / m as f64)
    }

    /// Solve exactly by exhaustive scan over `M ∈ [1, max_block_size]`.
    pub fn solve(&self) -> Result<MonolithicSchedule, ScheduleError> {
        self.solve_with("scan", |evaluations| {
            minimize_scan(1, self.max_block_size(), |m| {
                *evaluations += 1;
                self.objective(m)
            })
        })
    }

    /// Solve exactly from `M_D` and the ceiling run ends below it (see
    /// the module docs): build a [`BlockTable`] up to `M_D`, then walk
    /// it. Returns the same schedule as [`Self::solve`].
    pub fn solve_fast(&self) -> Result<MonolithicSchedule, ScheduleError> {
        // An empty table: the walk builds one up to M_D.
        self.solve_on(&BlockTable::default())
    }

    /// [`Self::solve_fast`] on a table built once for this problem's
    /// pipeline, shared across operating points (a sweep builds one with
    /// [`BlockTable::covering`]). `table` must come from the same
    /// `v`, `t_i` and `G_i`; if it stops short of this point's `M_D`, the
    /// solve builds its own. The answer is the same either way.
    pub fn solve_on(&self, table: &BlockTable) -> Result<MonolithicSchedule, ScheduleError> {
        self.solve_with("breakpoint", |evaluations| self.walk(table, evaluations))
    }

    /// The ceiling run ends up to `bound`, each with its `T̄`: where some
    /// node's `⌈M·G_i/v⌉` steps between `M` and `M + 1`. When
    /// `3·Σ G_i/v ≥ 1` three candidates per breakpoint would outnumber
    /// the block sizes themselves, and the table holds every `M`.
    pub fn block_table(&self, bound: u64) -> BlockTable {
        let v = self.vector_width as f64;
        let mut entries: Vec<(u64, f64)> = if 3.0 * self.totals.iter().sum::<f64>() / v >= 1.0 {
            (1..=bound).map(|m| (m, 0.0)).collect()
        } else {
            // About one run end per breakpoint.
            let expected: f64 = self
                .totals
                .iter()
                .map(|&g| bound as f64 * g / v + 1.0)
                .sum();
            let mut entries = Vec::with_capacity(expected.min(1e6) as usize);
            for &g in self.totals.iter().filter(|&&g| g > 0.0) {
                // Node i's ceiling, by the float expression of
                // `block_time`.
                let ceil = |m: u64| (m as f64 * g / v).ceil();
                for k in 1u64.. {
                    let m = (k as f64 * v / g).floor() as u64;
                    if m.saturating_sub(1) > bound {
                        break;
                    }
                    // x ends a run of constant T̄ where the ceiling steps
                    // between x and x + 1. In floating point that happens
                    // at a breakpoint ⌊k·v/G_i⌋ or one of its neighbours.
                    let near = m.saturating_sub(1).max(1)..=m.saturating_add(1).min(bound);
                    let mut at = ceil(*near.start());
                    for x in near {
                        let next = ceil(x.saturating_add(1));
                        if next > at {
                            entries.push((x, 0.0));
                        }
                        at = next;
                    }
                }
            }
            // One ascending run per node: the stable sort merges runs.
            entries.sort_by_key(|&(m, _)| m);
            entries.dedup_by_key(|&mut (m, _)| m);
            entries
        };
        for (m, t) in &mut entries {
            *t = self.block_time(*m);
        }
        BlockTable { entries, bound }
    }

    /// The `M` a [`BlockTable`] must reach to serve this operating point:
    /// `M_D`, or 0 below the stability floor, where the walk answers
    /// without it.
    fn table_bound(&self) -> u64 {
        if self.below_stability_floor() {
            0
        } else {
            self.deadline_limit()
        }
    }

    /// `T̄(M) ≥ M·Σ t_i·G_i/v` for every `M`, so below this floor no block
    /// size is stable (the margin covers rounding in `T̄`).
    fn below_stability_floor(&self) -> bool {
        let floor = self
            .service_times
            .iter()
            .zip(&self.totals)
            .map(|(t, g)| t * g)
            .sum::<f64>()
            / self.vector_width as f64;
        self.params.tau0 < floor * (1.0 - 1e-9)
    }

    /// The per-operating-point half of [`Self::solve_fast`]: every table
    /// entry below `M_D` meets the deadline, so only stability is tested;
    /// then `M_D` itself. Ties go to the smaller `M`, as in the scan.
    fn walk(&self, table: &BlockTable, evaluations: &mut u64) -> Option<IntOpt> {
        if self.below_stability_floor() {
            return None;
        }
        let m_d = self.deadline_limit();
        let own;
        let table = if table.bound >= m_d {
            table
        } else {
            own = self.block_table(m_d);
            &own
        };
        let below = &table.entries[..table.entries.partition_point(|&(m, _)| m < m_d)];
        let mut best: Option<IntOpt> = None;
        let mut consider = |m: u64, t: f64| {
            if let Some(value) = self.stable_objective(m, t) {
                if best.is_none_or(|b| value < b.value) {
                    best = Some(IntOpt { arg: m, value });
                }
            }
        };
        for &(m, t) in below {
            consider(m, t);
        }
        *evaluations += below.len() as u64;
        if m_d > 0 {
            consider(m_d, self.block_time(m_d));
            *evaluations += 1;
        }
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

    /// Run `search`, which counts its objective evaluations, and build
    /// the schedule at the block size it returns.
    fn solve_with(
        &self,
        method: &str,
        search: impl FnOnce(&mut u64) -> Option<IntOpt>,
    ) -> Result<MonolithicSchedule, ScheduleError> {
        let mut evaluations = 0u64;
        let (best, wall_micros) = timed(|| search(&mut evaluations));
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
    fn below_the_stability_floor_fails_at_once() {
        // τ0 = 1 is far below Σ t_i·G_i/v ≈ 7.9; D = 1e15 puts M_D near
        // 1e15, whose breakpoints would take ages to walk.
        let p = blast();
        let params = RtParams::new(1.0, 1e15).unwrap();
        let prob = MonolithicProblem::new(&p, params, 1.0, 1.0);
        assert!(prob.solve_fast().is_err());
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
