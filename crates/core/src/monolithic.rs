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
//! ([`BlockModel`]).
//!
//! # Why a few candidates solve it exactly
//!
//! [`MonolithicProblem::solve`] evaluates every `M ∈ [1, ⌊D/(b·τ0)⌋]`
//! and is the oracle. [`MonolithicProblem::solve_fast`] evaluates the
//! same objective at a few hundred candidates and returns the same `M`:
//!
//! * The latency bound `b·M·τ0 + S·T̄(M)` is nondecreasing in `M` (both
//!   terms are, in floating point too), so the deadline-feasible block
//!   sizes are a prefix `[1, M_D]`; a binary search finds `M_D`, inside
//!   the bracket that `M·F ≤ T̄(M) ≤ M·F + Σ t_i` gives for the stability
//!   floor `F = Σ t_i·G_i/v` ([`stability_floor`]; both ends checked
//!   exactly).
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
//!
//! # One running minimum per τ0
//!
//! A cell's candidates are the table entries below its `M_D`, a prefix
//! of the table, and `M_D` itself. Whether an entry is stable, and its
//! objective, depend on `τ0` alone, not on `D`. So a sweep row keeps the
//! prefix minimum over the entries (ties low), extended as its cells
//! reach further into the table: each entry is tested once per row, and
//! a cell reads the best entry below its `M_D` in O(1), then evaluates
//! `M_D`. The answer is the per-cell walk's, and so is the telemetry's
//! `iterations`: it counts the candidates the answer minimizes over, the
//! entries below `M_D` plus `M_D` itself.
//!
//! # `M_D` from the table
//!
//! `T̄` is constant on the run of block sizes that ends at each entry, so
//! `M_D` needs no `T̄(M)` evaluation where the table reaches it. `M_D`
//! lies in the last run whose first `M` meets the deadline; a gallop
//! from the previous cell's run finds that run, testing the bisection's
//! own predicate at the run's stored `T̄`. A bisection inside the run, at
//! that constant `T̄`, then finds `M_D`. Where `M_D` may lie beyond the
//! table's bound, and in [`MonolithicProblem::solve_fast`], whose table
//! is sized at `M_D`, `M_D` comes from the plain bisection over
//! `[0, ⌊D/(b·τ0)⌋]`.

use crate::feasibility::FeasibilityError;
use crate::schedule::ScheduleError;
use crate::telemetry::{timed, CellTelemetry, SolveTelemetry};
use dataflow_model::analysis::{block_time, stability_floor, vectors};
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
    /// The stability floor `Σ t_i·G_i/v` (see [`Self::below_stability_floor`]).
    floor: f64,
    params: RtParams,
    b: f64,
    s: f64,
}

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
    /// `T̄` on the run after the last entry, up to `bound`.
    tail: f64,
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

    /// Runs of constant `T̄` the table covers: one ending at each entry,
    /// and the tail up to `bound` when the last entry stops short of it.
    fn runs(&self) -> usize {
        let last = self.entries.last().map_or(0, |&(m, _)| m);
        self.entries.len() + usize::from(last < self.bound)
    }

    /// Run `r` as its first and last `M` and its `T̄`.
    fn run(&self, r: usize) -> (u64, u64, f64) {
        let first = r.checked_sub(1).map_or(1, |k| self.entries[k].0 + 1);
        match self.entries.get(r) {
            Some(&(last, t)) => (first, last, t),
            None => (first, self.bound, self.tail),
        }
    }
}

/// The per-`τ0` state a sweep row keeps between its cells' block-size
/// searches on one shared [`BlockTable`]: the running minimum over the
/// table's entries, so each entry is tested for stability and evaluated
/// once per row instead of once per cell, and the run that held the
/// last cell's `M_D`, where the next cell's search for it starts.
#[derive(Debug, Default)]
pub(crate) struct RowWalk {
    /// The `τ0` the running minimum was taken at.
    tau0: f64,
    /// `best[k]`: the best stable entry among the table's first `k`,
    /// ties to the smaller `M`.
    best: Vec<Option<IntOpt>>,
    /// The run that held the last cell's `M_D`.
    run: usize,
}

impl RowWalk {
    /// The best stable entry among the table's first `below`, from the
    /// running minimum, extended as far as `below` reaches.
    fn best_below(
        &mut self,
        prob: &MonolithicProblem,
        table: &BlockTable,
        below: usize,
    ) -> Option<IntOpt> {
        if self.best.is_empty() || self.tau0.to_bits() != prob.params.tau0.to_bits() {
            self.tau0 = prob.params.tau0;
            self.best.clear();
            self.best.reserve(table.entries.len() + 1);
            self.best.push(None);
        }
        let done = self.best.len() - 1;
        for &(m, t) in table.entries.get(done..below).unwrap_or_default() {
            let prefix = self.best[self.best.len() - 1];
            self.best.push(prob.improve(prefix, m, t));
        }
        self.best[below]
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
        let floor = stability_floor(vector_width, &service_times, &totals);
        MonolithicProblem {
            vector_width,
            service_times,
            totals,
            floor,
            params,
            b,
            s,
        }
    }

    /// The operating point.
    pub fn params(&self) -> &RtParams {
        &self.params
    }

    /// Move the problem to another operating point of the same pipeline
    /// (a sweep row's next cell).
    pub(crate) fn set_params(&mut self, params: RtParams) {
        self.params = params;
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
            // Truncation is the floor of a positive value.
            m as u64
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

    /// `best`, or block size `m` with block time `t` if it is stable and
    /// strictly better: candidates come in ascending `M`, so ties stay
    /// with the smaller one, as in the scan.
    fn improve(&self, best: Option<IntOpt>, m: u64, t: f64) -> Option<IntOpt> {
        match self.stable_objective(m, t) {
            Some(value) if best.is_none_or(|b| value < b.value) => Some(IntOpt { arg: m, value }),
            _ => best,
        }
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
        self.solve_with("breakpoint", |evaluations| {
            self.walk(table, None, evaluations)
        })
    }

    /// [`Self::solve_on`] for one cell of a sweep row that keeps `row`
    /// across its cells: the active fraction and the search's counts,
    /// without the schedule.
    pub(crate) fn solve_in_row(
        &self,
        table: &BlockTable,
        row: &mut RowWalk,
    ) -> Result<(f64, CellTelemetry), ScheduleError> {
        let (best, telemetry) =
            self.search(|evaluations| self.walk(table, Some(row), evaluations))?;
        Ok((best.value, telemetry))
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
                for k in 1u64.. {
                    // Truncation is the floor of a positive value.
                    let m = (k as f64 * v / g) as u64;
                    if m.saturating_sub(1) > bound {
                        break;
                    }
                    // x ends a run of constant T̄ where node i's ceiling
                    // steps between x and x + 1. In floating point that
                    // happens at a breakpoint ⌊k·v/G_i⌋ or one of its
                    // neighbours.
                    let near = m.saturating_sub(1).max(1)..=m.saturating_add(1).min(bound);
                    let mut at = vectors(*near.start(), g, v);
                    for x in near {
                        let next = vectors(x.saturating_add(1), g, v);
                        if next > at {
                            entries.push((x, 0.0));
                        }
                        at = next;
                    }
                }
            }
            // One ascending run per node; equal `M`s are equal entries.
            entries.sort_unstable_by_key(|&(m, _)| m);
            entries.dedup_by_key(|&mut (m, _)| m);
            entries
        };
        for (m, t) in &mut entries {
            *t = self.block_time(*m);
        }
        let last = entries.last().map_or(0, |&(m, _)| m);
        let tail = if last < bound {
            self.block_time(last + 1)
        } else {
            0.0
        };
        BlockTable {
            entries,
            bound,
            tail,
        }
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
        self.params.tau0 < self.floor * (1.0 - 1e-9)
    }

    /// The per-operating-point half of [`Self::solve_fast`]: every table
    /// entry below `M_D` meets the deadline, so only stability is tested,
    /// through `row`'s running minimum; then `M_D` itself. When `M_D`
    /// lies beyond `table`, it walks a table of its own.
    fn walk(
        &self,
        table: &BlockTable,
        row: Option<&mut RowWalk>,
        evaluations: &mut u64,
    ) -> Option<IntOpt> {
        if self.below_stability_floor() {
            return None;
        }
        let scan = |entries: &[(u64, f64)]| {
            (entries.iter()).fold(None, |best, &(m, t)| self.improve(best, m, t))
        };
        let from = row.as_ref().map_or(0, |row| row.run);
        let (best, below, m_d, t_d) = match self.deadline_run(table, from) {
            // The entries before M_D's run lie below it; T̄ is constant
            // on the run.
            Some((m_d, run)) => {
                let best = match row {
                    Some(row) => {
                        row.run = run;
                        row.best_below(self, table, run)
                    }
                    None => scan(&table.entries[..run]),
                };
                (best, run, m_d, table.run(run).2)
            }
            None => {
                let m_d = self.deadline_limit();
                let own = self.block_table(m_d);
                let below = own.entries.partition_point(|&(m, _)| m < m_d);
                (
                    scan(&own.entries[..below]),
                    below,
                    m_d,
                    self.block_time(m_d),
                )
            }
        };
        *evaluations += below as u64;
        if m_d == 0 {
            return best;
        }
        *evaluations += 1;
        self.improve(best, m_d, t_d)
    }

    /// `M_D` from `table`, with the run that holds it (run 0 when
    /// `M_D = 0`), or `None` when `M_D` may lie beyond the table. `T̄` is
    /// constant on each run and the latency bound is nondecreasing in
    /// `M`, so the run is the last one whose first `M` meets the
    /// deadline (searched outward from run `from`), and `M_D` the last
    /// `M` of that run that does, at the run's `T̄`. Both tests are the
    /// bisection's own predicate, so the two agree exactly.
    fn deadline_run(&self, table: &BlockTable, from: usize) -> Option<(u64, usize)> {
        let max_m = self.max_block_size();
        if max_m == 0 {
            return Some((0, 0));
        }
        let hi = max_m.min(table.bound);
        let meets = |m: u64, t: f64| self.latency_bound(m, t) <= self.params.deadline;
        let opens = |r: usize| {
            let (first, _, t) = table.run(r);
            first <= hi && meets(first, t)
        };
        let Some(run) = last_true(table.runs(), from, opens) else {
            return (hi > 0).then_some((0, 0));
        };
        let (mut lo, last, t) = table.run(run);
        let mut up = last.min(hi);
        while lo < up {
            let mid = up - (up - lo) / 2;
            if meets(mid, t) {
                lo = mid;
            } else {
                up = mid - 1;
            }
        }
        // At the table's bound M_D may run on past it.
        (lo < hi || hi == max_m).then_some((lo, run))
    }

    /// `M_D`: the largest `M ≤ max_block_size` whose latency bound meets
    /// the deadline, or 0 if none does. The bound is nondecreasing in
    /// `M`, so this bisects, within a bracket: `M·F ≤ T̄(M) ≤ M·F + Σ t_i`
    /// for the stability floor `F`, so `M_D` lies between where the two
    /// bounds reach the deadline. Each end of the bracket is checked with
    /// the exact predicate, and one that fails is widened to `[0,
    /// max_block_size]`, so the answer is the plain bisection's.
    fn deadline_limit(&self) -> u64 {
        let meets = |m: u64| self.latency_bound(m, self.block_time(m)) <= self.params.deadline;
        let max_m = self.max_block_size();
        let below = |x: f64| if x >= 1.0 { (x as u64).min(max_m) } else { 0 };
        let slope = self.b * self.params.tau0 + self.s * self.floor;
        let slack = self.params.deadline - self.s * self.service_times.iter().sum::<f64>();
        let mut lo = below(slack / slope).saturating_sub(1);
        let mut hi = below(self.params.deadline / slope)
            .saturating_add(1)
            .min(max_m);
        if lo > 0 && !meets(lo) {
            lo = 0;
        }
        if hi < max_m && meets(hi + 1) {
            hi = max_m;
        }
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
        let (result, wall_micros) = timed(|| self.search(search));
        let (best, counts) = result?;
        let mut telemetry = SolveTelemetry::new(method);
        telemetry.iterations = counts.iterations;
        telemetry.wall_micros = wall_micros;
        let block_time = self.block_time(best.arg);
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

    /// Run `search` and return its answer with its counts: `iterations`
    /// counts the candidates the answer minimizes over, and the residual
    /// of an exact search is 0.
    fn search(
        &self,
        search: impl FnOnce(&mut u64) -> Option<IntOpt>,
    ) -> Result<(IntOpt, CellTelemetry), ScheduleError> {
        let mut evaluations = 0u64;
        let best = search(&mut evaluations).ok_or(ScheduleError::Infeasible(
            FeasibilityError::NoFeasibleBlockSize {
                max_block_size: self.max_block_size(),
                deadline: self.params.deadline,
                tau0: self.params.tau0,
            },
        ))?;
        let telemetry = CellTelemetry {
            iterations: evaluations,
            residual: 0.0,
        };
        Ok((best, telemetry))
    }
}

/// The last `i < n` with `pred(i)`, for a `pred` that holds up to some
/// index and fails after it; `None` if it fails at 0. Gallops outward
/// from `from`, so an answer near `from` costs O(log distance) tests.
fn last_true(n: usize, from: usize, mut pred: impl FnMut(usize) -> bool) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // Invariant: `pred(lo)` holds, `pred(hi)` fails (or `hi == n`).
    let (mut lo, mut hi);
    let mut stride = 1;
    let from = from.min(n - 1);
    if pred(from) {
        lo = from;
        loop {
            let probe = lo + stride;
            if probe >= n {
                hi = n;
                break;
            }
            if !pred(probe) {
                hi = probe;
                break;
            }
            lo = probe;
            stride *= 2;
        }
    } else {
        hi = from;
        loop {
            if hi == 0 {
                return None;
            }
            let probe = hi.saturating_sub(stride);
            if pred(probe) {
                lo = probe;
                break;
            }
            hi = probe;
            stride *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::blast;
    use dataflow_model::{GainModel, PipelineSpecBuilder};

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
    fn infeasibility_is_a_typed_error() {
        let p = blast();
        // Below the stability floor (τ0 = 1) and a deadline below T̄(1)
        // (D = 1000 at τ0 = 50): every search reports the cap, deadline
        // and τ0 as `NoFeasibleBlockSize`.
        for (tau0, d, cap, shown) in [
            (
                1.0,
                3.5e5,
                350_000,
                "[1, 350000] (deadline 350000, tau0 1.0)",
            ),
            (50.0, 1000.0, 20, "[1, 20] (deadline 1000, tau0 50.0)"),
        ] {
            let prob = MonolithicProblem::new(&p, RtParams::new(tau0, d).unwrap(), 1.0, 1.0);
            let expected = ScheduleError::Infeasible(FeasibilityError::NoFeasibleBlockSize {
                max_block_size: cap,
                deadline: d,
                tau0,
            });
            let table = prob.block_table(cap);
            let mut row = RowWalk::default();
            for err in [
                prob.solve().unwrap_err(),
                prob.solve_fast().unwrap_err(),
                prob.solve_on(&table).unwrap_err(),
                prob.solve_in_row(&table, &mut row).unwrap_err(),
            ] {
                assert_eq!(err, expected);
                assert_eq!(
                    err.to_string(),
                    format!("infeasible: no feasible block size in {shown}")
                );
            }
        }
    }

    /// `M_D` read from `table`, with the search started from the first,
    /// middle and past-the-end runs, is the bisection's `M_D`, and its
    /// run's `T̄` is `T̄(M_D)` bit for bit; the table may decline only
    /// when `M_D` reaches its bound.
    fn assert_table_m_d(prob: &MonolithicProblem, table: &BlockTable) {
        let m_d = prob.deadline_limit();
        // The bracketed bisection is the plain one over [0, max_block_size].
        let meets = |m: u64| prob.latency_bound(m, prob.block_time(m)) <= prob.params.deadline;
        let (mut lo, mut hi) = (0, prob.max_block_size());
        while lo < hi {
            let mid = hi - (hi - lo) / 2;
            if meets(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        assert_eq!(m_d, lo);
        for from in [0, table.runs() / 2, table.runs()] {
            match prob.deadline_run(table, from) {
                Some((m, run)) => {
                    let params = prob.params();
                    assert_eq!(m, m_d, "tau0={} D={}", params.tau0, params.deadline);
                    if m_d > 0 {
                        let (first, last, t) = table.run(run);
                        assert!((first..=last).contains(&m_d));
                        assert_eq!(t.to_bits(), prob.block_time(m_d).to_bits());
                    }
                }
                None => assert!(m_d >= table.bound(), "M_D {m_d} < {}", table.bound()),
            }
        }
    }

    #[test]
    fn table_m_d_equals_bisection_on_the_paper_grid() {
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(64, 64);
        let d_max = ds.iter().copied().fold(0.0, f64::max);
        let rows = tau0s.iter().map(|&t| RtParams::new(t, d_max).unwrap());
        let table = BlockTable::covering(&p, rows, 1.0, 1.0);
        for &tau0 in &tau0s {
            for &d in &ds {
                let prob = MonolithicProblem::new(&p, RtParams::new(tau0, d).unwrap(), 1.0, 1.0);
                assert_table_m_d(&prob, &table);
            }
        }
    }

    #[test]
    fn table_m_d_equals_bisection_on_extreme_chains() {
        // v = 1 makes every table dense (3·ΣG_i/v ≥ 1); v = 1024 with
        // thinning stages makes sparse ones with long runs.
        let gains: [Vec<f64>; 4] = [
            vec![1.0],
            vec![0.01, 3.0],
            vec![0.379, 1.92, 0.0332, 1.0],
            vec![2.5, 0.5, 0.02],
        ];
        for v in [1, 1024] {
            for g in &gains {
                let mut builder = PipelineSpecBuilder::new(v);
                for (i, &gain) in g.iter().enumerate() {
                    let k = gain.ceil().max(1.0) as u32;
                    let pmf = vec![(0, 1.0 - gain / k as f64), (k, gain / k as f64)];
                    builder = builder.stage(
                        format!("s{i}"),
                        100.0 + 700.0 * i as f64,
                        GainModel::Empirical { pmf },
                    );
                }
                let p = builder.build().unwrap();
                let floor =
                    MonolithicProblem::new(&p, RtParams::new(1.0, 1.0).unwrap(), 1.0, 1.0).floor;
                for scale in [1.0 - 1e-6, 1.0 + 1e-6, 1.3, 4.0] {
                    let tau0 = floor * scale;
                    let at = |d: f64| {
                        MonolithicProblem::new(&p, RtParams::new(tau0, d).unwrap(), 1.0, 1.5)
                    };
                    // Block sizes up to ~20k, from below T̄(1) upwards.
                    let d_max = 2e4 * tau0;
                    let full = at(d_max).block_table(at(d_max).deadline_limit());
                    let short = at(d_max).block_table(at(d_max / 3.0).deadline_limit());
                    for k in 0..=60 {
                        let prob = at(d_max * (k as f64 / 60.0).powi(3).max(1e-6));
                        assert_table_m_d(&prob, &full);
                        assert_table_m_d(&prob, &short);
                        assert_table_m_d(&prob, &BlockTable::default());
                    }
                }
            }
        }
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
