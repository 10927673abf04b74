//! Strategy comparison over the `(τ0, D)` operating space.
//!
//! Regenerates the data behind the paper's Figures 3 and 4: the two
//! strategies' optimized active fractions on a grid of inter-arrival
//! times and deadlines, and their difference (monolithic − enforced,
//! positive where enforced waits win).
//!
//! # The row kernel
//!
//! [`sweep`] and [`compare_at`] take a [`Topology`]. A chain topology
//! is recognized once per call ([`Topology::as_chain`]), and its
//! enforced half then runs on the chain kernel; any other DAG solves an
//! [`EnforcedProblem`] per cell.
//!
//! Every cell of every sweep goes through one kernel, which solves a
//! *segment*: one τ0 and a contiguous run of deadlines. On a chain, a
//! segment builds one enforced chain problem and one
//! [`MonolithicProblem`] and moves them along its deadlines. So the
//! per-pipeline data (service times, totals, minimal periods,
//! water-filling weights) is built once per segment, and the
//! water-filling buffers are reused. The block-size searches share the
//! sweep's one [`BlockTable`], one running minimum over it per segment,
//! and the run that held the previous cell's `M_D` (see
//! [`crate::monolithic`]). The kernel keeps only each cell's active
//! fractions and solve counts ([`CellTelemetry`]), so a cell allocates
//! nothing and reads no clock. It solves a segment's enforced half, then
//! its monolithic half, and times the two halves with three clock reads
//! per segment; the sweep sums them into [`SweepLayers`].
//! [`compare_at`] is a one-cell segment on an empty table.
//!
//! The work-stealing scheduler is [`crate::threads::run_jobs`]: its
//! workers claim whole segments. They are whole rows when that still
//! leaves about eight claims per worker, and shorter runs otherwise, so
//! a 1×N grid spreads over every worker too. Live progress still counts
//! cells, with clock reads of its own only when it is attached.

use crate::enforced::{CellScratch, ChainProblem, EnforcedProblem};
use crate::feasibility::check_backlog_factors;
use crate::monolithic::{BlockModel, BlockTable, MonolithicProblem, RowWalk};
use crate::schedule::ScheduleError;
use crate::telemetry::CellTelemetry;
use crate::threads::{run_jobs, worker_threads};
use dataflow_model::{PipelineSpec, RtParams, Topology};
use metrics::{CounterHandle, GaugeHandle, Registry};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[doc(hidden)]
pub use crate::compat::sweep_parallel;

/// One grid cell's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Inter-arrival time.
    pub tau0: f64,
    /// Deadline.
    pub deadline: f64,
    /// Enforced-waits optimized active fraction (`None` if infeasible).
    pub enforced: Option<f64>,
    /// Monolithic optimized active fraction (`None` if infeasible).
    pub monolithic: Option<f64>,
    /// Counts of the enforced-waits solve (when it succeeded).
    pub enforced_telemetry: Option<CellTelemetry>,
    /// Counts of the monolithic solve (when it succeeded).
    pub monolithic_telemetry: Option<CellTelemetry>,
}

impl CellResult {
    /// Figure-4 value: monolithic − enforced, when both are feasible.
    /// Positive means enforced waits achieve lower utilization.
    pub fn difference(&self) -> Option<f64> {
        match (self.monolithic, self.enforced) {
            (Some(m), Some(e)) => Some(m - e),
            _ => None,
        }
    }
}

/// Results of a full grid sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// τ0 axis values.
    pub tau0s: Vec<f64>,
    /// Deadline axis values.
    pub deadlines: Vec<f64>,
    /// Row-major cells (`tau0` major, `deadline` minor).
    pub cells: Vec<CellResult>,
    /// Where the sweep's time went.
    pub layers: SweepLayers,
}

/// Where a sweep's time went: its solves' totals, from three clock
/// reads per row segment, against the worker time it had. Workers spent
/// `workers·wall_micros − enforced_micros − monolithic_micros` (≥ 0)
/// outside the solves: building the block table, claiming segments,
/// starting and joining threads, and gathering cells. The totals are
/// timings, so unlike the cells they differ from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SweepLayers {
    /// Wall time of the enforced-waits solves, summed over workers, µs.
    pub enforced_micros: f64,
    /// Wall time of the monolithic block-size searches, summed over
    /// workers, µs.
    pub monolithic_micros: f64,
    /// The sweep's own wall time, block table included, µs.
    pub wall_micros: f64,
    /// Worker threads the sweep ran on (0 for an empty grid).
    pub workers: usize,
}

impl SweepResult {
    /// Cell at axis indices `(i_tau0, j_deadline)`.
    pub fn cell(&self, i: usize, j: usize) -> &CellResult {
        &self.cells[i * self.deadlines.len() + j]
    }

    /// Fraction of cells (with both strategies feasible) where enforced
    /// waits strictly beat monolithic.
    pub fn enforced_win_fraction(&self) -> f64 {
        let comparable: Vec<f64> = self.cells.iter().filter_map(|c| c.difference()).collect();
        if comparable.is_empty() {
            return 0.0;
        }
        comparable.iter().filter(|&&d| d > 0.0).count() as f64 / comparable.len() as f64
    }

    /// Largest difference in enforced waits' favour (Fig. 4's peak).
    pub fn max_enforced_advantage(&self) -> Option<f64> {
        self.cells
            .iter()
            .filter_map(|c| c.difference())
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.max(d))))
    }

    /// Largest difference in the monolithic strategy's favour.
    pub fn max_monolithic_advantage(&self) -> Option<f64> {
        self.cells
            .iter()
            .filter_map(|c| c.difference())
            .fold(None, |acc, d| Some(acc.map_or(-d, |a: f64| a.max(-d))))
    }
}

/// Parameters of a sweep: backlog factors for enforced waits, `(b, S)`
/// for monolithic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Enforced-waits backlog factors, one per node.
    pub enforced_b: Vec<f64>,
    /// Monolithic queue multiplier.
    pub monolithic_b: f64,
    /// Monolithic worst-case scale.
    pub monolithic_s: f64,
}

impl SweepConfig {
    /// The configuration the paper's §6.2 calibration arrived at for the
    /// BLAST pipeline: `b = [1, 3, 9, 6]`, monolithic `b = 1, S = 1`.
    pub fn paper_blast() -> Self {
        SweepConfig {
            enforced_b: vec![1.0, 3.0, 9.0, 6.0],
            monolithic_b: 1.0,
            monolithic_s: 1.0,
        }
    }
}

/// Optimize both strategies at one operating point: a one-cell row of
/// the sweep kernel.
pub fn compare_at(topology: &Topology, params: RtParams, config: &SweepConfig) -> CellResult {
    let chain = topology.as_chain();
    one_cell(Model::of(topology, chain.as_ref()), params, config)
}

/// The model a sweep solves: a chain, whose enforced half takes the
/// row kernel's reusable solve, or a DAG topology.
#[derive(Clone, Copy)]
pub(crate) enum Model<'a> {
    Chain(&'a PipelineSpec),
    Topology(&'a Topology),
}

impl<'a> Model<'a> {
    /// `topology`, as its chain `chain` when it has one.
    fn of(topology: &'a Topology, chain: Option<&'a PipelineSpec>) -> Self {
        chain.map_or(Model::Topology(topology), Model::Chain)
    }
}

/// One row segment of a sweep: grid row `row` (one τ0) and the
/// deadline columns `start..end`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    row: usize,
    start: usize,
    end: usize,
}

impl Segment {
    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// Rows `rows` of a grid, columns `cols`, cut into segments of at most
/// `len` cells, in row-major order.
fn segments(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    len: usize,
) -> Vec<Segment> {
    let mut out = Vec::new();
    for row in rows {
        let mut start = cols.start;
        while start < cols.end {
            let end = (start + len).min(cols.end);
            out.push(Segment { row, start, end });
            start = end;
        }
    }
    out
}

/// Segment length for `cells` cells in rows of `cols` on `threads`
/// workers: whole rows when that still leaves about 8 claims per
/// worker, shorter runs otherwise, so a 1×N grid spreads over every
/// worker too.
fn segment_len(cells: usize, cols: usize, threads: usize) -> usize {
    (cells / (threads * 8)).clamp(1, cols.max(1))
}

/// What every cell of one sweep shares: the model, the configuration
/// and the block table.
struct Kernel<'a> {
    model: Model<'a>,
    config: &'a SweepConfig,
    table: &'a BlockTable,
}

impl Kernel<'_> {
    /// The row kernel every sweep cell goes through: `tau0` at each of
    /// `deadlines`, in order, appended to `cells`. The enforced half
    /// solves every deadline first, on one chain problem that moves
    /// along the row (a DAG's is built per cell); the monolithic half
    /// then fills each cell in, its block-size searches sharing the
    /// table and one running minimum over it, and calls `on_cell` after
    /// each. Returns the two halves' wall times.
    fn row(
        &self,
        tau0: f64,
        deadlines: &[f64],
        cells: &mut Vec<CellResult>,
        mut on_cell: impl FnMut(),
    ) -> (Duration, Duration) {
        let Some(&first) = deadlines.first() else {
            return (Duration::ZERO, Duration::ZERO);
        };
        let config = self.config;
        let params = |d| RtParams::new(tau0, d).expect("grid validated above");
        let from = cells.len();
        let started = Instant::now();
        let mut push = |deadline, enforced, enforced_telemetry| {
            cells.push(CellResult {
                tau0,
                deadline,
                enforced,
                monolithic: None,
                enforced_telemetry,
                monolithic_telemetry: None,
            })
        };
        match self.model {
            Model::Chain(p) => {
                let b = config.enforced_b.clone();
                let mut prob = ChainProblem::new(p, params(first), b);
                let mut scratch = CellScratch::default();
                for &d in deadlines {
                    prob.set_params(params(d));
                    match prob.solve_cell(&mut scratch) {
                        Ok((af, telemetry)) => push(d, Some(af), Some(telemetry)),
                        Err(_) => push(d, None, None),
                    }
                }
            }
            Model::Topology(t) => {
                for &d in deadlines {
                    let b = config.enforced_b.clone();
                    match EnforcedProblem::new(t, params(d), b).solve() {
                        Ok(s) => {
                            let telemetry = s.telemetry.as_ref().map(CellTelemetry::from);
                            push(d, Some(s.active_fraction), telemetry);
                        }
                        Err(_) => push(d, None, None),
                    }
                }
            }
        }
        let enforced_done = Instant::now();
        let (b, s) = (config.monolithic_b, config.monolithic_s);
        let mut mono = match self.model {
            Model::Chain(p) => MonolithicProblem::new(p, params(first), b, s),
            Model::Topology(t) => MonolithicProblem::new(t, params(first), b, s),
        };
        let mut walk = RowWalk::default();
        for cell in &mut cells[from..] {
            mono.set_params(params(cell.deadline));
            if let Ok((af, telemetry)) = mono.solve_in_row(self.table, &mut walk) {
                cell.monolithic = Some(af);
                cell.monolithic_telemetry = Some(telemetry);
            }
            on_cell();
        }
        let done = Instant::now();
        (enforced_done - started, done - enforced_done)
    }
}

/// [`compare_at`]: a one-cell row on an empty table, so the block-size
/// search builds its own.
fn one_cell(model: Model, params: RtParams, config: &SweepConfig) -> CellResult {
    let table = BlockTable::default();
    let kernel = Kernel {
        model,
        config,
        table: &table,
    };
    let mut cells = Vec::with_capacity(1);
    kernel.row(params.tau0, &[params.deadline], &mut cells, || {});
    cells.pop().expect("one deadline, one cell")
}

/// One [`BlockTable`] for every cell of `tau0s × deadlines`: each row's
/// largest `M_D` is at the grid's largest deadline.
fn grid_table(
    model: &impl BlockModel,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
) -> BlockTable {
    let d_max = deadlines.iter().copied().fold(0.0, f64::max);
    let rows = tau0s
        .iter()
        .filter_map(|&tau0| RtParams::new(tau0, d_max).ok());
    BlockTable::covering(model, rows, config.monolithic_b, config.monolithic_s)
}

/// Validate the configuration for a model of `nodes` nodes and every
/// `(τ0, D)` grid point up front, so a malformed sweep is reported as an
/// error instead of panicking or answering `None` mid-sweep.
pub(crate) fn validate(
    nodes: usize,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
) -> Result<(), ScheduleError> {
    for (name, value) in [
        ("monolithic_b", config.monolithic_b),
        ("monolithic_s", config.monolithic_s),
    ] {
        if !(value.is_finite() && value >= 1.0) {
            return Err(ScheduleError::InvalidParams(format!(
                "{name} = {value} must be finite and >= 1"
            )));
        }
    }
    check_backlog_factors(nodes, &config.enforced_b)
        .map_err(|e| ScheduleError::InvalidParams(format!("enforced_b: {e}")))?;
    for &tau0 in tau0s {
        for &d in deadlines {
            RtParams::new(tau0, d)
                .map_err(|e| ScheduleError::InvalidParams(format!("(τ0={tau0}, D={d}): {e}")))?;
        }
    }
    Ok(())
}

/// Sweep both strategies over the cartesian grid `tau0s × deadlines`
/// of `topology`, on [`worker_threads`] workers that steal row segments
/// from one shared cursor. The cells are byte-identical at every worker
/// count: no cell's solve depends on how the grid is cut or scheduled.
///
/// With `progress` attached, workers publish per-segment claim and steal
/// and per-cell completion and busy-fraction metrics into its registry
/// as the sweep runs; publishing happens outside each cell's solve, so
/// the cells stay the same.
///
/// Returns [`ScheduleError::InvalidParams`] if any grid value is
/// non-positive or non-finite, if `monolithic_b` or `monolithic_s` is
/// not a finite value ≥ 1, or if `enforced_b` does not hold one finite
/// positive factor per node. Infeasible cells are *not* errors (they
/// come back as `None` entries).
pub fn sweep(
    topology: &Topology,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
    progress: Option<&SweepProgress>,
) -> Result<SweepResult, ScheduleError> {
    validate(topology.len(), tau0s, deadlines, config)?;
    let chain = topology.as_chain();
    let model = Model::of(topology, chain.as_ref());
    let threads = worker_threads();
    Ok(sweep_on(model, tau0s, deadlines, config, threads, progress))
}

/// Live telemetry for the work-stealing sweep scheduler: a sharded
/// [`Registry`] that workers update as they claim and finish cells.
/// Attach one to [`sweep`]; scrape it with
/// `metrics::MetricsServer` or poll [`SweepProgress::completed`] for a
/// progress line. Publishing is pure counting on the side of each
/// cell's solve, so instrumented sweeps stay bit-identical to plain
/// ones.
#[derive(Debug)]
pub struct SweepProgress {
    registry: Arc<Registry>,
    cells_total: GaugeHandle,
    cells_completed: CounterHandle,
    cells_claimed: CounterHandle,
    steals: CounterHandle,
    busy_fraction: GaugeHandle,
}

impl SweepProgress {
    /// Progress tracker sharded over `workers` threads (use
    /// [`worker_threads`]).
    pub fn new(workers: usize) -> Self {
        let mut r = Registry::new(workers);
        let cells_total = r.gauge("rtsdf_sweep_cells_total", "total cells in the sweep grid");
        let cells_completed = r.counter("rtsdf_sweep_cells_completed", "cells finished so far");
        let cells_claimed = r.counter_full(
            "rtsdf_sweep_cells_claimed",
            "cells claimed from the shared cursor, per worker",
            &[],
            true,
        );
        let steals = r.counter_full(
            "rtsdf_sweep_steals",
            "cursor claims (steals) of row segments performed, per worker",
            &[],
            true,
        );
        let busy_fraction = r.gauge_full(
            "rtsdf_sweep_worker_busy_fraction",
            "fraction of wall-clock time spent solving cells, per worker",
            &[],
            true,
        );
        SweepProgress {
            registry: Arc::new(r),
            cells_total,
            cells_completed,
            cells_claimed,
            steals,
            busy_fraction,
        }
    }

    /// The underlying registry, for serving `/metrics` or snapshots.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Record the grid size (idempotent; called by the sweep entry).
    pub fn set_total(&self, total: usize) {
        self.registry.gauge_set(self.cells_total, 0, total as f64);
    }

    /// Total cells, as last recorded by [`set_total`](Self::set_total).
    pub fn total(&self) -> u64 {
        self.registry.gauge_value(self.cells_total) as u64
    }

    /// Cells finished so far, summed across workers.
    pub fn completed(&self) -> u64 {
        self.registry.counter_value(self.cells_completed)
    }

    fn on_claim(&self, worker: usize, cells: u64) {
        self.registry.inc(self.steals, worker, 1);
        self.registry.inc(self.cells_claimed, worker, cells);
    }

    fn on_cell_done(&self, worker: usize, busy: Duration, elapsed: Duration) {
        self.registry.inc(self.cells_completed, worker, 1);
        let wall = elapsed.as_secs_f64();
        if wall > 0.0 {
            self.registry
                .gauge_set(self.busy_fraction, worker, busy.as_secs_f64() / wall);
        }
    }
}

/// Every cell of `model` over the (validated) grid `tau0s × deadlines`,
/// on `threads` workers that claim row segments from
/// [`run_jobs`]'s shared cursor, with the sweep's [`SweepLayers`]. A
/// worker that drains its cheap segments steals from the expensive
/// tail, so imbalanced grids do not serialize behind one thread. No
/// cell depends on how the grid is cut or scheduled.
///
/// With `progress` attached, each claim and cell completion is
/// published into its registry; without it, the sweep reads the clock
/// only at its ends and at each segment's three phase boundaries.
pub(crate) fn sweep_on(
    model: Model,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
    threads: usize,
    progress: Option<&SweepProgress>,
) -> SweepResult {
    let started = Instant::now();
    let (rows, cols) = (tau0s.len(), deadlines.len());
    let total = rows * cols;
    if let Some(p) = progress {
        p.set_total(total);
    }
    let table = match model {
        Model::Chain(p) => grid_table(p, tau0s, deadlines, config),
        Model::Topology(t) => grid_table(t, tau0s, deadlines, config),
    };
    let kernel = Kernel {
        model,
        config,
        table: &table,
    };
    let segments = segments(0..rows, 0..cols, segment_len(total, cols, threads));
    let workers = threads.min(segments.len());
    // Each worker's busy time, in nanoseconds, for the live busy
    // fraction.
    let busy: Vec<AtomicU64> = match progress {
        Some(_) => (0..workers).map(|_| AtomicU64::new(0)).collect(),
        None => Vec::new(),
    };
    let solved = run_jobs(&segments, workers, |worker, seg| {
        let (tau0, ds) = (tau0s[seg.row], &deadlines[seg.start..seg.end]);
        let mut cells = Vec::with_capacity(seg.len());
        let times = match progress {
            None => kernel.row(tau0, ds, &mut cells, || {}),
            Some(p) => {
                p.on_claim(worker, seg.len() as u64);
                let mut last = Instant::now();
                kernel.row(tau0, ds, &mut cells, || {
                    let now = Instant::now();
                    let ns = u64::try_from((now - last).as_nanos()).unwrap_or(u64::MAX);
                    let so_far = busy[worker].fetch_add(ns, Ordering::Relaxed) + ns;
                    last = now;
                    p.on_cell_done(worker, Duration::from_nanos(so_far), started.elapsed());
                })
            }
        };
        (cells, times)
    });
    let mut cells = Vec::with_capacity(total);
    let (mut enforced, mut monolithic) = (Duration::ZERO, Duration::ZERO);
    for (segment_cells, (e, m)) in solved {
        cells.extend(segment_cells);
        enforced += e;
        monolithic += m;
    }
    let micros = |d: Duration| d.as_secs_f64() * 1e6;
    SweepResult {
        tau0s: tau0s.to_vec(),
        deadlines: deadlines.to_vec(),
        cells,
        layers: SweepLayers {
            enforced_micros: micros(enforced),
            monolithic_micros: micros(monolithic),
            wall_micros: micros(started.elapsed()),
            workers,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::blast;
    use dataflow_model::{GainModel, PipelineSpecBuilder};
    use proptest::prelude::*;

    /// One worker's sweep of the chain `p`.
    fn sweep_seq(p: &PipelineSpec, tau0s: &[f64], ds: &[f64], cfg: &SweepConfig) -> SweepResult {
        sweep_on(Model::Chain(p), tau0s, ds, cfg, 1, None)
    }

    #[test]
    fn sweep_covers_grid() {
        let t = Topology::chain(&blast());
        let tau0s = [5.0, 20.0, 80.0];
        let ds = [5e4, 1.5e5, 3e5];
        let r = sweep(&t, &tau0s, &ds, &SweepConfig::paper_blast(), None).unwrap();
        assert_eq!(r.cells.len(), 9);
        assert_eq!(r.cell(1, 2).tau0, 20.0);
        assert_eq!(r.cell(1, 2).deadline, 3e5);
    }

    #[test]
    fn fast_arrivals_large_slack_favour_enforced() {
        // Paper Fig. 4: the fastest arrivals that both strategies can
        // sustain, plus lots of deadline slack, is enforced-waits
        // territory by a wide margin. (The monolithic stability limit
        // for this pipeline is τ0 ≈ Σ G_i·t_i / v ≈ 7.9 cycles.)
        let t = Topology::chain(&blast());
        let params = RtParams::new(10.0, 3.5e5).unwrap();
        let cell = compare_at(&t, params, &SweepConfig::paper_blast());
        let diff = cell.difference().expect("both feasible");
        assert!(
            diff > 0.4,
            "expected strong enforced advantage, got {diff} ({cell:?})"
        );
    }

    #[test]
    fn below_monolithic_stability_limit_only_enforced_is_feasible() {
        // For τ0 below ~7.9 the monolithic strategy cannot keep up at
        // any block size, while enforced waits still schedules down to
        // τ0 ≈ 2.83 (the head-stability limit x̂_0/v).
        let t = Topology::chain(&blast());
        let params = RtParams::new(4.0, 3.5e5).unwrap();
        let cell = compare_at(&t, params, &SweepConfig::paper_blast());
        assert!(
            cell.enforced.is_some() && cell.monolithic.is_none(),
            "{cell:?}"
        );
    }

    #[test]
    fn slow_arrivals_tight_deadline_favour_monolithic() {
        // Paper Fig. 4: slow arrivals + minimal slack is monolithic
        // territory (here by more than 0.4 in absolute active fraction:
        // enforced is squeezed against its minimal periods while the
        // monolithic block still amortizes ~180 items per block).
        let t = Topology::chain(&blast());
        let params = RtParams::new(100.0, 2.4e4).unwrap();
        let cell = compare_at(&t, params, &SweepConfig::paper_blast());
        let diff = cell.difference().expect("both feasible");
        assert!(
            diff < -0.4,
            "expected monolithic win, got {diff} ({cell:?})"
        );
    }

    #[test]
    fn win_region_statistics() {
        let t = Topology::chain(&blast());
        let (tau0s, ds) = RtParams::paper_grid(10, 10);
        let r = sweep(&t, &tau0s, &ds, &SweepConfig::paper_blast(), None).unwrap();
        // Enforced waits should win over a large portion of the grid
        // (paper §6.3; measured ≈ 0.84 on this grid).
        let win = r.enforced_win_fraction();
        assert!(win > 0.6, "enforced win fraction {win}");
        // And its best-case advantage should be at least 0.4 in absolute
        // terms (paper §6.3; measured ≈ 0.455 on this grid).
        let adv = r.max_enforced_advantage().unwrap();
        assert!(adv >= 0.4, "max advantage {adv}");
        // The monolithic strategy must also have a win region.
        let mono = r.max_monolithic_advantage().unwrap();
        assert!(mono > 0.05, "max monolithic advantage {mono}");
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(5, 5);
        let cfg = SweepConfig::paper_blast();
        let seq = sweep_seq(&p, &tau0s, &ds, &cfg);
        let par = sweep(&Topology::chain(&p), &tau0s, &ds, &cfg, None).unwrap();
        assert_eq!(seq.cells.len(), par.cells.len());
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            assert_eq!(a.tau0, b.tau0);
            assert_eq!(a.deadline, b.deadline);
            assert_eq!(a.enforced, b.enforced);
            assert_eq!(a.monolithic, b.monolithic);
        }
    }

    #[test]
    fn sweep_on_one_table_equals_per_cell_compare_at() {
        let p = Topology::chain(&blast());
        let cfg = SweepConfig::paper_blast();
        let (tau0s, ds) = RtParams::paper_grid(16, 16);
        // The τ0 = 8 probes sit just above the stability floor, where
        // the feasible block sizes are scattered runs far below M_D.
        let probes = [2.63e5, 3.07e5, 3.28e5];
        for (tau0s, ds) in [(&tau0s[..], &ds[..]), (&[8.0][..], &probes[..])] {
            let swept = sweep(&p, tau0s, ds, &cfg, None).unwrap();
            assert_eq!(swept.cells.len(), tau0s.len() * ds.len());
            for cell in swept.cells {
                let params = RtParams::new(cell.tau0, cell.deadline).unwrap();
                let own = compare_at(&p, params, &cfg);
                assert_eq!(printed(cell), printed(own));
            }
        }
    }

    #[test]
    fn live_sweep_is_bit_identical_and_counts_every_cell() {
        let p = Topology::chain(&blast());
        let (tau0s, ds) = RtParams::paper_grid(4, 4);
        let cfg = SweepConfig::paper_blast();
        let plain = sweep(&p, &tau0s, &ds, &cfg, None).unwrap();
        let progress = SweepProgress::new(worker_threads());
        let live = sweep(&p, &tau0s, &ds, &cfg, Some(&progress)).unwrap();
        for (a, b) in plain.cells.iter().zip(&live.cells) {
            assert_eq!((a.tau0, a.deadline), (b.tau0, b.deadline));
            assert_eq!(a.enforced, b.enforced);
            assert_eq!(a.monolithic, b.monolithic);
        }
        // Every cell is claimed exactly once and completed exactly once.
        assert_eq!(progress.total(), 16);
        assert_eq!(progress.completed(), 16);
        let snap = progress.registry().snapshot();
        assert_eq!(snap.total("rtsdf_sweep_cells_claimed"), 16.0);
        assert!(snap.total("rtsdf_sweep_steals") >= 1.0);
        let busy = snap.family("rtsdf_sweep_worker_busy_fraction").unwrap();
        for sample in &busy.samples {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&sample.value),
                "busy fraction {} out of range",
                sample.value
            );
        }
    }

    #[test]
    fn parallel_sweep_bit_identical_on_degenerate_shapes() {
        let p = blast();
        let cfg = SweepConfig::paper_blast();
        let shapes: [(&[f64], &[f64]); 4] = [
            (&[], &[]),
            (&[], &[5e4, 1e5]),
            (&[10.0], &[5e4, 1e5, 2e5]),         // 1×N
            (&[5.0, 10.0, 40.0, 100.0], &[1e5]), // N×1
        ];
        for (tau0s, ds) in shapes {
            let seq = sweep_seq(&p, tau0s, ds, &cfg);
            let par = sweep(&Topology::chain(&p), tau0s, ds, &cfg, None).unwrap();
            assert_eq!(seq.cells.len(), par.cells.len());
            for (a, b) in seq.cells.iter().zip(&par.cells) {
                assert_eq!((a.tau0, a.deadline), (b.tau0, b.deadline));
                assert_eq!(a.enforced, b.enforced);
                assert_eq!(a.monolithic, b.monolithic);
            }
        }
    }

    #[test]
    fn difference_requires_both_feasible() {
        let c = CellResult {
            tau0: 1.0,
            deadline: 1.0,
            enforced: Some(0.5),
            monolithic: None,
            enforced_telemetry: None,
            monolithic_telemetry: None,
        };
        assert!(c.difference().is_none());
    }

    #[test]
    fn malformed_grid_is_an_error_not_a_panic() {
        let p = blast();
        let t = Topology::chain(&p);
        let cfg = SweepConfig::paper_blast();
        for bad in [
            sweep(&t, &[10.0, 0.0], &[1e5], &cfg, None),
            sweep(&t, &[10.0], &[-3.0], &cfg, None),
            sweep_parallel(&p, &[f64::NAN], &[1e5], &cfg),
        ] {
            match bad {
                Err(ScheduleError::InvalidParams(_)) => {}
                other => panic!("expected InvalidParams, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_config_is_an_error_not_a_panic() {
        // A sub-unit monolithic multiplier used to panic in the block
        // table; a short enforced_b used to answer an all-None column.
        let p = blast();
        let t = Topology::chain(&p);
        let (tau0s, ds) = RtParams::paper_grid(3, 3);
        let paper = SweepConfig::paper_blast();
        let configs = [
            SweepConfig {
                monolithic_b: 0.5,
                ..paper.clone()
            },
            SweepConfig {
                monolithic_s: f64::NAN,
                ..paper.clone()
            },
            SweepConfig {
                monolithic_b: f64::INFINITY,
                ..paper.clone()
            },
            SweepConfig {
                enforced_b: vec![1.0, 3.0],
                ..paper.clone()
            },
            SweepConfig {
                enforced_b: vec![1.0, 3.0, 0.0, 6.0],
                ..paper.clone()
            },
            SweepConfig {
                enforced_b: vec![1.0, f64::NAN, 9.0, 6.0],
                ..paper
            },
        ];
        for cfg in &configs {
            for bad in [
                sweep(&t, &tau0s, &ds, cfg, None),
                sweep_parallel(&p, &tau0s, &ds, cfg),
            ] {
                match bad {
                    Err(ScheduleError::InvalidParams(_)) => {}
                    other => panic!("expected InvalidParams for {cfg:?}, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn feasible_cells_carry_solver_telemetry() {
        let t = Topology::chain(&blast());
        let params = RtParams::new(10.0, 3.5e5).unwrap();
        let cell = compare_at(&t, params, &SweepConfig::paper_blast());
        let et = cell.enforced_telemetry.expect("enforced telemetry");
        assert!(et.iterations > 0, "{et:?}");
        let mt = cell.monolithic_telemetry.expect("monolithic telemetry");
        assert!(mt.iterations > 0, "{mt:?}");
    }

    #[test]
    fn infeasible_cells_recorded_as_none() {
        let t = Topology::chain(&blast());
        // τ0 = 1 is infeasible for monolithic (stability) — the paper's
        // fastest arrival rate is near the feasibility edge.
        let params = RtParams::new(1.0, 3.5e5).unwrap();
        let cell = compare_at(&t, params, &SweepConfig::paper_blast());
        assert!(cell.monolithic.is_none());
    }

    /// A cell, floats printed to round-trip.
    fn printed(cell: CellResult) -> String {
        format!("{cell:?}")
    }

    /// A chain of vector width 1 to 1024 whose totals `G_i` run from
    /// ~1e-4 to above 1, through two-point gain laws.
    fn extreme_chain() -> impl Strategy<Value = PipelineSpec> {
        (
            (0..4usize).prop_map(|i| [1, 32, 128, 1024][i]),
            prop::collection::vec((10.0..3000.0f64, -2.0..0.5f64), 1..=5),
        )
            .prop_map(|(v, stages)| {
                let mut b = PipelineSpecBuilder::new(v);
                for (i, (t, log_gain)) in stages.into_iter().enumerate() {
                    let gain = 10f64.powf(log_gain);
                    let k = gain.ceil().max(1.0) as u32;
                    let pmf = vec![(0, 1.0 - gain / k as f64), (k, gain / k as f64)];
                    b = b.stage(format!("s{i}"), t, GainModel::Empirical { pmf });
                }
                b.build().expect("valid")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every way a grid reaches the row kernel returns, cell for cell,
        /// what `compare_at` returns on its own: the sweep and its chain
        /// forward, any worker count (so any segment length), the DAG
        /// row path on a chain, and a table that stops short of most
        /// cells' `M_D`.
        #[test]
        fn row_kernel_equals_per_cell_compare_at(
            p in extreme_chain(),
            tau_scales in prop::collection::vec(
                prop_oneof![Just(1.0 - 1e-6), Just(1.0 + 1e-6), 0.5..6.0f64],
                0..=3,
            ),
            d_scales in prop::collection::vec(0.3..40.0f64, 0..=5),
            repeats in prop::collection::vec(0..5usize, 0..=2),
            b in 1.0..2.0f64,
            s in 1.0..1.5f64,
        ) {
            // τ0 around the stability floor Σ t_i·G_i/v, the floor ± 1e-6
            // included; deadlines from below S·T̄(1) up, unsorted, with
            // repeats, and block sizes capped at 20k.
            let (v, t, g) = p.block_model();
            let floor = t.iter().zip(&g).map(|(t, g)| t * g).sum::<f64>() / v as f64;
            let tau0s: Vec<f64> = tau_scales.iter().map(|k| k * floor).collect();
            let cap = tau0s.iter().copied().fold(f64::INFINITY, f64::min) * b * 2e4;
            let t1 = s * dataflow_model::analysis::block_time(v, &t, &g, 1);
            let mut ds: Vec<f64> = d_scales.iter().map(|k| (k * t1).min(cap)).collect();
            for &k in &repeats {
                if let Some(&d) = ds.get(k) {
                    ds.push(d);
                }
            }
            let config = SweepConfig {
                enforced_b: p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect(),
                monolithic_b: b,
                monolithic_s: s,
            };
            let chain = Topology::chain(&p);
            let per_cell: Vec<String> = tau0s
                .iter()
                .flat_map(|&tau0| ds.iter().map(move |&d| RtParams::new(tau0, d).unwrap()))
                .map(|params| printed(compare_at(&chain, params, &config)))
                .collect();
            let printed_all = |cells: Vec<CellResult>| cells.into_iter().map(printed).collect::<Vec<_>>();
            let swept = sweep(&chain, &tau0s, &ds, &config, None).unwrap().cells;
            prop_assert_eq!(&printed_all(swept), &per_cell);
            let swept = sweep_parallel(&p, &tau0s, &ds, &config).unwrap().cells;
            prop_assert_eq!(&printed_all(swept), &per_cell);
            for threads in [1, 3] {
                let swept = sweep_on(Model::Chain(&p), &tau0s, &ds, &config, threads, None);
                prop_assert_eq!(&printed_all(swept.cells), &per_cell);
            }
            let swept = sweep_on(Model::Topology(&chain), &tau0s, &ds, &config, 3, None);
            prop_assert_eq!(&printed_all(swept.cells), &per_cell);
            // A table sized at the first deadline only: cells whose M_D
            // lies beyond it walk tables of their own.
            let short = grid_table(&p, &tau0s, &ds[..ds.len().min(1)], &config);
            let kernel = Kernel {
                model: Model::Chain(&p),
                config: &config,
                table: &short,
            };
            let mut swept = Vec::new();
            for &tau0 in &tau0s {
                kernel.row(tau0, &ds, &mut swept, || {});
            }
            prop_assert_eq!(&printed_all(swept), &per_cell);
        }
    }

    #[test]
    fn wide_rows_spread_over_every_worker() {
        // A 1×512 grid on 2 workers is cut into short row segments: each
        // worker claims several and both do work, and live progress
        // still counts every cell once. A 64-stage chain makes each cell
        // cost microseconds, so the second worker starts long before
        // the row is done; a loaded host may still starve it, so the
        // property has to hold in one of a few runs.
        let mut builder = PipelineSpecBuilder::new(128);
        for i in 0..64 {
            let gain = GainModel::Bernoulli { p: 0.9 };
            builder = builder.stage(format!("s{i}"), 100.0 + i as f64, gain);
        }
        let p = builder.build().unwrap();
        let cfg = SweepConfig {
            enforced_b: vec![1.0; 64],
            monolithic_b: 1.0,
            monolithic_s: 1.0,
        };
        let tau0s = [20.0];
        let ds: Vec<f64> = (0..512).map(|j| 1e4 + 1e3 * j as f64).collect();
        let plain: Vec<String> = sweep_seq(&p, &tau0s, &ds, &cfg)
            .cells
            .into_iter()
            .map(printed)
            .collect();
        let per_worker = |snap: &metrics::MetricsSnapshot, name: &str| {
            let mut values = [0.0; 2];
            for sample in &snap.family(name).unwrap().samples {
                let worker = sample.labels.iter().find(|(k, _)| k == "worker");
                let w: usize = worker.unwrap().1.parse().unwrap();
                values[w] += sample.value;
            }
            values
        };
        let spread = (0..5).any(|_| {
            let progress = SweepProgress::new(2);
            let swept = sweep_on(Model::Chain(&p), &tau0s, &ds, &cfg, 2, Some(&progress));
            let cells: Vec<String> = swept.cells.into_iter().map(printed).collect();
            assert_eq!(cells, plain);
            assert_eq!(progress.completed(), 512);
            let snap = progress.registry().snapshot();
            assert_eq!(snap.total("rtsdf_sweep_cells_claimed"), 512.0);
            assert!(snap.total("rtsdf_sweep_steals") >= 16.0);
            let claims = per_worker(&snap, "rtsdf_sweep_steals");
            let busy = per_worker(&snap, "rtsdf_sweep_worker_busy_fraction");
            claims.iter().all(|&c| c > 1.0) && busy.iter().all(|&b| b > 0.0)
        });
        assert!(spread, "one worker did all the work in every run");
    }

    #[test]
    fn sweep_layers_account_for_the_workers_time() {
        // Both solves run in every segment of a feasible grid, and they
        // fit in the worker time the sweep had.
        let p = blast();
        let cfg = SweepConfig::paper_blast();
        let tau0s: Vec<f64> = (0..16).map(|i| 10.0 + 5.0 * i as f64).collect();
        let ds: Vec<f64> = (0..16).map(|j| 1e5 + 2e4 * j as f64).collect();
        for threads in [1, 2, 3] {
            let r = sweep_on(Model::Chain(&p), &tau0s, &ds, &cfg, threads, None);
            assert!(r.cells.iter().all(|c| c.difference().is_some()));
            let l = r.layers;
            assert_eq!(l.workers, threads);
            assert!(
                l.enforced_micros > 0.0 && l.monolithic_micros > 0.0,
                "{l:?}"
            );
            let pool = l.workers as f64 * l.wall_micros;
            assert!(l.enforced_micros + l.monolithic_micros <= pool, "{l:?}");
        }
        let empty = sweep_seq(&p, &[], &ds, &cfg).layers;
        assert_eq!((empty.workers, empty.enforced_micros), (0, 0.0));
    }

    #[test]
    fn sweep_is_byte_identical_at_every_worker_count() {
        let p = blast();
        let cfg = SweepConfig::paper_blast();
        let (tau0s, ds) = RtParams::paper_grid(9, 11);
        let json = |threads| {
            let r = sweep_on(Model::Chain(&p), &tau0s, &ds, &cfg, threads, None);
            serde_json::to_string(&(r.tau0s, r.deadlines, r.cells)).expect("cells serialize")
        };
        let want = json(1);
        for threads in [1, 2, 3, 7] {
            assert_eq!(json(threads), want, "{threads} workers");
        }
    }

    #[test]
    fn topology_sweep_on_chain_matches_chain_sweep() {
        let p = blast();
        let t = Topology::chain(&p);
        let cfg = SweepConfig::paper_blast();
        let (tau0s, ds) = RtParams::paper_grid(3, 3);
        let chain = sweep_parallel(&p, &tau0s, &ds, &cfg).unwrap();
        let dag = sweep(&t, &tau0s, &ds, &cfg, None).unwrap();
        assert_eq!(chain.cells.len(), dag.cells.len());
        for (c, d) in chain.cells.iter().zip(&dag.cells) {
            assert_eq!(c.enforced, d.enforced, "tau0={} D={}", c.tau0, c.deadline);
            assert_eq!(c.monolithic, d.monolithic);
        }
    }
}
