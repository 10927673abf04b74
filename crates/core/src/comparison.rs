//! Strategy comparison over the `(τ0, D)` operating space.
//!
//! Regenerates the data behind the paper's Figures 3 and 4: the two
//! strategies' optimized active fractions on a grid of inter-arrival
//! times and deadlines, and their difference (monolithic − enforced,
//! positive where enforced waits win).
//!
//! # The row kernel
//!
//! Every cell of every sweep goes through one kernel, which solves a
//! *segment*: one τ0 and a contiguous run of deadlines. A segment builds
//! one [`EnforcedWaitsProblem`] and one [`MonolithicProblem`] and moves
//! them along its deadlines. So the per-pipeline data (service times,
//! totals, minimal periods, water-filling weights) is built once per
//! segment, and the water-filling buffers are reused. The block-size
//! searches share the sweep's one [`BlockTable`], one running minimum
//! over it per segment, and the run that held the previous cell's `M_D`
//! (see [`crate::monolithic`]). The kernel keeps only each cell's active
//! fractions and telemetry, and it times both solves with three clock
//! reads. [`compare_at`] is a one-cell segment on an empty table.
//!
//! The work-stealing scheduler claims whole segments. They are whole
//! rows when that still leaves about eight claims per worker, and
//! shorter runs otherwise, so a 1×N grid spreads over every worker too.
//! Live progress still counts cells. The warm modes pass their hints
//! through the same kernel: a row's anchor hint seeds that row's
//! segments, and graph warm starts run one-cell segments, each with its
//! own hint.

use crate::dag::EnforcedDagProblem;
use crate::enforced::{CellScratch, EnforcedWaitsProblem, WarmStart};
use crate::monolithic::{BlockModel, BlockTable, MonolithicDagProblem, MonolithicProblem, RowWalk};
use crate::schedule::ScheduleError;
use crate::telemetry::SolveTelemetry;
use crate::threads::worker_threads;
use dataflow_model::{PipelineSpec, RtParams, Topology};
use metrics::{CounterHandle, GaugeHandle, Registry};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Grid coordinates of the cell whose schedule seeded a warm-started
/// cell (`row` indexes `tau0s`, `col` indexes `deadlines`). Recording
/// the edge makes warm sweeps auditable: the seeding choice is a pure
/// function of already-solved neighbors, so replaying the recorded
/// edges reproduces the sweep bit-identically regardless of which
/// worker solved which cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedEdge {
    /// τ0 axis index of the seeding cell.
    pub row: u64,
    /// Deadline axis index of the seeding cell.
    pub col: u64,
}

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
    /// Telemetry of the enforced-waits solve (when it succeeded).
    pub enforced_telemetry: Option<SolveTelemetry>,
    /// Telemetry of the monolithic solve (when it succeeded).
    pub monolithic_telemetry: Option<SolveTelemetry>,
    /// Which cell seeded this one's enforced solve, when the sweep ran
    /// warm (`None` for cold solves and anchors). Skipped when absent so
    /// cold-sweep output stays byte-identical to earlier versions.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub warm_seed: Option<SeedEdge>,
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
    /// Enforced-waits backlog factors (length = pipeline stages).
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

/// Options controlling how a sweep runs. The default (`warm_start:
/// false`) reproduces the original cold-solve-per-cell behaviour
/// exactly.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepOptions {
    /// Seed each cell's enforced-waits solve from its row's anchor — the
    /// largest-deadline cell of the same τ0, solved cold first. The
    /// anchor choice is deterministic, so the sequential and parallel
    /// warm sweeps stay bit-identical to each other. The sweep's
    /// water-filling solves only seed their price search from the hint,
    /// so warm cells equal the cold ones bit for bit and save no work.
    pub warm_start: bool,
    /// Seed each cell from its *best-converged already-solved neighbor*
    /// instead of the row anchor: the grid is swept in anti-diagonal
    /// waves from the single cold anchor at `(row 0, largest deadline)`,
    /// and every other cell picks whichever of its two wave-`w−1`
    /// predecessors — `(i−1, j)` or `(i, j+1)` — converged in fewer
    /// iterations. Each seed is one grid step away (vs up to `cols−1`
    /// for row chaining), so the hints are closer. Supersedes
    /// `warm_start` when both are set. The parent choice depends only on
    /// the completed previous wave, never on scheduling order, so
    /// parallel graph sweeps stay bit-identical to sequential ones.
    #[serde(default)]
    pub warm_graph: bool,
}

impl SweepOptions {
    /// Options with row-anchor warm-starting enabled.
    pub fn warm() -> Self {
        SweepOptions {
            warm_start: true,
            warm_graph: false,
        }
    }

    /// Options with cross-cell warm-start graph seeding enabled.
    pub fn warm_graph() -> Self {
        SweepOptions {
            warm_start: true,
            warm_graph: true,
        }
    }
}

/// Optimize both strategies at one operating point: a one-cell row of
/// the sweep kernel.
pub fn compare_at(pipeline: &PipelineSpec, params: RtParams, config: &SweepConfig) -> CellResult {
    one_cell(Model::Chain(pipeline), params, config)
}

/// The model a sweep solves: a chain, whose enforced half takes the
/// row kernel's reusable solve, or a DAG topology.
#[derive(Clone, Copy)]
enum Model<'a> {
    Chain(&'a PipelineSpec),
    Topology(&'a Topology),
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
#[derive(Clone, Copy)]
struct Kernel<'a> {
    model: Model<'a>,
    config: &'a SweepConfig,
    table: &'a BlockTable,
}

/// A row's enforced half: the chain problem that moves along the row,
/// with its reusable buffers, or a DAG solved cell by cell. One lives on
/// the stack per row segment, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum EnforcedRow<'a> {
    Chain(EnforcedWaitsProblem<'a>, CellScratch),
    Topology(&'a Topology),
}

impl Kernel<'_> {
    /// The row kernel every sweep cell goes through: `tau0` at each of
    /// `deadlines`, in order, each cell handed to `emit` with its
    /// enforced periods as a hint for neighbours when `keep_hint` asks
    /// for them (and the cell is enforced feasible). One enforced and one
    /// monolithic problem move along the row, the enforced solve seeded
    /// from `hint`; the block-size searches share the table and one
    /// running minimum over it.
    fn row(
        &self,
        tau0: f64,
        deadlines: &[f64],
        hint: Option<&WarmStart>,
        keep_hint: bool,
        emit: &mut dyn FnMut((CellResult, Option<WarmStart>)),
    ) {
        let Some(&first) = deadlines.first() else {
            return;
        };
        let config = self.config;
        let params = RtParams::new(tau0, first).expect("grid validated above");
        let (b, s) = (config.monolithic_b, config.monolithic_s);
        let (mut enforced_row, mut mono) = match self.model {
            Model::Chain(p) => {
                let prob = EnforcedWaitsProblem::new(p, params, config.enforced_b.clone());
                (
                    EnforcedRow::Chain(prob, CellScratch::default()),
                    MonolithicProblem::new(p, params, b, s),
                )
            }
            Model::Topology(t) => (
                EnforcedRow::Topology(t),
                MonolithicDagProblem::new(t, params, b, s),
            ),
        };
        let mut walk = RowWalk::default();
        let micros = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
        for &d in deadlines {
            let params = RtParams::new(tau0, d).expect("grid validated above");
            let started = Instant::now();
            let (enforced, mut enforced_telemetry, hint_out) = match &mut enforced_row {
                EnforcedRow::Chain(prob, scratch) => {
                    prob.set_params(params);
                    match prob.solve_cell(hint, scratch) {
                        Ok((af, telemetry)) => {
                            let out = keep_hint.then(|| WarmStart {
                                periods: scratch.periods.clone(),
                            });
                            (Some(af), telemetry, out)
                        }
                        Err(_) => (None, None, None),
                    }
                }
                EnforcedRow::Topology(t) => {
                    match EnforcedDagProblem::new(t, params, config.enforced_b.clone()).solve() {
                        Ok(s) => (Some(s.active_fraction), s.telemetry, None),
                        Err(_) => (None, None, None),
                    }
                }
            };
            let solved = Instant::now();
            mono.set_params(params);
            let (monolithic, mut monolithic_telemetry) =
                match mono.solve_in_row(self.table, &mut walk) {
                    Ok((af, telemetry)) => (Some(af), Some(telemetry)),
                    Err(_) => (None, None),
                };
            let done = Instant::now();
            // Both solves' wall times, from three clock reads.
            if let Some(t) = &mut enforced_telemetry {
                t.wall_micros = micros(started, solved);
            }
            if let Some(t) = &mut monolithic_telemetry {
                t.wall_micros = micros(solved, done);
            }
            let cell = CellResult {
                tau0,
                deadline: d,
                enforced,
                monolithic,
                enforced_telemetry,
                monolithic_telemetry,
                warm_seed: None,
            };
            emit((cell, hint_out));
        }
    }

    /// [`Self::row`] on segment `seg` of the grid `tau0s × deadlines`.
    fn segment(
        &self,
        seg: Segment,
        tau0s: &[f64],
        deadlines: &[f64],
        hint: Option<&WarmStart>,
        keep_hint: bool,
        emit: &mut dyn FnMut((CellResult, Option<WarmStart>)),
    ) {
        let deadlines = &deadlines[seg.start..seg.end];
        self.row(tau0s[seg.row], deadlines, hint, keep_hint, emit);
    }
}

/// [`compare_at`] and [`compare_at_topology`]: a one-cell row on an
/// empty table, so the block-size search builds its own.
fn one_cell(model: Model, params: RtParams, config: &SweepConfig) -> CellResult {
    let table = BlockTable::default();
    let kernel = Kernel {
        model,
        config,
        table: &table,
    };
    let mut out = None;
    kernel.row(params.tau0, &[params.deadline], None, false, &mut |(
        cell,
        _,
    )| {
        out = Some(cell)
    });
    out.expect("one deadline, one cell")
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

/// Validate every `(τ0, D)` grid point up front so a malformed grid is
/// reported as an error instead of crashing mid-sweep.
fn validate_grid(tau0s: &[f64], deadlines: &[f64]) -> Result<(), ScheduleError> {
    for &tau0 in tau0s {
        for &d in deadlines {
            RtParams::new(tau0, d)
                .map_err(|e| ScheduleError::InvalidParams(format!("(τ0={tau0}, D={d}): {e}")))?;
        }
    }
    Ok(())
}

/// Sweep both strategies over the cartesian grid `tau0s × deadlines`.
///
/// Returns [`ScheduleError::InvalidParams`] if any grid value is
/// non-positive or non-finite; infeasible cells are *not* errors (they
/// come back as `None` entries).
pub fn sweep(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
) -> Result<SweepResult, ScheduleError> {
    sweep_with(pipeline, tau0s, deadlines, config, &SweepOptions::default())
}

/// [`sweep`] with explicit [`SweepOptions`]. With `warm_start` each row
/// solves its anchor (largest-deadline) cell cold and seeds every other
/// cell of the row from the anchor's enforced schedule.
pub fn sweep_with(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
    opts: &SweepOptions,
) -> Result<SweepResult, ScheduleError> {
    validate_grid(tau0s, deadlines)?;
    let cols = deadlines.len();
    let table = grid_table(pipeline, tau0s, deadlines, config);
    let result = |cells| SweepResult {
        tau0s: tau0s.to_vec(),
        deadlines: deadlines.to_vec(),
        cells,
    };
    if opts.warm_graph {
        return Ok(result(sweep_graph_cells(
            pipeline, tau0s, deadlines, config, &table, 1, None,
        )));
    }
    let kernel = Kernel {
        model: Model::Chain(pipeline),
        config,
        table: &table,
    };
    let mut cells = Vec::with_capacity(tau0s.len() * cols);
    if !opts.warm_start {
        for &tau0 in tau0s {
            kernel.row(tau0, deadlines, None, false, &mut |(cell, _)| {
                cells.push(cell)
            });
        }
    } else if cols > 0 {
        for (i, &tau0) in tau0s.iter().enumerate() {
            let mut anchor = None;
            let last = &deadlines[cols - 1..];
            kernel.row(tau0, last, None, true, &mut |solved| anchor = Some(solved));
            let (anchor_cell, hint) = anchor.expect("one deadline, one cell");
            let seed = hint.as_ref().map(|_| SeedEdge {
                row: i as u64,
                col: (cols - 1) as u64,
            });
            let rest = &deadlines[..cols - 1];
            kernel.row(tau0, rest, hint.as_ref(), false, &mut |(mut cell, _)| {
                cell.warm_seed = seed;
                cells.push(cell)
            });
            cells.push(anchor_cell);
        }
    }
    Ok(result(cells))
}

/// Live telemetry for the work-stealing sweep scheduler: a sharded
/// [`Registry`] that workers update as they claim and finish cells.
/// Attach one via [`sweep_parallel_live`]; scrape it with
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

/// Run `solve` over `segments` with `threads` workers claiming whole
/// segments from a shared atomic cursor (segment-level work stealing).
/// `solve(segment, emit)` hands the segment's cells to `emit` in order;
/// they come back in segment order. A worker that drains its cheap
/// segments immediately steals from the expensive tail, so imbalanced
/// grids do not serialize behind one thread.
///
/// With `live` attached, each claim and cell completion is published
/// into the progress registry; the uninstrumented path stays
/// timing-free — each hook is one untaken branch on the `Option`.
fn work_steal_live<T: Send>(
    segments: &[Segment],
    threads: usize,
    solve: impl Fn(Segment, &mut dyn FnMut(T)) + Sync,
    live: Option<&SweepProgress>,
) -> Vec<T> {
    let threads = threads.min(segments.len().max(1));
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Vec<T>> = Vec::with_capacity(segments.len());
    slots.resize_with(segments.len(), Vec::new);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let cursor = &cursor;
            let solve = &solve;
            handles.push(scope.spawn(move || {
                // Workers buffer each segment's cells locally; the crate
                // forbids unsafe code, so disjoint slot writes are merged
                // single-threaded after the join instead.
                let mut local = Vec::new();
                let started = Instant::now();
                let mut busy = Duration::ZERO;
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&seg) = segments.get(k) else {
                        break;
                    };
                    let mut cells = Vec::with_capacity(seg.len());
                    if let Some(p) = live {
                        p.on_claim(worker, seg.len() as u64);
                        let mut last = Instant::now();
                        solve(seg, &mut |cell| {
                            cells.push(cell);
                            let now = Instant::now();
                            busy += now - last;
                            last = now;
                            p.on_cell_done(worker, busy, started.elapsed());
                        });
                    } else {
                        solve(seg, &mut |cell| cells.push(cell));
                    }
                    local.push((k, cells));
                }
                local
            }));
        }
        for handle in handles {
            for (k, cells) in handle.join().expect("sweep worker panicked") {
                slots[k] = cells;
            }
        }
    });
    let mut out = Vec::with_capacity(slots.iter().map(Vec::len).sum());
    for cells in slots {
        out.extend(cells);
    }
    out
}

/// [`sweep`], parallelized with a segment-level work-stealing scheduler
/// (shared atomic cursor over row segments, scoped threads). Produces
/// bit-identical results to [`sweep`] — each cell's solve does not
/// depend on how the grid is cut or scheduled. The worker count honors
/// `RTSDF_THREADS` (see [`crate::threads`]).
pub fn sweep_parallel(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
) -> Result<SweepResult, ScheduleError> {
    sweep_parallel_with(pipeline, tau0s, deadlines, config, &SweepOptions::default())
}

/// [`sweep_parallel`] with explicit [`SweepOptions`]. The warm variant
/// runs two work-stealing phases — row anchors first, then all remaining
/// cells seeded from their row's anchor — and stays bit-identical to
/// [`sweep_with`] under the same options, because each cell's input
/// (operating point + anchor hint) is independent of scheduling order.
pub fn sweep_parallel_with(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
    opts: &SweepOptions,
) -> Result<SweepResult, ScheduleError> {
    sweep_parallel_live(pipeline, tau0s, deadlines, config, opts, None)
}

/// [`sweep_parallel_with`] plus optional live telemetry: when
/// `progress` is attached, workers publish per-segment claim and steal
/// and per-cell completion and busy-fraction metrics into its registry
/// as the sweep runs. Results remain bit-identical to the
/// uninstrumented sweep — publishing happens outside each cell's solve.
pub fn sweep_parallel_live(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
    opts: &SweepOptions,
    progress: Option<&SweepProgress>,
) -> Result<SweepResult, ScheduleError> {
    validate_grid(tau0s, deadlines)?;
    let threads = worker_threads();
    let cells = sweep_cells(pipeline, tau0s, deadlines, config, opts, threads, progress);
    Ok(SweepResult {
        tau0s: tau0s.to_vec(),
        deadlines: deadlines.to_vec(),
        cells,
    })
}

/// The cells of [`sweep_parallel_live`] on `threads` workers.
fn sweep_cells(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
    opts: &SweepOptions,
    threads: usize,
    progress: Option<&SweepProgress>,
) -> Vec<CellResult> {
    let rows = tau0s.len();
    let cols = deadlines.len();
    let total = rows * cols;
    if total == 0 {
        return Vec::new();
    }
    if let Some(p) = progress {
        p.set_total(total);
    }
    let table = grid_table(pipeline, tau0s, deadlines, config);
    if opts.warm_graph {
        return sweep_graph_cells(
            pipeline, tau0s, deadlines, config, &table, threads, progress,
        );
    }
    let kernel = Kernel {
        model: Model::Chain(pipeline),
        config,
        table: &table,
    };
    let row = |seg, hint, keep_hint, emit: &mut dyn FnMut(_)| {
        kernel.segment(seg, tau0s, deadlines, hint, keep_hint, emit)
    };
    if !opts.warm_start {
        let len = segment_len(total, cols, threads);
        return work_steal_live(
            &segments(0..rows, 0..cols, len),
            threads,
            |seg, emit| row(seg, None, false, &mut |(cell, _)| emit(cell)),
            progress,
        );
    }
    // Phase 1: one cold anchor per row (the largest deadline).
    let anchors = work_steal_live(
        &segments(0..rows, cols - 1..cols, 1),
        threads,
        |seg, emit| row(seg, None, true, emit),
        progress,
    );
    // Phase 2: every remaining cell, warmed from its row's anchor.
    let len = segment_len(rows * (cols - 1), cols - 1, threads);
    let rest = work_steal_live(
        &segments(0..rows, 0..cols - 1, len),
        threads,
        |seg, emit| {
            let hint = anchors[seg.row].1.as_ref();
            let seed = hint.map(|_| SeedEdge {
                row: seg.row as u64,
                col: (cols - 1) as u64,
            });
            row(seg, hint, false, &mut |(mut cell, _)| {
                cell.warm_seed = seed;
                emit(cell)
            })
        },
        progress,
    );
    let mut cells = Vec::with_capacity(total);
    let mut rest = rest.into_iter();
    for (anchor_cell, _) in anchors {
        cells.extend(rest.by_ref().take(cols - 1));
        cells.push(anchor_cell);
    }
    cells
}

/// Pick the warm-start parent of grid cell `(i, j)` from its two
/// anti-diagonal predecessors — `(i−1, j)` (previous τ0 row, same
/// deadline) and `(i, j+1)` (same row, next larger deadline): whichever
/// enforced solve *converged best* (fewest total iterations), breaking
/// ties toward the same-row neighbor whose operating point differs only
/// in deadline. Predecessors whose enforced solve failed are skipped;
/// `None` means solve cold. Both predecessors live on wave
/// `i + (cols−1−j) − 1`, so by the time a wave starts every candidate
/// parent is final — the choice is a pure function of grid contents,
/// never of scheduling order.
fn graph_parent(i: usize, j: usize, cols: usize, iters: &[Option<u64>]) -> Option<(usize, usize)> {
    let converged = |cand: Option<(usize, usize)>| {
        cand.and_then(|(pi, pj)| iters[pi * cols + pj].map(|n| (n, (pi, pj))))
    };
    let right = converged((j + 1 < cols).then(|| (i, j + 1)));
    let up = converged((i > 0).then(|| (i - 1, j)));
    match (right, up) {
        (Some((rn, rc)), Some((un, uc))) => Some(if un < rn { uc } else { rc }),
        (Some((_, c)), None) | (None, Some((_, c))) => Some(c),
        (None, None) => None,
    }
}

/// Sweep the grid as a cross-cell warm-start *graph*: anti-diagonal
/// waves expand from a single cold anchor at `(row 0, largest
/// deadline)` — the most-slack operating point — and every later cell
/// is seeded from its best-converged neighbor via [`graph_parent`].
/// Cells within a wave are independent (their parents are all in the
/// completed previous wave), so each wave runs under the work-stealing
/// scheduler, one-cell segments each with its own hint, with a barrier
/// between waves; results are bit-identical for any `threads`, and the
/// chosen seed edge is recorded on each [`CellResult`] for audit.
fn sweep_graph_cells(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
    table: &BlockTable,
    threads: usize,
    progress: Option<&SweepProgress>,
) -> Vec<CellResult> {
    let rows = tau0s.len();
    let cols = deadlines.len();
    if rows == 0 || cols == 0 {
        return Vec::new();
    }
    let total = rows * cols;
    let mut cells: Vec<Option<CellResult>> = vec![None; total];
    let mut hints: Vec<Option<WarmStart>> = Vec::with_capacity(total);
    hints.resize_with(total, || None);
    let mut iters: Vec<Option<u64>> = vec![None; total];
    let kernel = Kernel {
        model: Model::Chain(pipeline),
        config,
        table,
    };
    for wave in 0..rows + cols - 1 {
        // Cells with i + (cols−1−j) == wave, in ascending-row order.
        let wave_cells: Vec<Segment> = (0..rows)
            .filter_map(|i| {
                let off = wave.checked_sub(i)?;
                (off < cols).then(|| Segment {
                    row: i,
                    start: cols - 1 - off,
                    end: cols - off,
                })
            })
            .collect();
        let solved = work_steal_live(
            &wave_cells,
            threads,
            |seg, emit| {
                let (i, j) = (seg.row, seg.start);
                let parent = graph_parent(i, j, cols, &iters);
                let hint = parent.and_then(|(pi, pj)| hints[pi * cols + pj].as_ref());
                let seed = hint.and(parent).map(|(pi, pj)| SeedEdge {
                    row: pi as u64,
                    col: pj as u64,
                });
                kernel.segment(seg, tau0s, deadlines, hint, true, &mut |(mut cell, out)| {
                    cell.warm_seed = seed;
                    emit((cell, out))
                });
            },
            progress,
        );
        for (seg, (cell, hint)) in wave_cells.iter().zip(solved) {
            let idx = seg.row * cols + seg.start;
            iters[idx] = cell.enforced_telemetry.as_ref().map(|t| t.iterations);
            cells[idx] = Some(cell);
            hints[idx] = hint;
        }
    }
    cells
        .into_iter()
        .map(|c| c.expect("waves covered every cell"))
        .collect()
}

/// Optimize both strategies at one operating point on a DAG topology.
/// [`EnforcedDagProblem`] delegates chain topologies to the chain
/// solver and [`MonolithicDagProblem`] reads only the per-node totals,
/// so sweeping a [`Topology::chain`] is bit-identical to [`compare_at`]
/// under cold solves.
pub fn compare_at_topology(
    topology: &Topology,
    params: RtParams,
    config: &SweepConfig,
) -> CellResult {
    one_cell(Model::Topology(topology), params, config)
}

/// [`sweep_parallel_live`] generalized to DAG topologies: both
/// strategies' DAG design problems solved cold at every grid cell, with
/// the same row kernel, work-stealing scheduler and optional live
/// telemetry.
pub fn sweep_topology_parallel_live(
    topology: &Topology,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
    progress: Option<&SweepProgress>,
) -> Result<SweepResult, ScheduleError> {
    validate_grid(tau0s, deadlines)?;
    let cols = deadlines.len();
    let total = tau0s.len() * cols;
    if let Some(p) = progress {
        p.set_total(total);
    }
    let table = grid_table(topology, tau0s, deadlines, config);
    let kernel = Kernel {
        model: Model::Topology(topology),
        config,
        table: &table,
    };
    let threads = worker_threads();
    let cells = work_steal_live(
        &segments(0..tau0s.len(), 0..cols, segment_len(total, cols, threads)),
        threads,
        |seg, emit| {
            kernel.segment(seg, tau0s, deadlines, None, false, &mut |(cell, _)| {
                emit(cell)
            })
        },
        progress,
    );
    Ok(SweepResult {
        tau0s: tau0s.to_vec(),
        deadlines: deadlines.to_vec(),
        cells,
    })
}

/// The previous static scheduler: τ0 rows divided into contiguous
/// chunks, one scoped thread per chunk, each row one segment of the row
/// kernel. Kept as the comparison baseline for the `sweep_hot_path`
/// bench — imbalanced grids serialize their expensive rows behind single
/// threads here, which is exactly what [`sweep_parallel`]'s work
/// stealing fixes.
pub fn sweep_parallel_chunked(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
) -> Result<SweepResult, ScheduleError> {
    validate_grid(tau0s, deadlines)?;
    let threads = worker_threads();
    let table = grid_table(pipeline, tau0s, deadlines, config);
    let kernel = Kernel {
        model: Model::Chain(pipeline),
        config,
        table: &table,
    };
    let mut rows: Vec<Vec<CellResult>> = vec![Vec::new(); tau0s.len()];
    std::thread::scope(|scope| {
        let chunk = tau0s.len().div_ceil(threads).max(1);
        for (tau0_chunk, row_chunk) in tau0s.chunks(chunk).zip(rows.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (&tau0, row) in tau0_chunk.iter().zip(row_chunk.iter_mut()) {
                    kernel.row(tau0, deadlines, None, false, &mut |(cell, _)| {
                        row.push(cell)
                    });
                }
            });
        }
    });
    Ok(SweepResult {
        tau0s: tau0s.to_vec(),
        deadlines: deadlines.to_vec(),
        cells: rows.into_iter().flatten().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_model::{GainModel, PipelineSpecBuilder};
    use proptest::prelude::*;

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
    fn sweep_covers_grid() {
        let p = blast();
        let tau0s = [5.0, 20.0, 80.0];
        let ds = [5e4, 1.5e5, 3e5];
        let r = sweep(&p, &tau0s, &ds, &SweepConfig::paper_blast()).unwrap();
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
        let p = blast();
        let params = RtParams::new(10.0, 3.5e5).unwrap();
        let cell = compare_at(&p, params, &SweepConfig::paper_blast());
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
        let p = blast();
        let params = RtParams::new(4.0, 3.5e5).unwrap();
        let cell = compare_at(&p, params, &SweepConfig::paper_blast());
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
        let p = blast();
        let params = RtParams::new(100.0, 2.4e4).unwrap();
        let cell = compare_at(&p, params, &SweepConfig::paper_blast());
        let diff = cell.difference().expect("both feasible");
        assert!(
            diff < -0.4,
            "expected monolithic win, got {diff} ({cell:?})"
        );
    }

    #[test]
    fn win_region_statistics() {
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(10, 10);
        let r = sweep(&p, &tau0s, &ds, &SweepConfig::paper_blast()).unwrap();
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
        let seq = sweep(&p, &tau0s, &ds, &cfg).unwrap();
        let par = sweep_parallel(&p, &tau0s, &ds, &cfg).unwrap();
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
        let p = blast();
        let cfg = SweepConfig::paper_blast();
        let (tau0s, ds) = RtParams::paper_grid(16, 16);
        // The τ0 = 8 probes sit just above the stability floor, where
        // the feasible block sizes are scattered runs far below M_D.
        let probes = [2.63e5, 3.07e5, 3.28e5];
        // Everything but the timings, floats printed to round-trip.
        let untimed = |mut cell: CellResult| {
            let telemetry = [&mut cell.enforced_telemetry, &mut cell.monolithic_telemetry];
            for t in telemetry.into_iter().flatten() {
                t.wall_micros = 0.0;
                t.newton_solve_micros = t.newton_solve_micros.map(|_| 0.0);
            }
            format!("{cell:?}")
        };
        for (tau0s, ds) in [(&tau0s[..], &ds[..]), (&[8.0][..], &probes[..])] {
            let swept = sweep_parallel(&p, tau0s, ds, &cfg).unwrap();
            assert_eq!(swept.cells.len(), tau0s.len() * ds.len());
            for cell in swept.cells {
                let params = RtParams::new(cell.tau0, cell.deadline).unwrap();
                let own = compare_at(&p, params, &cfg);
                assert_eq!(untimed(cell), untimed(own));
            }
        }
    }

    #[test]
    fn live_sweep_is_bit_identical_and_counts_every_cell() {
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(4, 4);
        let cfg = SweepConfig::paper_blast();
        for opts in [
            SweepOptions::default(),
            SweepOptions::warm(),
            SweepOptions::warm_graph(),
        ] {
            let plain = sweep_parallel_with(&p, &tau0s, &ds, &cfg, &opts).unwrap();
            let progress = SweepProgress::new(worker_threads());
            let live = sweep_parallel_live(&p, &tau0s, &ds, &cfg, &opts, Some(&progress)).unwrap();
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
            let seq = sweep(&p, tau0s, ds, &cfg).unwrap();
            let par = sweep_parallel(&p, tau0s, ds, &cfg).unwrap();
            assert_eq!(seq.cells.len(), par.cells.len());
            for (a, b) in seq.cells.iter().zip(&par.cells) {
                assert_eq!((a.tau0, a.deadline), (b.tau0, b.deadline));
                assert_eq!(a.enforced, b.enforced);
                assert_eq!(a.monolithic, b.monolithic);
            }
        }
    }

    #[test]
    fn chunked_scheduler_matches_work_stealing() {
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(4, 4);
        let cfg = SweepConfig::paper_blast();
        let ws = sweep_parallel(&p, &tau0s, &ds, &cfg).unwrap();
        let chunked = sweep_parallel_chunked(&p, &tau0s, &ds, &cfg).unwrap();
        for (a, b) in ws.cells.iter().zip(&chunked.cells) {
            assert_eq!(a.enforced, b.enforced);
            assert_eq!(a.monolithic, b.monolithic);
        }
    }

    #[test]
    fn warm_sweep_parallel_bit_identical_to_warm_sequential() {
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(5, 5);
        let cfg = SweepConfig::paper_blast();
        let opts = SweepOptions::warm();
        let seq = sweep_with(&p, &tau0s, &ds, &cfg, &opts).unwrap();
        let par = sweep_parallel_with(&p, &tau0s, &ds, &cfg, &opts).unwrap();
        assert_eq!(seq.cells.len(), par.cells.len());
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            assert_eq!((a.tau0, a.deadline), (b.tau0, b.deadline));
            assert_eq!(a.enforced, b.enforced);
            assert_eq!(a.monolithic, b.monolithic);
        }
    }

    #[test]
    fn warm_sweep_matches_cold_within_tolerance_and_saves_iterations() {
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(5, 5);
        let cfg = SweepConfig::paper_blast();
        let cold = sweep(&p, &tau0s, &ds, &cfg).unwrap();
        let warm = sweep_with(&p, &tau0s, &ds, &cfg, &SweepOptions::warm()).unwrap();
        for (a, b) in cold.cells.iter().zip(&warm.cells) {
            // Water-filling hints only seed the price search: warm cells
            // reproduce the cold schedule bit for bit.
            assert_eq!(a.enforced, b.enforced, "{a:?} vs {b:?}");
            // Monolithic solves are untouched by warm-starting.
            assert_eq!(a.monolithic, b.monolithic);
        }
        // Anchors (last column) run cold; other feasible cells are warm.
        let cols = ds.len();
        for (k, cell) in warm.cells.iter().enumerate() {
            if let Some(t) = &cell.enforced_telemetry {
                let is_anchor = k % cols == cols - 1;
                assert_eq!(t.warm_start, !is_anchor, "cell {k}: {t:?}");
            }
        }
    }

    #[test]
    fn graph_sweep_parallel_bit_identical_to_sequential() {
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(5, 5);
        let cfg = SweepConfig::paper_blast();
        let opts = SweepOptions::warm_graph();
        let seq = sweep_with(&p, &tau0s, &ds, &cfg, &opts).unwrap();
        let par = sweep_parallel_with(&p, &tau0s, &ds, &cfg, &opts).unwrap();
        assert_eq!(seq.cells.len(), par.cells.len());
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            assert_eq!((a.tau0, a.deadline), (b.tau0, b.deadline));
            assert_eq!(a.enforced, b.enforced);
            assert_eq!(a.monolithic, b.monolithic);
            assert_eq!(a.warm_seed, b.warm_seed, "seed edges must be deterministic");
        }
    }

    #[test]
    fn graph_sweep_matches_cold_within_tolerance_and_records_seed_edges() {
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(5, 5);
        let cfg = SweepConfig::paper_blast();
        let cold = sweep(&p, &tau0s, &ds, &cfg).unwrap();
        let graph = sweep_with(&p, &tau0s, &ds, &cfg, &SweepOptions::warm_graph()).unwrap();
        let cols = ds.len();
        for (k, (a, b)) in cold.cells.iter().zip(&graph.cells).enumerate() {
            let (i, j) = (k / cols, k % cols);
            assert_eq!(a.enforced.is_some(), b.enforced.is_some(), "{a:?} vs {b:?}");
            if let (Some(c), Some(w)) = (a.enforced, b.enforced) {
                assert!((c - w).abs() < 1e-5, "cell {k}: cold {c} vs graph {w}");
            }
            assert_eq!(a.monolithic, b.monolithic);
            // The single anchor (row 0, largest deadline) runs cold;
            // every recorded seed edge points to an adjacent
            // predecessor from the previous anti-diagonal wave.
            if (i, j) == (0, cols - 1) {
                assert!(b.warm_seed.is_none(), "anchor must run cold: {b:?}");
            }
            if let Some(edge) = b.warm_seed {
                let (pi, pj) = (edge.row as usize, edge.col as usize);
                assert!(
                    (pi == i && pj == j + 1) || (pi + 1 == i && pj == j),
                    "cell ({i},{j}) seeded from non-neighbor ({pi},{pj})"
                );
            }
            if let Some(t) = &b.enforced_telemetry {
                assert_eq!(t.warm_start, b.warm_seed.is_some(), "cell {k}: {t:?}");
            }
        }
    }

    #[test]
    fn graph_warm_start_beats_row_chaining_on_fig3_grid() {
        // The sweep's enforced solves are water-filling, where a hint
        // only seeds the exact price search: on the fig3-style grid,
        // nearest-neighbor graph seeds and row-anchor chaining both
        // reproduce the cold sweep bit for bit.
        let p = blast();
        let (tau0s, ds) = RtParams::paper_grid(8, 8);
        let cfg = SweepConfig::paper_blast();
        let cold = sweep(&p, &tau0s, &ds, &cfg).unwrap();
        for opts in [SweepOptions::warm(), SweepOptions::warm_graph()] {
            let warm = sweep_with(&p, &tau0s, &ds, &cfg, &opts).unwrap();
            for (c, w) in cold.cells.iter().zip(&warm.cells) {
                assert_eq!(c.enforced, w.enforced, "tau0={} D={}", c.tau0, c.deadline);
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
            warm_seed: None,
        };
        assert!(c.difference().is_none());
    }

    #[test]
    fn malformed_grid_is_an_error_not_a_panic() {
        let p = blast();
        let cfg = SweepConfig::paper_blast();
        for bad in [
            sweep(&p, &[10.0, 0.0], &[1e5], &cfg),
            sweep(&p, &[10.0], &[-3.0], &cfg),
            sweep_parallel(&p, &[f64::NAN], &[1e5], &cfg),
        ] {
            match bad {
                Err(ScheduleError::InvalidParams(_)) => {}
                other => panic!("expected InvalidParams, got {other:?}"),
            }
        }
    }

    #[test]
    fn feasible_cells_carry_solver_telemetry() {
        let p = blast();
        let params = RtParams::new(10.0, 3.5e5).unwrap();
        let cell = compare_at(&p, params, &SweepConfig::paper_blast());
        let et = cell.enforced_telemetry.expect("enforced telemetry");
        assert!(et.iterations > 0, "{et:?}");
        assert!(et.wall_micros >= 0.0);
        let mt = cell.monolithic_telemetry.expect("monolithic telemetry");
        assert!(mt.iterations > 0, "{mt:?}");
        assert_eq!(mt.method, "breakpoint");
    }

    #[test]
    fn infeasible_cells_recorded_as_none() {
        let p = blast();
        // τ0 = 1 is infeasible for monolithic (stability) — the paper's
        // fastest arrival rate is near the feasibility edge.
        let params = RtParams::new(1.0, 3.5e5).unwrap();
        let cell = compare_at(&p, params, &SweepConfig::paper_blast());
        assert!(cell.monolithic.is_none());
    }

    /// A cell without its timings, floats printed to round-trip.
    fn untimed(mut cell: CellResult) -> String {
        let telemetry = [&mut cell.enforced_telemetry, &mut cell.monolithic_telemetry];
        for t in telemetry.into_iter().flatten() {
            t.wall_micros = 0.0;
            t.newton_solve_micros = t.newton_solve_micros.map(|_| 0.0);
        }
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
        /// what `compare_at` returns on its own: sequential and parallel
        /// sweeps, any worker count (so any segment length), a chain
        /// topology, and a table that stops short of most cells' `M_D`.
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
            let per_cell: Vec<String> = tau0s
                .iter()
                .flat_map(|&tau0| ds.iter().map(move |&d| RtParams::new(tau0, d).unwrap()))
                .map(|params| untimed(compare_at(&p, params, &config)))
                .collect();
            let untimed_all = |cells: Vec<CellResult>| cells.into_iter().map(untimed).collect::<Vec<_>>();
            let swept = sweep(&p, &tau0s, &ds, &config).unwrap().cells;
            prop_assert_eq!(&untimed_all(swept), &per_cell);
            let swept = sweep_parallel(&p, &tau0s, &ds, &config).unwrap().cells;
            prop_assert_eq!(&untimed_all(swept), &per_cell);
            for threads in [1, 3] {
                let opts = SweepOptions::default();
                let swept = sweep_cells(&p, &tau0s, &ds, &config, &opts, threads, None);
                prop_assert_eq!(&untimed_all(swept), &per_cell);
            }
            let chain = Topology::chain(&p);
            let swept = sweep_topology_parallel_live(&chain, &tau0s, &ds, &config, None).unwrap();
            prop_assert_eq!(&untimed_all(swept.cells), &per_cell);
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
                kernel.row(tau0, &ds, None, false, &mut |(cell, _)| swept.push(cell));
            }
            prop_assert_eq!(&untimed_all(swept), &per_cell);
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
        let plain: Vec<String> = sweep(&p, &tau0s, &ds, &cfg)
            .unwrap()
            .cells
            .into_iter()
            .map(untimed)
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
            let opts = SweepOptions::default();
            let cells = sweep_cells(&p, &tau0s, &ds, &cfg, &opts, 2, Some(&progress));
            let cells: Vec<String> = cells.into_iter().map(untimed).collect();
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
    fn topology_sweep_on_chain_matches_chain_sweep() {
        let p = blast();
        let t = Topology::chain(&p);
        let cfg = SweepConfig::paper_blast();
        let (tau0s, ds) = RtParams::paper_grid(3, 3);
        let chain = sweep(&p, &tau0s, &ds, &cfg).unwrap();
        let dag = sweep_topology_parallel_live(&t, &tau0s, &ds, &cfg, None).unwrap();
        assert_eq!(chain.cells.len(), dag.cells.len());
        for (c, d) in chain.cells.iter().zip(&dag.cells) {
            assert_eq!(c.enforced, d.enforced, "tau0={} D={}", c.tau0, c.deadline);
            assert_eq!(c.monolithic, d.monolithic);
        }
    }
}
