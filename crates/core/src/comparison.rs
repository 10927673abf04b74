//! Strategy comparison over the `(τ0, D)` operating space.
//!
//! Regenerates the data behind the paper's Figures 3 and 4: the two
//! strategies' optimized active fractions on a grid of inter-arrival
//! times and deadlines, and their difference (monolithic − enforced,
//! positive where enforced waits win).

use crate::dag::EnforcedDagProblem;
use crate::enforced::{EnforcedWaitsProblem, WarmStart};
use crate::monolithic::{BlockModel, BlockTable, MonolithicDagProblem, MonolithicProblem};
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

/// Optimize both strategies at one operating point.
pub fn compare_at(pipeline: &PipelineSpec, params: RtParams, config: &SweepConfig) -> CellResult {
    // An empty table: the block-size search builds its own.
    solve_cell(
        pipeline,
        params,
        config,
        &BlockTable::default(),
        None,
        false,
    )
    .0
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

/// [`compare_at`] with the block size walked on a shared `table` and the
/// enforced solve seeded from `warm`. With `keep_hint` it also returns
/// the enforced schedule's periods as a warm-start hint for neighboring
/// cells (when the cell was enforced feasible).
fn solve_cell(
    pipeline: &PipelineSpec,
    params: RtParams,
    config: &SweepConfig,
    table: &BlockTable,
    warm: Option<&WarmStart>,
    keep_hint: bool,
) -> (CellResult, Option<WarmStart>) {
    let prob = EnforcedWaitsProblem::new(pipeline, params, config.enforced_b.clone());
    let enforced = match warm {
        Some(hint) => prob.solve_with_fallback_warm(hint).ok(),
        None => prob.solve_with_fallback().ok(),
    };
    let hint = enforced
        .as_ref()
        .filter(|_| keep_hint)
        .map(WarmStart::from_schedule);
    let monolithic =
        MonolithicProblem::new(pipeline, params, config.monolithic_b, config.monolithic_s)
            .solve_on(table)
            .ok();
    let cell = CellResult {
        tau0: params.tau0,
        deadline: params.deadline,
        enforced: enforced.as_ref().map(|s| s.active_fraction),
        monolithic: monolithic.as_ref().map(|s| s.active_fraction),
        enforced_telemetry: enforced.and_then(|s| s.telemetry),
        monolithic_telemetry: monolithic.and_then(|s| s.telemetry),
        warm_seed: None,
    };
    (cell, hint)
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
    if opts.warm_graph {
        return Ok(SweepResult {
            tau0s: tau0s.to_vec(),
            deadlines: deadlines.to_vec(),
            cells: sweep_graph_cells(pipeline, tau0s, deadlines, config, &table, 1, None),
        });
    }
    let mut cells = Vec::with_capacity(tau0s.len() * cols);
    if !opts.warm_start {
        for &tau0 in tau0s {
            for &d in deadlines {
                let params = RtParams::new(tau0, d).expect("grid validated above");
                cells.push(solve_cell(pipeline, params, config, &table, None, false).0);
            }
        }
    } else if cols > 0 {
        for (i, &tau0) in tau0s.iter().enumerate() {
            let anchor_params =
                RtParams::new(tau0, deadlines[cols - 1]).expect("grid validated above");
            let (anchor_cell, hint) =
                solve_cell(pipeline, anchor_params, config, &table, None, true);
            for &d in &deadlines[..cols - 1] {
                let params = RtParams::new(tau0, d).expect("grid validated above");
                let mut cell = solve_cell(pipeline, params, config, &table, hint.as_ref(), false).0;
                if hint.is_some() {
                    cell.warm_seed = Some(SeedEdge {
                        row: i as u64,
                        col: (cols - 1) as u64,
                    });
                }
                cells.push(cell);
            }
            cells.push(anchor_cell);
        }
    }
    Ok(SweepResult {
        tau0s: tau0s.to_vec(),
        deadlines: deadlines.to_vec(),
        cells,
    })
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
            "cursor claims (steals) performed, per worker",
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

/// Run `f` over `0..total` with `threads` workers pulling indices from a
/// shared atomic cursor (cell-level work stealing). Results come back in
/// index order. Unlike static chunking, a worker that drains its cheap
/// items immediately steals from the expensive tail, so imbalanced
/// workloads no longer serialize behind one thread.
///
/// With `live` attached, each claim and cell completion is published
/// into the progress registry; the uninstrumented path stays
/// allocation- and timing-free — each hook is one untaken branch on the
/// `Option`.
fn work_steal_live<T: Send>(
    total: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
    live: Option<&SweepProgress>,
) -> Vec<T> {
    let threads = threads.min(total.max(1));
    let cursor = AtomicUsize::new(0);
    // Each cursor bump claims a run of `chunk` indices instead of one:
    // on large grids (64×64 = 4096 cells) this divides the contended
    // read-modify-write traffic by the chunk factor, while ~8 claims
    // per worker still leaves enough grains to balance an expensive
    // tail across the pool.
    let chunk = (total / (threads * 8)).max(1);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || {
                // Workers buffer (index, result) pairs locally; the crate
                // forbids unsafe code, so disjoint slot writes are merged
                // single-threaded after the join instead.
                let mut local = Vec::new();
                let started = Instant::now();
                let mut busy = Duration::ZERO;
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    let stop = (start + chunk).min(total);
                    if let Some(p) = live {
                        p.on_claim(worker, (stop - start) as u64);
                    }
                    for idx in start..stop {
                        if let Some(p) = live {
                            let cell_start = Instant::now();
                            local.push((idx, f(idx)));
                            busy += cell_start.elapsed();
                            p.on_cell_done(worker, busy, started.elapsed());
                        } else {
                            local.push((idx, f(idx)));
                        }
                    }
                }
                local
            }));
        }
        for handle in handles {
            for (idx, value) in handle.join().expect("sweep worker panicked") {
                slots[idx] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("cursor covered every index"))
        .collect()
}

/// [`sweep`], parallelized with a cell-level work-stealing scheduler
/// (shared atomic cursor over the flattened grid, scoped threads).
/// Produces bit-identical results to [`sweep`] — cells are independent
/// and each cell's solve does not depend on scheduling order. The
/// worker count honors `RTSDF_THREADS` (see [`crate::threads`]).
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
/// `progress` is attached, workers publish per-cell claim, steal,
/// completion, and busy-fraction metrics into its registry as the sweep
/// runs. Results remain bit-identical to the uninstrumented sweep —
/// publishing happens outside each cell's solve.
pub fn sweep_parallel_live(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
    opts: &SweepOptions,
    progress: Option<&SweepProgress>,
) -> Result<SweepResult, ScheduleError> {
    validate_grid(tau0s, deadlines)?;
    let rows = tau0s.len();
    let cols = deadlines.len();
    let total = rows * cols;
    let threads = worker_threads();
    let result = |cells| SweepResult {
        tau0s: tau0s.to_vec(),
        deadlines: deadlines.to_vec(),
        cells,
    };
    if total == 0 {
        return Ok(result(Vec::new()));
    }
    if let Some(p) = progress {
        p.set_total(total);
    }
    let table = grid_table(pipeline, tau0s, deadlines, config);
    if opts.warm_graph {
        return Ok(result(sweep_graph_cells(
            pipeline, tau0s, deadlines, config, &table, threads, progress,
        )));
    }
    if !opts.warm_start {
        let cells = work_steal_live(
            total,
            threads,
            |idx| {
                let (i, j) = (idx / cols, idx % cols);
                let params = RtParams::new(tau0s[i], deadlines[j]).expect("grid validated above");
                solve_cell(pipeline, params, config, &table, None, false).0
            },
            progress,
        );
        return Ok(result(cells));
    }
    // Phase 1: one cold anchor per row (the largest deadline).
    let anchors = work_steal_live(
        rows,
        threads,
        |i| {
            let params =
                RtParams::new(tau0s[i], deadlines[cols - 1]).expect("grid validated above");
            solve_cell(pipeline, params, config, &table, None, true)
        },
        progress,
    );
    // Phase 2: every remaining cell, warmed from its row's anchor.
    let rest = work_steal_live(
        rows * (cols - 1),
        threads,
        |idx| {
            let (i, j) = (idx / (cols - 1), idx % (cols - 1));
            let params = RtParams::new(tau0s[i], deadlines[j]).expect("grid validated above");
            let hint = anchors[i].1.as_ref();
            let mut cell = solve_cell(pipeline, params, config, &table, hint, false).0;
            if hint.is_some() {
                cell.warm_seed = Some(SeedEdge {
                    row: i as u64,
                    col: (cols - 1) as u64,
                });
            }
            cell
        },
        progress,
    );
    let mut cells = Vec::with_capacity(total);
    let mut rest = rest.into_iter();
    for (anchor_cell, _) in anchors {
        for _ in 0..cols - 1 {
            cells.push(rest.next().expect("phase-2 covered every cell"));
        }
        cells.push(anchor_cell);
    }
    Ok(result(cells))
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
/// scheduler with a barrier between waves; results are bit-identical
/// for any `threads`, and the chosen seed edge is recorded on each
/// [`CellResult`] for audit.
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
    for wave in 0..rows + cols - 1 {
        // Cells with i + (cols−1−j) == wave, in ascending-row order.
        let wave_cells: Vec<(usize, usize)> = (0..rows)
            .filter_map(|i| {
                let off = wave.checked_sub(i)?;
                (off < cols).then(|| (i, cols - 1 - off))
            })
            .collect();
        let solved = work_steal_live(
            wave_cells.len(),
            threads,
            |k| {
                let (i, j) = wave_cells[k];
                let params = RtParams::new(tau0s[i], deadlines[j]).expect("grid validated above");
                let parent = graph_parent(i, j, cols, &iters);
                let hint = parent.and_then(|(pi, pj)| hints[pi * cols + pj].as_ref());
                let (mut cell, hint_out) = solve_cell(pipeline, params, config, table, hint, true);
                if hint.is_some() {
                    cell.warm_seed = parent.map(|(pi, pj)| SeedEdge {
                        row: pi as u64,
                        col: pj as u64,
                    });
                }
                (cell, hint_out)
            },
            progress,
        );
        for (&(i, j), (cell, hint)) in wave_cells.iter().zip(solved) {
            let idx = i * cols + j;
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
    // An empty table: the block-size search builds its own.
    solve_topology_cell(topology, params, config, &BlockTable::default())
}

/// [`compare_at_topology`] with the block size walked on a shared
/// `table`.
fn solve_topology_cell(
    topology: &Topology,
    params: RtParams,
    config: &SweepConfig,
    table: &BlockTable,
) -> CellResult {
    let enforced = EnforcedDagProblem::new(topology, params, config.enforced_b.clone())
        .solve()
        .ok();
    let monolithic =
        MonolithicDagProblem::new(topology, params, config.monolithic_b, config.monolithic_s)
            .solve_on(table)
            .ok();
    CellResult {
        tau0: params.tau0,
        deadline: params.deadline,
        enforced: enforced.as_ref().map(|s| s.active_fraction),
        monolithic: monolithic.as_ref().map(|s| s.active_fraction),
        enforced_telemetry: enforced.and_then(|s| s.telemetry),
        monolithic_telemetry: monolithic.and_then(|s| s.telemetry),
        warm_seed: None,
    }
}

/// [`sweep_parallel_live`] generalized to DAG topologies: both
/// strategies' DAG design problems solved cold at every grid cell, with
/// the same work-stealing scheduler and optional live telemetry.
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
    let cells = work_steal_live(
        total,
        worker_threads(),
        |idx| {
            let (i, j) = (idx / cols, idx % cols);
            let params = RtParams::new(tau0s[i], deadlines[j]).expect("grid validated above");
            solve_topology_cell(topology, params, config, &table)
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
/// chunks, one scoped thread per chunk. Kept as the comparison baseline
/// for the `sweep_hot_path` bench — imbalanced grids serialize their
/// expensive rows behind single threads here, which is exactly what
/// [`sweep_parallel`]'s work stealing fixes.
pub fn sweep_parallel_chunked(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
) -> Result<SweepResult, ScheduleError> {
    validate_grid(tau0s, deadlines)?;
    let threads = worker_threads();
    let table = &grid_table(pipeline, tau0s, deadlines, config);
    let mut rows: Vec<Option<Vec<CellResult>>> = vec![None; tau0s.len()];
    std::thread::scope(|scope| {
        let chunk = tau0s.len().div_ceil(threads).max(1);
        for (tau0_chunk, row_chunk) in tau0s.chunks(chunk).zip(rows.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (&tau0, slot) in tau0_chunk.iter().zip(row_chunk.iter_mut()) {
                    let row: Vec<CellResult> = deadlines
                        .iter()
                        .map(|&d| {
                            let params = RtParams::new(tau0, d).expect("grid validated above");
                            solve_cell(pipeline, params, config, table, None, false).0
                        })
                        .collect();
                    *slot = Some(row);
                }
            });
        }
    });
    Ok(SweepResult {
        tau0s: tau0s.to_vec(),
        deadlines: deadlines.to_vec(),
        cells: rows
            .into_iter()
            .flat_map(|r| r.expect("all rows computed"))
            .collect(),
    })
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
