//! `sweep-blast`: the Fig. 3 design sweep of the BLAST pipeline, run as a
//! closed batch. On this grid the monolithic block-size search does
//! nearly all the work and the simulator and executor do not run, so a
//! solver change shows here and nowhere else.

use crate::stats::{mean, percentile, share, Checks};
use crate::trace::{durations_us, roots_total_us, Call, Span, Tracer};
use crate::{measure, Ctx, Outcome};
use dataflow_model::{PipelineSpec, RtParams};
use rtsdf_core::comparison::{sweep_parallel, CellResult, SweepConfig};
use rtsdf_core::kkt::verify_kkt;
use rtsdf_core::{
    EnforcedWaitsProblem, MonolithicProblem, MonolithicSchedule, ScheduleError, WaitSchedule,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The paper grid's resolution.
const GRID: usize = 64;
/// ROADMAP item 1's probe cells: τ0 = 8 at three deadlines. `solve_fast`
/// misses the exact optimum at the first two.
const PROBE_TAU0: f64 = 8.0;
const PROBE_DEADLINES: [f64; 3] = [2.63e5, 3.07e5, 3.28e5];
/// One grid cell in `SCAN_STRIDE` (offset by the seed) plus every probe
/// is checked against the exact scan, which costs ~2.5 ms a cell.
const SCAN_STRIDE: usize = 16;
/// KKT check tolerances, as the workspace's own tests use them.
const KKT_ACTIVE_TOL: f64 = 1e-5;
const KKT_TOL: f64 = 1e-3;
/// Two solves agree when their active fractions are this close.
const AF_TOL: f64 = 1e-9;

struct Sweep {
    pipeline: PipelineSpec,
    config: SweepConfig,
    tau0s: Vec<f64>,
    deadlines: Vec<f64>,
}

impl Sweep {
    /// Every cell the pass solves: the grid, then the probes.
    fn points(&self) -> Vec<RtParams> {
        let grid = self
            .tau0s
            .iter()
            .flat_map(|&t| self.deadlines.iter().map(move |&d| (t, d)));
        let probes = PROBE_DEADLINES.iter().map(|&d| (PROBE_TAU0, d));
        grid.chain(probes)
            .map(|(t, d)| RtParams::new(t, d).expect("grid points are positive"))
            .collect()
    }
}

fn prepare() -> Sweep {
    let (tau0s, deadlines) = RtParams::paper_grid(GRID, GRID);
    Sweep {
        pipeline: blast::paper_pipeline(),
        config: SweepConfig::paper_blast(),
        tau0s,
        deadlines,
    }
}

fn pass(s: &Sweep, tracer: &Tracer) -> Vec<CellResult> {
    let sweep = |tau0s: &[f64], deadlines: &[f64]| {
        tracer
            .span(Call::SweepParallel, || {
                sweep_parallel(&s.pipeline, tau0s, deadlines, &s.config)
            })
            .expect("the grid is valid")
            .cells
    };
    let mut cells = sweep(&s.tau0s, &s.deadlines);
    cells.extend(sweep(&[PROBE_TAU0], &PROBE_DEADLINES));
    cells
}

type Solved = (
    Result<WaitSchedule, ScheduleError>,
    Result<MonolithicSchedule, ScheduleError>,
);

/// Re-solve every cell through the two public calls `compare_at` makes,
/// on `workers` threads, each call in its own span. This is where the
/// sweep's layer split comes from, and it yields the schedules the
/// sweep's cells only summarize.
fn replay(s: &Sweep, points: &[RtParams], workers: usize, tracer: &Tracer) -> Vec<Solved> {
    let next = AtomicUsize::new(0);
    let forks: Vec<Tracer> = (1..=workers as u64).map(|tid| tracer.fork(tid)).collect();
    let mut solved: Vec<(usize, Solved)> = std::thread::scope(|scope| {
        let handles: Vec<_> = forks
            .into_iter()
            .map(|t| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    t.span(Call::Worker, || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&params) = points.get(i) else { break };
                        let enforced = t.span(Call::EnforcedSolve, || {
                            EnforcedWaitsProblem::new(
                                &s.pipeline,
                                params,
                                s.config.enforced_b.clone(),
                            )
                            .solve_with_fallback()
                        });
                        let monolithic = t.span(Call::MonolithicSolve, || {
                            MonolithicProblem::new(
                                &s.pipeline,
                                params,
                                s.config.monolithic_b,
                                s.config.monolithic_s,
                            )
                            .solve_fast()
                        });
                        out.push((i, (enforced, monolithic)));
                    });
                    (out, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                let (out, t) = h.join().expect("replay worker panicked");
                tracer.absorb(t);
                out
            })
            .collect()
    });
    solved.sort_by_key(|(i, _)| *i);
    solved.into_iter().map(|(_, s)| s).collect()
}

/// The better strategy's active fraction and latency bound at a cell
/// where at least one strategy has a schedule.
fn better(solved: &Solved) -> Option<(f64, f64)> {
    let e = solved
        .0
        .as_ref()
        .ok()
        .map(|s| (s.active_fraction, s.latency_bound));
    let m = solved
        .1
        .as_ref()
        .ok()
        .map(|s| (s.active_fraction, s.latency_bound));
    match (e, m) {
        (Some(e), Some(m)) => Some(if m.0 < e.0 { m } else { e }),
        (e, m) => e.or(m),
    }
}

fn same_af(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => (x - y).abs() <= AF_TOL,
        (None, None) => true,
        _ => false,
    }
}

#[derive(Default)]
struct CellChecks {
    checks: Checks,
    monolithic_mismatches: u64,
    kkt_failures: u64,
}

/// Check each cell of the first pass outside the timed region:
/// the replayed solves reproduce the sweep's answers and their schedules
/// meet their constraints (hard), every enforced schedule is optimal by
/// KKT, and sampled monolithic answers equal the exact scan (soft).
fn check_cells(
    s: &Sweep,
    points: &[RtParams],
    cells: &[CellResult],
    solved: &[Solved],
    seed: u64,
) -> CellChecks {
    let mut out = CellChecks::default();
    let offset = (seed % SCAN_STRIDE as u64) as usize;
    let grid_cells = s.tau0s.len() * s.deadlines.len();
    for (i, ((params, cell), (enforced, monolithic))) in
        points.iter().zip(cells).zip(solved).enumerate()
    {
        let enforced_af = enforced.as_ref().ok().map(|e| e.active_fraction);
        let monolithic_af = monolithic.as_ref().ok().map(|m| m.active_fraction);
        let mono = MonolithicProblem::new(
            &s.pipeline,
            *params,
            s.config.monolithic_b,
            s.config.monolithic_s,
        );
        let valid = enforced_af == cell.enforced
            && monolithic_af == cell.monolithic
            && monolithic
                .as_ref()
                .map_or(true, |m| mono.objective(m.block_size).is_some());
        let kkt_ok = enforced.as_ref().map_or(true, |e| {
            let prob = EnforcedWaitsProblem::new(&s.pipeline, *params, s.config.enforced_b.clone());
            verify_kkt(&prob, &e.periods, KKT_ACTIVE_TOL).is_optimal(KKT_TOL)
        });
        let scanned = i >= grid_cells || i % SCAN_STRIDE == offset;
        let exact_ok =
            !scanned || same_af(mono.solve().ok().map(|m| m.active_fraction), monolithic_af);
        out.kkt_failures += u64::from(!kkt_ok);
        out.monolithic_mismatches += u64::from(!exact_ok);
        out.checks.record(valid, kkt_ok && exact_ok);
    }
    out
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let timed = measure(ctx, tracer, |_| prepare(), |s, _, t| pass(s, t));
    let s = &timed.state;
    let cells = &timed.outputs[0].1;
    let points = s.points();

    // Outside the timed region: replay (traced when tracing), then check.
    let replay_tracer = tracer.fork(0);
    let solved = replay(s, &points, ctx.workers, &replay_tracer);
    let cell_checks = check_cells(s, &points, cells, &solved, ctx.seed);
    let mut checks = cell_checks.checks;
    for (_, later) in &timed.outputs[1..] {
        checks.hard(afs(later) == afs(cells));
    }

    let chosen: Vec<(f64, f64)> = solved.iter().filter_map(better).collect();
    let af: Vec<f64> = chosen.iter().map(|c| c.0).collect();
    let latency: Vec<f64> = chosen.iter().map(|c| c.1).collect();
    let cells_per_s = share(cells.len() as f64, timed.fastest_untraced());
    let feasible_share = share(chosen.len() as f64, cells.len() as f64);

    let mut outcome = Outcome::new(&timed, checks);
    outcome.throughput = cells_per_s;
    outcome.af_mean = mean(&af);
    outcome.met_share = feasible_share;
    outcome.latency_mean = mean(&latency);
    outcome.latency_max = latency.iter().copied().fold(0.0, f64::max);
    outcome.report = vec![
        ("cells_per_s", cells_per_s, "cells/s"),
        ("af_mean", outcome.af_mean, "fraction"),
        ("feasible_share", feasible_share, "fraction"),
        ("wrong_share", checks.wrong_share(), "fraction"),
    ];

    let telemetry_mean = |pick: fn(&CellResult) -> Option<u64>| {
        let xs: Vec<f64> = cells.iter().filter_map(pick).map(|n| n as f64).collect();
        mean(&xs)
    };
    outcome.set_layer(
        "core.monolithic_evals_per_cell",
        telemetry_mean(|c| c.monolithic_telemetry.as_ref().map(|t| t.iterations)),
    );
    outcome.set_layer(
        "core.enforced_iters_per_cell",
        telemetry_mean(|c| c.enforced_telemetry.as_ref().map(|t| t.iterations)),
    );
    outcome.set_layer(
        "core.monolithic_mismatches",
        cell_checks.monolithic_mismatches as f64,
    );
    outcome.set_layer(
        "core.enforced_kkt_failures",
        cell_checks.kkt_failures as f64,
    );
    if tracer.is_on() {
        sweep_split(
            &mut outcome,
            &tracer.spans(),
            &replay_tracer.spans(),
            ctx.workers,
        );
    }
    tracer.absorb(replay_tracer);
    outcome
}

/// The sweep's layer split: solve spans from the replay, as shares of
/// the replay's worker time, and the scheduler's overhead against
/// `sweep_parallel`'s own wall.
fn sweep_split(outcome: &mut Outcome, pass_spans: &[Span], replay: &[Span], workers: usize) {
    let worker_total = roots_total_us(replay);
    let enforced = durations_us(replay, Call::is_enforced_solve);
    let monolithic = durations_us(replay, Call::is_monolithic_solve);
    let solve_total: f64 = enforced.iter().chain(&monolithic).sum();
    let passes = durations_us(pass_spans, |c| c == Call::Pass).len().max(1) as f64;
    let sweep_wall = durations_us(pass_spans, |c| c == Call::SweepParallel)
        .iter()
        .sum::<f64>()
        / passes;
    let pool = workers as f64 * sweep_wall;
    outcome.set_layer(
        "core.monolithic_share",
        share(monolithic.iter().sum(), worker_total),
    );
    outcome.set_layer(
        "core.enforced_share",
        share(enforced.iter().sum(), worker_total),
    );
    outcome.set_layer("core.monolithic_us_p50", percentile(&monolithic, 0.50));
    outcome.set_layer("core.monolithic_us_p99", percentile(&monolithic, 0.99));
    outcome.set_layer("core.enforced_us_p50", percentile(&enforced, 0.50));
    outcome.set_layer("core.enforced_us_p99", percentile(&enforced, 0.99));
    outcome.set_layer("core.sweep_overhead_share", share(pool - solve_total, pool));
}

fn afs(cells: &[CellResult]) -> Vec<(Option<u64>, Option<u64>)> {
    cells
        .iter()
        .map(|c| (c.enforced.map(f64::to_bits), c.monolithic.map(f64::to_bits)))
        .collect()
}
