//! Criterion bench: the end-to-end sweep hot path.
//!
//! Measures the three layers the sweep acceleration touched, against
//! their baselines, on one deliberately *imbalanced* grid:
//!
//! * **Scheduling** — segment-level work stealing (`sweep_parallel`) vs
//!   the old static row-chunked scheduler (`sweep_parallel_chunked`).
//!   The grid puts its cheap, infeasible rows (τ0 below the enforced
//!   head-stability limit ≈ 2.83) first and its expensive feasible rows
//!   last, so static chunking serializes the expensive tail behind one
//!   thread — exactly the shape work stealing fixes. Separately, the
//!   paper's 64×64 grid runs through the one-worker `sweep`, whose whole
//!   rows are the row kernel's segments; its cell rate does not depend
//!   on the core count, so `bench_diff` gates it.
//! * **Solver** — a cold `solve_with_fallback` vs the same solve warm-
//!   started from a neighboring deadline's schedule, and the monolithic
//!   block-size search (`solve_fast`) at its own bench point.
//! * **Simulator** — the allocation-free enforced/monolithic hot loops,
//!   reported as items/second, plus one 200k-item enforced stream.
//!
//! `--metrics json` writes a `BENCH_perf.json` run manifest (wall times
//! informational, solver iteration counts gated) so `bench_diff` tracks
//! the perf trajectory across commits; `--metrics csv` writes the raw
//! timing rows instead.
//!
//! ```text
//! cargo bench -p bench --bench sweep_hot_path -- [--grid RxC] [--metrics json|csv]
//! ```

use bench::manifest::{write_metrics_csv, MetricsFormat, RunManifest};
use criterion::{black_box, Criterion};
use rtsdf::core::comparison::{
    sweep, sweep_parallel, sweep_parallel_chunked, sweep_parallel_live, sweep_parallel_with,
    SweepConfig, SweepOptions, SweepProgress, SweepResult,
};
use rtsdf::core::{worker_threads, WarmStart};
use rtsdf::prelude::*;
use serde_json::json;
use std::time::Instant;

/// Parse `--grid RxC` (default 8x8).
fn parse_grid(args: &[String]) -> (usize, usize) {
    match args.iter().position(|a| a == "--grid") {
        None => (8, 8),
        Some(pos) => {
            let parsed = args.get(pos + 1).and_then(|v| {
                let (r, c) = v.split_once('x')?;
                Some((r.parse::<usize>().ok()?, c.parse::<usize>().ok()?))
            });
            match parsed {
                Some((r, c)) if r >= 2 && c >= 2 => (r, c),
                _ => {
                    eprintln!("--grid expects RxC with R, C >= 2 (e.g. --grid 4x4)");
                    std::process::exit(2);
                }
            }
        }
    }
}

/// An imbalanced `(τ0, D)` grid: the first half of the rows sit below
/// the enforced head-stability limit (every cell fails fast — cheap),
/// the second half are feasible and expensive (τ0 geometric in
/// [8, 80]). Deadlines are the paper's linear 2.4e4..3.5e5 span.
fn imbalanced_grid(rows: usize, cols: usize) -> (Vec<f64>, Vec<f64>) {
    let cheap = rows / 2;
    let mut tau0s = Vec::with_capacity(rows);
    for i in 0..cheap {
        tau0s.push(1.0 + 1.5 * i as f64 / cheap as f64);
    }
    let costly = rows - cheap;
    for i in 0..costly {
        let f = if costly > 1 {
            i as f64 / (costly - 1) as f64
        } else {
            0.0
        };
        tau0s.push(8.0 * 10f64.powf(f));
    }
    let deadlines = (0..cols)
        .map(|j| 2.4e4 + (3.5e5 - 2.4e4) * j as f64 / (cols - 1) as f64)
        .collect();
    (tau0s, deadlines)
}

fn mean_ns(results: &[criterion::BenchResult], id: &str) -> f64 {
    results
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.mean_ns)
        .unwrap_or(f64::NAN)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let metrics = bench::parse_metrics_flag(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let (rows, cols) = parse_grid(&args);
    let pipeline = rtsdf::blast::paper_pipeline();
    let (tau0s, ds) = imbalanced_grid(rows, cols);
    let sweep_config = SweepConfig::paper_blast();
    let (paper_tau0s, paper_ds) = RtParams::paper_grid(64, 64);

    // This bench parses its own flags, so the shim's positional-filter
    // sniffing must be disabled.
    let mut c = Criterion::default().with_filter(None);

    {
        let mut group = c.benchmark_group("sweep");
        group.bench_function("chunked", |b| {
            b.iter(|| {
                black_box(sweep_parallel_chunked(&pipeline, &tau0s, &ds, &sweep_config).unwrap())
            })
        });
        group.bench_function("work_stealing", |b| {
            b.iter(|| black_box(sweep_parallel(&pipeline, &tau0s, &ds, &sweep_config).unwrap()))
        });
        group.bench_function("paper_64x64", |b| {
            b.iter(|| black_box(sweep(&pipeline, &paper_tau0s, &paper_ds, &sweep_config).unwrap()))
        });
        group.bench_function("warm_work_stealing", |b| {
            b.iter(|| {
                black_box(
                    sweep_parallel_with(
                        &pipeline,
                        &tau0s,
                        &ds,
                        &sweep_config,
                        &SweepOptions::warm(),
                    )
                    .unwrap(),
                )
            })
        });
        group.finish();
    }

    // Solver: one feasible BLAST operating point, warm hint from the
    // neighboring (next larger) deadline — the sweep's actual access
    // pattern.
    let b_factors = sweep_config.enforced_b.clone();
    let point = RtParams::new(10.0, 1e5).unwrap();
    let neighbor = RtParams::new(10.0, 1.2e5).unwrap();
    let prob = EnforcedWaitsProblem::new(&pipeline, point, b_factors.clone());
    let hint_sched = EnforcedWaitsProblem::new(&pipeline, neighbor, b_factors.clone())
        .solve_with_fallback()
        .expect("neighbor point is feasible");
    let hint = WarmStart::from_schedule(&hint_sched);
    // The monolithic block-size search, at the monolithic simulator's
    // operating point.
    let mono_prob = MonolithicProblem::new(&pipeline, RtParams::new(50.0, 1e5).unwrap(), 1.0, 1.0);
    {
        let mut group = c.benchmark_group("solver");
        group.bench_function("cold", |b| {
            b.iter(|| black_box(prob.solve_with_fallback().unwrap()))
        });
        group.bench_function("warm", |b| {
            b.iter(|| black_box(prob.solve_with_fallback_warm(&hint).unwrap()))
        });
        group.bench_function("monolithic", |b| {
            b.iter(|| black_box(mono_prob.solve_fast().unwrap()))
        });
        group.finish();
    }
    let cold_sched = prob.solve_with_fallback().unwrap();
    let warm_sched = prob.solve_with_fallback_warm(&hint).unwrap();
    let cold_iters = cold_sched.telemetry.as_ref().map_or(0, |t| t.iterations);
    let warm_iters = warm_sched.telemetry.as_ref().map_or(0, |t| t.iterations);
    let mono_sched = mono_prob
        .solve_fast()
        .expect("monolithic point is feasible");
    let mono_iters = mono_sched.telemetry.as_ref().map_or(0, |t| t.iterations);

    // Simulators: fixed-seed BLAST streams through the hot loops. The
    // 2,000-item streams fit in cache whatever the loop keeps per
    // input; the 200k-item enforced stream shows what per-run state
    // sized by the stream costs.
    let sim_items = 2_000usize;
    let sim_cfg = SimConfig::quick(10.0, 7, sim_items);
    let mono_cfg = SimConfig::quick(50.0, 7, sim_items);
    let long_items = 200_000usize;
    let long_cfg = SimConfig::quick(10.0, 7, long_items);
    {
        let mut group = c.benchmark_group("sim");
        group.bench_function("enforced", |b| {
            b.iter(|| black_box(simulate_enforced(&pipeline, &cold_sched, 1e5, &sim_cfg)))
        });
        group.bench_function("enforced_200k", |b| {
            b.iter(|| black_box(simulate_enforced(&pipeline, &cold_sched, 1e5, &long_cfg)))
        });
        group.bench_function("monolithic", |b| {
            b.iter(|| black_box(simulate_monolithic(&pipeline, &mono_sched, 1e5, &mono_cfg)))
        });
        group.finish();
    }

    // Stats pipeline: the histogram + moments + quantile path every
    // observed run funnels its sojourn/latency samples through. A fixed
    // pseudo-latency buffer (10% past the histogram range, so the
    // overflow tracking is exercised) streams through `push_batch` /
    // `push_slice`, then the three tail quantiles are read back.
    let stats_samples = 65_536usize;
    let hist_range = 24_000.0;
    let samples: Vec<f64> = {
        use rtsdf::engine::rng::RngStream;
        let mut rng = RngStream::new(7);
        use rand::Rng;
        (0..stats_samples)
            .map(|_| rng.gen::<f64>() * hist_range * 1.1)
            .collect()
    };
    {
        use rtsdf::engine::stats::{Histogram, OnlineStats};
        let mut group = c.benchmark_group("stats");
        group.bench_function("histogram", |b| {
            b.iter(|| {
                let mut h = Histogram::new(0.0, hist_range, 256);
                let mut s = OnlineStats::new();
                h.push_batch(black_box(&samples));
                s.push_slice(black_box(&samples));
                black_box((
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.quantile(0.999),
                    s.mean(),
                ))
            })
        });
        group.finish();
    }

    // Production-scale work-stealing profile (ROADMAP item 3 leftover:
    // stealing measured ~1x over chunked on small grids — answer the
    // question at a 64×64 production grid). Single timed passes, not
    // criterion groups: at 4096 cells one pass is already seconds, and
    // the wall keys are informational. The work-stealing pass publishes
    // into a live metrics registry so the row records actual steals and
    // per-worker busy fractions; the two warm modes' deterministic
    // iteration totals quantify the cross-cell seeding win at scale.
    let (prof_rows, prof_cols) = (64usize, 64usize);
    let (prof_tau0s, prof_ds) = imbalanced_grid(prof_rows, prof_cols);
    let t0 = Instant::now();
    let _ = sweep_parallel_chunked(&pipeline, &prof_tau0s, &prof_ds, &sweep_config).unwrap();
    let prof_chunked = t0.elapsed();
    let progress = SweepProgress::new(worker_threads());
    let t0 = Instant::now();
    let _ = sweep_parallel_live(
        &pipeline,
        &prof_tau0s,
        &prof_ds,
        &sweep_config,
        &SweepOptions::default(),
        Some(&progress),
    )
    .unwrap();
    let prof_ws = t0.elapsed();
    let total_iters = |r: &SweepResult| {
        r.cells
            .iter()
            .filter_map(|c| c.enforced_telemetry.as_ref())
            .map(|t| t.iterations)
            .sum::<u64>()
    };
    let warm_rows_sweep = sweep_parallel_with(
        &pipeline,
        &prof_tau0s,
        &prof_ds,
        &sweep_config,
        &SweepOptions::warm(),
    )
    .unwrap();
    let warm_graph_sweep = sweep_parallel_with(
        &pipeline,
        &prof_tau0s,
        &prof_ds,
        &sweep_config,
        &SweepOptions::warm_graph(),
    )
    .unwrap();
    let (warm_rows_iters, warm_graph_iters) = (
        total_iters(&warm_rows_sweep),
        total_iters(&warm_graph_sweep),
    );
    let snap = progress.registry().snapshot();
    let prof_steals = snap.total("rtsdf_sweep_steals");
    let prof_claims = snap.total("rtsdf_sweep_cells_claimed");
    let busy: Vec<f64> = snap
        .family("rtsdf_sweep_worker_busy_fraction")
        .map(|f| f.samples.iter().map(|s| s.value).collect())
        .unwrap_or_default();
    let busy_min = busy.iter().copied().fold(f64::INFINITY, f64::min);
    let busy_mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;

    let results = c.take_results();
    let cells = (rows * cols) as f64;
    let chunked = mean_ns(&results, "sweep/chunked");
    let ws = mean_ns(&results, "sweep/work_stealing");
    let warm_ws = mean_ns(&results, "sweep/warm_work_stealing");
    let paper = mean_ns(&results, "sweep/paper_64x64");
    let paper_cells = (paper_tau0s.len() * paper_ds.len()) as f64;
    let cells_per_sec = |ns: f64| cells / (ns / 1e9);
    let per_sec = |count: f64, ns: f64| count / (ns / 1e9);
    println!();
    println!(
        "sweep {rows}x{cols}: work stealing {:.0} cells/s vs chunked {:.0} cells/s ({:.2}x)",
        cells_per_sec(ws),
        cells_per_sec(chunked),
        chunked / ws
    );
    println!(
        "sweep paper 64x64, one worker: {:.0} cells/s",
        paper_cells / (paper / 1e9)
    );
    println!(
        "solver: cold {cold_iters} iters, warm {warm_iters} iters, monolithic {mono_iters} evals"
    );
    println!(
        "profile {prof_rows}x{prof_cols}: work stealing {:.2}s vs chunked {:.2}s ({:.2}x), \
         {prof_steals:.0} steals / {prof_claims:.0} cells, busy min {busy_min:.2} mean {busy_mean:.2}",
        prof_ws.as_secs_f64(),
        prof_chunked.as_secs_f64(),
        prof_chunked.as_secs_f64() / prof_ws.as_secs_f64(),
    );
    println!(
        "profile {prof_rows}x{prof_cols} warm: row chaining {warm_rows_iters} iters vs graph {warm_graph_iters} iters"
    );

    let Some(format) = metrics else { return };
    match format {
        MetricsFormat::Json => {
            let timing = |ns: f64| {
                json!({
                    "wall_micros": ns / 1e3,
                    "cells_per_sec": cells_per_sec(ns),
                })
            };
            let results_blob = json!({
                "tau0s": tau0s,
                "deadlines": ds,
                "sweep": json!({
                    "cells": cells,
                    "chunked": timing(chunked),
                    "work_stealing": timing(ws),
                    "warm_work_stealing": timing(warm_ws),
                    "paper_64x64": json!({
                        "wall_micros": paper / 1e3,
                        "cells_per_sec": paper_cells / (paper / 1e9),
                    }),
                    "speedup_vs_chunked": chunked / ws,
                }),
                "solver": json!({
                    "cold": json!({
                        "iterations": cold_iters,
                        "wall_micros": mean_ns(&results, "solver/cold") / 1e3,
                    }),
                    "warm": json!({
                        "iterations": warm_iters,
                        "wall_micros": mean_ns(&results, "solver/warm") / 1e3,
                    }),
                    "monolithic": json!({
                        "iterations": mono_iters,
                        "wall_micros": mean_ns(&results, "solver/monolithic") / 1e3,
                    }),
                }),
                "sim": json!({
                    "enforced": json!({
                        "wall_micros": mean_ns(&results, "sim/enforced") / 1e3,
                        "items_per_sec": per_sec(sim_items as f64, mean_ns(&results, "sim/enforced")),
                    }),
                    "enforced_200k": json!({
                        "wall_micros": mean_ns(&results, "sim/enforced_200k") / 1e3,
                        "items_per_sec": per_sec(long_items as f64, mean_ns(&results, "sim/enforced_200k")),
                    }),
                    "monolithic": json!({
                        "wall_micros": mean_ns(&results, "sim/monolithic") / 1e3,
                        "items_per_sec": per_sec(sim_items as f64, mean_ns(&results, "sim/monolithic")),
                    }),
                }),
                "stats": json!({
                    "histogram": json!({
                        "wall_micros": mean_ns(&results, "stats/histogram") / 1e3,
                        "samples_per_sec": per_sec(stats_samples as f64, mean_ns(&results, "stats/histogram")),
                    }),
                }),
                "work_steal_profile": json!({
                    "grid_rows": prof_rows,
                    "grid_cols": prof_cols,
                    "chunked": json!({
                        "wall_micros": prof_chunked.as_secs_f64() * 1e6,
                        "cells_per_sec": (prof_rows * prof_cols) as f64 / prof_chunked.as_secs_f64(),
                    }),
                    "work_stealing": json!({
                        "wall_micros": prof_ws.as_secs_f64() * 1e6,
                        "cells_per_sec": (prof_rows * prof_cols) as f64 / prof_ws.as_secs_f64(),
                    }),
                    "speedup_vs_chunked": prof_chunked.as_secs_f64() / prof_ws.as_secs_f64(),
                    "steals": prof_steals,
                    "cells_claimed": prof_claims,
                    "busy_fraction_min": busy_min,
                    "busy_fraction_mean": busy_mean,
                    "warm_rows": json!({ "iterations": warm_rows_iters }),
                    "warm_graph": json!({ "iterations": warm_graph_iters }),
                }),
            });
            let config_blob = json!({
                "grid_rows": rows,
                "grid_cols": cols,
                "sweep": sweep_config,
                "sim_items": sim_items,
                "sim_long_items": long_items,
            });
            let path = RunManifest::new("perf", config_blob, results_blob)
                .write()
                .expect("metrics written");
            eprintln!("wrote {}", path.display());
        }
        MetricsFormat::Csv => {
            let rows: Vec<Vec<String>> = results
                .iter()
                .map(|r| {
                    vec![
                        r.id.clone(),
                        format!("{:.0}", r.mean_ns),
                        format!("{:.0}", r.min_ns),
                        r.samples.to_string(),
                    ]
                })
                .collect();
            let path = write_metrics_csv("perf", &["id", "mean_ns", "min_ns", "samples"], &rows)
                .expect("metrics written");
            eprintln!("wrote {}", path.display());
        }
    }
}
