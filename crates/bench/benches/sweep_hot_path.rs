//! Criterion bench: the end-to-end sweep hot path.
//!
//! Measures the three layers the sweep acceleration touched:
//!
//! * **Scheduling** — segment-level work stealing (`sweep`) on one
//!   deliberately *imbalanced* grid: its cheap, infeasible rows (τ0
//!   below the enforced head-stability limit ≈ 2.83) come first and its
//!   expensive feasible rows last, the shape a static row split would
//!   serialize behind one thread. Separately, the paper's 64×64 grid
//!   runs through `sweep` on one worker (`RTSDF_THREADS=1`), whose whole
//!   rows are the row kernel's segments; its cell rate does not depend
//!   on the core count, so `bench_diff` gates it.
//! * **Solver** — one enforced water-filling `solve` and the monolithic
//!   block-size search (`solve_fast`), each at its own bench point.
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
use rtsdf::core::comparison::{sweep, SweepConfig, SweepProgress};
use rtsdf::core::threads::THREADS_ENV;
use rtsdf::core::worker_threads;
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
    let topology = Topology::chain(&pipeline);
    let (tau0s, ds) = imbalanced_grid(rows, cols);
    let sweep_config = SweepConfig::paper_blast();
    let (paper_tau0s, paper_ds) = RtParams::paper_grid(64, 64);

    // This bench parses its own flags, so the shim's positional-filter
    // sniffing must be disabled.
    let mut c = Criterion::default().with_filter(None);

    {
        let mut group = c.benchmark_group("sweep");
        let run = |tau0s: &[f64], ds: &[f64]| sweep(&topology, tau0s, ds, &sweep_config, None);
        group.bench_function("work_stealing", |b| {
            b.iter(|| black_box(run(&tau0s, &ds).unwrap()))
        });
        let threads = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "1");
        group.bench_function("paper_64x64", |b| {
            b.iter(|| black_box(run(&paper_tau0s, &paper_ds).unwrap()))
        });
        match threads {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
        group.finish();
    }

    // Solver: one feasible BLAST operating point.
    let point = RtParams::new(10.0, 1e5).unwrap();
    let prob = EnforcedProblem::new(&topology, point, sweep_config.enforced_b.clone());
    // The monolithic block-size search, at the monolithic simulator's
    // operating point.
    let mono_prob = MonolithicProblem::new(&pipeline, RtParams::new(50.0, 1e5).unwrap(), 1.0, 1.0);
    {
        let mut group = c.benchmark_group("solver");
        group.bench_function("cold", |b| b.iter(|| black_box(prob.solve().unwrap())));
        group.bench_function("monolithic", |b| {
            b.iter(|| black_box(mono_prob.solve_fast().unwrap()))
        });
        group.finish();
    }
    let cold_sched = prob.solve().unwrap();
    let cold_iters = cold_sched.telemetry.as_ref().map_or(0, |t| t.iterations);
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
    let enforced_run =
        |cfg: &SimConfig| enforced::simulate(&topology, &cold_sched, 1e5, cfg, Hooks::default());
    {
        let mut group = c.benchmark_group("sim");
        group.bench_function("enforced", |b| b.iter(|| black_box(enforced_run(&sim_cfg))));
        group.bench_function("enforced_200k", |b| {
            b.iter(|| black_box(enforced_run(&long_cfg)))
        });
        group.bench_function("monolithic", |b| {
            b.iter(|| {
                black_box(monolithic::simulate(
                    &topology,
                    &mono_sched,
                    1e5,
                    &mono_cfg,
                    Hooks::default(),
                ))
            })
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

    // Production-scale work-stealing profile on a 64×64 imbalanced grid.
    // One timed pass, not a criterion group: at 4096 cells one pass is
    // already seconds, and the wall keys are informational. The pass
    // publishes into a live metrics registry so the row records actual
    // steals and per-worker busy fractions.
    let (prof_rows, prof_cols) = (64usize, 64usize);
    let (prof_tau0s, prof_ds) = imbalanced_grid(prof_rows, prof_cols);
    let progress = SweepProgress::new(worker_threads());
    let t0 = Instant::now();
    let _ = sweep(
        &topology,
        &prof_tau0s,
        &prof_ds,
        &sweep_config,
        Some(&progress),
    )
    .unwrap();
    let prof_ws = t0.elapsed();
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
    let ws = mean_ns(&results, "sweep/work_stealing");
    let paper = mean_ns(&results, "sweep/paper_64x64");
    let paper_cells = (paper_tau0s.len() * paper_ds.len()) as f64;
    let cells_per_sec = |ns: f64| cells / (ns / 1e9);
    let per_sec = |count: f64, ns: f64| count / (ns / 1e9);
    println!();
    println!(
        "sweep {rows}x{cols}: work stealing {:.0} cells/s",
        cells_per_sec(ws)
    );
    println!(
        "sweep paper 64x64, one worker: {:.0} cells/s",
        paper_cells / (paper / 1e9)
    );
    println!("solver: enforced {cold_iters} iters, monolithic {mono_iters} evals");
    println!(
        "profile {prof_rows}x{prof_cols}: work stealing {:.2}s, \
         {prof_steals:.0} steals / {prof_claims:.0} cells, busy min {busy_min:.2} mean {busy_mean:.2}",
        prof_ws.as_secs_f64(),
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
                    "work_stealing": timing(ws),
                    "paper_64x64": json!({
                        "wall_micros": paper / 1e3,
                        "cells_per_sec": paper_cells / (paper / 1e9),
                    }),
                }),
                "solver": json!({
                    "cold": json!({
                        "iterations": cold_iters,
                        "wall_micros": mean_ns(&results, "solver/cold") / 1e3,
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
                    "work_stealing": json!({
                        "wall_micros": prof_ws.as_secs_f64() * 1e6,
                        "cells_per_sec": (prof_rows * prof_cols) as f64 / prof_ws.as_secs_f64(),
                    }),
                    "steals": prof_steals,
                    "cells_claimed": prof_claims,
                    "busy_fraction_min": busy_min,
                    "busy_fraction_mean": busy_mean,
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
