//! Criterion bench: exact water-filling on deep synthetic chains.
//!
//! The paper's pipelines are 4 stages deep; this bench drives the
//! enforced-waits solver through the deterministic `deepchain`
//! workloads at N ∈ {4, 64, 512, 1000}, each at τ0 = 5 and twice the
//! smallest feasible deadline. Each depth's solve is timed cold, in
//! batches interleaved across depths for `CRITERION_MEASURE_MS`
//! (default 300), and one schedule per depth is certified by the KKT
//! check outside the timed loop.
//!
//! Water-filling costs O(N) per deadline-price evaluation and takes a
//! handful of evaluations, so its wall time should grow at most
//! linearly in N. The scaling gate: the fastest solve at N = 1000 over
//! the fastest at N = 64 must stay ≤ 1000/64. The bench exits non-zero
//! when the gate fails or a schedule is not KKT-optimal, and
//! `--metrics json` writes the measurements to `BENCH_deep.json`
//! (per-depth `iterations` gated by `bench_diff`, wall times
//! informational) so CI tracks the trajectory.
//!
//! ```text
//! cargo bench -p bench --bench solver_deep -- [--metrics json]
//! ```

use bench::manifest::RunManifest;
use rtsdf::core::minimal_periods;
use rtsdf::prelude::*;
use serde_json::json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Chain depths to measure (the gate compares 1000 vs 64).
const DEPTHS: &[usize] = &[4, 64, 512, 1000];

/// Largest allowed min-wall ratio N=1000 / N=64: linear scaling.
const MAX_WALL_RATIO: f64 = 1000.0 / 64.0;

/// Active-constraint and optimality tolerances of the KKT check.
const KKT_ACTIVE_TOL: f64 = 1e-5;
const KKT_TOL: f64 = 1e-3;

/// Stages solved per timed batch: a batch runs `BATCH_STAGES / N`
/// solves, a few milliseconds at every depth.
const BATCH_STAGES: usize = 32_000;

/// Timed rounds at least, whatever the measurement window.
const MIN_ROUNDS: usize = 5;

/// One depth's measurements.
struct DepthRow {
    n: usize,
    wall_micros: f64,
    min_wall_micros: f64,
    iterations: u64,
    active_fraction: f64,
    stationarity: f64,
}

/// Mean and fastest per-solve wall (µs) of each problem. Each round
/// times one batch per depth, depths interleaved, so a slow stretch of
/// the host hits every depth alike; rounds repeat until `window` has
/// passed. The fastest batch mean is the stable measure of what the
/// work itself costs.
fn time_solves(probs: &[EnforcedProblem<'_>], window: Duration) -> Vec<(f64, f64)> {
    let mut sums = vec![(0.0, 0usize); probs.len()];
    let mut mins = vec![f64::INFINITY; probs.len()];
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed() < window {
        for (k, prob) in probs.iter().enumerate() {
            let solves = (BATCH_STAGES / prob.topology().len()).max(1);
            let t0 = Instant::now();
            for _ in 0..solves {
                black_box(prob.solve().unwrap());
            }
            let total = t0.elapsed().as_secs_f64() * 1e6;
            sums[k] = (sums[k].0 + total, sums[k].1 + solves);
            mins[k] = mins[k].min(total / solves as f64);
        }
        rounds += 1;
    }
    (sums.iter().zip(mins))
        .map(|(&(sum, count), min)| (sum / count as f64, min))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let metrics = bench::parse_metrics_flag(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // Same knob as the other benches: the measurement window.
    let window_ms = std::env::var("CRITERION_MEASURE_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);

    let chains: Vec<Topology> = DEPTHS
        .iter()
        .map(|&n| {
            Topology::chain(&rtsdf::apps::deepchain::deep_chain(n).expect("deep chain builds"))
        })
        .collect();
    let probs: Vec<EnforcedProblem<'_>> = chains
        .iter()
        .map(|t| {
            let b = EnforcedProblem::optimistic_backlog(t);
            let min_d: f64 = minimal_periods(t)
                .iter()
                .zip(&b)
                .map(|(x, bi)| x * bi)
                .sum();
            let params = RtParams::new(5.0, min_d * 2.0).expect("valid operating point");
            EnforcedProblem::new(t, params, b)
        })
        .collect();

    // Outside the timed loop: one schedule per depth, KKT-certified.
    let mut rows = Vec::with_capacity(DEPTHS.len());
    let mut uncertified = Vec::new();
    for (&n, prob) in DEPTHS.iter().zip(&probs) {
        let sched = prob.solve().expect("deep chain is schedulable");
        let kkt = prob.verify_kkt(&sched.periods, KKT_ACTIVE_TOL);
        if !kkt.is_optimal(KKT_TOL) {
            uncertified.push(n);
        }
        rows.push(DepthRow {
            n,
            wall_micros: f64::NAN,
            min_wall_micros: f64::NAN,
            iterations: sched.telemetry.map_or(0, |t| t.iterations),
            active_fraction: sched.active_fraction,
            stationarity: kkt.stationarity_residual,
        });
    }
    let timings = time_solves(&probs, Duration::from_millis(window_ms));
    for (row, (mean, min)) in rows.iter_mut().zip(timings) {
        (row.wall_micros, row.min_wall_micros) = (mean, min);
    }

    println!();
    for row in &rows {
        println!(
            "N={:<5} {:>9.2} µs/solve (min {:>9.2})  {:>3} price evaluations  KKT residual {:.1e}",
            row.n, row.wall_micros, row.min_wall_micros, row.iterations, row.stationarity,
        );
    }

    let at = |n: usize| rows.iter().find(|r| r.n == n).expect("depth measured");
    let wall_ratio = at(1000).min_wall_micros / at(64).min_wall_micros;
    println!("scaling: min wall N=1000 / N=64 = {wall_ratio:.2}x (gate: <= {MAX_WALL_RATIO}x)");

    if metrics {
        let mut depths = serde_json::Map::new();
        for row in &rows {
            depths.insert(
                format!("n{}", row.n),
                json!({
                    "wall_micros": row.wall_micros,
                    "min_wall_micros": row.min_wall_micros,
                    "iterations": row.iterations,
                    "active_fraction_value": row.active_fraction,
                    "kkt_stationarity_residual": row.stationarity,
                }),
            );
        }
        let results_blob = json!({
            "depths": depths,
            "scaling": json!({
                "min_wall_ratio_1000_over_64": wall_ratio,
                "max_allowed_wall_ratio": MAX_WALL_RATIO,
            }),
        });
        let config_blob = json!({
            "depths": DEPTHS,
            "tau0": 5.0,
            "deadline_over_minimum": 2.0,
        });
        let path = RunManifest::new("deep", config_blob, results_blob)
            .write()
            .expect("metrics written");
        eprintln!("wrote {}", path.display());
    }

    if !uncertified.is_empty() {
        eprintln!("FAIL: water-filling schedules at N = {uncertified:?} are not KKT-optimal");
        std::process::exit(1);
    }
    // NaN (a missing measurement) must fail the gate too.
    if wall_ratio.is_nan() || wall_ratio > MAX_WALL_RATIO {
        eprintln!(
            "FAIL: min wall N=1000 / N=64 = {wall_ratio:.2}x exceeds {MAX_WALL_RATIO}x — \
             water-filling has stopped scaling linearly in depth"
        );
        std::process::exit(1);
    }
}
