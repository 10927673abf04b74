//! Bench: cost of the live-metrics layer on the simulator
//! hot loop.
//!
//! Two measurements of the same fixed-seed enforced-waits BLAST run:
//!
//! * **disabled** — `enforced::simulate` with `Hooks::default()`. The
//!   live layer is compiled in but detached (`live = None`), so its
//!   cost is one untaken branch per event. This is the configuration
//!   every experiment runs in, and its `items_per_sec` is the gated
//!   key: `bench_diff --throughput-threshold 0.01` against the
//!   committed baseline enforces that attaching the telemetry layer to
//!   the codebase cost the uninstrumented hot loop less than 1%.
//! * **enabled** — the same call with `Hooks::live` publishing counters, queue
//!   high-water marks, and throughput gauges into a real registry. Its
//!   rate is informational (instrumentation is allowed to cost
//!   something); the printed overhead fraction documents how much.
//!
//! The monolithic loop gets the same treatment at block granularity.
//!
//! The two variants are timed in one window, interleaved run by run
//! (disabled, enabled, enabled, disabled, …), for
//! `CRITERION_MEASURE_MS` (default 300) per simulator. A slow stretch of
//! a shared host then hits both alike, so the overhead fraction — the
//! fastest enabled run over the fastest disabled run — does not swing
//! with window-to-window load the way two separate windows did.
//!
//! ```text
//! cargo bench -p bench --bench metrics_overhead -- [--metrics json]
//! ```

use bench::manifest::RunManifest;
use rtsdf::prelude::*;
use rtsdf::sim::SimLiveMetrics;
use serde_json::json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed runs per variant at least, whatever the window.
const MIN_RUNS: usize = 20;

/// Mean and fastest wall time (ns) of one variant.
#[derive(Clone, Copy)]
struct Timing {
    mean_ns: f64,
    min_ns: f64,
}

/// Time `disabled` and `enabled` alternately until `window` has passed,
/// swapping which goes first every round so neither always runs on the
/// other's warm caches. Returns (disabled, enabled).
fn interleaved(
    window: Duration,
    mut disabled: impl FnMut(),
    mut enabled: impl FnMut(),
) -> (Timing, Timing) {
    // Warm-up: page in both paths before timing either.
    disabled();
    enabled();
    let mut sums = [0.0f64; 2];
    let mut mins = [f64::INFINITY; 2];
    let mut runs = 0usize;
    let started = Instant::now();
    while runs < MIN_RUNS || started.elapsed() < window {
        for k in [runs % 2, 1 - runs % 2] {
            let t0 = Instant::now();
            if k == 0 {
                disabled();
            } else {
                enabled();
            }
            let ns = t0.elapsed().as_nanos() as f64;
            sums[k] += ns;
            mins[k] = mins[k].min(ns);
        }
        runs += 1;
    }
    let timing = |k: usize| Timing {
        mean_ns: sums[k] / runs as f64,
        min_ns: mins[k],
    };
    (timing(0), timing(1))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let metrics = bench::parse_metrics_flag(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let pipeline = rtsdf::blast::paper_pipeline();
    let topology = Topology::chain(&pipeline);

    // Same workload as sweep_hot_path's sim group, so the gated
    // disabled-path rate is comparable across the two manifests.
    let items = 2_000usize;
    let enf_cfg = SimConfig::quick(10.0, 7, items);
    let mono_cfg = SimConfig::quick(50.0, 7, items);
    let enf_sched = EnforcedProblem::new(
        &Topology::chain(&pipeline),
        RtParams::new(10.0, 1e5).unwrap(),
        vec![1.0, 3.0, 9.0, 6.0],
    )
    .solve()
    .expect("enforced point is feasible");
    let mono_sched = MonolithicProblem::new(&pipeline, RtParams::new(50.0, 1e5).unwrap(), 1.0, 1.0)
        .solve_fast()
        .expect("monolithic point is feasible");

    // One registry reused across iterations: steady-state publishing
    // cost, not registry construction.
    let live = SimLiveMetrics::new(pipeline.len(), 1);

    let window_ms = std::env::var("CRITERION_MEASURE_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(300);
    let window = Duration::from_millis(window_ms);
    let enforced_run =
        |hooks: Hooks<'_>| enforced::simulate(&topology, &enf_sched, 1e5, &enf_cfg, hooks);
    let monolithic_run =
        |hooks: Hooks<'_>| monolithic::simulate(&topology, &mono_sched, 1e5, &mono_cfg, hooks);
    type Run<'r> = &'r dyn Fn(Hooks<'_>) -> Result<SimMetrics, SimError>;
    let runs: [(&str, Run); 2] = [("enforced", &enforced_run), ("monolithic", &monolithic_run)];
    let [(enf_off, enf_on), (mono_off, mono_on)] = runs.map(|(strategy, run)| {
        let (off, on) = interleaved(
            window,
            || {
                black_box(run(Hooks::default()).unwrap());
            },
            || {
                let h = live.handle(0);
                let hooks = Hooks {
                    live: Some(&h),
                    ..Hooks::default()
                };
                black_box(run(hooks).unwrap());
            },
        );
        for (variant, t) in [("disabled", off), ("enabled", on)] {
            println!(
                "bench {:<40} mean {:>9.1} µs  min {:>9.1} µs",
                format!("{strategy}/{variant}"),
                t.mean_ns / 1e3,
                t.min_ns / 1e3
            );
        }
        (off, on)
    });

    let rate = |t: Timing| items as f64 / (t.min_ns / 1e9);
    let overhead = |off: Timing, on: Timing| on.min_ns / off.min_ns - 1.0;
    println!();
    println!(
        "enforced:   disabled {:.2}M items/s, enabled {:.2}M items/s (publishing overhead {:+.2}%)",
        rate(enf_off) / 1e6,
        rate(enf_on) / 1e6,
        100.0 * overhead(enf_off, enf_on),
    );
    println!(
        "monolithic: disabled {:.2}M items/s, enabled {:.2}M items/s (publishing overhead {:+.2}%)",
        rate(mono_off) / 1e6,
        rate(mono_on) / 1e6,
        100.0 * overhead(mono_off, mono_on),
    );

    if !metrics {
        return;
    }
    // `items_per_sec` on the disabled paths is the gated key
    // (Throughput direction); the enabled rates use a
    // non-gated name on purpose — instrumented throughput is
    // informational.
    let results_blob = json!({
        "items": items,
        "sim": json!({
            "enforced": json!({
                "wall_micros": enf_off.min_ns / 1e3,
                "mean_wall_micros": enf_off.mean_ns / 1e3,
                "items_per_sec": rate(enf_off),
                "enabled_wall_micros": enf_on.min_ns / 1e3,
                "enabled_rate": rate(enf_on),
                "publish_overhead_fraction": overhead(enf_off, enf_on),
            }),
            "monolithic": json!({
                "wall_micros": mono_off.min_ns / 1e3,
                "mean_wall_micros": mono_off.mean_ns / 1e3,
                "items_per_sec": rate(mono_off),
                "enabled_wall_micros": mono_on.min_ns / 1e3,
                "enabled_rate": rate(mono_on),
                "publish_overhead_fraction": overhead(mono_off, mono_on),
            }),
        }),
    });
    let config_blob = json!({
        "items": items,
        "enforced_tau0": 10.0,
        "monolithic_tau0": 50.0,
        "deadline": 1e5,
        "seed": 7,
    });
    let manifest = RunManifest::new("metrics_overhead", config_blob, results_blob);
    match manifest.write() {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write manifest: {e}");
            std::process::exit(2);
        }
    }
}
