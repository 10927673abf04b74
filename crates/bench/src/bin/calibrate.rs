//! Experiment E2 — the §6.2 backlog-factor calibration.
//!
//! Runs the escalation loop (optimize → simulate across seeds → raise
//! the factors of overflowing nodes) on a grid of operating points and
//! prints the per-round history. Flags scale the methodology:
//!
//! ```text
//! cargo run --release -p bench --bin calibrate            # scaled-down
//! cargo run --release -p bench --bin calibrate -- --full  # paper scale
//! ```
//!
//! Paper scale means 50 000-item streams and 100 seeds per grid point
//! (several minutes); the scaled-down run preserves the methodology at
//! a fraction of the cost. `--metrics json` writes a
//! `BENCH_calibrate.json` run manifest with the per-round history.

use bench::RunManifest;
use rtsdf::prelude::*;
use rtsdf::sim::calibration::{calibrate_enforced, CalibrationConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let metrics = bench::parse_metrics_flag(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let blast = Topology::chain(&rtsdf::blast::paper_pipeline());
    // The grid mixes tight deadlines (where optimistic factors fail and
    // escalation has to work) with relaxed ones (where any factors
    // pass) — the paper's calibration likewise had to survive its whole
    // (tau0, D) grid at once.
    let grid: Vec<RtParams> = [
        (5.0, 2.5e4),
        (10.0, 3e4),
        (5.0, 5e4),
        (10.0, 1e5),
        (30.0, 1.5e5),
        (80.0, 3e5),
    ]
    .iter()
    .map(|&(t, d)| RtParams::new(t, d).unwrap())
    .collect();

    let config = if full {
        CalibrationConfig {
            grid,
            seeds_per_point: 100,
            stream_length: 50_000,
            target_miss_free: 0.95,
            max_rounds: 16,
            b_cap: 64.0,
        }
    } else {
        CalibrationConfig {
            seeds_per_point: 16,
            stream_length: 8_000,
            ..CalibrationConfig::quick(grid)
        }
    };

    println!(
        "calibrating enforced-waits backlog factors ({} seeds x {} items per grid point)",
        config.seeds_per_point, config.stream_length
    );
    println!(
        "grid: {} operating points; target: >= {:.0}% miss-free seeds everywhere",
        config.grid.len(),
        100.0 * config.target_miss_free
    );
    println!();

    let result = calibrate_enforced(&blast, &config).unwrap_or_else(|e| {
        eprintln!("calibration failed: {e}");
        std::process::exit(1);
    });

    if metrics {
        let path = RunManifest::new(
            "calibrate",
            serde_json::to_value(&config).expect("config serializes"),
            serde_json::to_value(&result).expect("result serializes"),
        )
        .write()
        .expect("manifest written");
        eprintln!("wrote {}", path.display());
    }

    let rows: Vec<Vec<String>> = result
        .rounds
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                i.to_string(),
                format!("{:?}", r.b),
                format!("{:.2}", r.worst_miss_free),
                r.worst_point
                    .map_or("-".into(), |(t, d)| format!("({t:.0}, {d:.0})")),
                format!(
                    "{:?}",
                    r.observed_backlog
                        .iter()
                        .map(|b| (b * 100.0).round() / 100.0)
                        .collect::<Vec<_>>()
                ),
            ]
        })
        .collect();
    print!(
        "{}",
        bench::render_table(
            &[
                "round",
                "b",
                "worst miss-free",
                "worst point",
                "observed backlog (vectors)"
            ],
            &rows
        )
    );
    println!();
    println!(
        "final b = {:?} (converged: {}); paper's full-scale calibration: b = [1, 3, 9, 6]",
        result.b, result.converged
    );
}
