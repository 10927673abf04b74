//! Experiment E7 (extension) — a-priori backlog factors from
//! bulk-service queueing theory vs the empirical calibration.
//!
//! The paper's §7 proposes deriving the `b_i` from queueing theory
//! rather than simulation. This binary runs both routes on the same
//! operating points and prints them side by side.
//!
//! ```text
//! cargo run --release -p bench --bin apriori_b
//! ```

use rtsdf::prelude::*;
use rtsdf::queueing::estimate::{estimate_backlog_factors, EstimateConfig};
use rtsdf::sim::calibration::{calibrate_enforced, CalibrationConfig};

fn main() {
    let pipeline = rtsdf::blast::paper_pipeline();
    let points: Vec<RtParams> = [(10.0, 3e4), (10.0, 6e4), (20.0, 1e5)]
        .iter()
        .map(|&(t, d)| RtParams::new(t, d).unwrap())
        .collect();

    println!("a-priori (bulk-queue theory) backlog factors per operating point:");
    println!();
    let mut rows = Vec::new();
    for params in &points {
        // A schedule must exist before its queues can be analyzed; use
        // the paper's factors for the design, then estimate what the
        // theory would have prescribed.
        let sched = EnforcedProblem::new(
            &Topology::chain(&pipeline),
            *params,
            vec![1.0, 3.0, 9.0, 6.0],
        )
        .solve()
        .expect("feasible");
        let est = estimate_backlog_factors(
            &pipeline,
            &sched.periods,
            params.tau0,
            &EstimateConfig::default(),
        );
        rows.push(vec![
            format!("{:.0}", params.tau0),
            format!("{:.0}", params.deadline),
            format!("{:?}", est.iter().map(|e| e.b).collect::<Vec<_>>()),
            format!(
                "{:?}",
                est.iter()
                    .map(|e| (e.utilization * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            ),
            est.iter().any(|e| e.saturated).to_string(),
        ]);
    }
    print!(
        "{}",
        bench::render_table(
            &["tau0", "D", "b (theory)", "utilization", "saturated?"],
            &rows
        )
    );

    println!();
    println!("empirical calibration on the same points (scaled-down §6.2):");
    let result = calibrate_enforced(
        &pipeline,
        &CalibrationConfig {
            seeds_per_point: 12,
            stream_length: 6_000,
            ..CalibrationConfig::quick(points)
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("calibration failed: {e}");
        std::process::exit(1);
    });
    println!(
        "  b (empirical) = {:?} in {} rounds (converged: {})",
        result.b,
        result.rounds.len(),
        result.converged
    );
    println!("  b (paper)     = [1.0, 3.0, 9.0, 6.0]");
}
