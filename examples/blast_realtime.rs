//! The paper's evaluation, end to end, on the BLAST pipeline:
//!
//! 1. regenerate Table 1 — both the paper's constants and a freshly
//!    *measured* variant from synthetic sequences run through real
//!    seed/extend/filter/align computations and SIMT kernels;
//! 2. calibrate the backlog factors `b_i` the way §6.2 does;
//! 3. compare the two strategies across a slice of the (τ0, D) grid.
//!
//! Run with:
//! ```text
//! cargo run --release -p rtsdf --example blast_realtime
//! ```

use rtsdf::blast::{self, MeasurementConfig};
use rtsdf::core::comparison::{compare_at, SweepConfig};
use rtsdf::prelude::*;
use rtsdf::sim::calibration::{calibrate_enforced, CalibrationConfig};

fn main() {
    // ---- Table 1: paper constants vs. measured-from-synthetic-data ----
    let paper = blast::paper_table1();
    println!("Table 1 (paper, GTX 2080):");
    for row in &paper.rows {
        println!(
            "  {:<18} t = {:>6.0} cycles   g = {}",
            row.name,
            row.service_time,
            row.mean_gain.map_or("N/A".into(), |g| format!("{g:.4}")),
        );
    }

    println!();
    println!("Table 1 (measured on the simulated SIMT device, synthetic genome):");
    let (measured_pipeline, measured) =
        blast::measure_pipeline(&MeasurementConfig::default()).expect("measurement succeeds");
    for row in &measured.rows {
        println!(
            "  {:<18} t = {:>6.0} cycles   g = {}",
            row.name,
            row.service_time,
            row.mean_gain.map_or("N/A".into(), |g| format!("{g:.4}")),
        );
    }

    // ---- §6.2 calibration of the backlog factors ----------------------
    let chain = Topology::chain(&blast::paper_pipeline());
    println!();
    println!("calibrating backlog factors (scaled-down §6.2 methodology)...");
    let grid = vec![
        RtParams::new(5.0, 1e5).unwrap(),
        RtParams::new(20.0, 2e5).unwrap(),
    ];
    let result = calibrate_enforced(&chain, &CalibrationConfig::quick(grid))
        .expect("the grid has feasible points");
    println!(
        "  calibrated b = {:?} in {} round(s), converged = {}",
        result.b,
        result.rounds.len(),
        result.converged
    );
    println!("  (the paper's full-scale calibration arrived at b = [1, 3, 9, 6])");

    // ---- Strategy comparison across operating points -------------------
    println!();
    println!("strategy comparison (active fraction; lower is better):");
    println!(
        "  {:>6} {:>9} | {:>10} {:>10} {:>10}",
        "tau0", "D", "enforced", "monolith", "difference"
    );
    let cfg = SweepConfig::paper_blast();
    for &tau0 in &[4.0, 10.0, 25.0, 60.0, 100.0] {
        for &d in &[3e4, 1e5, 3.5e5] {
            let cell = compare_at(&chain, RtParams::new(tau0, d).unwrap(), &cfg)
                .expect("the paper's configuration is valid");
            let fmt = |x: Option<f64>| x.map_or("infeas".into(), |v| format!("{v:10.4}"));
            println!(
                "  {tau0:>6} {d:>9.0} | {} {} {}",
                fmt(cell.enforced),
                fmt(cell.monolithic),
                cell.difference()
                    .map_or("      n/a".into(), |v| format!("{v:+10.4}")),
            );
        }
    }
    println!();
    println!("(positive difference = enforced waits uses less of the processor)");

    // ---- Sanity: simulate the measured pipeline too --------------------
    let params = RtParams::new(30.0, 3e5).unwrap();
    let measured = Topology::chain(&measured_pipeline);
    let b = EnforcedProblem::optimistic_backlog(&measured);
    if let Ok(sched) = EnforcedProblem::new(&measured, params, b).solve() {
        let m = enforced::simulate(
            &measured,
            &sched,
            params.deadline,
            &SimConfig::quick(params.tau0, 1, 10_000),
            Hooks::default(),
        )
        .expect("the schedule fits the pipeline");
        println!(
            "measured-variant pipeline simulated at tau0=30, D=3e5: active {:.4} (predicted {:.4}), miss rate {:.4}",
            m.active_fraction, sched.active_fraction, m.miss_rate()
        );
    }
}
