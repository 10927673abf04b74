//! Gamma-ray burst detection under a hard relay deadline.
//!
//! The paper's introduction motivates bounded-latency streaming with an
//! orbiting gamma-ray telescope: each photon event must be fully
//! processed quickly enough that a detected burst can be relayed to
//! ground instruments while still observable. This example synthesizes
//! that pipeline, schedules it with enforced waits, stress-tests the
//! schedule across many seeds, and shows the a-priori backlog estimate
//! from the bulk-queue theory next to the empirically calibrated one.
//!
//! Run with:
//! ```text
//! cargo run --release -p rtsdf --example gamma_ray_burst
//! ```

use rtsdf::apps::gamma::{synthesize, GammaConfig};
use rtsdf::prelude::*;
use rtsdf::queueing::estimate::{estimate_backlog_factors, EstimateConfig};
use rtsdf::sim::calibration::{calibrate_enforced, CalibrationConfig};

fn main() {
    // Synthesize the instrument pipeline: gains are *measured* from a
    // stream of synthetic photon events.
    let config = GammaConfig::default();
    let pipeline = synthesize(&config, 2024).expect("valid pipeline");
    println!(
        "gamma-ray pipeline (gains measured over {} events):",
        config.events
    );
    for (node, g_total) in pipeline.nodes().iter().zip(pipeline.total_gains()) {
        println!(
            "  {:<14} t = {:>6.0}  g = {:.4}  (traffic per photon: {:.4})",
            node.name,
            node.service_time,
            node.mean_gain(),
            g_total
        );
    }

    // Photons arrive every ~40 cycles; the burst alert must be out
    // within 60k cycles.
    let params = RtParams::new(40.0, 6e4).unwrap();

    // Calibrate backlog factors empirically (§6.2 methodology).
    println!();
    println!("calibrating backlog factors empirically...");
    let topology = Topology::chain(&pipeline);
    let calib = calibrate_enforced(&topology, &CalibrationConfig::quick(vec![params]))
        .expect("the operating point is feasible");
    println!(
        "  empirical b = {:?} (converged: {})",
        calib.b, calib.converged
    );

    // Schedule with the calibrated factors.
    let sched = EnforcedProblem::new(&topology, params, calib.b.clone())
        .solve()
        .expect("feasible");
    println!();
    println!("enforced-waits schedule:");
    for (i, w) in sched.waits.iter().enumerate() {
        println!("  node {i}: wait {w:.0} cycles");
    }
    println!("  predicted active fraction {:.4}", sched.active_fraction);

    // A-priori estimate from bulk-service queueing theory (the paper's
    // future work, §7) for comparison.
    let est = estimate_backlog_factors(
        &pipeline,
        &sched.periods,
        params.tau0,
        &EstimateConfig::default(),
    );
    println!(
        "  a-priori queueing-theory b = {:?}",
        est.iter().map(|e| e.b).collect::<Vec<_>>()
    );

    // Stress across seeds, the paper's schedulability statistic.
    println!();
    println!("stress test: 20 seeds x 10 000 photons...");
    let cfg = SimConfig::quick(params.tau0, 0, 10_000);
    let report = run_seeds(&cfg, 20, None, |c, h| {
        enforced::simulate(&topology, &sched, params.deadline, c, h)
    })
    .expect("the schedule fits the pipeline");
    println!(
        "  miss-free seeds: {:.0}%  worst per-seed miss rate: {:.4}%",
        100.0 * report.miss_free_fraction(),
        100.0 * report.worst_miss_rate()
    );
    println!(
        "  mean measured active fraction: {:.4}",
        report.mean_active_fraction()
    );

    // How much processor time did enforced waiting return to the
    // system relative to the monolithic baseline?
    match MonolithicProblem::new(&topology, params, 1.0, 1.0).solve_fast() {
        Ok(mono) => println!(
            "  monolithic baseline would occupy {:.4} — enforced waits frees {:+.1}% of the processor",
            mono.active_fraction,
            100.0 * (mono.active_fraction - sched.active_fraction)
        ),
        Err(e) => println!("  monolithic baseline infeasible here ({e})"),
    }
}
