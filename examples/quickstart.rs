//! Quickstart: define a small irregular pipeline, optimize both
//! scheduling strategies, and validate the chosen schedule in the
//! discrete-event simulator.
//!
//! Run with:
//! ```text
//! cargo run --release -p rtsdf --example quickstart
//! ```

use rtsdf::prelude::*;

fn main() {
    // A three-stage pipeline: a filter, an expander, and an expensive
    // final stage — the shape that makes SIMD scheduling interesting.
    let pipeline = PipelineSpecBuilder::new(64)
        .stage("prefilter", 120.0, GainModel::Bernoulli { p: 0.5 })
        .stage(
            "expand",
            400.0,
            GainModel::CensoredPoisson { mean: 2.5, cap: 8 },
        )
        .stage("finalize", 900.0, GainModel::Deterministic { k: 1 })
        .build()
        .expect("valid pipeline");

    // Operating point: one item every 30 cycles, 40 000-cycle deadline.
    let params = RtParams::new(30.0, 4e4).expect("valid parameters");
    println!(
        "pipeline: {} stages, v = {}",
        pipeline.len(),
        pipeline.vector_width()
    );
    println!(
        "operating point: tau0 = {}, D = {}",
        params.tau0, params.deadline
    );
    println!();

    // The design problems, like the simulator, take the pipeline as a
    // topology: the paper's chain is its special case.
    let topology = Topology::chain(&pipeline);

    // --- Strategy 1: enforced waits (the paper's contribution) -------
    let b = EnforcedProblem::optimistic_backlog(&topology);
    let problem = EnforcedProblem::new(&topology, params, b);
    let enforced = problem.solve().expect("feasible operating point");
    println!("enforced waits:");
    for (i, (w, x)) in enforced.waits.iter().zip(&enforced.periods).enumerate() {
        println!("  node {i}: wait {w:8.1} cycles  (fires every {x:8.1})");
    }
    println!(
        "  predicted active fraction: {:.4}",
        enforced.active_fraction
    );

    // Certify optimality via the KKT conditions — an independent check
    // on whichever solver produced the schedule.
    let report = problem.verify_kkt(&enforced.periods, 1e-5);
    println!(
        "  KKT certificate: stationarity {:.2e}, active constraints: {:?}",
        report.stationarity_residual, report.active
    );
    println!();

    // --- Strategy 2: monolithic batching (the baseline) --------------
    let monolithic = MonolithicProblem::new(&topology, params, 1.0, 1.0)
        .solve_fast()
        .expect("feasible operating point");
    println!("monolithic baseline:");
    println!("  block size M = {}", monolithic.block_size);
    println!(
        "  predicted active fraction: {:.4}",
        monolithic.active_fraction
    );
    println!();

    // --- Validate in simulation --------------------------------------
    let config = SimConfig::quick(params.tau0, 7, 20_000);
    let measured = enforced::simulate(
        &topology,
        &enforced,
        params.deadline,
        &config,
        Hooks::default(),
    )
    .expect("the schedule fits the pipeline");
    println!("simulation of the enforced-waits schedule (20 000 items):");
    println!(
        "  measured active fraction: {:.4} (predicted {:.4})",
        measured.active_fraction, enforced.active_fraction
    );
    println!(
        "  deadline misses: {} / {} ({:.3}%)",
        measured.deadline_misses,
        measured.items_arrived,
        100.0 * measured.miss_rate()
    );
    println!(
        "  mean lane occupancy per node: {:?}",
        measured
            .occupancy
            .iter()
            .map(|o| (o.mean_occupancy() * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!(
        "  p50/p99-ish latency: mean {:.0} cycles, max {:.0} cycles",
        measured.latency.mean(),
        measured.latency.max().unwrap_or(0.0)
    );

    let winner = if enforced.active_fraction < monolithic.active_fraction {
        "enforced waits"
    } else {
        "monolithic"
    };
    println!();
    println!(
        "verdict at this operating point: {winner} wins ({:.4} vs {:.4})",
        enforced.active_fraction, monolithic.active_fraction
    );
}
