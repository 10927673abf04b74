//! Integration of the additional applications (gamma, IDS, cascade) and
//! the measured BLAST variant with the full scheduling + simulation
//! stack.

use rtsdf::apps::{cascade, gamma, ids};
use rtsdf::prelude::*;

/// Schedule a pipeline at an operating point and check the simulator
/// confirms the prediction; returns (predicted, measured, miss rate).
fn schedule_and_simulate(
    pipeline: &PipelineSpec,
    tau0: f64,
    d: f64,
    b: Vec<f64>,
    items: usize,
) -> (f64, f64, f64) {
    let params = RtParams::new(tau0, d).unwrap();
    let sched = EnforcedProblem::new(&Topology::chain(pipeline), params, b)
        .solve()
        .unwrap_or_else(|e| panic!("infeasible at tau0={tau0}, D={d}: {e}"));
    let cfg = SimConfig::quick(tau0, 5, items);
    let m = enforced::simulate(
        &Topology::chain(pipeline),
        &sched,
        d,
        &cfg,
        Hooks::default(),
    )
    .unwrap();
    (sched.active_fraction, m.active_fraction, m.miss_rate())
}

#[test]
fn gamma_pipeline_schedules_and_validates() {
    let p = gamma::synthesize(&gamma::GammaConfig::default(), 1).unwrap();
    let b: Vec<f64> = p
        .mean_gains()
        .iter()
        .map(|g| (g.ceil() + 1.0).max(2.0))
        .collect();
    let (predicted, measured, miss) = schedule_and_simulate(&p, 40.0, 8e4, b, 6_000);
    assert!(
        (predicted - measured).abs() / predicted < 0.06,
        "gamma agreement: {predicted} vs {measured}"
    );
    assert!(miss < 0.02, "gamma miss rate {miss}");
}

#[test]
fn ids_pipeline_schedules_and_validates() {
    let p = ids::synthesize(&ids::IdsConfig::default(), 2).unwrap();
    let b: Vec<f64> = p
        .mean_gains()
        .iter()
        .map(|g| (g.ceil() + 1.0).max(2.0))
        .collect();
    let (predicted, measured, miss) = schedule_and_simulate(&p, 60.0, 1e5, b, 6_000);
    assert!(
        (predicted - measured).abs() / predicted < 0.06,
        "ids agreement: {predicted} vs {measured}"
    );
    assert!(miss < 0.02, "ids miss rate {miss}");
}

#[test]
fn cascade_pipeline_schedules_and_validates() {
    let p = cascade::synthesize(&cascade::CascadeConfig::default(), 3).unwrap();
    let b: Vec<f64> = p
        .mean_gains()
        .iter()
        .map(|g| (g.ceil() + 1.0).max(2.0))
        .collect();
    let (predicted, measured, miss) = schedule_and_simulate(&p, 50.0, 1.2e5, b, 6_000);
    assert!(
        (predicted - measured).abs() / predicted < 0.06,
        "cascade agreement: {predicted} vs {measured}"
    );
    assert!(miss < 0.02, "cascade miss rate {miss}");
}

#[test]
fn measured_blast_variant_flows_through_the_stack() {
    // The fully measured Table-1 analogue (synthetic sequences + SIMT
    // kernels) must be schedulable and simulate consistently, just like
    // the paper-constant pipeline.
    let cfg = rtsdf::blast::MeasurementConfig {
        genome_len: 40_000,
        query_len: 16_000,
        positions: 12_000,
        ..rtsdf::blast::MeasurementConfig::default()
    };
    let (p, table) = rtsdf::blast::measure_pipeline(&cfg).unwrap();
    assert_eq!(table.rows.len(), 4);
    let b: Vec<f64> = p
        .mean_gains()
        .iter()
        .map(|g| (g.ceil() + 2.0).max(3.0))
        .collect();
    let (predicted, measured, miss) = schedule_and_simulate(&p, 40.0, 4e5, b, 5_000);
    assert!(
        (predicted - measured).abs() / predicted < 0.08,
        "measured-blast agreement: {predicted} vs {measured}"
    );
    assert!(miss < 0.05, "measured-blast miss rate {miss}");
}

#[test]
fn all_apps_have_the_irregular_shape() {
    // Every bundled application must actually be irregular: at least
    // one attenuating stage and (for the expanders) a stage with
    // variance — otherwise they would not exercise the paper's problem.
    let pipelines = [
        gamma::synthesize(&gamma::GammaConfig::default(), 9).unwrap(),
        ids::synthesize(&ids::IdsConfig::default(), 9).unwrap(),
        cascade::synthesize(&cascade::CascadeConfig::default(), 9).unwrap(),
    ];
    for p in &pipelines {
        let gains = p.mean_gains();
        assert!(
            gains.iter().any(|&g| g < 0.9),
            "no attenuating stage: {gains:?}"
        );
        let has_variance = p.nodes().iter().any(|n| n.gain.variance() > 1e-6);
        assert!(has_variance, "no stochastic stage");
        // End-to-end gain far from 1 — data volume changes through the
        // pipeline.
        assert!(p.end_to_end_gain() < 0.8, "{}", p.end_to_end_gain());
    }
}

#[test]
fn bursty_arrivals_stress_but_do_not_break_enforced_schedules() {
    let p = ids::synthesize(&ids::IdsConfig::default(), 4).unwrap();
    let t = Topology::chain(&p);
    let params = RtParams::new(60.0, 1.2e5).unwrap();
    let b: Vec<f64> = p
        .mean_gains()
        .iter()
        .map(|g| (g.ceil() + 2.0).max(3.0))
        .collect();
    let sched = EnforcedProblem::new(&t, params, b).solve().unwrap();
    let mut cfg = SimConfig::quick(60.0, 11, 8_000);
    cfg.arrivals = ArrivalProcess::Bursty {
        tau_on: 20.0,
        on_mean: 1_500.0,
        off_mean: 3_000.0,
    };
    let m = enforced::simulate(&t, &sched, params.deadline, &cfg, Hooks::default()).unwrap();
    assert!(
        !m.truncated,
        "bursty load must not destabilize the schedule"
    );
    assert!(
        m.miss_rate() < 0.2,
        "bursty miss rate {} unexpectedly catastrophic",
        m.miss_rate()
    );
}
