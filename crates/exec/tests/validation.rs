//! Cross-validation of the threaded executor against the simulator.
//!
//! On a chain the two backends consume RNG substreams in the same item
//! order, so realized gains — and therefore every per-stage item count
//! — must match *exactly* at the same seed. Timing quantities (active
//! fraction, miss rate) agree statistically, which `sim_vs_real`
//! checks with a tolerance wide enough for a loaded CI machine; the
//! tight 10% gate runs in CI against release builds with longer runs.

use dataflow_model::{ArrivalProcess, GainModel, PipelineSpecBuilder, RtParams, Topology};
use des::obs::ObsSink;
use pipeline_sim::{enforced, monolithic, Hooks, SimConfig};
use rtsdf_core::{AnySchedule, EnforcedProblem, MonolithicProblem};
use rtsdf_exec::{run_enforced, run_monolithic, sim_vs_real, ExecConfig};

/// A small two-gain chain with a generous operating point so the
/// single-core emulation keeps up (total CPU demand well under 1).
fn chain() -> (Topology, RtParams, Vec<f64>) {
    let p = PipelineSpecBuilder::new(16)
        .stage("ingest", 60.0, GainModel::Bernoulli { p: 0.7 })
        .stage("refine", 90.0, GainModel::Deterministic { k: 1 })
        .stage("emit", 50.0, GainModel::Deterministic { k: 1 })
        .build()
        .unwrap();
    let topology = Topology::chain(&p);
    let xmin = rtsdf_core::minimal_periods(&topology);
    let v = topology.vector_width() as f64;
    // Arrival interval 3x the binding stage's per-item demand.
    let tau0 = xmin
        .iter()
        .zip(topology.total_gains())
        .map(|(x, g)| x * g / v)
        .fold(0.0f64, f64::max)
        * 3.0;
    let b = vec![2.0, 2.0, 2.0];
    let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
    let params = RtParams::new(tau0, min_d * 10.0).unwrap();
    (topology, params, b)
}

fn exec_config(params: &RtParams, stream: usize, seed: u64) -> ExecConfig {
    ExecConfig {
        stream_length: stream,
        seed,
        arrivals: ArrivalProcess::Periodic { tau0: params.tau0 },
        deadline: params.deadline,
        target_duration_secs: 0.2,
        min_burn_ns: 1_000.0,
        time_scale_ns: None,
    }
}

fn sim_config(params: &RtParams, stream: usize, seed: u64) -> SimConfig {
    SimConfig::quick(params.tau0, seed, stream)
}

#[test]
fn enforced_chain_item_counts_match_simulator_exactly() {
    let (topology, params, b) = chain();
    let schedule = EnforcedProblem::new(&topology, params, b).solve().unwrap();

    let seed = 11;
    let stream = 300;
    let mut sink = ObsSink::new(topology.len());
    let sim = enforced::simulate(
        &topology,
        &schedule,
        params.deadline,
        &sim_config(&params, stream, seed),
        Hooks {
            obs: Some(&mut sink),
            ..Hooks::default()
        },
    )
    .unwrap();
    let exec = run_enforced(&topology, &schedule, &exec_config(&params, stream, seed)).unwrap();

    assert!(exec.conservation_holds(), "completed + dropped != arrived");
    assert_eq!(exec.items_dropped, 0, "stable schedule must drain fully");
    assert_eq!(exec.items_arrived, sim.items_arrived);
    assert_eq!(exec.items_completed, sim.items_completed);

    // Same seed, same substreams, same FIFO consume order: per-stage
    // consumed counts are bit-identical, not merely close.
    let sim_obs = sink.report();
    for (i, stage) in exec.stages.iter().enumerate() {
        assert_eq!(
            stage.items_consumed, sim_obs.stages[i].sojourn.count,
            "stage {i} ({}) consumed a different item count than the simulator",
            stage.name
        );
    }
}

#[test]
fn monolithic_chain_matches_simulator_counts() {
    let (topology, params, _b) = chain();
    let chain_spec = topology.as_chain().unwrap();
    let schedule = MonolithicProblem::new(&chain_spec, params, 2.0, 1.0)
        .solve()
        .unwrap();
    assert!(schedule.block_size >= 1);

    let seed = 23;
    let stream = 240;
    let sim = monolithic::simulate(
        &topology,
        &schedule,
        params.deadline,
        &sim_config(&params, stream, seed),
        Hooks::default(),
    )
    .unwrap();
    let exec = run_monolithic(&topology, &schedule, &exec_config(&params, stream, seed)).unwrap();

    assert!(exec.conservation_holds());
    assert_eq!(exec.items_arrived, sim.items_arrived);
    assert_eq!(exec.items_completed, sim.items_completed);
    assert_eq!(exec.items_dropped, 0);
    // The block worker draws `sample_sum` from the same substreams in
    // the same topo order, so firing counts per node match exactly.
    assert!(exec.active_fraction > 0.0);
}

#[test]
fn sim_vs_real_agreement_on_chain() {
    let (topology, params, b) = chain();
    let schedule = EnforcedProblem::new(&topology, params, b).solve().unwrap();
    let config = exec_config(&params, 300, 7);

    // Debug build on a possibly-loaded machine: a loose tolerance
    // guards the *mechanism*; the tight threshold is CI's release gate.
    let report = sim_vs_real(
        &topology,
        &AnySchedule::from(schedule),
        &config,
        &[1, 2, 3],
        0.35,
    )
    .unwrap();

    assert_eq!(report.conservation_violations, 0);
    assert_eq!(
        report.agreement_failures, 0,
        "quantities disagreed: {:?}",
        report.quantities
    );
    assert!(report.passes());
    assert_eq!(report.strategy, "enforced");
    assert_eq!(report.quantities.len(), 3);
    assert_eq!(report.sojourn.len(), topology.len());
    // The report serializes (it is written into BENCH_exec.json).
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("active_fraction"));
}
