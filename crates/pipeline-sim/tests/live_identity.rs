//! Live-metrics layer invariants: publishing into a registry must not
//! change a single simulated bit, and the registry's totals must agree
//! with the returned [`pipeline_sim::SimMetrics`].

use dataflow_model::{
    GainModel, Perturbation, PipelineSpec, PipelineSpecBuilder, RtParams, Topology,
};
use pipeline_sim::{
    enforced, monolithic, robustness_report, run_seeds, Hooks, MitigationPolicy, SimConfig,
    SimLiveMetrics, SimMetrics,
};
use rtsdf_core::{EnforcedProblem, MonolithicProblem};

fn blast() -> PipelineSpec {
    PipelineSpecBuilder::new(128)
        .stage("s0", 287.0, GainModel::Bernoulli { p: 0.379 })
        .stage(
            "s1",
            955.0,
            GainModel::CensoredPoisson {
                mean: 1.920,
                cap: 16,
            },
        )
        .stage("s2", 402.0, GainModel::Bernoulli { p: 0.0332 })
        .stage("s3", 2753.0, GainModel::Deterministic { k: 1 })
        .build()
        .unwrap()
}

fn assert_bit_identical(a: &SimMetrics, b: &SimMetrics) {
    assert_eq!(a.items_arrived, b.items_arrived);
    assert_eq!(a.items_completed, b.items_completed);
    assert_eq!(a.items_dropped, b.items_dropped);
    assert_eq!(a.deadline_misses, b.deadline_misses);
    assert_eq!(a.items_shed, b.items_shed);
    assert_eq!(a.resolves, b.resolves);
    assert_eq!(a.active_fraction, b.active_fraction);
    assert_eq!(a.latency.mean(), b.latency.mean());
    assert_eq!(a.latency.variance(), b.latency.variance());
    assert_eq!(a.max_queue_depth, b.max_queue_depth);
    assert_eq!(a.horizon, b.horizon);
}

#[test]
fn enforced_live_is_bit_identical_and_registry_matches_metrics() {
    let p = blast();
    let t = Topology::chain(&p);
    let params = RtParams::new(10.0, 1e5).unwrap();
    let sched = EnforcedProblem::new(&t, params, vec![1.0, 3.0, 9.0, 6.0])
        .solve()
        .unwrap();
    let cfg = SimConfig::quick(10.0, 7, 3_000);
    let plain = enforced::simulate(&t, &sched, 1e5, &cfg, Hooks::default()).unwrap();

    let live = SimLiveMetrics::new(p.len(), 1);
    let h = live.handle(0);
    let hooks = Hooks {
        live: Some(&h),
        ..Hooks::default()
    };
    let traced = enforced::simulate(&t, &sched, 1e5, &cfg, hooks).unwrap();
    assert_bit_identical(&plain, &traced);

    let snap = live.registry().snapshot();
    assert_eq!(
        snap.total("rtsdf_sim_items_arrived") as u64,
        traced.items_arrived
    );
    assert_eq!(
        snap.total("rtsdf_sim_items_completed") as u64,
        traced.items_completed
    );
    assert_eq!(
        snap.total("rtsdf_sim_items_dropped") as u64,
        traced.items_dropped
    );
    assert_eq!(snap.total("rtsdf_sim_items_shed") as u64, 0);
    // The final tick published the run's queue high-water marks; they
    // must match the metric struct exactly, stage by stage.
    let hwm = snap.family("rtsdf_sim_queue_depth_hwm").unwrap();
    let depths: Vec<u64> = hwm.samples.iter().map(|s| s.value as u64).collect();
    assert_eq!(depths, traced.max_queue_depth);
}

#[test]
fn enforced_stress_live_matches_shed_and_drop_counters() {
    let p = blast();
    let t = Topology::chain(&p);
    let params = RtParams::new(10.0, 1e5).unwrap();
    let sched = EnforcedProblem::new(&t, params, vec![1.0, 3.0, 9.0, 6.0])
        .solve()
        .unwrap();
    let cfg = SimConfig::quick(10.0, 3, 3_000);
    let perturb = Perturbation::standard(1.5);
    let policy = MitigationPolicy::full();
    let faults = Some((&perturb, &policy));
    let hooks = Hooks {
        faults,
        ..Hooks::default()
    };
    let plain = enforced::simulate(&t, &sched, 1e5, &cfg, hooks).unwrap();

    let live = SimLiveMetrics::new(p.len(), 1);
    let h = live.handle(0);
    let hooks = Hooks {
        faults,
        live: Some(&h),
        ..Hooks::default()
    };
    let traced = enforced::simulate(&t, &sched, 1e5, &cfg, hooks).unwrap();
    assert_bit_identical(&plain, &traced);

    let snap = live.registry().snapshot();
    assert_eq!(snap.total("rtsdf_sim_items_shed") as u64, traced.items_shed);
    assert_eq!(
        snap.total("rtsdf_sim_items_dropped") as u64,
        traced.items_dropped
    );
    // Arrivals include shed items: they arrived, then were rejected.
    assert_eq!(
        snap.total("rtsdf_sim_items_arrived") as u64,
        traced.items_arrived
    );
}

#[test]
fn monolithic_live_is_bit_identical_and_registry_matches_metrics() {
    let p = blast();
    let params = RtParams::new(50.0, 1e5).unwrap();
    let sched = MonolithicProblem::new(&p, params, 1.0, 1.0)
        .solve()
        .unwrap();
    let cfg = SimConfig::quick(50.0, 5, 4_000);
    let t = Topology::chain(&p);
    let plain = monolithic::simulate(&t, &sched, 1e5, &cfg, Hooks::default()).unwrap();

    let live = SimLiveMetrics::new(p.len(), 1);
    let h = live.handle(0);
    let hooks = Hooks {
        live: Some(&h),
        ..Hooks::default()
    };
    let traced = monolithic::simulate(&t, &sched, 1e5, &cfg, hooks).unwrap();
    assert_bit_identical(&plain, &traced);

    let snap = live.registry().snapshot();
    assert_eq!(
        snap.total("rtsdf_sim_items_arrived") as u64,
        traced.items_arrived
    );
    assert_eq!(
        snap.total("rtsdf_sim_items_completed") as u64,
        traced.items_completed
    );
    // Only the head stage queues in the monolithic strategy.
    let hwm = snap.family("rtsdf_sim_queue_depth_hwm").unwrap();
    assert_eq!(hwm.samples[0].value as u64, traced.max_queue_depth[0]);
    assert!(hwm.samples[1..].iter().all(|s| s.value == 0.0));
}

#[test]
fn multi_seed_live_counts_runs_and_preserves_results() {
    let p = blast();
    let t = Topology::chain(&p);
    let params = RtParams::new(10.0, 1e5).unwrap();
    let sched = EnforcedProblem::new(&t, params, vec![1.0, 3.0, 9.0, 6.0])
        .solve()
        .unwrap();
    let cfg = SimConfig::quick(10.0, 0, 800);
    let perturb = Perturbation::standard(0.5);
    let policy = MitigationPolicy::full();
    let run = |c: &SimConfig, h: Hooks<'_>| {
        let faults = Some((&perturb, &policy));
        enforced::simulate(&t, &sched, 1e5, c, Hooks { faults, ..h })
    };
    let plain = run_seeds(&cfg, 4, None, run).unwrap();

    let live = SimLiveMetrics::new(p.len(), rtsdf_core::worker_threads());
    live.set_runs_total(4);
    let traced = run_seeds(&cfg, 4, Some(&live), run).unwrap();
    assert_eq!(plain.runs.len(), traced.runs.len());
    for (a, b) in plain.runs.iter().zip(&traced.runs) {
        assert_bit_identical(a, b);
    }
    assert_eq!(live.runs_completed(), 4);
    assert_eq!(live.runs_total(), 4);
    let total_arrived: u64 = traced.runs.iter().map(|r| r.items_arrived).sum();
    let (arrived, _, _) = live.item_counts();
    assert_eq!(arrived, total_arrived);
}

#[test]
fn robustness_live_schedules_every_cell_and_matches_plain() {
    let p = blast();
    let t = Topology::chain(&p);
    let params = RtParams::new(10.0, 1e5).unwrap();
    let enforced = EnforcedProblem::new(&t, params, vec![1.0, 3.0, 9.0, 6.0])
        .solve()
        .unwrap();
    let mono = MonolithicProblem::new(&p, params, 1.0, 1.0)
        .solve()
        .unwrap();
    let cfg = SimConfig::quick(10.0, 0, 500);
    let perturb = Perturbation::standard(1.0);
    let plain = robustness_report(
        &t,
        &enforced,
        &mono,
        1e5,
        &cfg,
        2,
        &perturb,
        &[0.0, 1.0],
        0.95,
        None,
    )
    .unwrap();

    let live = SimLiveMetrics::new(p.len(), rtsdf_core::worker_threads());
    let traced = robustness_report(
        &t,
        &enforced,
        &mono,
        1e5,
        &cfg,
        2,
        &perturb,
        &[0.0, 1.0],
        0.95,
        Some(&live),
    )
    .unwrap();
    // 2 levels × 3 strategies × 2 seeds.
    assert_eq!(live.runs_total(), 12);
    assert_eq!(live.runs_completed(), 12);
    assert_eq!(plain.enforced_margin, traced.enforced_margin);
    for (a, b) in plain.points.iter().zip(&traced.points) {
        assert_eq!(
            a.enforced_mitigated.total_misses,
            b.enforced_mitigated.total_misses
        );
        assert_eq!(a.monolithic.total_misses, b.monolithic.total_misses);
    }
}
