//! Property-based tests for the pipeline simulator: conservation laws
//! and metric sanity on randomized pipelines and schedules.

use dataflow_model::{
    ArrivalProcess, GainModel, Perturbation, PipelineSpec, PipelineSpecBuilder, RtParams,
};
use des::obs::ObsConfig;
use obs_trace::{ForensicsConfig, TraceConfig, TraceLog};
use pipeline_sim::config::FiringDiscipline;
use pipeline_sim::{
    simulate_enforced, simulate_enforced_observed, simulate_enforced_perturbed,
    simulate_enforced_traced, simulate_monolithic, simulate_monolithic_observed,
    simulate_monolithic_perturbed, simulate_monolithic_traced, MitigationPolicy, SimConfig,
};
use proptest::prelude::*;
use rtsdf_core::{EnforcedWaitsProblem, MonolithicSchedule, SolveMethod};

/// Shared invariant for both simulators: every recorded visit's
/// enforced-wait, queue-wait, and service components are non-negative,
/// back-to-back, and exactly partition its sojourn (no gaps, no
/// overlaps). `tol` covers float accumulation in the monolithic
/// simulator's continuous clock; the enforced simulator runs on an
/// integer cycle clock and must be exact.
fn assert_visits_partition(log: &TraceLog, tol: f64) -> Result<(), TestCaseError> {
    for v in &log.visits {
        prop_assert!(
            v.enqueued <= v.eligible && v.eligible <= v.consumed && v.consumed <= v.done,
            "visit timestamps out of order: {v:?}"
        );
        let parts = v.enforced_wait() + v.queue_wait() + v.service();
        prop_assert!(
            (parts - v.sojourn()).abs() <= tol,
            "components {parts} != sojourn {} for {v:?}",
            v.sojourn()
        );
        // Back-to-back: each component starts where the previous ended,
        // by construction of the four timestamps — re-derive the
        // boundaries to make the no-gap/no-overlap claim explicit.
        prop_assert!((v.enqueued + v.enforced_wait() - v.eligible).abs() <= tol);
        prop_assert!((v.eligible + v.queue_wait() - v.consumed).abs() <= tol);
        prop_assert!((v.consumed + v.service() - v.done).abs() <= tol);
    }
    Ok(())
}

/// Bounded two-point gain with the requested mean: `k` with probability
/// `gain / k`, else `0`, for `k = ceil(gain)`.
fn two_point(gain: f64) -> GainModel {
    let k = gain.ceil().max(1.0) as u32;
    let p_hi = gain / k as f64;
    GainModel::Empirical {
        pmf: vec![(0, 1.0 - p_hi), (k, p_hi)],
    }
}

fn pipeline() -> impl Strategy<Value = PipelineSpec> {
    prop::collection::vec((20.0..500.0f64, 0.2..2.0f64), 2..=4).prop_map(|stages| {
        let mut b = PipelineSpecBuilder::new(32);
        for (i, (t, gain)) in stages.into_iter().enumerate() {
            b = b.stage(format!("s{i}"), t, two_point(gain));
        }
        b.build().expect("valid")
    })
}

/// Random fan-out/fan-in DAG: a diamond `0 -> {1, 2} -> 3` with random
/// service times, per-edge gains, and routing weights, followed by an
/// optional linear tail. Every topology is acyclic and single-source by
/// construction but exercises both split and merge paths.
fn topology() -> impl Strategy<Value = dataflow_model::Topology> {
    (
        prop::collection::vec((20.0..300.0f64, 0.2..1.5f64), 4..=6),
        prop::collection::vec(0.2..1.0f64, 2),
    )
        .prop_map(|(nodes, weights)| {
            let n = nodes.len();
            let mut b = dataflow_model::TopologyBuilder::new(32);
            for (i, (t, _)) in nodes.iter().enumerate() {
                b = b.node(format!("n{i}"), *t);
            }
            // Diamond core: split at the source, merge at node 3.
            b = b
                .edge(0, 1, two_point(nodes[0].1), weights[0])
                .edge(0, 2, two_point(nodes[1].1), weights[1])
                .edge(1, 3, two_point(nodes[1].1), 1.0)
                .edge(2, 3, two_point(nodes[2].1), 1.0);
            // Linear tail after the merge, if any nodes remain.
            for (i, (_, gain)) in nodes.iter().enumerate().take(n - 1).skip(3) {
                b = b.edge(i, i + 1, two_point(*gain), 1.0);
            }
            b.build().expect("valid diamond")
        })
}

/// A stable, generously-deadlined operating point for an arbitrary
/// topology, mirroring the chain recipe: the arrival interval dominates
/// every node's minimal period weighted by its total gain.
fn topology_operating_point(t: &dataflow_model::Topology, slack: f64) -> RtParams {
    let xmin = rtsdf_core::topology_minimal_periods(t);
    let gains = t.total_gains();
    let v = t.vector_width() as f64;
    let tau0 = xmin
        .iter()
        .zip(&gains)
        .map(|(x, g)| x * g / v)
        .fold(0.0f64, f64::max)
        * slack;
    let min_d: f64 = xmin.iter().sum();
    RtParams::new(tau0, min_d * 20.0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn enforced_simulation_conserves_items(
        p in pipeline(),
        seed in 0u64..1000,
        tau_scale in 1.5..10.0f64,
    ) {
        // A stable, generously-deadlined operating point.
        let xmin = rtsdf_core::minimal_periods(&p);
        let tau0 = xmin[0] / p.vector_width() as f64 * tau_scale;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let d = min_d * 20.0;
        let params = RtParams::new(tau0, d).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, b)
            .solve(SolveMethod::WaterFilling)
            .expect("constructed feasible");
        let cfg = SimConfig::quick(tau0, seed, 500);
        let m = simulate_enforced(&p, &sched, d, &cfg);
        // Conservation: every arrived input resolves (the schedule is
        // stable and the deadline generous), and the arrived count is
        // always the sum of completions and drops.
        prop_assert!(!m.truncated);
        prop_assert_eq!(m.items_completed, m.items_arrived);
        prop_assert_eq!(m.items_completed + m.items_dropped, m.items_arrived);
        prop_assert!(m.active_fraction > 0.0 && m.active_fraction <= 1.0 + 1e-9);
        prop_assert!(m.active_fraction_nonempty <= m.active_fraction + 1e-12);
        prop_assert!(m.latency.count() == m.items_arrived);
        // Occupancy is a valid fraction everywhere.
        for o in &m.occupancy {
            prop_assert!((0.0..=1.0).contains(&o.mean_occupancy()));
        }
        // Queue depth in items implies backlog in vectors.
        for (dep, vecs) in m.max_queue_depth.iter().zip(&m.max_backlog_vectors) {
            prop_assert!((vecs - *dep as f64 / p.vector_width() as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn monolithic_simulation_conserves_items(
        p in pipeline(),
        seed in 0u64..1000,
        m_block in 8u64..200,
    ) {
        let tau0 = p.total_service_time(); // slow arrivals: always stable
        let sched = MonolithicSchedule {
            block_size: m_block,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(tau0, seed, 700);
        let m = simulate_monolithic(&p, &sched, 1e18, &cfg);
        prop_assert!(!m.truncated);
        prop_assert_eq!(m.items_completed, 700);
        prop_assert_eq!(m.items_completed + m.items_dropped, m.items_arrived);
        prop_assert_eq!(m.deadline_misses, 0);
        prop_assert!(m.active_fraction > 0.0 && m.active_fraction <= 1.0 + 1e-9);
    }

    #[test]
    fn observability_never_perturbs_the_run(
        p in pipeline(),
        seed in 0u64..200,
    ) {
        // The obs layer is measurement only: an observed run must report
        // bit-identical metrics to a plain run, and its counters must
        // obey the same conservation law as the metrics.
        let xmin = rtsdf_core::minimal_periods(&p);
        let tau0 = xmin[0] / p.vector_width() as f64 * 3.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 10.0).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, b)
            .solve(SolveMethod::WaterFilling)
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let plain = simulate_enforced(&p, &sched, params.deadline, &cfg);
        let observed =
            simulate_enforced_observed(&p, &sched, params.deadline, &cfg, ObsConfig::default());
        prop_assert_eq!(plain.active_fraction, observed.active_fraction);
        prop_assert_eq!(plain.deadline_misses, observed.deadline_misses);
        prop_assert_eq!(plain.horizon, observed.horizon);
        prop_assert_eq!(&plain.max_queue_depth, &observed.max_queue_depth);
        let report = observed.obs.expect("report attached");
        prop_assert_eq!(report.counters.completions, observed.items_completed);
        prop_assert_eq!(report.counters.drops, observed.items_dropped);
        // Everything enqueued is either consumed or still in a queue at
        // the end of the run; with a stable schedule and generous
        // deadline the queues drain completely.
        prop_assert_eq!(report.counters.items_enqueued, report.counters.items_consumed);
    }

    #[test]
    fn simulation_is_deterministic_per_seed(
        p in pipeline(),
        seed in 0u64..100,
    ) {
        let xmin = rtsdf_core::minimal_periods(&p);
        let tau0 = xmin[0] / p.vector_width() as f64 * 3.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 10.0).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, b)
            .solve(SolveMethod::WaterFilling)
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let a = simulate_enforced(&p, &sched, params.deadline, &cfg);
        let b2 = simulate_enforced(&p, &sched, params.deadline, &cfg);
        prop_assert_eq!(a.active_fraction, b2.active_fraction);
        prop_assert_eq!(a.deadline_misses, b2.deadline_misses);
        prop_assert_eq!(a.horizon, b2.horizon);
        prop_assert_eq!(a.max_queue_depth, b2.max_queue_depth);
    }

    #[test]
    fn longer_waits_reduce_measured_activity(
        p in pipeline(),
        seed in 0u64..100,
    ) {
        // Compare zero waits against doubled periods at the same load.
        let xmin = rtsdf_core::minimal_periods(&p);
        let tau0 = xmin[0] / p.vector_width() as f64 * 4.0;
        let mk = |scale: f64| rtsdf_core::WaitSchedule {
            waits: p.service_times().iter().map(|t| t * (scale - 1.0)).collect(),
            periods: p.service_times().iter().map(|t| t * scale).collect(),
            active_fraction: 1.0 / scale,
            backlog_factors: vec![1.0; p.len()],
            latency_bound: 0.0,
            method: SolveMethod::WaterFilling,
            telemetry: None,
        };
        let cfg = SimConfig::quick(tau0, seed, 400);
        let fast = simulate_enforced(&p, &mk(1.0), 1e18, &cfg);
        let slow = simulate_enforced(&p, &mk(2.0), 1e18, &cfg);
        prop_assert!(
            slow.active_fraction < fast.active_fraction + 1e-9,
            "doubling periods must not increase activity: {} vs {}",
            slow.active_fraction,
            fast.active_fraction
        );
    }

    #[test]
    fn enforced_trace_partitions_every_sojourn(
        p in pipeline(),
        seed in 0u64..500,
    ) {
        let xmin = rtsdf_core::minimal_periods(&p);
        let tau0 = xmin[0] / p.vector_width() as f64 * 3.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 10.0).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, b)
            .solve(SolveMethod::WaterFilling)
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let plain = simulate_enforced(&p, &sched, params.deadline, &cfg);
        let (traced, log) = simulate_enforced_traced(
            &p,
            &sched,
            params.deadline,
            &cfg,
            TraceConfig::default(),
            &ForensicsConfig::default(),
        );
        // Tracing is measurement only.
        prop_assert_eq!(plain.active_fraction, traced.active_fraction);
        prop_assert_eq!(plain.deadline_misses, traced.deadline_misses);
        prop_assert_eq!(plain.horizon, traced.horizon);
        // Integer cycle clock: the partition must be *exact*.
        assert_visits_partition(&log, 0.0)?;
        prop_assert_eq!(log.fates.len() as u64, traced.items_arrived);
        for fate in &log.fates {
            // Lifelines are causally closed: the head-stage visit starts
            // at the input's arrival, every later visit starts exactly
            // where an upstream firing delivered it (no gaps between
            // stages), and the completion instant is one of the lineage's
            // firing completions.
            let visits: Vec<_> =
                log.visits.iter().filter(|v| v.origin == fate.origin).collect();
            prop_assert!(!visits.is_empty(), "input {} never consumed", fate.origin);
            for v in &visits {
                if v.stage == 0 {
                    prop_assert_eq!(v.enqueued, fate.arrival);
                } else {
                    prop_assert!(
                        visits
                            .iter()
                            .any(|u| u.stage + 1 == v.stage && u.done == v.enqueued),
                        "stage-{} visit at {} has no upstream delivery",
                        v.stage,
                        v.enqueued
                    );
                }
            }
            if let Some(c) = fate.completion {
                prop_assert!(visits.iter().any(|v| v.done == c));
            }
        }
    }

    #[test]
    fn zero_intensity_perturbation_is_identity(
        p in pipeline(),
        seed in 0u64..200,
    ) {
        // Fault injection at intensity 0 must be *bit-identical* to the
        // unperturbed simulators: every multiplier is exactly 1, every
        // fault probability exactly 0, and fault RNG draws come from
        // substreams disjoint from the model's.
        let xmin = rtsdf_core::minimal_periods(&p);
        let tau0 = xmin[0] / p.vector_width() as f64 * 3.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 10.0).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, b)
            .solve(SolveMethod::WaterFilling)
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let zero = Perturbation::standard(1.0).at_intensity(0.0);

        let plain = simulate_enforced(&p, &sched, params.deadline, &cfg);
        let perturbed = simulate_enforced_perturbed(
            &p, &sched, params.deadline, &cfg, &zero, &MitigationPolicy::none(),
        );
        prop_assert_eq!(plain.active_fraction, perturbed.active_fraction);
        prop_assert_eq!(plain.deadline_misses, perturbed.deadline_misses);
        prop_assert_eq!(plain.items_completed, perturbed.items_completed);
        prop_assert_eq!(plain.horizon, perturbed.horizon);
        prop_assert_eq!(&plain.max_queue_depth, &perturbed.max_queue_depth);
        prop_assert_eq!(plain.latency.mean(), perturbed.latency.mean());
        prop_assert_eq!(perturbed.items_shed, 0);
        prop_assert_eq!(perturbed.resolves, 0);

        let mono_sched = MonolithicSchedule {
            block_size: 32,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let mono_tau0 = p.total_service_time();
        let mono_cfg = SimConfig::quick(mono_tau0, seed, 300);
        let mono_plain = simulate_monolithic(&p, &mono_sched, 1e18, &mono_cfg);
        let mono_perturbed =
            simulate_monolithic_perturbed(&p, &mono_sched, 1e18, &mono_cfg, &zero);
        prop_assert_eq!(mono_plain.active_fraction, mono_perturbed.active_fraction);
        prop_assert_eq!(mono_plain.deadline_misses, mono_perturbed.deadline_misses);
        prop_assert_eq!(mono_plain.items_completed, mono_perturbed.items_completed);
        prop_assert_eq!(mono_plain.horizon, mono_perturbed.horizon);
        prop_assert_eq!(mono_plain.latency.mean(), mono_perturbed.latency.mean());
    }

    #[test]
    fn shedding_conserves_items(
        p in pipeline(),
        seed in 0u64..200,
        intensity in 0.5..3.0f64,
    ) {
        // Under load shedding every arrived input has exactly one fate:
        // shed at admission, completed, or dropped at the horizon.
        let xmin = rtsdf_core::minimal_periods(&p);
        let tau0 = xmin[0] / p.vector_width() as f64 * 2.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 3.0).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, b)
            .solve(SolveMethod::WaterFilling)
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let m = simulate_enforced_perturbed(
            &p,
            &sched,
            params.deadline,
            &cfg,
            &Perturbation::standard(intensity),
            &MitigationPolicy::full(),
        );
        prop_assert_eq!(
            m.items_shed + m.items_completed + m.items_dropped,
            m.items_arrived,
            "shed {} + completed {} + dropped {} != arrived {}",
            m.items_shed, m.items_completed, m.items_dropped, m.items_arrived
        );
        prop_assert!(m.items_shed <= m.items_arrived);
        prop_assert!(m.items_admitted() == m.items_arrived - m.items_shed);
        let r = m.admitted_miss_rate();
        prop_assert!((0.0..=1.0).contains(&r), "admitted miss rate {r}");
    }

    #[test]
    fn monolithic_trace_partitions_every_sojourn(
        p in pipeline(),
        seed in 0u64..500,
        m_block in 8u64..200,
    ) {
        let tau0 = p.total_service_time();
        let sched = MonolithicSchedule {
            block_size: m_block,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(tau0, seed, 400);
        let plain = simulate_monolithic(&p, &sched, 1e18, &cfg);
        let (traced, log) = simulate_monolithic_traced(
            &p,
            &sched,
            1e18,
            &cfg,
            TraceConfig::default(),
            &ForensicsConfig::default(),
        );
        prop_assert_eq!(plain.active_fraction, traced.active_fraction);
        prop_assert_eq!(plain.deadline_misses, traced.deadline_misses);
        // Continuous clock: allow float accumulation noise.
        assert_visits_partition(&log, 1e-6)?;
        // One visit per completed input; its sojourn is exactly the
        // input's end-to-end latency, so the three components explain
        // 100 % of every latency.
        prop_assert_eq!(log.visits.len() as u64, traced.items_completed);
        prop_assert_eq!(log.fates.len() as u64, traced.items_arrived);
        for v in &log.visits {
            let fate = &log.fates[v.origin as usize];
            prop_assert_eq!(v.enqueued, fate.arrival);
            prop_assert_eq!(Some(v.done), fate.completion);
        }
    }
}

// ---------------------------------------------------------------------
// Bit-identity of the vectorized (SoA) simulators against the frozen
// scalar references in `pipeline_sim::reference`. Serializing the full
// SimMetrics (latency moments, occupancy, queue depths, and — where
// enabled — the complete ObsReport with its histograms and counters)
// and comparing the JSON strings checks every reported value bit for
// bit, not just a few headline numbers.

fn metrics_json(m: &pipeline_sim::metrics::SimMetrics) -> String {
    serde_json::to_string(m).expect("metrics serialize")
}

/// Perturbation intensity for the stress comparisons: `0.0` must be in
/// the support (intensity zero is the documented bit-identity boundary
/// of the fault layer), alongside genuinely stressful settings.
fn intensity() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.3..2.5f64]
}

/// Run configuration for the enforced bit-identity comparisons: the
/// arrival process (periodic; Poisson and bursty, both of which put
/// several arrivals on one clock instant), the firing discipline and
/// the stream length (5,000 items cross `SoaQueue`'s 1,024-entry
/// compaction) all vary, because the simulator's arrival drain takes a
/// different path for each.
fn enforced_config() -> impl Strategy<Value = (u8, FiringDiscipline, usize)> {
    (
        0u8..3,
        prop_oneof![
            Just(FiringDiscipline::StrictPeriodic),
            Just(FiringDiscipline::Vacation)
        ],
        prop_oneof![Just(400usize), Just(5_000)],
    )
}

fn sim_config(
    tau0: f64,
    seed: u64,
    (arrivals, discipline, items): (u8, FiringDiscipline, usize),
) -> SimConfig {
    let mut cfg = SimConfig::quick(tau0, seed, items);
    cfg.discipline = discipline;
    cfg.arrivals = match arrivals {
        0 => ArrivalProcess::Periodic { tau0 },
        1 => ArrivalProcess::Poisson { tau0 },
        // Bursts of four arrivals per cycle, idle long enough between
        // bursts to keep the long-run mean interval at `tau0`.
        _ => ArrivalProcess::Bursty {
            tau_on: 0.25,
            on_mean: 60.0,
            off_mean: 60.0 * (tau0 / 0.25 - 1.0),
        },
    };
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vectorized_enforced_matches_scalar_reference(
        p in pipeline(),
        seed in 0u64..1000,
        intensity in intensity(),
        run in enforced_config(),
    ) {
        use des::obs::ObsSink;
        use pipeline_sim::reference::simulate_enforced_reference;

        let xmin = rtsdf_core::minimal_periods(&p);
        let tau0 = xmin[0] / p.vector_width() as f64 * 2.5;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 1.0).max(2.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 5.0).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, b)
            .solve(SolveMethod::WaterFilling)
            .unwrap();
        let cfg = sim_config(tau0, seed, run);

        // Plain run, no hooks: the bulk arrival drain.
        let live = simulate_enforced(&p, &sched, params.deadline, &cfg);
        let oracle = simulate_enforced_reference(&p, &sched, params.deadline, &cfg, None, None);
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));

        // Observed run: SimMetrics + full ObsReport must agree.
        let live = simulate_enforced_observed(
            &p, &sched, params.deadline, &cfg, ObsConfig::default(),
        );
        let mut sink = ObsSink::new(p.len(), ObsConfig::default());
        let mut oracle = simulate_enforced_reference(
            &p, &sched, params.deadline, &cfg, Some(&mut sink), None,
        );
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));

        // Stressed run (full mitigation policy: shedding + escalation).
        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let policy = MitigationPolicy::full();
        let live = simulate_enforced_perturbed(
            &p, &sched, params.deadline, &cfg, &perturb, &policy,
        );
        let oracle = simulate_enforced_reference(
            &p, &sched, params.deadline, &cfg, None, Some((&perturb, &policy)),
        );
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));
    }

    #[test]
    fn vectorized_monolithic_matches_scalar_reference(
        p in pipeline(),
        seed in 0u64..1000,
        m_block in 8u64..128,
        intensity in intensity(),
    ) {
        use des::obs::ObsSink;
        use pipeline_sim::reference::simulate_monolithic_reference;

        let tau0 = p.total_service_time();
        let sched = MonolithicSchedule {
            block_size: m_block,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(tau0, seed, 400);
        let deadline = 1e15;

        let live = simulate_monolithic_observed(
            &p, &sched, deadline, &cfg, ObsConfig::default(),
        );
        let mut sink = ObsSink::new(p.len(), ObsConfig::default());
        let mut oracle = simulate_monolithic_reference(
            &p, &sched, deadline, &cfg, Some(&mut sink), None,
        );
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));

        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let live = simulate_monolithic_perturbed(&p, &sched, deadline, &cfg, &perturb);
        let oracle = simulate_monolithic_reference(
            &p, &sched, deadline, &cfg, None, Some(&perturb),
        );
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));
    }
}

// ---------------------------------------------------------------------
// The DAG generalization. Two laws: (1) any linear chain expressed as a
// `Topology` is *bit-identical* — serialized SimMetrics plus ObsReport —
// to the frozen scalar references, so the topology routing layer adds
// exactly nothing on chains; (2) on genuine fan-out/fan-in topologies
// every arrived input has exactly one fate (completed, dropped, or shed).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chain_as_topology_enforced_matches_scalar_reference(
        p in pipeline(),
        seed in 0u64..1000,
        intensity in intensity(),
        run in enforced_config(),
    ) {
        use des::obs::ObsSink;
        use pipeline_sim::reference::simulate_enforced_reference;
        use pipeline_sim::{
            simulate_enforced_topology, simulate_enforced_topology_observed,
            simulate_enforced_topology_perturbed,
        };

        let t = dataflow_model::Topology::chain(&p);
        let xmin = rtsdf_core::minimal_periods(&p);
        let tau0 = xmin[0] / p.vector_width() as f64 * 2.5;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 1.0).max(2.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 5.0).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, b)
            .solve(SolveMethod::WaterFilling)
            .unwrap();
        let cfg = sim_config(tau0, seed, run);

        // Plain run, no hooks: the bulk arrival drain.
        let live = simulate_enforced_topology(&t, &sched, params.deadline, &cfg);
        let oracle = simulate_enforced_reference(&p, &sched, params.deadline, &cfg, None, None);
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));

        // Observed run: SimMetrics + full ObsReport must agree.
        let live = simulate_enforced_topology_observed(
            &t, &sched, params.deadline, &cfg, ObsConfig::default(),
        );
        let mut sink = ObsSink::new(p.len(), ObsConfig::default());
        let mut oracle = simulate_enforced_reference(
            &p, &sched, params.deadline, &cfg, Some(&mut sink), None,
        );
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));

        // Stressed run, including intensity 0.
        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let policy = MitigationPolicy::full();
        let live = simulate_enforced_topology_perturbed(
            &t, &sched, params.deadline, &cfg, &perturb, &policy,
        );
        let oracle = simulate_enforced_reference(
            &p, &sched, params.deadline, &cfg, None, Some((&perturb, &policy)),
        );
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));
    }

    #[test]
    fn chain_as_topology_monolithic_matches_scalar_reference(
        p in pipeline(),
        seed in 0u64..1000,
        m_block in 8u64..128,
        intensity in intensity(),
    ) {
        use des::obs::ObsSink;
        use pipeline_sim::reference::simulate_monolithic_reference;
        use pipeline_sim::{
            simulate_monolithic_topology_observed, simulate_monolithic_topology_perturbed,
        };

        let t = dataflow_model::Topology::chain(&p);
        let tau0 = p.total_service_time();
        let sched = MonolithicSchedule {
            block_size: m_block,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(tau0, seed, 400);
        let deadline = 1e15;

        let live = simulate_monolithic_topology_observed(
            &t, &sched, deadline, &cfg, ObsConfig::default(),
        );
        let mut sink = ObsSink::new(p.len(), ObsConfig::default());
        let mut oracle = simulate_monolithic_reference(
            &p, &sched, deadline, &cfg, Some(&mut sink), None,
        );
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));

        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let live = simulate_monolithic_topology_perturbed(&t, &sched, deadline, &cfg, &perturb);
        let oracle = simulate_monolithic_reference(
            &p, &sched, deadline, &cfg, None, Some(&perturb),
        );
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));
    }

    #[test]
    fn dag_enforced_simulation_conserves_items(
        t in topology(),
        seed in 0u64..1000,
        slack in 2.0..6.0f64,
    ) {
        use pipeline_sim::simulate_enforced_topology;

        let params = topology_operating_point(&t, slack);
        let b: Vec<f64> = rtsdf_core::EnforcedDagProblem::optimistic_backlog(&t)
            .iter()
            .map(|x| x + 2.0)
            .collect();
        let sched = rtsdf_core::EnforcedDagProblem::new(&t, params, b)
            .solve()
            .expect("generous operating point is feasible");
        let cfg = SimConfig::quick(params.tau0, seed, 400);
        let m = simulate_enforced_topology(&t, &sched, params.deadline, &cfg);
        prop_assert!(!m.truncated);
        prop_assert_eq!(
            m.items_completed + m.items_dropped,
            m.items_arrived,
            "completed {} + dropped {} != arrived {}",
            m.items_completed, m.items_dropped, m.items_arrived
        );
        prop_assert!(m.active_fraction > 0.0 && m.active_fraction <= 1.0 + 1e-9);
        prop_assert!(m.latency.count() == m.items_arrived);
        for o in &m.occupancy {
            prop_assert!((0.0..=1.0).contains(&o.mean_occupancy()));
        }
    }

    #[test]
    fn dag_shedding_conserves_items(
        t in topology(),
        seed in 0u64..500,
        intensity in 0.5..2.5f64,
    ) {
        use pipeline_sim::simulate_enforced_topology_perturbed;

        let params = topology_operating_point(&t, 2.0);
        let b: Vec<f64> = rtsdf_core::EnforcedDagProblem::optimistic_backlog(&t)
            .iter()
            .map(|x| x + 1.0)
            .collect();
        let sched = rtsdf_core::EnforcedDagProblem::new(&t, params, b)
            .solve()
            .expect("generous operating point is feasible");
        let cfg = SimConfig::quick(params.tau0, seed, 300);
        let m = simulate_enforced_topology_perturbed(
            &t,
            &sched,
            params.deadline,
            &cfg,
            &Perturbation::standard(intensity),
            &MitigationPolicy::full(),
        );
        prop_assert_eq!(
            m.items_shed + m.items_completed + m.items_dropped,
            m.items_arrived,
            "shed {} + completed {} + dropped {} != arrived {}",
            m.items_shed, m.items_completed, m.items_dropped, m.items_arrived
        );
        prop_assert!(m.items_shed <= m.items_arrived);
        prop_assert!(m.items_admitted() == m.items_arrived - m.items_shed);
    }

    #[test]
    fn dag_monolithic_simulation_conserves_items(
        t in topology(),
        seed in 0u64..500,
        m_block in 8u64..128,
    ) {
        use pipeline_sim::simulate_monolithic_topology;

        let tau0 = t.total_service_time();
        let sched = MonolithicSchedule {
            block_size: m_block,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(tau0, seed, 400);
        let m = simulate_monolithic_topology(&t, &sched, 1e18, &cfg);
        prop_assert!(!m.truncated);
        prop_assert_eq!(m.items_completed + m.items_dropped, m.items_arrived);
        prop_assert_eq!(m.deadline_misses, 0);
        prop_assert!(m.active_fraction > 0.0 && m.active_fraction <= 1.0 + 1e-9);
    }
}
