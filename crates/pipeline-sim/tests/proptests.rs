//! Property-based tests for the pipeline simulator: conservation laws
//! and metric sanity on randomized pipelines and schedules.

use dataflow_model::{
    ArrivalProcess, GainModel, Perturbation, PipelineSpec, PipelineSpecBuilder, RtParams, Topology,
};
use des::obs::ObsSink;
use obs_trace::{SpanSink, TraceConfig, TraceLog};
use pipeline_sim::config::FiringDiscipline;
use pipeline_sim::{
    enforced, monolithic, Hooks, MitigationPolicy, SimConfig, SimLiveMetrics, SimMetrics,
};
use proptest::prelude::*;
use rtsdf_core::{EnforcedProblem, MonolithicSchedule};

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
    let xmin = rtsdf_core::minimal_periods(t);
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
        let t = Topology::chain(&p);
        // A stable, generously-deadlined operating point.
        let xmin = rtsdf_core::minimal_periods(&t);
        let tau0 = xmin[0] / p.vector_width() as f64 * tau_scale;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let d = min_d * 20.0;
        let params = RtParams::new(tau0, d).unwrap();
        let sched = EnforcedProblem::new(&t, params, b)
            .solve()
            .expect("constructed feasible");
        let cfg = SimConfig::quick(tau0, seed, 500);
        let m = enforced::simulate(&t, &sched, d, &cfg, Hooks::default()).unwrap();
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
        let sched = blocks(m_block);
        let cfg = SimConfig::quick(tau0, seed, 700);
        let m = monolithic::simulate(&Topology::chain(&p), &sched, 1e18, &cfg, Hooks::default()).unwrap();
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
        let t = Topology::chain(&p);
        // The obs layer is measurement only: an observed run must report
        // bit-identical metrics to a plain run, and its counters must
        // obey the same conservation law as the metrics.
        let xmin = rtsdf_core::minimal_periods(&t);
        let tau0 = xmin[0] / p.vector_width() as f64 * 3.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 10.0).unwrap();
        let sched = EnforcedProblem::new(&t, params, b)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let plain = enforced::simulate(&t, &sched, params.deadline, &cfg, Hooks::default()).unwrap();
        let mut sink = ObsSink::new(p.len());
        let hooks = Hooks { obs: Some(&mut sink), ..Hooks::default() };
        let observed = enforced::simulate(&t, &sched, params.deadline, &cfg, hooks).unwrap();
        prop_assert_eq!(plain.active_fraction, observed.active_fraction);
        prop_assert_eq!(plain.deadline_misses, observed.deadline_misses);
        prop_assert_eq!(plain.horizon, observed.horizon);
        prop_assert_eq!(&plain.max_queue_depth, &observed.max_queue_depth);
        let report = sink.report();
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
        let t = Topology::chain(&p);
        let xmin = rtsdf_core::minimal_periods(&t);
        let tau0 = xmin[0] / p.vector_width() as f64 * 3.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 10.0).unwrap();
        let sched = EnforcedProblem::new(&t, params, b)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let a = enforced::simulate(&t, &sched, params.deadline, &cfg, Hooks::default()).unwrap();
        let b2 = enforced::simulate(&t, &sched, params.deadline, &cfg, Hooks::default()).unwrap();
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
        let t = Topology::chain(&p);
        // Compare zero waits against doubled periods at the same load.
        let xmin = rtsdf_core::minimal_periods(&t);
        let tau0 = xmin[0] / p.vector_width() as f64 * 4.0;
        let mk = |scale: f64| rtsdf_core::WaitSchedule {
            waits: p.service_times().iter().map(|t| t * (scale - 1.0)).collect(),
            periods: p.service_times().iter().map(|t| t * scale).collect(),
            active_fraction: 1.0 / scale,
            backlog_factors: vec![1.0; p.len()],
            latency_bound: 0.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(tau0, seed, 400);
        let fast = enforced::simulate(&t, &mk(1.0), 1e18, &cfg, Hooks::default()).unwrap();
        let slow = enforced::simulate(&t, &mk(2.0), 1e18, &cfg, Hooks::default()).unwrap();
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
        let t = Topology::chain(&p);
        let xmin = rtsdf_core::minimal_periods(&t);
        let tau0 = xmin[0] / p.vector_width() as f64 * 3.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 10.0).unwrap();
        let sched = EnforcedProblem::new(&t, params, b)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let plain = enforced::simulate(&t, &sched, params.deadline, &cfg, Hooks::default()).unwrap();
        let mut sink = SpanSink::new(TraceConfig::default());
        let hooks = Hooks { spans: Some(&mut sink), ..Hooks::default() };
        let traced = enforced::simulate(&t, &sched, params.deadline, &cfg, hooks).unwrap();
        let log = sink.finish();
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
        let t = Topology::chain(&p);
        // Fault injection at intensity 0 must be *bit-identical* to the
        // unperturbed simulators: every multiplier is exactly 1, every
        // fault probability exactly 0, and fault RNG draws come from
        // substreams disjoint from the model's.
        let xmin = rtsdf_core::minimal_periods(&t);
        let tau0 = xmin[0] / p.vector_width() as f64 * 3.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| (g.ceil() + 2.0).max(3.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 10.0).unwrap();
        let sched = EnforcedProblem::new(&t, params, b)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let zero = Perturbation::standard(1.0).at_intensity(0.0);

        let none = MitigationPolicy::none();
        let faults = Some((&zero, &none));
        let plain = enforced::simulate(&t, &sched, params.deadline, &cfg, Hooks::default()).unwrap();
        let perturbed = enforced::simulate(
            &t, &sched, params.deadline, &cfg, Hooks { faults, ..Hooks::default() },
        ).unwrap();
        prop_assert_eq!(plain.active_fraction, perturbed.active_fraction);
        prop_assert_eq!(plain.deadline_misses, perturbed.deadline_misses);
        prop_assert_eq!(plain.items_completed, perturbed.items_completed);
        prop_assert_eq!(plain.horizon, perturbed.horizon);
        prop_assert_eq!(&plain.max_queue_depth, &perturbed.max_queue_depth);
        prop_assert_eq!(plain.latency.mean(), perturbed.latency.mean());
        prop_assert_eq!(perturbed.items_shed, 0);
        prop_assert_eq!(perturbed.resolves, 0);

        let mono_sched = blocks(32);
        let mono_tau0 = p.total_service_time();
        let mono_cfg = SimConfig::quick(mono_tau0, seed, 300);
        let mono_plain = monolithic::simulate(&t, &mono_sched, 1e18, &mono_cfg, Hooks::default()).unwrap();
        let mono_perturbed = monolithic::simulate(
            &t, &mono_sched, 1e18, &mono_cfg, Hooks { faults, ..Hooks::default() },
        ).unwrap();
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
        let t = Topology::chain(&p);
        // Under load shedding every arrived input has exactly one fate:
        // shed at admission, completed, or dropped at the horizon.
        let xmin = rtsdf_core::minimal_periods(&t);
        let tau0 = xmin[0] / p.vector_width() as f64 * 2.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 3.0).unwrap();
        let sched = EnforcedProblem::new(&t, params, b)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(tau0, seed, 300);
        let hooks = Hooks {
            faults: Some((&Perturbation::standard(intensity), &MitigationPolicy::full())),
            ..Hooks::default()
        };
        let m = enforced::simulate(&t, &sched, params.deadline, &cfg, hooks)
            .unwrap();
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
        let sched = blocks(m_block);
        let cfg = SimConfig::quick(tau0, seed, 400);
        let t = Topology::chain(&p);
        let plain = monolithic::simulate(&t, &sched, 1e18, &cfg, Hooks::default()).unwrap();
        let mut sink = SpanSink::new(TraceConfig::default());
        let hooks = Hooks { spans: Some(&mut sink), ..Hooks::default() };
        let traced = monolithic::simulate(&t, &sched, 1e18, &cfg, hooks).unwrap();
        let log = sink.finish();
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
// Bit-identity of the simulators against the frozen scalar references in
// `pipeline_sim::reference`. Serializing the full SimMetrics (latency
// moments, occupancy, queue depths, and — where enabled — the complete
// ObsReport with its histograms and counters) and comparing the JSON
// strings checks every reported value bit for bit, not just a few
// headline numbers.

/// A monolithic schedule of fixed `block_size`; the simulator reads no
/// other field.
fn blocks(block_size: u64) -> MonolithicSchedule {
    MonolithicSchedule {
        block_size,
        block_time: 0.0,
        active_fraction: 0.0,
        latency_bound: 0.0,
        b: 1.0,
        s: 1.0,
        telemetry: None,
    }
}

fn metrics_json(m: &pipeline_sim::metrics::SimMetrics) -> String {
    serde_json::to_string(m).expect("metrics serialize")
}

/// A run's counters, queue high-water marks, horizon, active fractions
/// and latency moments, as bits.
fn run_bits(m: &SimMetrics) -> (Vec<u64>, [u64; 5], [Option<u64>; 2]) {
    let mut counters = vec![
        m.items_arrived,
        m.items_completed,
        m.items_dropped,
        m.deadline_misses,
        m.items_shed,
        m.resolves,
        m.latency.count(),
    ];
    counters.extend(&m.max_queue_depth);
    let moments = [
        m.horizon,
        m.active_fraction,
        m.active_fraction_nonempty,
        m.latency.mean(),
        m.latency.variance(),
    ]
    .map(f64::to_bits);
    let range = [m.latency.min(), m.latency.max()].map(|x| x.map(f64::to_bits));
    (counters, moments, range)
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

/// The operating point and wait schedule of the enforced oracle
/// comparisons: arrivals at 2.5× the first stage's minimal vector
/// interval, a deadline 5× the smallest feasible one.
fn oracle_waits(p: &PipelineSpec) -> (RtParams, rtsdf_core::WaitSchedule) {
    let xmin = rtsdf_core::minimal_periods(&Topology::chain(p));
    let tau0 = xmin[0] / p.vector_width() as f64 * 2.5;
    let b: Vec<f64> = p
        .mean_gains()
        .iter()
        .map(|g| (g.ceil() + 1.0).max(2.0))
        .collect();
    let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
    let params = RtParams::new(tau0, min_d * 5.0).unwrap();
    (
        params,
        EnforcedProblem::new(&Topology::chain(p), params, b)
            .solve()
            .unwrap(),
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

    /// The streaming enforced kernel with every hook attached at once —
    /// obs, spans, live and a (possibly zero-intensity) perturbation
    /// under the full mitigation policy — against the scalar reference
    /// given the same obs sink and faults: SimMetrics and ObsReport
    /// agree bit for bit.
    #[test]
    fn vectorized_enforced_matches_scalar_reference(
        p in pipeline(),
        seed in 0u64..1000,
        intensity in intensity(),
        run in enforced_config(),
    ) {
        use pipeline_sim::reference::simulate_enforced_reference;

        let (params, sched) = oracle_waits(&p);
        let cfg = sim_config(params.tau0, seed, run);
        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let policy = MitigationPolicy::full();

        let mut obs = ObsSink::new(p.len());
        let mut spans = SpanSink::new(TraceConfig::default());
        let live_metrics = SimLiveMetrics::new(p.len(), 1);
        let handle = live_metrics.handle(0);
        let hooks = Hooks {
            obs: Some(&mut obs),
            spans: Some(&mut spans),
            live: Some(&handle),
            faults: Some((&perturb, &policy)),
        };
        let mut live = enforced::simulate(&Topology::chain(&p), &sched, params.deadline, &cfg, hooks)
            .unwrap();
        live.obs = Some(obs.report());
        let mut sink = ObsSink::new(p.len());
        let mut oracle = simulate_enforced_reference(
            &p, &sched, params.deadline, &cfg, Some(&mut sink), Some((&perturb, &policy)),
        );
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));
    }

    /// The monolithic kernel with every hook attached at once against
    /// the scalar reference given the same obs sink and perturbation.
    #[test]
    fn vectorized_monolithic_matches_scalar_reference(
        p in pipeline(),
        seed in 0u64..1000,
        m_block in 8u64..128,
        intensity in intensity(),
    ) {
        use pipeline_sim::reference::simulate_monolithic_reference;

        let tau0 = p.total_service_time();
        let sched = blocks(m_block);
        let cfg = SimConfig::quick(tau0, seed, 400);
        let deadline = 1e15;
        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let none = MitigationPolicy::none();

        let mut obs = ObsSink::new(p.len());
        let mut spans = SpanSink::new(TraceConfig::default());
        let live_metrics = SimLiveMetrics::new(p.len(), 1);
        let handle = live_metrics.handle(0);
        let hooks = Hooks {
            obs: Some(&mut obs),
            spans: Some(&mut spans),
            live: Some(&handle),
            faults: Some((&perturb, &none)),
        };
        let mut live = monolithic::simulate(&Topology::chain(&p), &sched, deadline, &cfg, hooks)
            .unwrap();
        live.obs = Some(obs.report());
        let mut sink = ObsSink::new(p.len());
        let mut oracle = simulate_monolithic_reference(
            &p, &sched, deadline, &cfg, Some(&mut sink), Some(&perturb),
        );
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));
    }
}

// ---------------------------------------------------------------------
// The DAG generalization. Three laws: (1) any linear chain expressed as a
// `Topology` is *bit-identical* — serialized SimMetrics plus ObsReport —
// to the frozen scalar references, so the topology routing layer adds
// exactly nothing on chains; (2) on genuine fan-out/fan-in topologies
// every arrived input has exactly one fate (completed, dropped, or shed);
// (3) on both, any subset of the hooks leaves the run's bits unchanged.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chain_as_topology_enforced_matches_scalar_reference(
        p in pipeline(),
        seed in 0u64..1000,
        intensity in intensity(),
        run in enforced_config(),
    ) {
        use pipeline_sim::reference::simulate_enforced_reference;

        let t = dataflow_model::Topology::chain(&p);
        let (params, sched) = oracle_waits(&p);
        let cfg = sim_config(params.tau0, seed, run);

        // Plain run, no hooks: the bulk arrival drain.
        let live = enforced::simulate(&t, &sched, params.deadline, &cfg, Hooks::default()).unwrap();
        let oracle = simulate_enforced_reference(&p, &sched, params.deadline, &cfg, None, None);
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));

        // Observed run: SimMetrics + full ObsReport must agree.
        let mut sink = ObsSink::new(p.len());
        let hooks = Hooks { obs: Some(&mut sink), ..Hooks::default() };
        let mut live = enforced::simulate(&t, &sched, params.deadline, &cfg, hooks).unwrap();
        live.obs = Some(sink.report());
        let mut sink = ObsSink::new(p.len());
        let mut oracle = simulate_enforced_reference(
            &p, &sched, params.deadline, &cfg, Some(&mut sink), None,
        );
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));

        // Stressed run, including intensity 0.
        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let policy = MitigationPolicy::full();
        let hooks = Hooks { faults: Some((&perturb, &policy)), ..Hooks::default() };
        let live = enforced::simulate(&t, &sched, params.deadline, &cfg, hooks).unwrap();
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
        use pipeline_sim::reference::simulate_monolithic_reference;

        let t = dataflow_model::Topology::chain(&p);
        let tau0 = p.total_service_time();
        let sched = blocks(m_block);
        let cfg = SimConfig::quick(tau0, seed, 400);
        let deadline = 1e15;

        let mut sink = ObsSink::new(p.len());
        let hooks = Hooks { obs: Some(&mut sink), ..Hooks::default() };
        let mut live = monolithic::simulate(&t, &sched, deadline, &cfg, hooks).unwrap();
        live.obs = Some(sink.report());
        let mut sink = ObsSink::new(p.len());
        let mut oracle = simulate_monolithic_reference(
            &p, &sched, deadline, &cfg, Some(&mut sink), None,
        );
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&live), metrics_json(&oracle));

        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let none = MitigationPolicy::none();
        let hooks = Hooks { faults: Some((&perturb, &none)), ..Hooks::default() };
        let live = monolithic::simulate(&t, &sched, deadline, &cfg, hooks).unwrap();
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
        let params = topology_operating_point(&t, slack);
        let b: Vec<f64> = rtsdf_core::EnforcedProblem::optimistic_backlog(&t)
            .iter()
            .map(|x| x + 2.0)
            .collect();
        let sched = rtsdf_core::EnforcedProblem::new(&t, params, b)
            .solve()
            .expect("generous operating point is feasible");
        let cfg = SimConfig::quick(params.tau0, seed, 400);
        let m = enforced::simulate(&t, &sched, params.deadline, &cfg, Hooks::default()).unwrap();
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
        let params = topology_operating_point(&t, 2.0);
        let b: Vec<f64> = rtsdf_core::EnforcedProblem::optimistic_backlog(&t)
            .iter()
            .map(|x| x + 1.0)
            .collect();
        let sched = rtsdf_core::EnforcedProblem::new(&t, params, b)
            .solve()
            .expect("generous operating point is feasible");
        let cfg = SimConfig::quick(params.tau0, seed, 300);
        let hooks = Hooks {
            faults: Some((&Perturbation::standard(intensity), &MitigationPolicy::full())),
            ..Hooks::default()
        };
        let m = enforced::simulate(&t, &sched, params.deadline, &cfg, hooks).unwrap();
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
        let tau0 = t.total_service_time();
        let sched = blocks(m_block);
        let cfg = SimConfig::quick(tau0, seed, 400);
        let m = monolithic::simulate(&t, &sched, 1e18, &cfg, Hooks::default()).unwrap();
        prop_assert!(!m.truncated);
        prop_assert_eq!(m.items_completed + m.items_dropped, m.items_arrived);
        prop_assert_eq!(m.deadline_misses, 0);
        prop_assert!(m.active_fraction > 0.0 && m.active_fraction <= 1.0 + 1e-9);
    }
    #[test]
    fn hooks_compose_without_changing_a_bit(
        t in prop_oneof![pipeline().prop_map(|p| Topology::chain(&p)), topology()],
        seed in 0u64..500,
        m_block in 8u64..128,
    ) {
        let params = topology_operating_point(&t, 3.0);
        let b: Vec<f64> = rtsdf_core::EnforcedProblem::optimistic_backlog(&t)
            .iter()
            .map(|x| x + 2.0)
            .collect();
        let waits = rtsdf_core::EnforcedProblem::new(&t, params, b)
            .solve()
            .expect("generous operating point is feasible");
        let blocks = blocks(m_block);
        let zero = Perturbation::standard(1.0).at_intensity(0.0);
        let none = MitigationPolicy::none();
        let live = SimLiveMetrics::new(t.len(), 1);
        for on_enforced in [true, false] {
            let run = |hooks: Hooks<'_>| {
                if on_enforced {
                    let cfg = SimConfig::quick(params.tau0, seed, 300);
                    enforced::simulate(&t, &waits, params.deadline, &cfg, hooks)
                } else {
                    let cfg = SimConfig::quick(t.total_service_time(), seed, 300);
                    monolithic::simulate(&t, &blocks, 1e18, &cfg, hooks)
                }
                .unwrap()
            };
            let plain = run(Hooks::default());
            // Bit 0: obs, bit 1: spans, bit 2: live, bit 3: zero faults.
            for subset in 1u8..16 {
                let mut obs = ObsSink::new(t.len());
                let mut spans = SpanSink::new(TraceConfig::default());
                let handle = live.handle(0);
                let m = run(Hooks {
                    obs: (subset & 1 != 0).then_some(&mut obs),
                    spans: (subset & 2 != 0).then_some(&mut spans),
                    live: (subset & 4 != 0).then_some(&handle),
                    faults: (subset & 8 != 0).then_some((&zero, &none)),
                });
                prop_assert_eq!(
                    run_bits(&plain),
                    run_bits(&m),
                    "enforced {}, hook subset {:#06b}",
                    on_enforced,
                    subset
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Every gain family against the scalar reference. The pipelines above
// draw only two-point laws with at most two outputs; the enforced
// kernel's routing writes depend on the law's largest count (one
// conditional store for at most one output, an 8-slot spread above,
// a slow path past 8), so these chains draw from all four families.

/// A gain law from any of the four families: deterministic (0–2
/// outputs), Bernoulli, censored Poisson (mean up to 12, cap at least
/// 20, so counts past the 8-slot spread occur) and an empirical PMF
/// with support up to 20.
fn any_gain() -> impl Strategy<Value = GainModel> {
    prop_oneof![
        (0u32..=2).prop_map(|k| GainModel::Deterministic { k }),
        (0.05..1.0f64).prop_map(|p| GainModel::Bernoulli { p }),
        (0.3..12.0f64, 20u32..=40).prop_map(|(mean, cap)| GainModel::CensoredPoisson { mean, cap }),
        prop::collection::vec((0u32..=20, 0.05..1.0f64), 1..=4).prop_map(|points| {
            let total: f64 = points.iter().map(|(_, w)| w).sum();
            let pmf = points.into_iter().map(|(k, w)| (k, w / total)).collect();
            GainModel::Empirical { pmf }
        }),
    ]
}

/// A two- or three-stage chain of [`any_gain`] laws whose expected
/// expansion stays at most 24 items per input, so a case stays small.
fn any_family_pipeline() -> impl Strategy<Value = PipelineSpec> {
    prop::collection::vec((20.0..500.0f64, any_gain()), 2..=3)
        .prop_map(|stages| {
            let mut b = PipelineSpecBuilder::new(32);
            for (i, (t, gain)) in stages.into_iter().enumerate() {
                b = b.stage(format!("s{i}"), t, gain);
            }
            b.build().expect("valid")
        })
        .prop_filter("bounded expansion", |p| {
            p.total_gains().iter().all(|&g| g <= 24.0) && p.end_to_end_gain() <= 24.0
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chains of every gain family, over streams longer than the
    /// lineage ring's first 1,024 slots — and, with the periods
    /// stretched past stability, with so many inputs in flight that the
    /// ring grows mid-run — against the scalar reference, bit for bit:
    /// plain, and with every hook attached.
    #[test]
    fn every_gain_family_matches_scalar_reference(
        p in any_family_pipeline(),
        seed in 0u64..1000,
        items in 1_100usize..3_000,
        stretch in prop_oneof![Just(1.0), 1.5..3.0f64],
        intensity in intensity(),
    ) {
        use pipeline_sim::reference::simulate_enforced_reference;

        let (params, mut sched) = oracle_waits(&p);
        for x in &mut sched.periods {
            *x *= stretch;
        }
        let cfg = SimConfig::quick(params.tau0, seed, items);
        let d = params.deadline;
        let t = Topology::chain(&p);

        let plain = enforced::simulate(&t, &sched, d, &cfg, Hooks::default()).unwrap();
        let oracle = simulate_enforced_reference(&p, &sched, d, &cfg, None, None);
        prop_assert_eq!(metrics_json(&plain), metrics_json(&oracle));

        // Faults alone: shed inputs resolve in the latency lanes, which
        // span tracing would bypass.
        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let policy = MitigationPolicy::full();
        let faults = Some((&perturb, &policy));
        let stressed = enforced::simulate(&t, &sched, d, &cfg, Hooks { faults, ..Hooks::default() })
            .unwrap();
        let oracle = simulate_enforced_reference(&p, &sched, d, &cfg, None, faults);
        prop_assert_eq!(metrics_json(&stressed), metrics_json(&oracle));

        let mut obs = ObsSink::new(p.len());
        let mut spans = SpanSink::new(TraceConfig::default());
        let live_metrics = SimLiveMetrics::new(p.len(), 1);
        let handle = live_metrics.handle(0);
        let hooks = Hooks {
            obs: Some(&mut obs),
            spans: Some(&mut spans),
            live: Some(&handle),
            faults,
        };
        let mut hooked = enforced::simulate(&t, &sched, d, &cfg, hooks).unwrap();
        hooked.obs = Some(obs.report());
        let mut sink = ObsSink::new(p.len());
        let mut oracle = simulate_enforced_reference(&p, &sched, d, &cfg, Some(&mut sink), faults);
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&hooked), metrics_json(&oracle));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stressed chains under each mitigation policy — none, shedding
    /// only, full, and full with a negative escalation headroom, which
    /// leaves escalation due right after a re-solve so that consecutive
    /// arrivals re-solve — against the scalar reference, bit for bit.
    /// The operating point is tight (design factors at the rounded-up
    /// gains, a deadline 3× the smallest feasible one), so admission
    /// sheds runs of arrivals and escalation re-solves mid-run. Plain,
    /// and with obs and live attached (the reference has no live layer;
    /// it must change nothing).
    #[test]
    fn stressed_chain_matches_scalar_reference_under_every_policy(
        p in pipeline(),
        seed in 0u64..1000,
        intensity in intensity(),
        run in enforced_config(),
        policy in prop_oneof![
            Just(MitigationPolicy::none()),
            Just(MitigationPolicy::shed_only()),
            Just(MitigationPolicy::full()),
            Just(MitigationPolicy { escalate_headroom: -1.0, max_resolves: 64, ..MitigationPolicy::full() }),
        ],
    ) {
        use pipeline_sim::reference::simulate_enforced_reference;

        let xmin = rtsdf_core::minimal_periods(&Topology::chain(&p));
        let tau0 = xmin[0] / p.vector_width() as f64 * 2.0;
        let b: Vec<f64> = p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect();
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * 3.0).unwrap();
        let sched = EnforcedProblem::new(&Topology::chain(&p), params, b).solve().unwrap();
        let cfg = sim_config(tau0, seed, run);
        let d = params.deadline;
        let t = Topology::chain(&p);
        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        let faults = Some((&perturb, &policy));

        let stressed = enforced::simulate(&t, &sched, d, &cfg, Hooks { faults, ..Hooks::default() })
            .unwrap();
        let oracle = simulate_enforced_reference(&p, &sched, d, &cfg, None, faults);
        prop_assert_eq!(metrics_json(&stressed), metrics_json(&oracle));

        let mut obs = ObsSink::new(p.len());
        let live_metrics = SimLiveMetrics::new(p.len(), 1);
        let handle = live_metrics.handle(0);
        let hooks = Hooks {
            obs: Some(&mut obs),
            live: Some(&handle),
            faults,
            ..Hooks::default()
        };
        let mut hooked = enforced::simulate(&t, &sched, d, &cfg, hooks).unwrap();
        hooked.obs = Some(obs.report());
        let mut sink = ObsSink::new(p.len());
        let mut oracle = simulate_enforced_reference(&p, &sched, d, &cfg, Some(&mut sink), faults);
        oracle.obs = Some(sink.report());
        prop_assert_eq!(metrics_json(&hooked), metrics_json(&oracle));
        drop(handle);
        let (arrived, _, shed) = live_metrics.item_counts();
        prop_assert_eq!((arrived, shed), (stressed.items_arrived, stressed.items_shed));
    }
}
