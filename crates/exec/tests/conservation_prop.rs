//! Deadlock-freedom and conservation property test for the threaded
//! executor (the ISSUE's satellite 4): across random topologies,
//! channel capacities, and seeds — including *unstable* schedules whose
//! back-pressure chains all the way to the pacer — every run must
//! terminate with `completed + dropped == arrived`.
//!
//! Each case runs under an external watchdog thread: if the executor
//! wedges, the test fails with a timeout instead of hanging CI.

use dataflow_model::{ArrivalProcess, GainModel, Topology, TopologyBuilder};
use proptest::prelude::*;
use rtsdf_core::WaitSchedule;
use rtsdf_exec::{run_enforced, ExecConfig, ExecMetrics};
use std::sync::mpsc;
use std::time::Duration;

/// Bounded two-point gain with the requested mean (`k` w.p. `mean/k`,
/// else 0), so expansion stays finite but zero-gain extinction paths
/// are exercised.
fn two_point(mean: f64) -> GainModel {
    let k = mean.ceil().max(1.0) as u32;
    GainModel::Empirical {
        pmf: vec![(0, 1.0 - mean / k as f64), (k, mean / k as f64)],
    }
}

/// Random DAG: a linear chain of 2–5 nodes with an optional forward
/// skip edge (fan-out at its source, fan-in at its destination).
fn topology() -> impl Strategy<Value = Topology> {
    (
        prop::collection::vec((5.0..30.0f64, 0.3..1.6f64), 2..=5),
        prop::bool::ANY,
        0usize..8,
        0.4..1.0f64,
    )
        .prop_map(|(nodes, with_skip, skip_pick, weight)| {
            let n = nodes.len();
            let mut b = TopologyBuilder::new(8);
            for (i, (t, _)) in nodes.iter().enumerate() {
                b = b.node(format!("n{i}"), *t);
            }
            for (i, (_, mean)) in nodes.iter().enumerate().take(n - 1) {
                b = b.edge(i, i + 1, two_point(*mean), 1.0);
            }
            if with_skip && n >= 3 {
                // A forward skip from some node to the sink: fan-out at
                // its source, fan-in at the destination.
                let src = skip_pick % (n - 2);
                b = b.edge(src, n - 1, two_point(0.8), weight);
            }
            b.build().expect("forward edges only: acyclic")
        })
}

/// A hand-built schedule: periods are `service × stretch` (possibly
/// *unstable* — stretch can exceed what throughput needs) and backlog
/// factors set the channel capacities. No solver involved: the
/// property is about the executor, not about schedule quality.
fn schedule_for(topology: &Topology, stretch: &[f64], backlog: &[f64]) -> WaitSchedule {
    let service = topology.service_times();
    let periods: Vec<f64> = service
        .iter()
        .zip(stretch)
        .map(|(t, s)| (t * s).max(1.0))
        .collect();
    let waits: Vec<f64> = periods
        .iter()
        .zip(&service)
        .map(|(x, t)| (x - t).max(0.0))
        .collect();
    let n = service.len() as f64;
    WaitSchedule {
        active_fraction: service
            .iter()
            .zip(&periods)
            .map(|(t, x)| t / x)
            .sum::<f64>()
            / n,
        latency_bound: periods.iter().zip(backlog).map(|(x, b)| x * b).sum(),
        waits,
        periods,
        backlog_factors: backlog.to_vec(),
        telemetry: None,
    }
}

/// Run the executor under a watchdog; panics if it exceeds `timeout`.
fn run_with_watchdog(
    topology: Topology,
    schedule: WaitSchedule,
    config: ExecConfig,
    timeout: Duration,
) -> ExecMetrics {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = run_enforced(&topology, &schedule, &config);
        let _ = tx.send(result);
    });
    match rx.recv_timeout(timeout) {
        Ok(result) => result.expect("executor returned an error"),
        Err(_) => panic!("executor did not terminate within {timeout:?}: deadlock or livelock"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn executor_terminates_and_conserves_items(
        topology in topology(),
        stretch in prop::collection::vec(1.0..4.0f64, 5),
        backlog in prop::collection::vec(1.0..4.0f64, 5),
        seed in 0u64..1000,
        tau_scale in 0.5..4.0f64,
    ) {
        let n = topology.len();
        let schedule = schedule_for(&topology, &stretch[..n], &backlog[..n]);
        // Arrivals from clearly-overloaded to comfortable: tau_scale
        // below ~1 floods the pipeline and drives real back-pressure
        // stalls all the way into the pacer.
        let tau0 = (schedule.periods.iter().fold(0.0f64, |a, &x| a.max(x))
            / topology.vector_width() as f64)
            * tau_scale;
        let config = ExecConfig {
            stream_length: 40,
            seed,
            arrivals: ArrivalProcess::Periodic { tau0: tau0.max(1.0) },
            deadline: schedule.latency_bound.max(1.0) * 4.0,
            target_duration_secs: 0.05,
            min_burn_ns: 200.0,
            time_scale_ns: None,
        };
        let metrics = run_with_watchdog(
            topology,
            schedule,
            config,
            Duration::from_secs(30),
        );
        // Conservation: nothing lost, nothing invented. The executor
        // never drops — every input resolves through gain extinction or
        // sink consumption — so completion is total.
        prop_assert_eq!(metrics.items_arrived, 40);
        prop_assert_eq!(metrics.items_completed, 40);
        prop_assert_eq!(metrics.items_dropped, 0);
        prop_assert!(metrics.conservation_holds());
        // Sanity on the measured quantities.
        prop_assert!(metrics.active_fraction > 0.0);
        prop_assert!(metrics.horizon_cycles > 0.0);
        for stage in &metrics.stages {
            prop_assert!(stage.fired > 0);
        }
    }
}
