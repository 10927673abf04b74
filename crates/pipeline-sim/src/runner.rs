//! Multi-seed experiment execution.
//!
//! The paper's methodology (§6.2) runs each configuration under 100
//! different random seeds and reports the fraction of runs that were
//! miss-free. Seeds are independent, so runs execute in parallel across
//! a scoped thread pool.

use crate::config::SimConfig;
use crate::enforced::{
    simulate_enforced, simulate_enforced_perturbed, simulate_enforced_perturbed_live,
    simulate_enforced_topology, simulate_enforced_topology_perturbed,
    simulate_enforced_topology_perturbed_live,
};
use crate::faults::MitigationPolicy;
use crate::live::{SimLive, SimLiveMetrics};
use crate::metrics::SimMetrics;
use crate::monolithic::{
    simulate_monolithic, simulate_monolithic_perturbed, simulate_monolithic_perturbed_live,
    simulate_monolithic_topology, simulate_monolithic_topology_perturbed,
    simulate_monolithic_topology_perturbed_live,
};
use dataflow_model::{Perturbation, PipelineSpec, Topology};
use rtsdf_core::{MonolithicSchedule, WaitSchedule};
use serde::{Deserialize, Serialize};

/// Aggregate of a batch of runs differing only in seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiSeedReport {
    /// Per-seed results, in seed order.
    pub runs: Vec<SimMetrics>,
}

impl MultiSeedReport {
    /// Fraction of runs with zero deadline misses (the paper's primary
    /// schedulability statistic).
    pub fn miss_free_fraction(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().filter(|r| r.miss_free()).count() as f64 / self.runs.len() as f64
    }

    /// Worst per-run miss rate observed.
    pub fn worst_miss_rate(&self) -> f64 {
        self.runs.iter().map(|r| r.miss_rate()).fold(0.0, f64::max)
    }

    /// Mean measured active fraction across runs.
    pub fn mean_active_fraction(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.active_fraction).sum::<f64>() / self.runs.len() as f64
    }

    /// Componentwise maximum of the empirical backlog (in vectors) over
    /// all runs — the data the §6.2 calibration raises `b_i` from.
    ///
    /// Runs with differing stage counts are combined over the longest
    /// length (missing stages contribute nothing), so no run's data is
    /// silently truncated.
    pub fn max_backlog_vectors(&self) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        for r in &self.runs {
            if r.max_backlog_vectors.len() > out.len() {
                out.resize(r.max_backlog_vectors.len(), 0.0);
            }
            for (o, &b) in out.iter_mut().zip(&r.max_backlog_vectors) {
                *o = o.max(b);
            }
        }
        out
    }

    /// True if any run hit its safety horizon.
    pub fn any_truncated(&self) -> bool {
        self.runs.iter().any(|r| r.truncated)
    }

    /// Worst per-run miss rate over *admitted* items (misses divided by
    /// arrived − shed) — the quality statistic the shedding mitigation
    /// protects.
    pub fn worst_admitted_miss_rate(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.admitted_miss_rate())
            .fold(0.0, f64::max)
    }

    /// Total items shed at admission across all runs.
    pub fn total_shed(&self) -> u64 {
        self.runs.iter().map(|r| r.items_shed).sum()
    }

    /// Total online wait re-solves across all runs.
    pub fn total_resolves(&self) -> u64 {
        self.runs.iter().map(|r| r.resolves).sum()
    }

    /// Total deadline misses across all runs.
    pub fn total_misses(&self) -> u64 {
        self.runs.iter().map(|r| r.deadline_misses).sum()
    }
}

/// Run a closure-per-seed experiment in parallel and collect results in
/// seed order.
fn run_parallel<F>(seeds: std::ops::Range<u64>, threads: usize, f: F) -> Vec<SimMetrics>
where
    F: Fn(u64) -> SimMetrics + Sync,
{
    run_parallel_live(seeds, threads, None, |seed, _| f(seed))
}

/// [`run_parallel`] with an optional live-metrics registry: each worker
/// thread publishes through its own shard (one [`SimLive`] handle per
/// run), and every finished seed bumps `rtsdf_sim_runs_completed`.
fn run_parallel_live<F>(
    seeds: std::ops::Range<u64>,
    threads: usize,
    live: Option<&SimLiveMetrics>,
    f: F,
) -> Vec<SimMetrics>
where
    F: Fn(u64, Option<&SimLive<'_>>) -> SimMetrics + Sync,
{
    let seeds: Vec<u64> = seeds.collect();
    if seeds.is_empty() {
        // `chunks(0)` below would panic; zero seeds is a valid request
        // with an empty answer.
        return Vec::new();
    }
    let threads = threads.max(1).min(seeds.len());
    let chunk = seeds.len().div_ceil(threads).max(1);
    let mut results: Vec<Option<SimMetrics>> = vec![None; seeds.len()];
    std::thread::scope(|scope| {
        for (worker, (seed_chunk, result_chunk)) in seeds
            .chunks(chunk)
            .zip(results.chunks_mut(chunk))
            .enumerate()
        {
            let f = &f;
            scope.spawn(move || {
                for (s, out) in seed_chunk.iter().zip(result_chunk.iter_mut()) {
                    match live {
                        Some(m) => {
                            let h = m.handle(worker);
                            *out = Some(f(*s, Some(&h)));
                            m.on_run_complete(worker);
                        }
                        None => *out = Some(f(*s, None)),
                    }
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all seeds ran"))
        .collect()
}

/// Simulate an enforced-waits schedule under `num_seeds` seeds
/// (numbered `0..num_seeds`), in parallel.
pub fn run_seeds_enforced(
    pipeline: &PipelineSpec,
    schedule: &WaitSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel(0..num_seeds, threads, |seed| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        simulate_enforced(pipeline, schedule, deadline, &cfg)
    });
    MultiSeedReport { runs }
}

/// Simulate an enforced-waits schedule under fault injection with
/// graceful degradation, across `num_seeds` seeds in parallel. See
/// [`simulate_enforced_perturbed`] for the fault and mitigation
/// semantics; a zero-intensity perturbation reproduces
/// [`run_seeds_enforced`] bit for bit (modulo the mitigation-only
/// counters, which stay zero).
pub fn run_seeds_enforced_perturbed(
    pipeline: &PipelineSpec,
    schedule: &WaitSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
    perturb: &Perturbation,
    policy: &MitigationPolicy,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel(0..num_seeds, threads, |seed| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        simulate_enforced_perturbed(pipeline, schedule, deadline, &cfg, perturb, policy)
    });
    MultiSeedReport { runs }
}

/// [`run_seeds_enforced_perturbed`] publishing live progress into a
/// metrics registry: per-run item counters, queue high-water marks,
/// throughput, and a `rtsdf_sim_runs_completed` bump per finished seed.
/// `live: None` is exactly [`run_seeds_enforced_perturbed`].
#[allow(clippy::too_many_arguments)]
pub fn run_seeds_enforced_perturbed_live(
    pipeline: &PipelineSpec,
    schedule: &WaitSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
    perturb: &Perturbation,
    policy: &MitigationPolicy,
    live: Option<&SimLiveMetrics>,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel_live(0..num_seeds, threads, live, |seed, l| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        match l {
            Some(h) => simulate_enforced_perturbed_live(
                pipeline, schedule, deadline, &cfg, perturb, policy, h,
            ),
            None => {
                simulate_enforced_perturbed(pipeline, schedule, deadline, &cfg, perturb, policy)
            }
        }
    });
    MultiSeedReport { runs }
}

/// Simulate a monolithic schedule under fault injection across
/// `num_seeds` seeds in parallel (no mitigation exists for this
/// strategy; see [`simulate_monolithic_perturbed`]).
pub fn run_seeds_monolithic_perturbed(
    pipeline: &PipelineSpec,
    schedule: &MonolithicSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
    perturb: &Perturbation,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel(0..num_seeds, threads, |seed| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        simulate_monolithic_perturbed(pipeline, schedule, deadline, &cfg, perturb)
    });
    MultiSeedReport { runs }
}

/// [`run_seeds_monolithic_perturbed`] publishing live progress into a
/// metrics registry; `live: None` is exactly
/// [`run_seeds_monolithic_perturbed`].
pub fn run_seeds_monolithic_perturbed_live(
    pipeline: &PipelineSpec,
    schedule: &MonolithicSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
    perturb: &Perturbation,
    live: Option<&SimLiveMetrics>,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel_live(0..num_seeds, threads, live, |seed, l| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        match l {
            Some(h) => {
                simulate_monolithic_perturbed_live(pipeline, schedule, deadline, &cfg, perturb, h)
            }
            None => simulate_monolithic_perturbed(pipeline, schedule, deadline, &cfg, perturb),
        }
    });
    MultiSeedReport { runs }
}

/// Simulate an enforced-waits schedule on an arbitrary DAG topology
/// under `num_seeds` seeds, in parallel. For a chain topology this is
/// bit-identical to [`run_seeds_enforced`].
pub fn run_seeds_enforced_topology(
    topology: &Topology,
    schedule: &WaitSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel(0..num_seeds, threads, |seed| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        simulate_enforced_topology(topology, schedule, deadline, &cfg)
    });
    MultiSeedReport { runs }
}

/// [`run_seeds_enforced_perturbed_live`] on an arbitrary DAG topology.
#[allow(clippy::too_many_arguments)]
pub fn run_seeds_enforced_topology_perturbed_live(
    topology: &Topology,
    schedule: &WaitSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
    perturb: &Perturbation,
    policy: &MitigationPolicy,
    live: Option<&SimLiveMetrics>,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel_live(0..num_seeds, threads, live, |seed, l| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        match l {
            Some(h) => simulate_enforced_topology_perturbed_live(
                topology, schedule, deadline, &cfg, perturb, policy, h,
            ),
            None => simulate_enforced_topology_perturbed(
                topology, schedule, deadline, &cfg, perturb, policy,
            ),
        }
    });
    MultiSeedReport { runs }
}

/// Simulate a monolithic schedule on an arbitrary DAG topology under
/// `num_seeds` seeds, in parallel. For a chain topology this is
/// bit-identical to [`run_seeds_monolithic`].
pub fn run_seeds_monolithic_topology(
    topology: &Topology,
    schedule: &MonolithicSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel(0..num_seeds, threads, |seed| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        simulate_monolithic_topology(topology, schedule, deadline, &cfg)
    });
    MultiSeedReport { runs }
}

/// [`run_seeds_monolithic_perturbed_live`] on an arbitrary DAG topology.
pub fn run_seeds_monolithic_topology_perturbed_live(
    topology: &Topology,
    schedule: &MonolithicSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
    perturb: &Perturbation,
    live: Option<&SimLiveMetrics>,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel_live(0..num_seeds, threads, live, |seed, l| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        match l {
            Some(h) => simulate_monolithic_topology_perturbed_live(
                topology, schedule, deadline, &cfg, perturb, h,
            ),
            None => {
                simulate_monolithic_topology_perturbed(topology, schedule, deadline, &cfg, perturb)
            }
        }
    });
    MultiSeedReport { runs }
}

/// Simulate a monolithic schedule under `num_seeds` seeds, in parallel.
pub fn run_seeds_monolithic(
    pipeline: &PipelineSpec,
    schedule: &MonolithicSchedule,
    deadline: f64,
    base_config: &SimConfig,
    num_seeds: u64,
) -> MultiSeedReport {
    let threads = rtsdf_core::worker_threads();
    let runs = run_parallel(0..num_seeds, threads, |seed| {
        let mut cfg = base_config.clone();
        cfg.seed = seed;
        simulate_monolithic(pipeline, schedule, deadline, &cfg)
    });
    MultiSeedReport { runs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_model::{GainModel, PipelineSpecBuilder, RtParams};
    use rtsdf_core::{EnforcedWaitsProblem, MonolithicProblem};

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

    #[test]
    fn parallel_results_are_in_seed_order_and_deterministic() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 0, 1_000);
        let a = run_seeds_enforced(&p, &sched, 1e5, &cfg, 6);
        let b = run_seeds_enforced(&p, &sched, 1e5, &cfg, 6);
        assert_eq!(a.runs.len(), 6);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.active_fraction, y.active_fraction);
            assert_eq!(x.deadline_misses, y.deadline_misses);
        }
        // Sequential reference for seed 3.
        let mut c3 = cfg.clone();
        c3.seed = 3;
        let seq = crate::enforced::simulate_enforced(&p, &sched, 1e5, &c3);
        assert_eq!(a.runs[3].active_fraction, seq.active_fraction);
    }

    #[test]
    fn report_statistics() {
        let p = blast();
        let params = RtParams::new(50.0, 1e5).unwrap();
        let sched = MonolithicProblem::new(&p, params, 1.0, 1.0)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(50.0, 0, 2_000);
        let r = run_seeds_monolithic(&p, &sched, 1e5, &cfg, 4);
        assert_eq!(r.runs.len(), 4);
        assert!((0.0..=1.0).contains(&r.miss_free_fraction()));
        assert!(r.mean_active_fraction() > 0.0);
        assert_eq!(r.max_backlog_vectors().len(), 4);
        assert!(!r.any_truncated());
        assert!(r.worst_miss_rate() >= 0.0);
    }

    #[test]
    fn empty_report_statistics() {
        let r = MultiSeedReport { runs: vec![] };
        assert_eq!(r.miss_free_fraction(), 0.0);
        assert_eq!(r.mean_active_fraction(), 0.0);
        assert!(r.max_backlog_vectors().is_empty());
    }

    #[test]
    fn zero_seeds_returns_empty_report() {
        // Regression: `run_parallel` used to call `chunks(0)` (a panic)
        // when asked for an empty seed range.
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 0, 100);
        let r = run_seeds_enforced(&p, &sched, 1e5, &cfg, 0);
        assert!(r.runs.is_empty());
        assert_eq!(r.miss_free_fraction(), 0.0);
    }

    #[test]
    fn max_backlog_vectors_spans_longest_run() {
        // Reports mixing runs with different stage counts must not
        // silently truncate to the first run's length.
        let mk = |backlog: Vec<f64>| SimMetrics {
            items_arrived: 1,
            items_completed: 1,
            items_dropped: 0,
            deadline_misses: 0,
            items_shed: 0,
            resolves: 0,
            active_fraction: 0.5,
            active_fraction_nonempty: 0.5,
            latency: des::stats::OnlineStats::new(),
            occupancy: vec![],
            max_queue_depth: vec![],
            max_backlog_vectors: backlog,
            horizon: 1.0,
            truncated: false,
            obs: None,
            blame: None,
        };
        let r = MultiSeedReport {
            runs: vec![mk(vec![2.0]), mk(vec![1.0, 5.0, 3.0]), mk(vec![4.0, 0.5])],
        };
        assert_eq!(r.max_backlog_vectors(), vec![4.0, 5.0, 3.0]);
    }
}
