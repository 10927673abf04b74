//! Multi-seed experiment execution.
//!
//! The paper's methodology (§6.2) runs each configuration under 100
//! different random seeds and reports the fraction of runs that were
//! miss-free. Seeds are independent, so runs execute in parallel across
//! a scoped thread pool. [`run_seeds`] is the one entry point for either
//! strategy: it hands each seed's config and [`Hooks`] to a closure that
//! calls that strategy's `simulate`.

use crate::config::SimConfig;
use crate::hooks::{Hooks, SimError};
use crate::live::SimLiveMetrics;
use crate::metrics::SimMetrics;
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

/// Run `run` once per seed `base_config.seed..base_config.seed +
/// num_seeds` (wrapping past `u64::MAX`), in parallel across
/// [`rtsdf_core::worker_threads`] scoped threads, and collect the runs in
/// seed order.
///
/// Each call gets `base_config` with its seed set, and a [`Hooks`] that
/// holds only the worker's live handle when `live` is given (one
/// [`SimLiveMetrics::handle`] per run, on the worker's shard; every
/// finished seed bumps `rtsdf_sim_runs_completed`). The closure adds any
/// other layer it wants and calls a strategy's `simulate`:
///
/// ```
/// # use dataflow_model::{RtParams, Topology};
/// # use pipeline_sim::{enforced, run_seeds, SimConfig};
/// # use rtsdf_core::EnforcedWaitsProblem;
/// # let p = dataflow_model::PipelineSpecBuilder::new(4)
/// #     .stage("a", 10.0, dataflow_model::GainModel::Deterministic { k: 1 })
/// #     .build()
/// #     .unwrap();
/// # let params = RtParams::new(10.0, 1e4).unwrap();
/// # let sched = EnforcedWaitsProblem::new(&p, params, vec![1.0]).solve().unwrap();
/// let t = Topology::chain(&p);
/// let cfg = SimConfig::quick(10.0, 0, 200);
/// let report = run_seeds(&cfg, 4, None, |c, h| enforced::simulate(&t, &sched, 1e4, c, h))?;
/// assert_eq!(report.runs.len(), 4);
/// # Ok::<(), pipeline_sim::SimError>(())
/// ```
///
/// # Errors
/// The first error in seed order, if any run rejects its input.
pub fn run_seeds<F>(
    base_config: &SimConfig,
    num_seeds: u64,
    live: Option<&SimLiveMetrics>,
    run: F,
) -> Result<MultiSeedReport, SimError>
where
    F: Fn(&SimConfig, Hooks<'_>) -> Result<SimMetrics, SimError> + Sync,
{
    let seeds: Vec<u64> = (0..num_seeds)
        .map(|i| base_config.seed.wrapping_add(i))
        .collect();
    if seeds.is_empty() {
        // `chunks(0)` below would panic; zero seeds is a valid request
        // with an empty answer.
        return Ok(MultiSeedReport { runs: Vec::new() });
    }
    let threads = rtsdf_core::worker_threads().max(1).min(seeds.len());
    let chunk = seeds.len().div_ceil(threads).max(1);
    let mut results: Vec<Option<Result<SimMetrics, SimError>>> = vec![None; seeds.len()];
    std::thread::scope(|scope| {
        for (worker, (seed_chunk, result_chunk)) in seeds
            .chunks(chunk)
            .zip(results.chunks_mut(chunk))
            .enumerate()
        {
            let run = &run;
            scope.spawn(move || {
                for (&seed, out) in seed_chunk.iter().zip(result_chunk.iter_mut()) {
                    let mut cfg = base_config.clone();
                    cfg.seed = seed;
                    match live {
                        Some(m) => {
                            let h = m.handle(worker);
                            let hooks = Hooks {
                                live: Some(&h),
                                ..Hooks::default()
                            };
                            *out = Some(run(&cfg, hooks));
                            m.on_run_complete(worker);
                        }
                        None => *out = Some(run(&cfg, Hooks::default())),
                    }
                }
            });
        }
    });
    let runs = results
        .into_iter()
        .map(|r| r.expect("all seeds ran"))
        .collect::<Result<_, _>>()?;
    Ok(MultiSeedReport { runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enforced, monolithic};
    use dataflow_model::{GainModel, PipelineSpec, PipelineSpecBuilder, RtParams, Topology};
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
        let t = Topology::chain(&p);
        let run = |c: &SimConfig, h: Hooks<'_>| enforced::simulate(&t, &sched, 1e5, c, h);
        let a = run_seeds(&cfg, 6, None, run).unwrap();
        let b = run_seeds(&cfg, 6, None, run).unwrap();
        assert_eq!(a.runs.len(), 6);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.active_fraction, y.active_fraction);
            assert_eq!(x.deadline_misses, y.deadline_misses);
        }
        // Sequential reference for seed 3.
        let mut c3 = cfg.clone();
        c3.seed = 3;
        let seq = enforced::simulate(&t, &sched, 1e5, &c3, Hooks::default()).unwrap();
        assert_eq!(a.runs[3].active_fraction, seq.active_fraction);
    }

    #[test]
    fn run_seeds_numbers_seeds_from_the_base_seed() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 5, 1_000);
        let t = Topology::chain(&p);
        let run = |c: &SimConfig, h: Hooks<'_>| enforced::simulate(&t, &sched, 1e5, c, h);
        let report = run_seeds(&cfg, 2, None, run).unwrap();
        let json = |m: &SimMetrics| serde_json::to_string(m).expect("metrics serialize");
        for (run, seed) in report.runs.iter().zip([5, 6]) {
            let mut c = cfg.clone();
            c.seed = seed;
            let single = enforced::simulate(&t, &sched, 1e5, &c, Hooks::default()).unwrap();
            assert_eq!(json(run), json(&single), "seed {seed}");
        }
        // Seeds 0 and 1 draw other streams.
        let from_zero = run_seeds(&SimConfig::quick(10.0, 0, 1_000), 2, None, run).unwrap();
        assert_ne!(json(&from_zero.runs[0]), json(&report.runs[0]));
    }

    #[test]
    fn report_statistics() {
        let p = blast();
        let params = RtParams::new(50.0, 1e5).unwrap();
        let sched = MonolithicProblem::new(&p, params, 1.0, 1.0)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(50.0, 0, 2_000);
        let t = Topology::chain(&p);
        let r = run_seeds(&cfg, 4, None, |c, h| {
            monolithic::simulate(&t, &sched, 1e5, c, h)
        })
        .unwrap();
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
        // Regression: the seed runner used to call `chunks(0)` (a panic)
        // when asked for an empty seed range.
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 0, 100);
        let t = Topology::chain(&p);
        let r = run_seeds(&cfg, 0, None, |c, h| {
            enforced::simulate(&t, &sched, 1e5, c, h)
        })
        .unwrap();
        assert!(r.runs.is_empty());
        assert_eq!(r.miss_free_fraction(), 0.0);
    }

    #[test]
    fn run_seeds_returns_the_first_error_in_seed_order() {
        // Every seed fails, on two workers; whichever finishes first,
        // the answer is seed 0's error.
        let cfg = SimConfig::quick(10.0, 0, 10);
        let r = run_seeds(&cfg, 8, None, |c, _| {
            Err(SimError::ScheduleLength {
                nodes: 0,
                got: c.seed as usize,
            })
        });
        assert_eq!(
            r.unwrap_err(),
            SimError::ScheduleLength { nodes: 0, got: 0 }
        );
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
