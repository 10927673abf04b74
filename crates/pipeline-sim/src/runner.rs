//! Multi-run experiment execution.
//!
//! The paper's methodology (§6.2) runs each configuration under 100
//! different random seeds and reports the fraction of runs that were
//! miss-free. Runs are independent, so they execute in parallel on one
//! job queue: [`run_seeds`], the robustness report
//! ([`crate::robustness_report`]) and the calibration loop
//! ([`crate::calibration::calibrate_enforced`]) each build one list of
//! runs and hand it to the crate-private `run_jobs`, whose workers
//! claim runs from a shared cursor and whose results come back in list
//! order. A run's output does not depend on which worker ran it, so the
//! worker count changes no simulated bit.
//!
//! [`run_seeds`] is the one multi-seed entry point for either strategy:
//! it hands each seed's config and [`Hooks`] to a closure that calls
//! that strategy's `simulate`.

use crate::config::SimConfig;
use crate::hooks::{Hooks, SimError};
use crate::live::SimLiveMetrics;
use crate::metrics::SimMetrics;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

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
/// [`rtsdf_core::worker_threads`] threads, and collect the runs in seed
/// order.
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
    run_seeds_on(
        rtsdf_core::worker_threads(),
        base_config,
        num_seeds,
        live,
        run,
    )
}

/// [`run_seeds`] on `workers` threads.
pub(crate) fn run_seeds_on<F>(
    workers: usize,
    base_config: &SimConfig,
    num_seeds: u64,
    live: Option<&SimLiveMetrics>,
    run: F,
) -> Result<MultiSeedReport, SimError>
where
    F: Fn(&SimConfig, Hooks<'_>) -> Result<SimMetrics, SimError> + Sync,
{
    let configs: Vec<SimConfig> = seed_configs(base_config, num_seeds).collect();
    let runs = run_jobs(&configs, workers, live, run)
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(MultiSeedReport { runs })
}

/// `base` with seeds `base.seed + i` for `i` in `0..num_seeds`,
/// wrapping past `u64::MAX`.
pub(crate) fn seed_configs(
    base: &SimConfig,
    num_seeds: u64,
) -> impl Iterator<Item = SimConfig> + '_ {
    (0..num_seeds).map(move |i| SimConfig {
        seed: base.seed.wrapping_add(i),
        ..base.clone()
    })
}

/// Cut job-ordered runs into `count` consecutive reports of `per` runs
/// each (the jobs of one cell are contiguous and in seed order).
pub(crate) fn split_reports(runs: Vec<SimMetrics>, per: u64, count: usize) -> Vec<MultiSeedReport> {
    let per = usize::try_from(per).expect("a run per seed fits in memory");
    let mut runs = runs.into_iter();
    (0..count)
        .map(|_| MultiSeedReport {
            runs: runs.by_ref().take(per).collect(),
        })
        .collect()
}

/// Run `run` once per job on `workers` threads (at most one per job;
/// the calling thread is worker 0) and return the results in job order.
///
/// Workers claim jobs one at a time from a shared cursor, in slice
/// order, so no worker idles while a job is unclaimed and one slow run
/// holds up only its own worker. With `live`, each run gets a fresh
/// [`SimLiveMetrics::handle`] on its worker's shard, and
/// [`SimLiveMetrics::on_run_complete`] follows every run.
pub(crate) fn run_jobs<J, T, F>(
    jobs: &[J],
    workers: usize,
    live: Option<&SimLiveMetrics>,
    run: F,
) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(&J, Hooks<'_>) -> T + Sync,
{
    let workers = workers.clamp(1, jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(job) = jobs.get(i) else {
                return done;
            };
            let out = match live {
                Some(m) => {
                    let h = m.handle(worker);
                    let hooks = Hooks {
                        live: Some(&h),
                        ..Hooks::default()
                    };
                    let out = run(job, hooks);
                    m.on_run_complete(worker);
                    out
                }
                None => run(job, Hooks::default()),
            };
            done.push((i, out));
        }
    };
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(jobs.len()).collect();
    std::thread::scope(|scope| {
        let work = &work;
        let helpers: Vec<_> = (1..workers)
            .map(|worker| scope.spawn(move || work(worker)))
            .collect();
        let mut place = |done: Vec<(usize, T)>| {
            for (i, out) in done {
                slots[i] = Some(out);
            }
        };
        place(work(0));
        for h in helpers {
            place(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job was claimed"))
        .collect()
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
        // Every seed fails, and seed 0 fails last on the clock; at any
        // worker count the answer is seed 0's error.
        let cfg = SimConfig::quick(10.0, 0, 10);
        for workers in [1, 2, 3, 7] {
            let r = run_seeds_on(workers, &cfg, 8, None, |c, _| {
                if c.seed == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                Err(SimError::ScheduleLength {
                    nodes: 0,
                    got: c.seed as usize,
                })
            });
            assert_eq!(
                r.unwrap_err(),
                SimError::ScheduleLength { nodes: 0, got: 0 },
                "{workers} workers"
            );
        }
    }

    #[test]
    fn run_seeds_is_byte_identical_at_every_worker_count() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let sched = EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 2, 800);
        let t = Topology::chain(&p);
        let run = |c: &SimConfig, h: Hooks<'_>| enforced::simulate(&t, &sched, 1e5, c, h);
        let json = |workers, live: Option<&SimLiveMetrics>| {
            let r = run_seeds_on(workers, &cfg, 7, live, run).unwrap();
            serde_json::to_string(&r).expect("reports serialize")
        };
        let want = json(1, None);
        for workers in [1, 2, 3, 7] {
            assert_eq!(json(workers, None), want, "{workers} workers");
            let live = SimLiveMetrics::new(t.len(), 2);
            assert_eq!(json(workers, Some(&live)), want, "{workers} workers, live");
            assert_eq!(live.runs_completed(), 7);
        }
    }

    #[test]
    fn jobs_come_back_in_job_order_from_every_worker() {
        // Later jobs finish first on the clock; the output is still in
        // job order, and every job ran exactly once.
        let jobs: Vec<u64> = (0..23).collect();
        for workers in [0, 1, 2, 3, 7, 40] {
            let out = run_jobs(&jobs, workers, None, |&j, _| {
                std::thread::sleep(std::time::Duration::from_micros(200 * (23 - j)));
                j * j
            });
            let want: Vec<u64> = jobs.iter().map(|j| j * j).collect();
            assert_eq!(out, want, "{workers} workers");
        }
        assert!(run_jobs(&[] as &[u64], 3, None, |&j, _| j).is_empty());
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
