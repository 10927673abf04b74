//! The one job runner for embarrassingly parallel work, and its
//! worker-thread-count policy.
//!
//! Both the `(τ0, D)` sweep scheduler ([`crate::comparison`]) and the
//! multi-run simulation experiments in `pipeline-sim` hand a list of
//! jobs to [`run_jobs`], whose workers claim jobs from one shared
//! cursor and whose results come back in job order. They share one
//! thread-count policy, so one environment variable controls both:
//! `RTSDF_THREADS` overrides the worker count (useful for reproducible
//! benchmarking and for containers whose `available_parallelism`
//! misreports the cgroup quota); otherwise the detected parallelism is
//! used, falling back to 4 when detection fails.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "RTSDF_THREADS";

/// Number of worker threads for parallel sweeps and seed fan-out.
///
/// Resolution order: a positive integer in `RTSDF_THREADS`, then
/// [`std::thread::available_parallelism`], then 4. Malformed or
/// non-positive override values are ignored rather than erroring, so a
/// stray `RTSDF_THREADS=0` degrades to the detected default instead of
/// breaking every experiment binary.
pub fn worker_threads() -> usize {
    worker_threads_from(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Testable core of [`worker_threads`]: resolves the count from an
/// explicit override value instead of reading the environment.
pub fn worker_threads_from(override_value: Option<&str>) -> usize {
    if let Some(v) = override_value {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(4, NonZeroUsize::get)
}

/// Run `run(worker, job)` once per job on `workers` threads (at most
/// one per job; the calling thread is worker 0) and return the results
/// in job order.
///
/// Workers claim jobs one at a time from a shared cursor, in slice
/// order, so no worker idles while a job is unclaimed and one slow job
/// holds up only its own worker. `worker` is the claiming thread's
/// index in `0..workers`, for per-worker state such as a metrics
/// shard. A panic in any job is re-raised on the calling thread once
/// every worker has stopped.
pub fn run_jobs<J, T, F>(jobs: &[J], workers: usize, run: F) -> Vec<T>
where
    J: Sync,
    T: Send,
    F: Fn(usize, &J) -> T + Sync,
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
            done.push((i, run(worker, job)));
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

    #[test]
    fn override_wins_when_valid() {
        assert_eq!(worker_threads_from(Some("3")), 3);
        assert_eq!(worker_threads_from(Some(" 12 ")), 12);
        assert_eq!(worker_threads_from(Some("1")), 1);
    }

    #[test]
    fn invalid_overrides_fall_back_to_detection() {
        let detected = worker_threads_from(None);
        assert!(detected >= 1);
        for bad in ["0", "-2", "four", "", "1.5"] {
            assert_eq!(worker_threads_from(Some(bad)), detected, "{bad:?}");
        }
    }

    #[test]
    fn jobs_come_back_in_job_order_at_every_worker_count() {
        // Later jobs finish first on the clock; the output is still in
        // job order, every job ran exactly once, and every worker index
        // is below the worker count.
        let jobs: Vec<u64> = (0..23).collect();
        for workers in [0, 1, 2, 3, 7, 40] {
            let out = run_jobs(&jobs, workers, |worker, &j| {
                std::thread::sleep(std::time::Duration::from_micros(200 * (23 - j)));
                (j * j, worker)
            });
            let squares: Vec<u64> = out.iter().map(|&(sq, _)| sq).collect();
            let want: Vec<u64> = jobs.iter().map(|j| j * j).collect();
            assert_eq!(squares, want, "{workers} workers");
            assert!(out.iter().all(|&(_, w)| w < workers.max(1)), "{out:?}");
        }
        assert!(run_jobs(&[] as &[u64], 3, |_, &j| j).is_empty());
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_jobs(&[(); 5], 1, |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_worker_panic_is_re_raised() {
        // Job 5 panics on whichever worker claims it; the caller sees
        // the panic's own payload at every worker count.
        let jobs: Vec<u64> = (0..12).collect();
        for workers in [1, 2, 3, 7] {
            let caught = std::panic::catch_unwind(|| {
                run_jobs(&jobs, workers, |_, &j| {
                    assert_ne!(j, 5, "job five fails");
                    j
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(message.contains("job five fails"), "{workers}: {message:?}");
        }
    }

    #[test]
    fn env_reader_returns_a_positive_count() {
        // Whatever the ambient environment says, the answer is usable.
        assert!(worker_threads() >= 1);
    }
}
