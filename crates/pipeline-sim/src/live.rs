//! Live simulator telemetry: a sharded registry both simulators can
//! publish into while they run.
//!
//! [`SimLiveMetrics`] owns the registry (one shard per worker thread);
//! each simulated run gets a cheap per-thread [`SimLive`] handle via
//! [`SimLiveMetrics::handle`]. The simulators accept the handle in
//! [`crate::Hooks::live`] — the same branch-on-`Option` discipline as
//! `ObsSink`, so a `None` costs one untaken branch per hook and the
//! `metrics_overhead` bench gates that the disabled path stays within
//! 1% of plain throughput.
//!
//! Item counters accumulate in the handle, and they, the queue-depth
//! high-water marks and wall-clock throughput are published on a
//! periodic tick (every [`TICK_EVERY`] arrivals plus once at run end)
//! rather than per event, so the enabled path stays cheap too: a hook is
//! a local add, and the registry sees one atomic add per counter per
//! tick. Dropping a handle publishes whatever it still holds.

use ::metrics::{CounterHandle, GaugeHandle, Registry};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// How many arrivals between periodic gauge ticks.
pub const TICK_EVERY: u32 = 1024;

/// Registry + handles for everything the simulators publish.
#[derive(Debug)]
pub struct SimLiveMetrics {
    registry: Arc<Registry>,
    arrived: CounterHandle,
    completed: CounterHandle,
    dropped: CounterHandle,
    shed: CounterHandle,
    queue_hwm: Vec<GaugeHandle>,
    items_per_sec: GaugeHandle,
    runs_total: GaugeHandle,
    runs_completed: CounterHandle,
}

impl SimLiveMetrics {
    /// Live metrics for a pipeline of `num_stages` stages, sharded over
    /// `workers` threads.
    pub fn new(num_stages: usize, workers: usize) -> Self {
        let mut r = Registry::new(workers);
        let arrived = r.counter("rtsdf_sim_items_arrived", "stream items arrived");
        let completed = r.counter("rtsdf_sim_items_completed", "stream items completed");
        let dropped = r.counter(
            "rtsdf_sim_items_dropped",
            "items unresolved at the safety horizon",
        );
        let shed = r.counter("rtsdf_sim_items_shed", "items rejected at admission");
        let stage_labels: Vec<String> = (0..num_stages).map(|k| k.to_string()).collect();
        let queue_hwm = stage_labels
            .iter()
            .map(|k| {
                r.gauge_full(
                    "rtsdf_sim_queue_depth_hwm",
                    "per-stage queue depth high-water mark",
                    &[("stage", k)],
                    false,
                )
            })
            .collect();
        let items_per_sec = r.gauge_full(
            "rtsdf_sim_items_per_sec",
            "wall-clock completion throughput, per worker",
            &[],
            true,
        );
        let runs_total = r.gauge("rtsdf_sim_runs_total", "seeds scheduled in this batch");
        let runs_completed = r.counter("rtsdf_sim_runs_completed", "seeds finished so far");
        SimLiveMetrics {
            registry: Arc::new(r),
            arrived,
            completed,
            dropped,
            shed,
            queue_hwm,
            items_per_sec,
            runs_total,
            runs_completed,
        }
    }

    /// The underlying registry, for `/metrics` serving and snapshots.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Record how many seeded runs the current batch will execute.
    pub fn set_runs_total(&self, n: u64) {
        self.registry.gauge_set(self.runs_total, 0, n as f64);
    }

    /// Seeds finished so far, summed across workers.
    pub fn runs_completed(&self) -> u64 {
        self.registry.counter_value(self.runs_completed)
    }

    /// Seeds scheduled, as last recorded by
    /// [`set_runs_total`](Self::set_runs_total).
    pub fn runs_total(&self) -> u64 {
        self.registry.gauge_value(self.runs_total) as u64
    }

    /// Items arrived / completed / shed so far (for progress lines).
    pub fn item_counts(&self) -> (u64, u64, u64) {
        (
            self.registry.counter_value(self.arrived),
            self.registry.counter_value(self.completed),
            self.registry.counter_value(self.shed),
        )
    }

    /// Mark one seeded run finished on `worker`'s shard.
    pub fn on_run_complete(&self, worker: usize) {
        self.registry.inc(self.runs_completed, worker, 1);
    }

    /// A per-run publishing handle for `worker`'s shard. Create one per
    /// simulated run, on the thread that runs it.
    pub fn handle(&self, worker: usize) -> SimLive<'_> {
        SimLive {
            m: self,
            worker,
            started: Instant::now(),
            arrived: Cell::new(0),
            completed: Cell::new(0),
            completed_published: Cell::new(0),
            shed: Cell::new(0),
            until_tick: Cell::new(TICK_EVERY),
        }
    }
}

/// Per-run, single-threaded publishing handle (see [`SimLiveMetrics`]).
#[derive(Debug)]
pub struct SimLive<'a> {
    m: &'a SimLiveMetrics,
    worker: usize,
    started: Instant,
    /// Arrivals not yet published.
    arrived: Cell<u64>,
    /// Completions in this run so far, of which `completed_published`
    /// are in the registry.
    completed: Cell<u64>,
    completed_published: Cell<u64>,
    /// Sheds not yet published.
    shed: Cell<u64>,
    until_tick: Cell<u32>,
}

impl SimLive<'_> {
    /// One stream item arrived. Returns `true` when a periodic tick is
    /// due; the simulator then calls [`tick`](Self::tick) with its
    /// current per-stage depth high-water marks.
    pub fn on_arrival(&self) -> bool {
        self.arrived.set(self.arrived.get() + 1);
        let left = self.until_tick.get();
        if left <= 1 {
            self.until_tick.set(TICK_EVERY);
            true
        } else {
            self.until_tick.set(left - 1);
            false
        }
    }

    /// `n` stream items arrived at once (block accumulation). Returns
    /// `true` when a periodic tick is due, like
    /// [`on_arrival`](Self::on_arrival).
    pub fn on_arrivals(&self, n: u64) -> bool {
        self.arrived.set(self.arrived.get() + n);
        let left = u64::from(self.until_tick.get());
        if n >= left {
            self.until_tick.set(TICK_EVERY);
            true
        } else {
            self.until_tick.set((left - n) as u32);
            false
        }
    }

    /// `n` stream items arrived one after another. Records exactly what
    /// `n` calls of [`on_arrival`](Self::on_arrival) would, calling
    /// `due(i)` for each arrival `i` (0-based, in order) at which one of
    /// those calls would have signalled a tick — in O(1 + ticks), not
    /// O(n), for the simulator's bulk arrival drain.
    pub fn on_arrival_run(&self, n: u64, mut due: impl FnMut(u64)) {
        let mut done = 0;
        loop {
            let left = u64::from(self.until_tick.get());
            if n - done < left {
                self.on_arrivals(n - done);
                return;
            }
            self.on_arrivals(left);
            done += left;
            due(done - 1);
        }
    }

    /// One item completed end to end.
    pub fn on_completion(&self) {
        self.completed.set(self.completed.get() + 1);
    }

    /// `n` items completed at once (block completion).
    pub fn on_completions(&self, n: u64) {
        self.completed.set(self.completed.get() + n);
    }

    /// `n` items were unresolved at the safety horizon.
    pub fn on_drops(&self, n: u64) {
        self.m.registry.inc(self.m.dropped, self.worker, n);
    }

    /// One item rejected at admission by the shedding mitigation.
    pub fn on_shed(&self) {
        self.shed.set(self.shed.get() + 1);
    }

    /// Publish the item counters held since the last tick, per-stage
    /// queue-depth high-water marks and this run's wall-clock
    /// throughput. Called by the simulator when
    /// [`on_arrival`](Self::on_arrival) signals a due tick, and once at
    /// run end.
    pub fn tick(&self, max_depth: &[u64]) {
        self.flush();
        for (handle, &depth) in self.m.queue_hwm.iter().zip(max_depth) {
            self.m
                .registry
                .gauge_max(*handle, self.worker, depth as f64);
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            self.m.registry.gauge_set(
                self.m.items_per_sec,
                self.worker,
                self.completed.get() as f64 / elapsed,
            );
        }
    }

    /// Add the held item counters to the registry.
    fn flush(&self) {
        let completed = self.completed.get();
        for (counter, n) in [
            (self.m.arrived, self.arrived.take()),
            (
                self.m.completed,
                completed - self.completed_published.replace(completed),
            ),
            (self.m.shed, self.shed.take()),
        ] {
            if n > 0 {
                self.m.registry.inc(counter, self.worker, n);
            }
        }
    }
}

impl Drop for SimLive<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_accumulate_into_the_registry() {
        let m = SimLiveMetrics::new(3, 2);
        m.set_runs_total(2);
        {
            let h = m.handle(0);
            for _ in 0..5 {
                h.on_arrival();
            }
            for _ in 0..4 {
                h.on_completion();
            }
            h.on_shed();
            h.on_drops(2);
            h.tick(&[7, 3, 0]);
            m.on_run_complete(0);
        }
        {
            let h = m.handle(1);
            h.on_arrival();
            h.on_completion();
            h.tick(&[1, 9, 2]);
            m.on_run_complete(1);
        }
        let snap = m.registry().snapshot();
        assert_eq!(snap.total("rtsdf_sim_items_arrived"), 6.0);
        assert_eq!(snap.total("rtsdf_sim_items_completed"), 5.0);
        assert_eq!(snap.total("rtsdf_sim_items_shed"), 1.0);
        assert_eq!(snap.total("rtsdf_sim_items_dropped"), 2.0);
        assert_eq!(m.runs_completed(), 2);
        assert_eq!(m.runs_total(), 2);
        assert_eq!(m.item_counts(), (6, 5, 1));
        // Stage HWMs merge by max across shards.
        let hwm = snap.family("rtsdf_sim_queue_depth_hwm").unwrap();
        let values: Vec<f64> = hwm.samples.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![7.0, 9.0, 2.0]);
    }

    #[test]
    fn counters_publish_at_ticks_and_on_drop() {
        let m = SimLiveMetrics::new(1, 1);
        let h = m.handle(0);
        h.on_arrivals(3);
        h.on_completions(2);
        h.on_shed();
        assert_eq!(m.item_counts(), (0, 0, 0), "held until a tick");
        h.tick(&[1]);
        assert_eq!(m.item_counts(), (3, 2, 1));
        h.on_arrival();
        h.on_completion();
        h.tick(&[1]);
        assert_eq!(m.item_counts(), (4, 3, 1), "each item published once");
        h.on_arrival();
        drop(h);
        assert_eq!(m.item_counts(), (5, 3, 1));
    }

    #[test]
    fn arrival_run_ticks_where_single_arrivals_would() {
        let m = SimLiveMetrics::new(1, 1);
        let (single, run) = (m.handle(0), m.handle(0));
        let mut arrived = 0u64;
        for n in [0u64, 1, 5, 1017, 1, 3000, 1024, 1023, 2, 4096] {
            let mut want = Vec::new();
            for i in 0..n {
                if single.on_arrival() {
                    want.push(i);
                }
            }
            let mut got = Vec::new();
            run.on_arrival_run(n, |i| got.push(i));
            assert_eq!(got, want, "run of {n} after {arrived} arrivals");
            arrived += n;
        }
        drop((single, run));
        assert_eq!(m.item_counts().0, 2 * arrived);
    }

    #[test]
    fn arrival_signals_tick_every_interval() {
        let m = SimLiveMetrics::new(1, 1);
        let h = m.handle(0);
        let mut ticks = 0;
        for _ in 0..(TICK_EVERY * 2) {
            if h.on_arrival() {
                ticks += 1;
            }
        }
        assert_eq!(ticks, 2);
    }
}
