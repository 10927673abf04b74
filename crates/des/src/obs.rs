//! Structured observability for simulations.
//!
//! An [`ObsSink`] collects per-stage distributions (queue depth, firing
//! occupancy, sojourn time) and global event counters. Simulators
//! thread an `Option<&mut ObsSink>` through their hot loop; when the
//! option is `None` the cost of the layer is a single untaken branch
//! per hook, so the disabled path stays within noise of an
//! uninstrumented build (verified by the `obs_overhead` criterion bench
//! in `pipeline-sim`).
//!
//! At the end of a run, [`ObsSink::report`] folds the accumulators into
//! a serializable [`ObsReport`] that downstream harnesses embed in run
//! manifests. Event-level tracing (one span per firing) is the
//! `obs-trace` crate's job; this sink only aggregates.

use crate::stats::{nearest_rank, Histogram, OnlineStats};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};

/// Bins of the per-stage queue-depth histogram.
const DEPTH_BINS: usize = 64;
/// Upper bound of the queue-depth histogram range `[0, DEPTH_MAX)`;
/// deeper queues land in the overflow bin.
const DEPTH_MAX: f64 = 1024.0;
/// Bins of the per-stage occupancy histogram over `[0, 1)`. Full
/// firings (occupancy exactly 1) land in the overflow bin, so the
/// overflow count doubles as a full-firing counter.
const OCCUPANCY_BINS: usize = 32;
/// Bins of the per-stage sojourn-time histogram.
const SOJOURN_BINS: usize = 64;
/// Upper bound of the sojourn histogram range `[0, SOJOURN_MAX)` in
/// cycles; longer sojourns land in the overflow bin.
const SOJOURN_MAX: f64 = 1e6;

/// Default raw-sample budget for exact quantiles (per distribution):
/// distributions keep raw samples up to this count and report *exact*
/// quantiles from them; past it they fall back to the histogram.
pub const DEFAULT_EXACT_CUTOFF: usize = 4096;

/// A sampled distribution: exact moments plus a fixed-bin histogram for
/// quantiles.
#[derive(Debug, Clone)]
pub struct Dist {
    stats: OnlineStats,
    hist: Histogram,
    /// Raw samples while at most `exact_cutoff` have arrived; dropped
    /// (set to `None`) the moment the budget would overflow. Interior
    /// mutability lets [`Dist::summary`] sort the buffer lazily — once,
    /// on first use — behind its `&self` signature.
    raw: Option<RefCell<Vec<f64>>>,
    /// Whether `raw` is currently sorted (set by the lazy sort in
    /// [`Dist::summary`], cleared by every push).
    raw_sorted: Cell<bool>,
    exact_cutoff: usize,
}

impl Dist {
    /// New distribution with a histogram over `[lo, hi)` with `nbins`
    /// bins and the default exact-quantile budget.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        Dist::with_cutoff(lo, hi, nbins, DEFAULT_EXACT_CUTOFF)
    }

    /// New distribution keeping up to `exact_cutoff` raw samples for
    /// exact quantiles (`0` = histogram-only).
    pub fn with_cutoff(lo: f64, hi: f64, nbins: usize, exact_cutoff: usize) -> Self {
        Dist {
            stats: OnlineStats::new(),
            hist: Histogram::new(lo, hi, nbins),
            raw: (exact_cutoff > 0).then(|| RefCell::new(Vec::new())),
            raw_sorted: Cell::new(false),
            exact_cutoff,
        }
    }

    /// Record a sample.
    pub fn push(&mut self, x: f64) {
        self.stats.push(x);
        self.hist.push(x);
        if self
            .raw
            .as_mut()
            .is_some_and(|r| r.get_mut().len() >= self.exact_cutoff)
        {
            self.raw = None;
        }
        if let Some(raw) = self.raw.as_mut() {
            raw.get_mut().push(x);
            self.raw_sorted.set(false);
        }
    }

    /// Record a slice of samples, in order.
    ///
    /// State-identical to pushing each element in turn (same moments,
    /// same histogram bins, same raw-sample retention decision), but
    /// runs the moment/histogram accumulation over the whole batch.
    pub fn push_batch(&mut self, xs: &[f64]) {
        if xs.is_empty() {
            return;
        }
        self.stats.push_slice(xs);
        self.hist.push_batch(xs);
        // Scalar retention semantics: the raw buffer holds at most
        // `exact_cutoff` samples and is dropped by the push that would
        // exceed the budget.
        if let Some(raw) = self.raw.as_mut() {
            let buf = raw.get_mut();
            if buf.len() + xs.len() > self.exact_cutoff {
                self.raw = None;
            } else {
                buf.extend_from_slice(xs);
                self.raw_sorted.set(false);
            }
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Whether quantiles will be exact (raw samples still held).
    pub fn is_exact(&self) -> bool {
        self.raw.is_some()
    }

    /// Fold into a serializable summary.
    ///
    /// The first call after a push sorts the retained raw samples in
    /// place (lazily, behind the `&self` signature); repeat calls reuse
    /// the sorted buffer instead of re-sorting per summary.
    pub fn summary(&self) -> DistSummary {
        let sorted = self
            .raw
            .as_ref()
            .filter(|r| !r.borrow().is_empty())
            .map(|r| {
                if !self.raw_sorted.get() {
                    // `total_cmp` so a stray NaN sample sorts to the end
                    // instead of aborting the whole report.
                    r.borrow_mut().sort_by(f64::total_cmp);
                    self.raw_sorted.set(true);
                }
                r.borrow()
            });
        let q = |frac: f64| match &sorted {
            // Nearest-rank on the retained samples: exact for small
            // runs, immune to histogram bin width.
            Some(s) => {
                let rank = nearest_rank(frac, s.len() as u64) as usize;
                Some(s[rank - 1])
            }
            None => self.hist.quantile(frac),
        };
        DistSummary {
            count: self.stats.count(),
            mean: self.stats.mean(),
            stddev: self.stats.stddev(),
            min: self.stats.min(),
            max: self.stats.max(),
            p50: q(0.5),
            p90: q(0.9),
            p99: q(0.99),
            p999: q(0.999),
            exact: sorted.is_some() || self.stats.count() == 0,
        }
    }
}

/// Serializable summary of a [`Dist`]: exact moments, approximate
/// (histogram-midpoint) quantiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact sample mean (0 if empty).
    pub mean: f64,
    /// Exact sample standard deviation.
    pub stddev: f64,
    /// Smallest sample (`None` if empty).
    pub min: Option<f64>,
    /// Largest sample (`None` if empty).
    pub max: Option<f64>,
    /// Median (exact below the raw-sample cutoff).
    pub p50: Option<f64>,
    /// 90th percentile (exact below the raw-sample cutoff).
    pub p90: Option<f64>,
    /// 99th percentile (exact below the raw-sample cutoff).
    pub p99: Option<f64>,
    /// 99.9th percentile (exact below the raw-sample cutoff).
    pub p999: Option<f64>,
    /// Whether the quantiles came from raw samples (exact) rather than
    /// the histogram approximation.
    pub exact: bool,
}

/// Per-stage accumulators.
#[derive(Debug, Clone)]
pub struct StageObs {
    /// Queue depth sampled after each enqueue batch.
    pub queue_depth: Dist,
    /// Occupancy fraction (items consumed ÷ vector width) per firing.
    pub occupancy: Dist,
    /// Cycles each consumed item spent waiting in this stage's queue.
    pub sojourn: Dist,
}

impl StageObs {
    fn new() -> Self {
        StageObs {
            queue_depth: Dist::new(0.0, DEPTH_MAX, DEPTH_BINS),
            occupancy: Dist::new(0.0, 1.0, OCCUPANCY_BINS),
            sojourn: Dist::new(0.0, SOJOURN_MAX, SOJOURN_BINS),
        }
    }

    fn report(&self) -> StageReport {
        StageReport {
            queue_depth: self.queue_depth.summary(),
            occupancy: self.occupancy.summary(),
            sojourn: self.sojourn.summary(),
        }
    }
}

/// Serializable per-stage summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Queue-depth distribution (sampled at enqueue).
    pub queue_depth: DistSummary,
    /// Firing-occupancy distribution (fraction of vector width).
    pub occupancy: DistSummary,
    /// Sojourn-time distribution (cycles in queue before consumption).
    pub sojourn: DistSummary,
}

/// Global event counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsCounters {
    /// Simulation events processed (arrivals, firings, deliveries).
    pub events: u64,
    /// Stage firings, including empty ones.
    pub firings: u64,
    /// Firings that found an empty queue.
    pub empty_firings: u64,
    /// Items pushed onto stage queues (all stages).
    pub items_enqueued: u64,
    /// Items consumed off stage queues (all stages).
    pub items_consumed: u64,
    /// Pipeline-level completions observed.
    pub completions: u64,
    /// Items dropped (e.g. still in flight at a truncated horizon).
    pub drops: u64,
}

/// Live observability sink. Construct per run, thread through the
/// simulator as `Option<&mut ObsSink>`, then call [`ObsSink::report`].
#[derive(Debug, Clone)]
pub struct ObsSink {
    stages: Vec<StageObs>,
    counters: ObsCounters,
}

impl ObsSink {
    /// Sink for a pipeline with `num_stages` stages.
    pub fn new(num_stages: usize) -> Self {
        ObsSink {
            stages: (0..num_stages).map(|_| StageObs::new()).collect(),
            counters: ObsCounters::default(),
        }
    }

    /// Number of instrumented stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Counters so far.
    pub fn counters(&self) -> &ObsCounters {
        &self.counters
    }

    /// One simulation event processed.
    pub fn on_event(&mut self) {
        self.counters.events += 1;
    }

    /// `pushed` items entered `stage`'s queue, leaving it `depth` deep.
    pub fn on_enqueue(&mut self, stage: usize, pushed: u64, depth: usize) {
        self.counters.items_enqueued += pushed;
        self.stages[stage].queue_depth.push(depth as f64);
    }

    /// `stage` fired, consuming `take` of `width` lanes.
    pub fn on_fire(&mut self, stage: usize, take: usize, width: usize) {
        self.counters.firings += 1;
        if take == 0 {
            self.counters.empty_firings += 1;
        }
        self.counters.items_consumed += take as u64;
        self.stages[stage]
            .occupancy
            .push(take as f64 / width.max(1) as f64);
    }

    /// A consumed item had waited `cycles` in `stage`'s queue.
    pub fn on_sojourn(&mut self, stage: usize, cycles: f64) {
        self.stages[stage].sojourn.push(cycles);
    }

    /// A batch of consumed items waited `cycles[..]` in `stage`'s
    /// queue, in consumption order. State-identical to one
    /// [`ObsSink::on_sojourn`] call per element.
    pub fn on_sojourn_batch(&mut self, stage: usize, cycles: &[f64]) {
        self.stages[stage].sojourn.push_batch(cycles);
    }

    /// A pipeline-level completion.
    pub fn on_completion(&mut self) {
        self.counters.completions += 1;
    }

    /// `n` pipeline-level completions at once.
    pub fn on_completions(&mut self, n: u64) {
        self.counters.completions += n;
    }

    /// An item was dropped (never completed).
    pub fn on_drop(&mut self) {
        self.counters.drops += 1;
    }

    /// Fold into a serializable report.
    pub fn report(&self) -> ObsReport {
        ObsReport {
            counters: self.counters.clone(),
            stages: self.stages.iter().map(StageObs::report).collect(),
        }
    }
}

/// Serializable end-of-run observability report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Global counters.
    pub counters: ObsCounters,
    /// Per-stage summaries.
    pub stages: Vec<StageReport>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = ObsSink::new(2);
        s.on_event();
        s.on_enqueue(0, 3, 3);
        s.on_fire(0, 2, 4);
        s.on_sojourn(0, 10.0);
        s.on_fire(1, 0, 4);
        s.on_completion();
        s.on_drop();
        let r = s.report();
        assert_eq!(r.counters.events, 1);
        assert_eq!(r.counters.items_enqueued, 3);
        assert_eq!(r.counters.items_consumed, 2);
        assert_eq!(r.counters.firings, 2);
        assert_eq!(r.counters.empty_firings, 1);
        assert_eq!(r.counters.completions, 1);
        assert_eq!(r.counters.drops, 1);
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.stages[0].queue_depth.count, 1);
        assert!((r.stages[0].occupancy.mean - 0.5).abs() < 1e-12);
        assert_eq!(r.stages[0].sojourn.count, 1);
    }

    #[test]
    fn small_samples_get_exact_quantiles() {
        let mut d = Dist::new(0.0, 10.0, 4); // coarse bins on purpose
        for i in 1..=100 {
            d.push(i as f64);
        }
        assert!(d.is_exact());
        let s = d.summary();
        assert!(s.exact);
        // Nearest-rank on 1..=100 hits the integers exactly, far
        // outside what 4 bins over [0, 10) could resolve.
        assert_eq!(s.p50, Some(50.0));
        assert_eq!(s.p90, Some(90.0));
        assert_eq!(s.p99, Some(99.0));
        assert_eq!(s.p999, Some(100.0));
    }

    /// Regression: a single NaN sample used to abort `summary()` via the
    /// `partial_cmp(..).expect(..)` sort. NaN now sorts to the end under
    /// the total order and the finite quantiles stay answerable.
    #[test]
    fn nan_samples_do_not_abort_summary() {
        let mut d = Dist::new(0.0, 10.0, 4);
        d.push(1.0);
        d.push(f64::NAN);
        d.push_batch(&[3.0, 2.0]);
        let s = d.summary();
        assert_eq!(s.count, 4);
        // Nearest-rank(0.5, 4) = 2nd of [1, 2, 3, NaN].
        assert_eq!(s.p50, Some(2.0));
        assert!(s.p999.is_some_and(f64::is_nan), "NaN sorts last");
    }

    #[test]
    fn past_cutoff_falls_back_to_histogram() {
        let mut d = Dist::with_cutoff(0.0, 100.0, 100, 8);
        for i in 0..50 {
            d.push(i as f64);
        }
        assert!(!d.is_exact(), "cutoff of 8 exceeded");
        let s = d.summary();
        assert!(!s.exact);
        // Histogram quantiles still answer, at bin-midpoint precision.
        let p50 = s.p50.unwrap();
        assert!((p50 - 25.0).abs() <= 1.0, "p50 {p50}");
        assert!(s.p999.is_some());
        // Zero cutoff disables the exact path from the first sample.
        let mut d0 = Dist::with_cutoff(0.0, 1.0, 4, 0);
        d0.push(0.5);
        assert!(!d0.is_exact());
    }

    #[test]
    fn default_summaries_report_p999() {
        let mut s = ObsSink::new(1);
        for i in 1..=1000 {
            s.on_sojourn(0, i as f64);
        }
        let sum = s.report().stages[0].sojourn.clone();
        assert!(sum.exact, "1000 samples sit below the default cutoff");
        assert_eq!(sum.p999, Some(999.0));
        assert_eq!(sum.p50, Some(500.0));
    }

    #[test]
    fn push_batch_summary_matches_sequential_push() {
        let xs: Vec<f64> = (0..300)
            .map(|i| (f64::from(i) * 1.3).sin() * 40.0)
            .collect();
        // Exercise both regimes: raw retained (exact) and dropped.
        for cutoff in [4096, 64] {
            let mut scalar = Dist::with_cutoff(-50.0, 50.0, 25, cutoff);
            for &x in &xs {
                scalar.push(x);
            }
            let mut batched = Dist::with_cutoff(-50.0, 50.0, 25, cutoff);
            for chunk in xs.chunks(37) {
                batched.push_batch(chunk);
            }
            assert_eq!(batched.is_exact(), scalar.is_exact());
            assert_eq!(batched.summary(), scalar.summary(), "cutoff {cutoff}");
        }
    }

    #[test]
    fn summary_is_stable_across_repeat_calls_and_interleaved_pushes() {
        let mut d = Dist::new(0.0, 100.0, 10);
        for i in 0..50 {
            d.push(f64::from((i * 37) % 100));
        }
        let first = d.summary();
        // The lazy sort ran once; a repeat call must reuse it verbatim.
        assert_eq!(d.summary(), first);
        // A push after a summary invalidates the sorted view.
        d.push(1000.0);
        let second = d.summary();
        assert_eq!(second.count, 51);
        assert_eq!(second.max, Some(1000.0));
        assert_eq!(second.p999, Some(1000.0));
    }

    #[test]
    fn sojourn_batch_matches_scalar_hook() {
        let cycles: Vec<f64> = (0..120).map(|i| f64::from(i) * 3.5).collect();
        let mut scalar = ObsSink::new(2);
        for &c in &cycles {
            scalar.on_sojourn(1, c);
        }
        let mut batched = ObsSink::new(2);
        batched.on_sojourn_batch(1, &cycles);
        assert_eq!(scalar.report(), batched.report());
        // Counter batch hook, same deal.
        let mut a = ObsSink::new(1);
        for _ in 0..7 {
            a.on_completion();
        }
        let mut b = ObsSink::new(1);
        b.on_completions(7);
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn full_firing_counts_as_occupancy_overflow() {
        let mut s = ObsSink::new(1);
        s.on_fire(0, 4, 4);
        let sum = s.report().stages[0].occupancy.clone();
        assert_eq!(sum.count, 1);
        assert!((sum.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut s = ObsSink::new(2);
        s.on_enqueue(1, 1, 1);
        s.on_fire(1, 1, 8);
        s.on_sojourn(1, 7.0);
        let r = s.report();
        let v = serde_json::to_value(&r).unwrap();
        let back: ObsReport = serde_json::from_value(&v).unwrap();
        assert_eq!(back, r);
    }
}
