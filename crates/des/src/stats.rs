//! Online statistics accumulators.
//!
//! Long simulated streams (the paper uses 50 000 inputs × 100 seeds ×
//! thousands of parameter cells) make storing raw samples impractical.
//! These accumulators keep O(1) or O(bins) state.

use serde::{Deserialize, Serialize};

/// Nearest-rank of the `q`-quantile among `n` samples: the 1-based index
/// of the order statistic to report, `⌈q·n⌉` clamped to `[1, n]`.
///
/// This is the single rank convention shared by the exact
/// (sorted-raw-sample) quantile path and [`Histogram::quantile`], so the
/// two agree to within one bin width on in-range data. Returns 0 only
/// when `n == 0` (no sample to pick).
#[inline]
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Welford online mean/variance plus min/max and count.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// New empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add a slice of samples, in order.
    ///
    /// Exactly equivalent to calling [`OnlineStats::push`] once per
    /// element (the Welford recurrence is inherently sequential, so the
    /// result is bit-identical); the observability layer's sojourn
    /// path relies on that. Long streams whose moments need only agree
    /// with Welford's to rounding fold faster through a
    /// [`MomentAccumulator`].
    pub fn push_slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Samples per chunk of a [`MomentAccumulator`].
pub const MOMENT_CHUNK: usize = 256;

/// Lanes of the chunk passes: independent partial sums the compiler can
/// keep in vector registers.
const LANES: usize = 8;

/// Moments of a long sample stream, folded per fixed-size chunk.
///
/// Samples are buffered and folded every [`MOMENT_CHUNK`] samples, by
/// sample index, into an [`OnlineStats`]: one pass for the chunk's sum,
/// min and max, a second for its squared deviations about the chunk
/// mean, then one Chan merge. Welford's per-sample update divides once
/// per sample in a serial chain; this divides once per chunk, and both
/// passes run in eight independent lanes.
///
/// The contract: the same sample sequence gives the same bits, however
/// the caller slices it — one [`push`](Self::push) at a time, or
/// [`extend_from_slice`](Self::extend_from_slice) in blocks of any size
/// — because chunk boundaries depend only on the sample index. The
/// result agrees with Welford's to rounding (about `1e-15` relative),
/// not bit for bit.
#[derive(Debug, Clone)]
pub struct MomentAccumulator {
    stats: OnlineStats,
    buf: Vec<f64>,
}

impl Default for MomentAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl MomentAccumulator {
    /// New empty accumulator.
    pub fn new() -> Self {
        MomentAccumulator {
            stats: OnlineStats::new(),
            buf: Vec::with_capacity(MOMENT_CHUNK),
        }
    }

    /// Add a sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.buf.push(x);
        if self.buf.len() == MOMENT_CHUNK {
            fold_chunk(&mut self.stats, &self.buf);
            self.buf.clear();
        }
    }

    /// Add a slice of samples, in order. Whole chunks are folded
    /// straight from `xs`; only the ends are buffered.
    pub fn extend_from_slice(&mut self, mut xs: &[f64]) {
        if !self.buf.is_empty() {
            let take = (MOMENT_CHUNK - self.buf.len()).min(xs.len());
            self.buf.extend_from_slice(&xs[..take]);
            xs = &xs[take..];
            if self.buf.len() < MOMENT_CHUNK {
                return;
            }
            fold_chunk(&mut self.stats, &self.buf);
            self.buf.clear();
        }
        let chunks = xs.chunks_exact(MOMENT_CHUNK);
        let rest = chunks.remainder();
        for chunk in chunks {
            fold_chunk(&mut self.stats, chunk);
        }
        self.buf.extend_from_slice(rest);
    }

    /// Fold the partial last chunk and return the moments.
    pub fn finish(mut self) -> OnlineStats {
        if !self.buf.is_empty() {
            fold_chunk(&mut self.stats, &self.buf);
        }
        self.stats
    }
}

/// `x` if it is below `m`, else `m`: `m.min(x)` for every `x` but a
/// zero of the other sign than a zero `m` (where `min` may return
/// either). A NaN `x` compares false and is skipped, as `min` skips it,
/// and `m` never becomes NaN. Unlike `min`, it is one vector compare and
/// select per lane pair, with no NaN fix-up.
#[inline(always)]
fn below(m: f64, x: f64) -> f64 {
    if x < m {
        x
    } else {
        m
    }
}

/// [`below`] for the maximum.
#[inline(always)]
fn above(m: f64, x: f64) -> f64 {
    if x > m {
        x
    } else {
        m
    }
}

/// Merge the moments of one nonempty chunk into `stats`.
fn fold_chunk(stats: &mut OnlineStats, xs: &[f64]) {
    let mut sum = [0.0; LANES];
    let mut min = [f64::INFINITY; LANES];
    let mut max = [f64::NEG_INFINITY; LANES];
    let lanes = xs.chunks_exact(LANES);
    let rest = lanes.remainder();
    for lane in lanes {
        for j in 0..LANES {
            sum[j] += lane[j];
            min[j] = below(min[j], lane[j]);
            max[j] = above(max[j], lane[j]);
        }
    }
    for (j, &x) in rest.iter().enumerate() {
        sum[j] += x;
        min[j] = below(min[j], x);
        max[j] = above(max[j], x);
    }
    let mean = pairwise(sum) / xs.len() as f64;
    let mut m2 = [0.0; LANES];
    let lanes = xs.chunks_exact(LANES);
    for lane in lanes {
        for j in 0..LANES {
            let d = lane[j] - mean;
            m2[j] += d * d;
        }
    }
    for (j, &x) in rest.iter().enumerate() {
        let d = x - mean;
        m2[j] += d * d;
    }
    stats.merge(&OnlineStats {
        n: xs.len() as u64,
        mean,
        m2: pairwise(m2),
        min: min.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        max: max.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
    });
}

/// Sum of the lanes as a balanced tree.
#[inline]
fn pairwise(lanes: [f64; LANES]) -> f64 {
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
}

/// Fixed-width-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
    /// Largest sample that landed in the overflow bin (`None` while no
    /// sample has). Quantiles that resolve into the overflow bin report
    /// this instead of clamping to `hi`, so tail percentiles of
    /// overflow-heavy runs are not silently capped at the histogram
    /// range.
    overflow_max: Option<f64>,
}

impl Histogram {
    /// Create a histogram with `nbins` equal bins spanning `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `nbins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be nonempty");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            total: 0,
            overflow_max: None,
        }
    }

    /// Record a sample.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
            self.overflow_max = Some(self.overflow_max.map_or(x, |m| m.max(x)));
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Record a slice of samples.
    ///
    /// Produces exactly the same state as pushing each element in turn;
    /// the range bounds and bin scale are hoisted out of the loop so the
    /// common all-in-range case compiles to a tight counting loop.
    pub fn push_batch(&mut self, xs: &[f64]) {
        let lo = self.lo;
        let hi = self.hi;
        let range = hi - lo;
        let nbins = self.bins.len() as f64;
        let last = self.bins.len() - 1;
        let mut underflow = 0u64;
        let mut overflow = 0u64;
        let mut overflow_max = f64::NEG_INFINITY;
        for &x in xs {
            if x < lo {
                underflow += 1;
            } else if x >= hi {
                overflow += 1;
                overflow_max = overflow_max.max(x);
            } else {
                // Same expression as the scalar `push`, term for term:
                // bin selection must stay bit-identical across paths.
                let frac = (x - lo) / range;
                let idx = ((frac * nbins) as usize).min(last);
                self.bins[idx] += 1;
            }
        }
        self.total += xs.len() as u64;
        self.underflow += underflow;
        self.overflow += overflow;
        if overflow > 0 {
            self.overflow_max = Some(
                self.overflow_max
                    .map_or(overflow_max, |m| m.max(overflow_max)),
            );
        }
    }

    /// Total samples recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of samples below range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of samples at or above range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Largest sample that landed in the overflow bin, if any.
    pub fn overflow_max(&self) -> Option<f64> {
        self.overflow_max
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) from bin midpoints.
    ///
    /// Underflow samples count as `lo`. A quantile that resolves into
    /// the overflow bin reports the largest overflowed sample actually
    /// observed (not the range bound `hi`, which would silently cap
    /// tail percentiles of overflow-heavy runs). Returns `None` if the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = nearest_rank(q, self.total);
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(self.lo + (i as f64 + 0.5) * width);
            }
        }
        // The rank falls in the overflow bin (nonempty, or we would have
        // stopped above: underflow + Σbins + overflow = total ≥ target).
        Some(self.overflow_max.unwrap_or(self.hi))
    }

    /// Merge a compatible histogram (same range and bin count).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        assert!(
            (self.lo - other.lo).abs() < f64::EPSILON && (self.hi - other.hi).abs() < f64::EPSILON,
            "range mismatch"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
        self.overflow_max = match (self.overflow_max, other.overflow_max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_none());
        assert!(s.max().is_none());
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    /// A deterministic, badly conditioned stream: a large offset plus
    /// structured noise.
    fn stream(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 5.0e4 + 1.0e3 * (i as f64 * 0.37).sin() + (i % 7) as f64)
            .collect()
    }

    fn welford(xs: &[f64]) -> OnlineStats {
        let mut s = OnlineStats::new();
        s.push_slice(xs);
        s
    }

    fn chunked(xs: &[f64]) -> OnlineStats {
        let mut acc = MomentAccumulator::new();
        for &x in xs {
            acc.push(x);
        }
        acc.finish()
    }

    fn assert_close(a: &OnlineStats, b: &OnlineStats, rel: f64) {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        let close = |x: f64, y: f64| (x - y).abs() <= rel * y.abs().max(f64::MIN_POSITIVE);
        assert!(
            close(a.mean(), b.mean()),
            "mean {} vs {}",
            a.mean(),
            b.mean()
        );
        assert!(
            close(a.variance(), b.variance()) || a.count() < 2,
            "variance {} vs {}",
            a.variance(),
            b.variance()
        );
    }

    #[test]
    fn chunked_moments_match_welford() {
        for n in [1, 255, 256, 257, 100_000] {
            let xs = stream(n);
            assert_close(&chunked(&xs), &welford(&xs), 1e-12);
        }
        assert_eq!(MomentAccumulator::new().finish().count(), 0);
    }

    #[test]
    fn chunked_moments_do_not_depend_on_slicing() {
        let xs = stream(10_000);
        let bits = |s: &OnlineStats| serde_json::to_string(s).unwrap();
        let want = bits(&chunked(&xs));
        for sizes in [
            &[1usize][..],
            &[255],
            &[256],
            &[257],
            &[3, 700, 1, 256, 4096],
        ] {
            let mut acc = MomentAccumulator::new();
            let mut rest = &xs[..];
            for &size in sizes.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at(size.min(rest.len()));
                acc.extend_from_slice(head);
                rest = tail;
            }
            assert_eq!(bits(&acc.finish()), want, "slices {sizes:?}");
        }
    }

    #[test]
    fn chunk_extremes_match_min_and_max() {
        // NaN samples are skipped as `f64::min`/`max` skip them; every
        // other sample, infinities included, counts.
        let mut xs = stream(1_000);
        xs[3] = f64::NAN;
        xs[300] = f64::INFINITY;
        xs[301] = -7.5;
        xs[700] = f64::NAN;
        for n in [1, 9, 256, 257, 1_000] {
            let s = chunked(&xs[..n]);
            let min = xs[..n].iter().fold(f64::INFINITY, |a, &b| a.min(b));
            let max = xs[..n].iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            assert_eq!(s.min().map(f64::to_bits), Some(min.to_bits()), "n {n}");
            assert_eq!(s.max().map(f64::to_bits), Some(max.to_bits()), "n {n}");
        }
    }

    #[test]
    fn merged_accumulators_match_one_pass() {
        let xs = stream(20_000);
        let whole = welford(&xs);
        for split in [1, 256, 777, 19_999] {
            let mut a = chunked(&xs[..split]);
            a.merge(&chunked(&xs[split..]));
            assert_close(&a, &whole, 1e-12);
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before_mean = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before_mean);
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 2);
    }

    #[test]
    fn histogram_bins_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(-1.0);
        h.push(0.0);
        h.push(9.999);
        h.push(10.0);
        h.push(5.5);
        assert_eq!(h.total(), 5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.bins()[5], 1);
    }

    #[test]
    fn histogram_quantile() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.push(i as f64);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 49.5).abs() <= 1.0, "median {med}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= 97.0, "p99 {p99}");
        assert!(Histogram::new(0.0, 1.0, 1).quantile(0.5).is_none());
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.push(1.0);
        b.push(1.0);
        b.push(11.0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.bins()[0], 2);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn nearest_rank_convention() {
        assert_eq!(nearest_rank(0.5, 0), 0);
        assert_eq!(nearest_rank(0.0, 10), 1);
        assert_eq!(nearest_rank(0.5, 10), 5);
        assert_eq!(nearest_rank(0.999, 10), 10);
        assert_eq!(nearest_rank(1.0, 10), 10);
        assert_eq!(nearest_rank(2.0, 10), 10, "q is clamped to [0, 1]");
        assert_eq!(nearest_rank(-1.0, 10), 1);
    }

    #[test]
    fn overflow_quantile_reports_observed_max_not_range_bound() {
        // Regression: quantiles resolving into the overflow bin used to
        // clamp at `hi`, underreporting true tail latency.
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..900 {
            h.push(f64::from(i % 100));
        }
        for i in 0..100 {
            h.push(250.0 + f64::from(i)); // 100 samples far past hi
        }
        assert_eq!(h.overflow(), 100);
        assert_eq!(h.overflow_max(), Some(349.0));
        let p999 = h.quantile(0.999).unwrap();
        assert!(p999 > 100.0, "p999 {p999} still clamped at hi");
        assert_eq!(p999, 349.0);
        // In-range quantiles are untouched by the fix.
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 < 100.0);
    }

    #[test]
    fn overflow_max_survives_merge() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.push(12.0);
        b.push(99.0);
        a.merge(&b);
        assert_eq!(a.overflow_max(), Some(99.0));
        let mut c = Histogram::new(0.0, 10.0, 5);
        c.merge(&a);
        assert_eq!(c.overflow_max(), Some(99.0));
    }

    #[test]
    fn push_batch_matches_sequential_push() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (f64::from(i) * 0.7134).sin() * 80.0 + 20.0)
            .collect();
        let mut scalar = Histogram::new(0.0, 50.0, 17);
        for &x in &xs {
            scalar.push(x);
        }
        let mut batched = Histogram::new(0.0, 50.0, 17);
        // Uneven chunks to exercise the partial-batch merges.
        for chunk in xs.chunks(97) {
            batched.push_batch(chunk);
        }
        assert_eq!(scalar.bins(), batched.bins());
        assert_eq!(scalar.underflow(), batched.underflow());
        assert_eq!(scalar.overflow(), batched.overflow());
        assert_eq!(scalar.total(), batched.total());
        assert_eq!(scalar.overflow_max(), batched.overflow_max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(scalar.quantile(q), batched.quantile(q));
        }
    }

    #[test]
    fn push_slice_matches_sequential_push() {
        let xs: Vec<f64> = (0..257).map(|i| (f64::from(i)).cos() * 5.0).collect();
        let mut scalar = OnlineStats::new();
        for &x in &xs {
            scalar.push(x);
        }
        let mut sliced = OnlineStats::new();
        sliced.push_slice(&xs);
        assert_eq!(scalar.count(), sliced.count());
        assert_eq!(scalar.mean(), sliced.mean());
        assert_eq!(scalar.variance(), sliced.variance());
        assert_eq!(scalar.min(), sliced.min());
        assert_eq!(scalar.max(), sliced.max());
    }
}
