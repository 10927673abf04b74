//! Gain models: the per-input output-count distribution of a node.
//!
//! The paper models irregularity per node as a distribution over how many
//! outputs one input produces. For the BLAST evaluation (§6.1) it uses:
//!
//! * **Bernoulli** for the filter-like stages (one output with
//!   probability `g_i`, else zero), and
//! * **censored Poisson** for the expanding stage (Poisson with mean
//!   `g_i`, truncated at the stage's architectural maximum `u = 16`).
//!
//! We additionally provide deterministic and empirical (arbitrary PMF)
//! models, which other applications in this workspace use.

use crate::error::ModelError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Distribution of the number of outputs a node emits per consumed input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GainModel {
    /// Always exactly `k` outputs per input.
    Deterministic {
        /// Outputs per input.
        k: u32,
    },
    /// One output with probability `p`, zero otherwise (`0 ≤ p ≤ 1`).
    Bernoulli {
        /// Success probability.
        p: f64,
    },
    /// Poisson with the given mean, censored (clamped) at `cap`:
    /// draws above `cap` count as exactly `cap`.
    CensoredPoisson {
        /// Mean of the underlying Poisson.
        mean: f64,
        /// Architectural maximum outputs per input (`u` in the paper).
        cap: u32,
    },
    /// Arbitrary probability mass function over output counts.
    /// Probabilities must be nonnegative and sum to 1 (±1e-9).
    Empirical {
        /// `(output_count, probability)` pairs.
        pmf: Vec<(u32, f64)>,
    },
}

impl GainModel {
    /// Build an [`GainModel::Empirical`] model from observed output
    /// counts (e.g. a production trace). Returns an error if `samples`
    /// is empty.
    pub fn from_samples(samples: &[u32]) -> Result<Self, ModelError> {
        if samples.is_empty() {
            return Err(ModelError::InvalidGain {
                node: usize::MAX,
                reason: "no samples to build an empirical gain from".into(),
            });
        }
        let mut counts: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for &s in samples {
            *counts.entry(s).or_insert(0) += 1;
        }
        let total = samples.len() as f64;
        let pmf = counts
            .into_iter()
            .map(|(k, c)| (k, c as f64 / total))
            .collect();
        Ok(GainModel::Empirical { pmf })
    }

    /// Validate parameters. `node` is used only for error reporting; pass
    /// `usize::MAX` for a standalone model.
    pub fn validate(&self, node: usize) -> Result<(), ModelError> {
        let err = |reason: String| Err(ModelError::InvalidGain { node, reason });
        match self {
            GainModel::Deterministic { .. } => Ok(()),
            GainModel::Bernoulli { p } => {
                if !(0.0..=1.0).contains(p) || !p.is_finite() {
                    err(format!("Bernoulli p = {p} outside [0, 1]"))
                } else {
                    Ok(())
                }
            }
            GainModel::CensoredPoisson { mean, cap } => {
                if !mean.is_finite() || *mean <= 0.0 {
                    err(format!("Poisson mean = {mean} not strictly positive"))
                } else if *cap == 0 {
                    err("censoring cap must be >= 1".into())
                } else {
                    Ok(())
                }
            }
            GainModel::Empirical { pmf } => {
                if pmf.is_empty() {
                    return err("empirical PMF is empty".into());
                }
                if pmf.iter().any(|(_, p)| !p.is_finite() || *p < 0.0) {
                    return err("empirical PMF has a negative or non-finite probability".into());
                }
                let total: f64 = pmf.iter().map(|(_, p)| p).sum();
                if (total - 1.0).abs() > 1e-9 {
                    return err(format!("empirical PMF sums to {total}, expected 1"));
                }
                Ok(())
            }
        }
    }

    /// Expected outputs per input (`g_i` in the paper).
    pub fn mean(&self) -> f64 {
        match self {
            GainModel::Deterministic { k } => *k as f64,
            GainModel::Bernoulli { p } => *p,
            GainModel::CensoredPoisson { mean, cap } => censored_poisson_moments(*mean, *cap).0,
            GainModel::Empirical { pmf } => pmf.iter().map(|(k, p)| *k as f64 * p).sum(),
        }
    }

    /// Variance of outputs per input.
    pub fn variance(&self) -> f64 {
        match self {
            GainModel::Deterministic { .. } => 0.0,
            GainModel::Bernoulli { p } => p * (1.0 - p),
            GainModel::CensoredPoisson { mean, cap } => censored_poisson_moments(*mean, *cap).1,
            GainModel::Empirical { pmf } => {
                let m1: f64 = pmf.iter().map(|(k, p)| *k as f64 * p).sum();
                let m2: f64 = pmf.iter().map(|(k, p)| (*k as f64).powi(2) * p).sum();
                (m2 - m1 * m1).max(0.0)
            }
        }
    }

    /// Largest possible output count per input, if bounded.
    pub fn max_outputs(&self) -> Option<u32> {
        match self {
            GainModel::Deterministic { k } => Some(*k),
            GainModel::Bernoulli { .. } => Some(1),
            GainModel::CensoredPoisson { cap, .. } => Some(*cap),
            GainModel::Empirical { pmf } => pmf.iter().map(|(k, _)| *k).max(),
        }
    }

    /// Build the sampler that draws from this law. Call it once per
    /// run (after any gain drift), not per firing: the censored-Poisson
    /// table costs O(√mean) to build.
    ///
    /// Returns [`ModelError::InvalidGain`] (node `usize::MAX`) when the
    /// parameters fail [`GainModel::validate`].
    pub fn sampler(&self) -> Result<GainSampler, ModelError> {
        self.validate(usize::MAX)?;
        let law = match self {
            GainModel::Deterministic { k } => Law::Deterministic(*k),
            GainModel::Bernoulli { p } => Law::Bernoulli(unit_threshold(*p)),
            GainModel::CensoredPoisson { mean, cap } => {
                let (first, pmf) = censored_poisson_pmf(*mean, u64::from(*cap));
                inverse_cdf_table(first as u32, &pmf)
            }
            GainModel::Empirical { pmf } => Law::Empirical {
                ks: pmf.iter().map(|&(k, _)| k).collect(),
                cuts: scan_cuts(pmf),
            },
        };
        Ok(GainSampler { law })
    }
}

/// `2^53`, the number of values a 53-bit uniform draw takes.
const DRAW_SPAN: f64 = (1u64 << 53) as f64;

/// The 53-bit uniform of one raw draw: `r >> 11`, the integer behind
/// `rng.gen::<f64>() == (r >> 11) · 2^-53`.
#[inline(always)]
pub fn draw53<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

/// `⌈p·2^53⌉`: a 53-bit draw `m` is below it exactly when the float
/// draw `m·2^-53` is below `p`. Scaling by a power of two is exact for
/// every `p ∈ [0, 1]`, subnormals included, so `draw53(rng) <
/// unit_threshold(p)` and `rng.gen::<f64>() < p` agree on every draw.
/// This is the Bernoulli law's test and the simulators' routing-weight
/// thinning test.
#[inline]
pub fn unit_threshold(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * DRAW_SPAN).ceil() as u64
}

/// Tables up to this length are counted branch-free; longer ones are
/// binary-searched.
const SHORT_TABLE: usize = 32;

/// A [`GainModel`] ready to draw from, built by [`GainModel::sampler`].
///
/// Every law draws at most one 64-bit value per output count, so a
/// batch of `n` draws consumes exactly `n` draws of the stream (none for
/// the deterministic law), whichever of [`GainSampler::sample`],
/// [`GainSampler::sample_batch`] or [`GainSampler::sample_sum`] makes it.
///
/// * Deterministic: no draw.
/// * Bernoulli: one when `draw53 < ⌈p·2^53⌉` — the same outcome as
///   `gen::<f64>() < p`.
/// * Censored Poisson: inverse CDF. With `u = m·2^-53` the uniform of
///   the 53-bit draw `m`, the count is the number of `k` with
///   `P(X ≤ k) ≤ u`, i.e. with `⌈P(X ≤ k)·2^53⌉ ≤ m`. The table keeps
///   only the `k` whose CDF lies strictly between 0 and 1 in `f64`
///   (`O(√mean)` entries, never `O(cap)`) as those integers.
/// * Empirical: the support point the scan down the PMF would stop at
///   (`u -= p` from `u = m·2^-53`, the first point whose mass exceeds
///   what is left of `u`), read from a cut table instead of scanned.
///   Float subtraction and comparison are monotone, so the point the
///   scan stops at never moves back as `m` grows: it is the number of
///   cuts at or below `m`, where cut `j` is the least `m` whose scan
///   passes point `j`. The cuts are found once per sampler by bisection
///   over `[0, 2^53)`, with the scan as the predicate; sampling is one
///   branch-free count and an index, equal to the scan on every draw.
#[derive(Debug, Clone)]
pub struct GainSampler {
    law: Law,
}

#[derive(Debug, Clone)]
enum Law {
    Deterministic(u32),
    /// `⌈p·2^53⌉`.
    Bernoulli(u64),
    /// `base` counts the `k` whose CDF is 0 in `f64`; `cdf` holds the
    /// rest of the window, nondecreasing, as `⌈P(X ≤ k)·2^53⌉`.
    Table {
        base: u32,
        cdf: Vec<u64>,
    },
    /// The PMF's counts in declaration order, and the `len − 1` cuts of
    /// [`scan_cuts`]: the scan stops at `ks[table_count(cuts, m)]`.
    Empirical {
        ks: Vec<u32>,
        cuts: Vec<u64>,
    },
}

impl GainSampler {
    /// Draw an output count for one input.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match &self.law {
            Law::Deterministic(k) => *k,
            Law::Bernoulli(threshold) => u32::from(draw53(rng) < *threshold),
            Law::Table { base, cdf } => base + table_count(cdf, draw53(rng)),
            Law::Empirical { ks, cuts } => ks[table_count(cuts, draw53(rng)) as usize],
        }
    }

    /// Draw output counts for a whole firing at once, filling `out`:
    /// draw for draw [`GainSampler::sample`] once per element, with the
    /// law dispatch hoisted out of the loop.
    pub fn sample_batch<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u32]) {
        match &self.law {
            Law::Deterministic(k) => out.fill(*k),
            Law::Bernoulli(threshold) => {
                for o in out.iter_mut() {
                    *o = u32::from(draw53(rng) < *threshold);
                }
            }
            Law::Table { base, cdf } => {
                for o in out.iter_mut() {
                    *o = base + table_count(cdf, draw53(rng));
                }
            }
            Law::Empirical { ks, cuts } => {
                for o in out.iter_mut() {
                    *o = ks[table_count(cuts, draw53(rng)) as usize];
                }
            }
        }
    }

    /// The largest count any draw of this sampler can return. A kernel
    /// reads it once per run to size its output writes: laws with at
    /// most one output per input need no multi-slot spread.
    pub fn max_count(&self) -> u32 {
        match &self.law {
            Law::Deterministic(k) => *k,
            Law::Bernoulli(threshold) => u32::from(*threshold > 0),
            // `table_count` counts at most every entry.
            Law::Table { base, cdf } => base + cdf.len() as u32,
            // The scan's floating-point fallback is the last point, so
            // every support point counts, massless ones included.
            Law::Empirical { ks, .. } => ks.iter().copied().max().unwrap_or(0),
        }
    }

    /// Total outputs of `count` consumed inputs: the draws of `count`
    /// calls to [`GainSampler::sample`], summed (none at all for the
    /// deterministic law), so block simulations that only need the stage
    /// total stay draw-compatible with per-item sampling.
    pub fn sample_sum<R: Rng + ?Sized>(&self, rng: &mut R, count: u64) -> u64 {
        match &self.law {
            Law::Deterministic(k) => count * u64::from(*k),
            Law::Bernoulli(threshold) => (0..count)
                .map(|_| u64::from(draw53(rng) < *threshold))
                .sum(),
            Law::Table { base, cdf } => (0..count)
                .map(|_| u64::from(base + table_count(cdf, draw53(rng))))
                .sum(),
            Law::Empirical { ks, cuts } => (0..count)
                .map(|_| u64::from(ks[table_count(cuts, draw53(rng)) as usize]))
                .sum(),
        }
    }
}

/// Number of table entries at or below the 53-bit draw `m`.
#[inline(always)]
fn table_count(cdf: &[u64], m: u64) -> u32 {
    if cdf.len() <= SHORT_TABLE {
        // `c ≤ m` exactly when `c − (m + 1)` borrows, and both lie below
        // 2^54, so the borrow is the top bit: a subtract and a shift per
        // entry, which SSE2 does two at a time.
        let m1 = m + 1;
        cdf.iter().map(|&c| c.wrapping_sub(m1) >> 63).sum::<u64>() as u32
    } else {
        cdf.partition_point(|&c| c <= m) as u32
    }
}

/// The empirical law's scan from the float draw `m·2^-53`: the index of
/// the first support point whose mass exceeds what is left of `u`, or
/// the last point when rounding leaves `u` past them all. The cut
/// builder's predicate and the test oracle; sampling reads the cuts.
fn scan_index(pmf: &[(u32, f64)], m: u64) -> usize {
    let mut u = m as f64 / DRAW_SPAN;
    for (i, (_, p)) in pmf.iter().enumerate() {
        if u < *p {
            return i;
        }
        u -= p;
    }
    pmf.len() - 1
}

/// The cut table of an empirical PMF: for each point `j ≥ 1`, the least
/// 53-bit draw whose [`scan_index`] is at least `j` (`2^53`, which no
/// draw reaches, when there is none). The scan index is nondecreasing
/// in the draw — each `u -= p` and `u < p` is monotone in `u` — so each
/// cut is found by bisection, starting from the cut before it.
fn scan_cuts(pmf: &[(u32, f64)]) -> Vec<u64> {
    let mut cuts = Vec::with_capacity(pmf.len().saturating_sub(1));
    let mut lo = 0u64;
    for j in 1..pmf.len() {
        let mut hi = 1u64 << 53;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if scan_index(pmf, mid) >= j {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        cuts.push(lo);
    }
    cuts
}

/// Thin a batch of output counts by a routing weight, as one keep draw
/// per output would: item by item, each of an item's `counts[i]`
/// outputs survives when its 53-bit draw is below `threshold` (the
/// weight's [`unit_threshold`]), and `counts[i]` becomes the survivors.
///
/// The batch's `Σk` keep bits are drawn in that order into one flat
/// lane as a running count (`lane[j]` is the survivors among the first
/// `j` draws); an item's survivors are then the difference of the lane
/// at its segment's two ends. So no loop's length depends on a draw,
/// and the stream advances by exactly `Σk` draws.
pub fn thin_counts<R: Rng + ?Sized>(
    rng: &mut R,
    threshold: u64,
    counts: &mut [u32],
    lane: &mut Vec<u32>,
) {
    let total: usize = counts.iter().map(|&k| k as usize).sum();
    lane.clear();
    lane.resize(total + 1, 0);
    let mut kept = 0u32;
    for slot in &mut lane[1..] {
        kept += u32::from(draw53(rng) < threshold);
        *slot = kept;
    }
    let mut at = 0usize;
    for k in counts.iter_mut() {
        let end = at + *k as usize;
        *k = lane[end] - lane[at];
        at = end;
    }
}

/// The inverse-CDF table of a PMF window over `first..`: the CDF at
/// each count, taken from the left while it is below one half and as
/// one minus the right tail above (so both tails keep their relative
/// precision), rounded onto the `2^-53` grid — up for `P(X ≤ k)`, which
/// is `2^53 − ⌊tail·2^53⌋` on the right — and kept where it is strictly
/// between 0 and 1.
fn inverse_cdf_table(first: u32, pmf: &[f64]) -> Law {
    let mut tails = vec![0.0; pmf.len()];
    let mut tail = 0.0;
    for (t, &p) in tails.iter_mut().zip(pmf).rev() {
        *t = tail;
        tail += p;
    }
    let mut base = first;
    let mut cdf = Vec::new();
    let mut below = 0.0;
    let mut last = 0.0;
    for (&p, &tail) in pmf.iter().zip(&tails) {
        below += p;
        let grid = if below < 0.5 {
            (below * DRAW_SPAN).ceil()
        } else {
            DRAW_SPAN - (tail * DRAW_SPAN).floor()
        };
        // Rounding may leave a one-ulp dip where the two halves meet.
        last = grid.max(last);
        if last == 0.0 {
            base += 1;
        } else if last < DRAW_SPAN {
            cdf.push(last as u64);
        }
    }
    Law::Table { base, cdf }
}

/// PMF of `min(X, cap)` for `X ~ Poisson(λ)`, on the window of counts
/// where it is nonzero in `f64`: returns the first count of the window
/// and its probabilities, which sum to 1, with the mass at and above
/// `cap` folded into the entry for `cap`.
///
/// Computed without `exp(−λ)` or `lgamma`: the ratio recurrence
/// `p(k±1)/p(k)` runs outward from the mode (weight 1) until the terms
/// underflow, and the window is normalized by its sum. So it stays
/// accurate at means where `exp(−λ)` underflows (above ~745), and the window is
/// `O(√λ)` long. When `cap` lies below the window — the Chernoff bound
/// `P(X ≤ λ − t) ≤ exp(−t²/2λ)` puts everything below `λ − 40√λ` under
/// `f64`'s smallest subnormal — the law is the constant `cap`.
///
/// `λ` must be finite and positive.
pub fn censored_poisson_pmf(lambda: f64, cap: u64) -> (u64, Vec<f64>) {
    debug_assert!(lambda.is_finite() && lambda > 0.0, "bad lambda {lambda}");
    if (cap as f64) < lambda - 40.0 * lambda.sqrt() - 1.0 {
        return (cap, vec![1.0]);
    }
    let mode = lambda.floor() as u64;
    // Left of the mode, nearest first: p(k−1) = p(k)·k/λ.
    let mut left = Vec::new();
    let mut term = 1.0;
    for k in (1..=mode).rev() {
        term *= k as f64 / lambda;
        if term == 0.0 {
            break;
        }
        left.push(term);
    }
    let first = mode - left.len() as u64;
    let mut window: Vec<f64> = left.into_iter().rev().collect();
    window.push(1.0);
    // Right of the mode: p(k+1) = p(k)·λ/(k+1).
    term = 1.0;
    let mut k = mode;
    loop {
        k += 1;
        term *= lambda / k as f64;
        if term == 0.0 {
            break;
        }
        window.push(term);
    }
    let total: f64 = window.iter().sum();
    if cap < first {
        return (cap, vec![1.0]);
    }
    let keep = (cap - first) as usize;
    if keep < window.len() {
        let folded: f64 = window[keep..].iter().rev().sum();
        window.truncate(keep + 1);
        window[keep] = folded;
    }
    window.iter_mut().for_each(|p| *p /= total);
    (first, window)
}

/// Mean and variance of `min(Poisson(λ), cap)`.
///
/// While `exp(−λ)` is a normal float this sums the PMF forward from
/// `P(X = 0) = exp(−λ)` (the formula every committed model number was
/// computed with, kept bit for bit); beyond that `exp(−λ)` loses its
/// precision and then underflows, so the moments come from
/// [`censored_poisson_pmf`].
fn censored_poisson_moments(lambda: f64, cap: u32) -> (f64, f64) {
    let p0 = (-lambda).exp();
    if p0 < f64::MIN_POSITIVE {
        let (first, pmf) = censored_poisson_pmf(lambda, u64::from(cap));
        let count = |i: usize| (first + i as u64) as f64;
        let mean: f64 = pmf.iter().enumerate().map(|(i, p)| count(i) * p).sum();
        let var = pmf
            .iter()
            .enumerate()
            .map(|(i, p)| (count(i) - mean).powi(2) * p)
            .sum();
        return (mean, var);
    }
    // P(X = k) for k < cap, and P(X >= cap) lumped at cap.
    let mut pk = p0;
    let mut below_mass = 0.0;
    let mut m1 = 0.0;
    let mut m2 = 0.0;
    for k in 0..cap {
        if pk == 0.0 && f64::from(k) > lambda {
            // The terms underflowed past the mode: every later one adds
            // +0 and leaves the sums bit-unchanged.
            break;
        }
        m1 += k as f64 * pk;
        m2 += (k as f64).powi(2) * pk;
        below_mass += pk;
        pk *= lambda / (k + 1) as f64;
    }
    let tail = (1.0 - below_mass).max(0.0);
    m1 += cap as f64 * tail;
    m2 += (cap as f64).powi(2) * tail;
    (m1, (m2 - m1 * m1).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn deterministic_model() {
        let g = GainModel::Deterministic { k: 3 };
        assert_eq!(g.mean(), 3.0);
        assert_eq!(g.variance(), 0.0);
        assert_eq!(g.max_outputs(), Some(3));
        assert_eq!(g.sampler().unwrap().sample(&mut rng()), 3);
        assert!(g.validate(0).is_ok());
    }

    #[test]
    fn bernoulli_moments() {
        let g = GainModel::Bernoulli { p: 0.379 };
        assert!((g.mean() - 0.379).abs() < 1e-15);
        assert!((g.variance() - 0.379 * 0.621).abs() < 1e-12);
        assert_eq!(g.max_outputs(), Some(1));
    }

    #[test]
    fn bernoulli_sampling_frequency() {
        let g = GainModel::Bernoulli { p: 0.379 }.sampler().unwrap();
        let mut r = rng();
        let n = 200_000;
        let ones = (0..n).filter(|_| g.sample(&mut r) == 1).count();
        let freq = ones as f64 / n as f64;
        assert!((freq - 0.379).abs() < 0.005, "freq {freq}");
    }

    #[test]
    fn bernoulli_validation() {
        assert!(GainModel::Bernoulli { p: 1.0 }.validate(0).is_ok());
        assert!(GainModel::Bernoulli { p: 0.0 }.validate(0).is_ok());
        assert!(GainModel::Bernoulli { p: 1.1 }.validate(0).is_err());
        assert!(GainModel::Bernoulli { p: -0.1 }.validate(0).is_err());
        assert!(GainModel::Bernoulli { p: f64::NAN }.validate(0).is_err());
    }

    #[test]
    fn censored_poisson_mean_below_uncensored() {
        // Censoring can only reduce the mean.
        let g = GainModel::CensoredPoisson {
            mean: 1.920,
            cap: 16,
        };
        let m = g.mean();
        assert!(m <= 1.920 + 1e-12, "mean {m}");
        // With cap = 16 and λ = 1.92 the truncated mass is tiny, so the
        // censored mean should be extremely close to λ.
        assert!((m - 1.920).abs() < 1e-6, "mean {m}");
    }

    #[test]
    fn censored_poisson_tight_cap() {
        // λ = 2, cap = 1 → X is Bernoulli(1 - e^{-2}).
        let g = GainModel::CensoredPoisson { mean: 2.0, cap: 1 };
        let expect = 1.0 - (-2.0_f64).exp();
        assert!((g.mean() - expect).abs() < 1e-12);
        assert!((g.variance() - expect * (1.0 - expect)).abs() < 1e-12);
    }

    #[test]
    fn censored_poisson_sampling_respects_cap_and_mean() {
        let g = GainModel::CensoredPoisson {
            mean: 1.920,
            cap: 16,
        }
        .sampler()
        .unwrap();
        let mut r = rng();
        let n = 200_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let k = g.sample(&mut r);
            assert!(k <= 16);
            sum += k as u64;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 1.920).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn censored_poisson_validation() {
        assert!(GainModel::CensoredPoisson { mean: 0.0, cap: 4 }
            .validate(0)
            .is_err());
        assert!(GainModel::CensoredPoisson { mean: 1.0, cap: 0 }
            .validate(0)
            .is_err());
        assert!(GainModel::CensoredPoisson { mean: 1.0, cap: 4 }
            .validate(0)
            .is_ok());
    }

    #[test]
    fn empirical_model() {
        let g = GainModel::Empirical {
            pmf: vec![(0, 0.5), (2, 0.25), (4, 0.25)],
        };
        assert!(g.validate(0).is_ok());
        assert!((g.mean() - 1.5).abs() < 1e-12);
        assert_eq!(g.max_outputs(), Some(4));
        // variance = E[X²] − mean² = (0 + 1 + 4) − 2.25 = 2.75
        assert!((g.variance() - 2.75).abs() < 1e-12);
        let s = g.sampler().unwrap();
        let mut r = rng();
        for _ in 0..1000 {
            let k = s.sample(&mut r);
            assert!(k == 0 || k == 2 || k == 4);
        }
    }

    #[test]
    fn empirical_validation() {
        assert!(GainModel::Empirical { pmf: vec![] }.validate(0).is_err());
        assert!(GainModel::Empirical {
            pmf: vec![(1, 0.5)]
        }
        .validate(0)
        .is_err());
        assert!(GainModel::Empirical {
            pmf: vec![(1, -0.5), (0, 1.5)]
        }
        .validate(0)
        .is_err());
        assert!(GainModel::Empirical {
            pmf: vec![(1, 1.0)]
        }
        .validate(0)
        .is_ok());
    }

    #[test]
    fn empirical_sampling_frequencies() {
        let g = GainModel::Empirical {
            pmf: vec![(0, 0.2), (1, 0.3), (5, 0.5)],
        }
        .sampler()
        .unwrap();
        let mut r = rng();
        let n = 100_000;
        let mut c0 = 0;
        let mut c1 = 0;
        let mut c5 = 0;
        for _ in 0..n {
            match g.sample(&mut r) {
                0 => c0 += 1,
                1 => c1 += 1,
                5 => c5 += 1,
                other => panic!("unexpected sample {other}"),
            }
        }
        assert!((c0 as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((c1 as f64 / n as f64 - 0.3).abs() < 0.01);
        assert!((c5 as f64 / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn from_samples_builds_matching_empirical() {
        let samples = [0u32, 0, 1, 1, 1, 3, 3, 0];
        let g = GainModel::from_samples(&samples).unwrap();
        assert!(g.validate(0).is_ok());
        let expect_mean = samples.iter().sum::<u32>() as f64 / samples.len() as f64;
        assert!((g.mean() - expect_mean).abs() < 1e-12);
        assert_eq!(g.max_outputs(), Some(3));
        match g {
            GainModel::Empirical { pmf } => {
                assert_eq!(pmf.len(), 3);
                assert!((pmf[0].1 - 3.0 / 8.0).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn from_samples_rejects_empty() {
        assert!(GainModel::from_samples(&[]).is_err());
    }

    fn all_models() -> Vec<GainModel> {
        vec![
            GainModel::Deterministic { k: 2 },
            GainModel::Bernoulli { p: 0.379 },
            GainModel::CensoredPoisson {
                mean: 1.920,
                cap: 16,
            },
            GainModel::CensoredPoisson { mean: 2.0, cap: 1 },
            GainModel::CensoredPoisson {
                mean: 1e3,
                cap: 2000,
            },
            GainModel::Empirical {
                pmf: vec![(0, 0.5), (2, 0.25), (4, 0.25)],
            },
        ]
    }

    #[test]
    fn sample_batch_is_draw_identical_to_scalar() {
        for g in all_models() {
            let g = g.sampler().unwrap();
            let mut scalar_rng = rng();
            let mut batch_rng = rng();
            let scalar: Vec<u32> = (0..500).map(|_| g.sample(&mut scalar_rng)).collect();
            let mut batch = vec![0u32; 500];
            g.sample_batch(&mut batch_rng, &mut batch);
            assert_eq!(scalar, batch, "{g:?}");
            // Both RNGs must sit at the same position afterwards.
            assert_eq!(
                scalar_rng.gen::<u64>(),
                batch_rng.gen::<u64>(),
                "{g:?} consumed a different number of draws"
            );
        }
    }

    #[test]
    fn sample_sum_is_draw_identical_to_scalar() {
        for g in all_models() {
            let g = g.sampler().unwrap();
            let mut scalar_rng = rng();
            let mut sum_rng = rng();
            let scalar: u64 = (0..500).map(|_| u64::from(g.sample(&mut scalar_rng))).sum();
            let sum = g.sample_sum(&mut sum_rng, 500);
            assert_eq!(scalar, sum, "{g:?}");
            assert_eq!(
                scalar_rng.gen::<u64>(),
                sum_rng.gen::<u64>(),
                "{g:?} consumed a different number of draws"
            );
        }
    }

    /// The forward-from-`exp(−λ)` moments, as they were before the
    /// underflow fix: the oracle for the normal-float regime.
    fn forward_moments(lambda: f64, cap: u32) -> (f64, f64) {
        let mut pk = (-lambda).exp();
        let mut below_mass = 0.0;
        let mut m1 = 0.0;
        let mut m2 = 0.0;
        for k in 0..cap {
            m1 += k as f64 * pk;
            m2 += (k as f64).powi(2) * pk;
            below_mass += pk;
            pk *= lambda / (k + 1) as f64;
        }
        let tail = (1.0 - below_mass).max(0.0);
        m1 += cap as f64 * tail;
        m2 += (cap as f64).powi(2) * tail;
        (m1, (m2 - m1 * m1).max(0.0))
    }

    #[test]
    fn censored_poisson_moments_are_bit_identical_while_exp_is_normal() {
        for mean in [1e-3, 0.5, 1.92, 2.0, 10.0, 100.0, 500.0, 700.0, 708.0] {
            for cap in [1, 2, 16, 64, 2000] {
                let g = GainModel::CensoredPoisson { mean, cap };
                let (m, v) = forward_moments(mean, cap);
                assert_eq!(g.mean().to_bits(), m.to_bits(), "mean {mean} cap {cap}");
                assert_eq!(g.variance().to_bits(), v.to_bits(), "mean {mean} cap {cap}");
            }
        }
    }

    #[test]
    fn censored_poisson_moments_survive_exp_underflow() {
        // exp(−800) underflows: the forward sum put all the mass at the
        // cap (mean 2000, variance 0).
        for (mean, cap) in [(800.0, 2000), (1e3, 2000), (1e5, 200_000)] {
            let g = GainModel::CensoredPoisson { mean, cap };
            assert!((g.mean() / mean - 1.0).abs() < 1e-9, "{mean}: {}", g.mean());
            assert!(
                (g.variance() / mean - 1.0).abs() < 1e-9,
                "{mean}: {}",
                g.variance()
            );
        }
        // A cap far below the mean censors every draw.
        let g = GainModel::CensoredPoisson { mean: 1e3, cap: 16 };
        assert_eq!((g.mean(), g.variance()), (16.0, 0.0));
    }

    #[test]
    fn censored_poisson_pmf_matches_the_forward_recurrence() {
        for mean in [0.1, 1.92, 30.0, 300.0] {
            let (first, pmf) = censored_poisson_pmf(mean, 2000);
            assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-13);
            let mut p = (-mean).exp();
            for k in 0..first + pmf.len() as u64 {
                if k >= first {
                    let got = pmf[(k - first) as usize];
                    assert!((got - p).abs() <= 1e-12 * p + 1e-300, "{mean} k={k}");
                }
                p *= mean / (k + 1) as f64;
            }
        }
        // Folded at the cap: P(min(X, 1) = 1) = 1 − e^{−2}.
        let (first, pmf) = censored_poisson_pmf(2.0, 1);
        assert_eq!((first, pmf.len()), (0, 2));
        assert!((pmf[1] - (1.0 - (-2.0f64).exp())).abs() < 1e-15);
    }

    fn table(g: &GainSampler) -> (u32, &[u64]) {
        match &g.law {
            Law::Table { base, cdf } => (*base, cdf),
            other => panic!("not a table: {other:?}"),
        }
    }

    #[test]
    fn poisson_table_spans_the_cdf_window_not_the_cap() {
        let blast = GainModel::CensoredPoisson {
            mean: 1.92,
            cap: 16,
        };
        let blast = blast.sampler().unwrap();
        // Every k below the cap has a CDF strictly inside (0, 1).
        assert_eq!(table(&blast).0, 0);
        assert_eq!(table(&blast).1.len(), 16);
        let wide = GainModel::CensoredPoisson {
            mean: 1e5,
            cap: u32::MAX,
        };
        let wide = wide.sampler().unwrap();
        let (base, cdf) = table(&wide);
        assert!(cdf.len() < 100 * 317, "{} entries", cdf.len());
        assert!(base > 80_000 && base < 100_000);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!(cdf.iter().all(|&c| c > 0 && c < 1 << 53));
        // Far above the cap: the constant cap, no draws wasted on a table.
        let censored = GainModel::CensoredPoisson { mean: 1e15, cap: 7 };
        assert_eq!(table(&censored.sampler().unwrap()), (7, &[][..]));
    }

    #[test]
    fn long_tables_search_like_short_tables_count() {
        let g = GainModel::CensoredPoisson {
            mean: 1e3,
            cap: 2000,
        };
        let g = g.sampler().unwrap();
        let (_, cdf) = table(&g);
        assert!(cdf.len() > SHORT_TABLE);
        let linear = |m: u64| cdf.iter().filter(|&&c| c <= m).count() as u32;
        let mut r = rng();
        for _ in 0..10_000 {
            let m = draw53(&mut r);
            assert_eq!(table_count(cdf, m), linear(m));
        }
        // At and one below every threshold, through both counts.
        for &c in cdf {
            for m in [c, c - 1] {
                assert_eq!(table_count(cdf, m), linear(m));
                let short = &cdf[..SHORT_TABLE];
                assert_eq!(table_count(short, m), linear(m).min(SHORT_TABLE as u32));
            }
        }
    }

    #[test]
    fn bernoulli_threshold_is_the_float_compare() {
        let grid = 1.0 / DRAW_SPAN;
        let subnormal = f64::from_bits(3);
        let mut ps = vec![0.0, 1.0, 0.5, grid, subnormal, 0.379];
        for k in [1.0, 2.0, 3.0, 1e6, DRAW_SPAN / 3.0, DRAW_SPAN - 1.0] {
            let p = k.floor() * grid;
            ps.extend([p, p.next_up(), p.next_down()]);
        }
        for p in ps {
            let t = unit_threshold(p);
            let probe = [0, 1, 2, t.saturating_sub(1), t, t + 1, (1u64 << 53) - 1];
            for m in probe.into_iter().filter(|&m| m < 1 << 53) {
                assert_eq!(m < t, (m as f64) * grid < p, "p {p:e} m {m}");
            }
            // Same draws, same outcomes as the float compare.
            let g = GainModel::Bernoulli { p }.sampler().unwrap();
            let (mut a, mut b) = (rng(), rng());
            for _ in 0..1000 {
                assert_eq!(g.sample(&mut a), u32::from(b.gen::<f64>() < p));
            }
        }
    }

    #[test]
    fn max_count_bounds_every_draw_of_every_law() {
        let drifted = crate::Perturbation::standard(1.0).drift_gain(&GainModel::CensoredPoisson {
            mean: 1.92,
            cap: 16,
        });
        let laws = [
            (GainModel::Deterministic { k: 0 }, 0),
            (GainModel::Deterministic { k: 3 }, 3),
            (GainModel::Bernoulli { p: 0.0 }, 0),
            (GainModel::Bernoulli { p: 0.379 }, 1),
            (GainModel::Bernoulli { p: 1.0 }, 1),
            // The BLAST expansion: every count up to the cap is drawn.
            (
                GainModel::CensoredPoisson {
                    mean: 1.92,
                    cap: 16,
                },
                16,
            ),
            (GainModel::CensoredPoisson { mean: 2.0, cap: 1 }, 1),
            // Gain drift raises the mean; the cap still bounds the table.
            (drifted, 16),
            // The table stops where the CDF reaches 1 on the 2^-53 grid
            // (P(X > 25) < 2^-53 at mean 3), far below a loose cap.
            (
                GainModel::CensoredPoisson {
                    mean: 3.0,
                    cap: 1000,
                },
                26,
            ),
            (GainModel::CensoredPoisson { mean: 1e15, cap: 7 }, 7),
            (
                GainModel::Empirical {
                    pmf: vec![(0, 0.5), (2, 0.5), (9, 0.0)],
                },
                9,
            ),
        ];
        for (model, bound) in laws {
            let g = model.sampler().unwrap();
            assert_eq!(g.max_count(), bound, "{model:?}");
            let mut out = vec![0u32; 1_000_000];
            g.sample_batch(&mut rng(), &mut out);
            let top = out.iter().copied().max().unwrap();
            assert!(top <= bound, "{model:?} drew {top} > {bound}");
        }
    }

    /// The empirical law as it was sampled before the cut table: one
    /// float uniform scanned down the PMF.
    fn float_scan(pmf: &[(u32, f64)], mut u: f64) -> u32 {
        for (k, p) in pmf {
            if u < *p {
                return *k;
            }
            u -= p;
        }
        pmf.last().map_or(0, |(k, _)| *k)
    }

    /// Random PMFs, normalized, with zero-mass points and duplicate,
    /// unsorted counts; some are longer than the branch-free table.
    fn random_pmfs() -> Vec<Vec<(u32, f64)>> {
        let mut r = StdRng::seed_from_u64(17);
        let mut pmfs = vec![
            vec![(0, 0.5), (2, 0.25), (4, 0.25)],
            vec![(0, 0.5), (2, 0.5), (9, 0.0)],
            vec![(3, 0.0), (1, 1.0)],
            vec![(7, 1.0)],
            vec![(2, 0.1), (2, 0.2), (0, 0.0), (5, 0.3), (1, 0.4), (0, 0.0)],
        ];
        for _ in 0..300 {
            let len = if r.gen::<f64>() < 0.1 {
                r.gen_range(33..=48)
            } else {
                r.gen_range(1..=12)
            };
            let mut w: Vec<f64> = (0..len)
                .map(|_| {
                    if r.gen::<f64>() < 0.25 {
                        0.0
                    } else {
                        r.gen::<f64>()
                    }
                })
                .collect();
            if w.iter().all(|&x| x == 0.0) {
                w[0] = 1.0;
            }
            let total: f64 = w.iter().sum();
            pmfs.push(
                w.iter()
                    .map(|x| (r.gen_range(0..6u32), x / total))
                    .collect(),
            );
        }
        pmfs
    }

    #[test]
    fn empirical_cut_table_is_the_scan_on_every_draw_tried() {
        for pmf in random_pmfs() {
            let g = GainModel::Empirical { pmf: pmf.clone() }.sampler().unwrap();
            let Law::Empirical { ks, cuts } = &g.law else {
                panic!("not an empirical law: {g:?}");
            };
            assert_eq!(cuts.len(), pmf.len() - 1);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{cuts:?}");
            // At and around every cut, at both ends of the draw range,
            // and on random draws.
            let mut probes = vec![0, (1 << 53) - 1];
            for &c in cuts {
                probes.extend((c.saturating_sub(2)..=c + 2).filter(|&m| m < 1 << 53));
            }
            let mut r = rng();
            probes.extend((0..2_000).map(|_| draw53(&mut r)));
            for m in probes {
                let i = table_count(cuts, m) as usize;
                assert_eq!(i, scan_index(&pmf, m), "{pmf:?} at m = {m}");
                let u = m as f64 * (1.0 / DRAW_SPAN);
                assert_eq!(ks[i], float_scan(&pmf, u), "{pmf:?} at m = {m}");
            }
            // A cut is the first draw past its point: one below it, the
            // scan stops earlier.
            for (j, &c) in cuts.iter().enumerate() {
                if c > 0 && c < 1 << 53 {
                    assert!(scan_index(&pmf, c) > j && scan_index(&pmf, c - 1) <= j);
                }
            }
            // Same draws, same counts as the float scan of `gen::<f64>()`.
            let (mut a, mut b) = (rng(), rng());
            for _ in 0..200 {
                assert_eq!(g.sample(&mut a), float_scan(&pmf, b.gen::<f64>()));
            }
        }
    }

    #[test]
    fn flat_lane_thinning_is_the_per_item_loop() {
        let mut r = StdRng::seed_from_u64(5);
        let mut lane = Vec::new();
        for threshold in [0, 1, unit_threshold(0.75), 1 << 53] {
            for _ in 0..100 {
                let counts: Vec<u32> = (0..r.gen_range(0..40usize))
                    .map(|_| r.gen_range(0..=20u32))
                    .collect();
                let seed = r.gen::<u64>();
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let want: Vec<u32> = counts
                    .iter()
                    .map(|&k| (0..k).map(|_| u32::from(draw53(&mut a) < threshold)).sum())
                    .collect();
                let mut got = counts.clone();
                thin_counts(&mut b, threshold, &mut got, &mut lane);
                assert_eq!(got, want, "threshold {threshold}, counts {counts:?}");
                // Both streams sit at the same position afterwards.
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "threshold {threshold}");
            }
        }
    }

    #[test]
    fn sampler_rejects_invalid_laws() {
        for g in [
            GainModel::Bernoulli { p: 1.5 },
            GainModel::CensoredPoisson {
                mean: f64::NAN,
                cap: 4,
            },
            GainModel::CensoredPoisson { mean: 2.0, cap: 0 },
            GainModel::Empirical { pmf: vec![] },
        ] {
            assert!(
                matches!(g.sampler(), Err(ModelError::InvalidGain { .. })),
                "{g:?}"
            );
        }
    }

    #[test]
    fn serde_roundtrip() {
        let g = GainModel::CensoredPoisson {
            mean: 1.92,
            cap: 16,
        };
        let json = serde_json::to_string(&g).unwrap();
        let back: GainModel = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
