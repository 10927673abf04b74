//! Discrete probability mass function utilities.
//!
//! All PMFs are dense `Vec<f64>` over counts `0..len`, truncated with
//! their tail mass folded into the last bin so totals stay exactly 1.

use dataflow_model::gain::censored_poisson_pmf;

/// Poisson PMF over `0..=max_k`, with the tail mass beyond `max_k`
/// folded into the last bin.
///
/// While `exp(−λ)` is a normal float the PMF is summed forward from it;
/// above that (λ beyond ~708) it comes from
/// [`censored_poisson_pmf`], which needs no `exp(−λ)` — the forward sum
/// would put all the mass in the last bin.
///
/// # Panics
/// Panics if `lambda` is negative or non-finite.
pub fn poisson(lambda: f64, max_k: usize) -> Vec<f64> {
    assert!(lambda.is_finite() && lambda >= 0.0, "bad lambda {lambda}");
    let mut pmf = vec![0.0; max_k + 1];
    if lambda == 0.0 {
        pmf[0] = 1.0;
        return pmf;
    }
    let mut p = (-lambda).exp();
    if p < f64::MIN_POSITIVE {
        let (first, window) = censored_poisson_pmf(lambda, max_k as u64);
        pmf[first as usize..first as usize + window.len()].copy_from_slice(&window);
        return pmf;
    }
    let mut cum = 0.0;
    for (k, slot) in pmf.iter_mut().enumerate().take(max_k) {
        *slot = p;
        cum += p;
        p *= lambda / (k + 1) as f64;
    }
    pmf[max_k] = (1.0 - cum).max(0.0);
    pmf
}

/// A two-point PMF for deterministic arrivals of a fractional mean:
/// `mean = f·⌈mean⌉ + (1−f)·⌊mean⌋`. This models a periodic source
/// observed over a window that is not an integer multiple of its
/// period.
pub fn deterministic_fractional(mean: f64, max_k: usize) -> Vec<f64> {
    assert!(mean.is_finite() && mean >= 0.0, "bad mean {mean}");
    let lo = mean.floor() as usize;
    let hi = mean.ceil() as usize;
    let frac = mean - lo as f64;
    let mut pmf = vec![0.0; max_k + 1];
    let lo_i = lo.min(max_k);
    let hi_i = hi.min(max_k);
    pmf[lo_i] += 1.0 - frac;
    pmf[hi_i] += frac;
    pmf
}

/// Convolution of two PMFs, truncated to `max_k` with tail folding.
pub fn convolve(a: &[f64], b: &[f64], max_k: usize) -> Vec<f64> {
    let mut out = vec![0.0; max_k + 1];
    for (i, &pa) in a.iter().enumerate() {
        if pa == 0.0 {
            continue;
        }
        for (j, &pb) in b.iter().enumerate() {
            let k = (i + j).min(max_k);
            out[k] += pa * pb;
        }
    }
    out
}

/// Compound Poisson: the distribution of `Σ_{e=1..N} X_e` where
/// `N ~ Poisson(event_rate)` and each `X_e` has PMF `per_event` —
/// computed by conditioning on `N` (truncated where the Poisson tail
/// becomes negligible).
pub fn compound_poisson(event_rate: f64, per_event: &[f64], max_k: usize) -> Vec<f64> {
    assert!(event_rate.is_finite() && event_rate >= 0.0);
    // Enough Poisson terms to capture effectively all mass.
    let n_max = ((event_rate + 8.0 * event_rate.sqrt()).ceil() as usize).max(16);
    let n_pmf = poisson(event_rate, n_max);
    let mut out = vec![0.0; max_k + 1];
    // conv_n = per_event^{*n}, built incrementally.
    let mut conv_n = vec![0.0; max_k + 1];
    conv_n[0] = 1.0;
    for (n, &pn) in n_pmf.iter().enumerate() {
        if pn > 0.0 {
            for (k, &p) in conv_n.iter().enumerate() {
                out[k] += pn * p;
            }
        }
        if n < n_pmf.len() - 1 {
            conv_n = convolve(&conv_n, per_event, max_k);
        }
    }
    out
}

/// Mean of a PMF.
pub fn mean(pmf: &[f64]) -> f64 {
    pmf.iter().enumerate().map(|(k, &p)| k as f64 * p).sum()
}

/// Smallest `k` whose CDF reaches `q` (clamped to the support).
pub fn quantile(pmf: &[f64], q: f64) -> usize {
    let q = q.clamp(0.0, 1.0);
    let mut cum = 0.0;
    for (k, &p) in pmf.iter().enumerate() {
        cum += p;
        if cum >= q {
            return k;
        }
    }
    pmf.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(pmf: &[f64]) -> f64 {
        pmf.iter().sum()
    }

    #[test]
    fn poisson_survives_exp_underflow() {
        // exp(−1000) is 0: the forward sum put all the mass at max_k.
        for (lambda, max_k) in [(800.0, 2000), (1e3, 2000), (1e5, 200_000)] {
            let p = poisson(lambda, max_k);
            assert!((total(&p) - 1.0).abs() < 1e-12);
            assert!(
                (mean(&p) / lambda - 1.0).abs() < 1e-9,
                "{lambda}: {}",
                mean(&p)
            );
            assert!(p[max_k] < 1e-100);
        }
        // Folded into a last bin below the mode.
        let p = poisson(1e3, 16);
        assert_eq!(p[16], 1.0);
    }

    #[test]
    fn poisson_mass_and_mean() {
        let p = poisson(3.0, 64);
        assert!((total(&p) - 1.0).abs() < 1e-12);
        assert!((mean(&p) - 3.0).abs() < 1e-6);
        // Mode at 2 and 3 for λ = 3.
        assert!(p[3] >= p[4] && p[2] >= p[1]);
    }

    #[test]
    fn poisson_zero_rate() {
        let p = poisson(0.0, 8);
        assert_eq!(p[0], 1.0);
        assert_eq!(total(&p), 1.0);
    }

    #[test]
    fn poisson_tail_folding() {
        let p = poisson(50.0, 10); // heavy truncation
        assert!((total(&p) - 1.0).abs() < 1e-12);
        assert!(p[10] > 0.99, "almost all mass in the folded tail");
    }

    #[test]
    fn deterministic_fractional_two_point() {
        let p = deterministic_fractional(2.25, 8);
        assert!((p[2] - 0.75).abs() < 1e-12);
        assert!((p[3] - 0.25).abs() < 1e-12);
        assert!((mean(&p) - 2.25).abs() < 1e-12);
        let p = deterministic_fractional(4.0, 8);
        assert_eq!(p[4], 1.0);
    }

    #[test]
    fn convolve_adds_means() {
        let a = poisson(2.0, 40);
        let b = poisson(3.0, 40);
        let c = convolve(&a, &b, 80);
        assert!((total(&c) - 1.0).abs() < 1e-9);
        assert!((mean(&c) - 5.0).abs() < 1e-5);
    }

    #[test]
    fn compound_poisson_mean_is_product() {
        // N ~ Poisson(4), X ∈ {0 w.p. .5, 2 w.p. .5} → E = 4 × 1 = 4.
        let per_event = vec![0.5, 0.0, 0.5];
        let c = compound_poisson(4.0, &per_event, 128);
        assert!((total(&c) - 1.0).abs() < 1e-9);
        assert!((mean(&c) - 4.0).abs() < 0.01);
    }

    #[test]
    fn compound_poisson_zero_events() {
        let c = compound_poisson(0.0, &[0.0, 1.0], 16);
        assert!((c[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_basics() {
        let p = vec![0.5, 0.3, 0.2];
        assert_eq!(quantile(&p, 0.4), 0);
        assert_eq!(quantile(&p, 0.6), 1);
        assert_eq!(quantile(&p, 0.95), 2);
        assert_eq!(quantile(&p, 1.0), 2);
        assert_eq!(quantile(&p, 0.0), 0);
    }
}
