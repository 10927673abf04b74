//! Goodness of fit of `GainSampler` against exact PMFs, and of the
//! one-uniform Poisson table against the product-of-uniforms sampler it
//! replaced.

use dataflow_model::GainModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const DRAWS: u64 = 1_000_000;

/// The censored-Poisson sampler the table replaced: Knuth's product of
/// uniforms below a mean of 30, a rounded normal above. Kept as the
/// oracle for the two-sample test.
fn knuth_censored_poisson<R: Rng>(mean: f64, cap: u32, rng: &mut R) -> u32 {
    let draw = if mean < 30.0 {
        let limit = (-mean).exp();
        let mut count = 0u64;
        let mut prod: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        while prod > limit {
            count += 1;
            prod *= rng.gen::<f64>().max(f64::MIN_POSITIVE);
        }
        count as f64
    } else {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let v: f64 = rng.gen();
        let z = (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
        (mean + mean.sqrt() * z).round().max(0.0)
    };
    (draw as u32).min(cap)
}

/// Exact PMF of `min(Poisson(λ), cap)` in log space (`ln k!` summed
/// term by term), independent of the sampler's mode-outward recurrence.
fn censored_poisson_pmf(mean: f64, cap: u32) -> BTreeMap<u32, f64> {
    let mut pmf = BTreeMap::new();
    let mut ln_fact = 0.0;
    let mut below = 0.0;
    for k in 0..cap {
        if k > 0 {
            ln_fact += f64::from(k).ln();
        }
        let p = (-mean + f64::from(k) * mean.ln() - ln_fact).exp();
        pmf.insert(k, p);
        below += p;
    }
    pmf.insert(cap, (1.0 - below).max(0.0));
    pmf
}

fn exact_pmf(g: &GainModel) -> BTreeMap<u32, f64> {
    match g {
        GainModel::Deterministic { k } => BTreeMap::from([(*k, 1.0)]),
        GainModel::Bernoulli { p } => BTreeMap::from([(0, 1.0 - p), (1, *p)]),
        GainModel::CensoredPoisson { mean, cap } => censored_poisson_pmf(*mean, *cap),
        GainModel::Empirical { pmf } => pmf.iter().copied().collect(),
    }
}

/// Pearson's chi-square of observed counts against `pmf`, with adjacent
/// counts pooled until each bin expects at least 5, as a Wilson–Hilferty
/// z-score (standard normal under the null).
fn chi_square_z(counts: &BTreeMap<u32, u64>, pmf: &BTreeMap<u32, f64>, n: u64) -> f64 {
    let n = n as f64;
    let mut bins: Vec<(f64, f64)> = Vec::new();
    let (mut obs, mut exp) = (0.0, 0.0);
    for (k, p) in pmf {
        obs += counts.get(k).copied().unwrap_or(0) as f64;
        exp += p * n;
        if exp >= 5.0 {
            bins.push((obs, exp));
            (obs, exp) = (0.0, 0.0);
        }
    }
    match bins.last_mut() {
        Some(last) => {
            last.0 += obs;
            last.1 += exp;
        }
        None => bins.push((obs, exp)),
    }
    let outside: u64 = counts
        .iter()
        .filter(|(k, _)| !pmf.contains_key(k))
        .map(|(_, c)| c)
        .sum();
    assert_eq!(outside, 0, "draws outside the support");
    let df = (bins.len() - 1).max(1) as f64;
    let chi2: f64 = bins.iter().map(|(o, e)| (o - e).powi(2) / e).sum();
    let a = 2.0 / (9.0 * df);
    ((chi2 / df).cbrt() - (1.0 - a)) / a.sqrt()
}

#[test]
fn every_law_fits_its_exact_pmf() {
    let laws = [
        GainModel::Deterministic { k: 3 },
        GainModel::Bernoulli { p: 0.379 },
        // BLAST's extend stage.
        GainModel::CensoredPoisson {
            mean: 1.92,
            cap: 16,
        },
        GainModel::CensoredPoisson { mean: 2.0, cap: 1 },
        GainModel::CensoredPoisson {
            mean: 1e3,
            cap: 2000,
        },
        GainModel::Empirical {
            pmf: vec![(0, 0.2), (1, 0.3), (5, 0.4), (9, 0.1)],
        },
    ];
    for (i, g) in laws.iter().enumerate() {
        let sampler = g.sampler().unwrap();
        let mut rng = StdRng::seed_from_u64(0x5EED + i as u64);
        let mut counts = BTreeMap::new();
        for _ in 0..DRAWS {
            *counts.entry(sampler.sample(&mut rng)).or_insert(0u64) += 1;
        }
        let z = chi_square_z(&counts, &exact_pmf(g), DRAWS);
        // z = 4.75 is a one-sided p of 1e-6.
        assert!(z < 4.75, "{g:?}: chi-square z = {z:.2}");
    }
}

/// Two-sample Kolmogorov–Smirnov distance between count samples.
fn ks_distance(a: &[u32], b: &[u32]) -> f64 {
    let cdf = |xs: &[u32]| {
        let mut c = BTreeMap::new();
        for &x in xs {
            *c.entry(x).or_insert(0u64) += 1;
        }
        c
    };
    let (ca, cb) = (cdf(a), cdf(b));
    let support: std::collections::BTreeSet<u32> = ca.keys().chain(cb.keys()).copied().collect();
    let (mut fa, mut fb, mut d) = (0.0, 0.0, 0.0f64);
    for k in support {
        fa += ca.get(&k).copied().unwrap_or(0) as f64 / a.len() as f64;
        fb += cb.get(&k).copied().unwrap_or(0) as f64 / b.len() as f64;
        d = d.max((fa - fb).abs());
    }
    d
}

#[test]
fn table_draws_match_the_product_of_uniforms_sampler() {
    let n = 200_000usize;
    for (mean, cap) in [(1.92, 16), (0.3, 4), (8.0, 16)] {
        let sampler = GainModel::CensoredPoisson { mean, cap }.sampler().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let new: Vec<u32> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
        let mut rng = StdRng::seed_from_u64(12);
        let old: Vec<u32> = (0..n)
            .map(|_| knuth_censored_poisson(mean, cap, &mut rng))
            .collect();
        // Critical distance at α = 1e-6: sqrt(−ln(α/2)/2)·sqrt(2/n).
        let critical = (-(0.5e-6f64).ln() / 2.0).sqrt() * (2.0 / n as f64).sqrt();
        let d = ks_distance(&new, &old);
        assert!(
            d < critical,
            "mean {mean} cap {cap}: D = {d:.5} >= {critical:.5}"
        );
    }
}
