//! Property-based tests for the application model.

use dataflow_model::analysis::*;
use dataflow_model::{GainModel, PipelineSpec, PipelineSpecBuilder, RtParams, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a valid gain model.
fn gain_model() -> impl Strategy<Value = GainModel> {
    prop_oneof![
        (0u32..5).prop_map(|k| GainModel::Deterministic { k }),
        (0.0..=1.0f64).prop_map(|p| GainModel::Bernoulli { p }),
        (0.05..4.0f64, 1u32..20).prop_map(|(mean, cap)| GainModel::CensoredPoisson { mean, cap }),
    ]
}

/// Strategy: a finite or non-finite `f64`, from the edges the model must
/// reject or survive.
fn any_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
        -1e6..1e6f64,
        -2.0..2.0f64,
    ]
}

/// Strategy: any gain model, valid or not.
fn any_gain_model() -> impl Strategy<Value = GainModel> {
    prop_oneof![
        any_float().prop_map(|p| GainModel::Bernoulli { p }),
        (
            any_float(),
            prop_oneof![Just(0u32), Just(1), 0u32..64, Just(u32::MAX)]
        )
            .prop_map(|(mean, cap)| GainModel::CensoredPoisson { mean, cap }),
        prop::collection::vec((0u32..8, any_float()), 0..5)
            .prop_map(|pmf| GainModel::Empirical { pmf }),
    ]
}

/// Strategy: a valid pipeline of 1..=6 stages.
fn pipeline() -> impl Strategy<Value = PipelineSpec> {
    (
        prop::collection::vec((1.0..5000.0f64, gain_model()), 1..=6),
        prop_oneof![Just(32u32), Just(64), Just(128), Just(256)],
    )
        .prop_map(|(stages, v)| {
            let mut b = PipelineSpecBuilder::new(v);
            for (i, (t, g)) in stages.into_iter().enumerate() {
                b = b.stage(format!("s{i}"), t, g);
            }
            b.build().expect("generated pipelines are valid")
        })
}

/// Strategy: [`pipeline`] as a chain topology, the model the analysis
/// formulas take.
fn chain() -> impl Strategy<Value = Topology> {
    pipeline().prop_map(|p| Topology::chain(&p))
}

proptest! {
    #[test]
    fn total_gains_are_prefix_products(p in pipeline()) {
        let g = p.mean_gains();
        let total = p.total_gains();
        prop_assert_eq!(total[0], 1.0);
        let mut acc = 1.0;
        for i in 1..p.len() {
            acc *= g[i - 1];
            prop_assert!((total[i] - acc).abs() <= 1e-9 * acc.abs().max(1.0));
        }
    }

    #[test]
    fn active_fraction_bounds_and_monotonicity(p in chain(), scale in 1.0..50.0f64) {
        let t = p.service_times();
        // x = t → fraction exactly 1; scaling periods up reduces it.
        prop_assert!((enforced_active_fraction(&p, &t) - 1.0).abs() < 1e-12);
        let scaled: Vec<f64> = t.iter().map(|ti| ti * scale).collect();
        let af = enforced_active_fraction(&p, &scaled);
        prop_assert!((af - 1.0 / scale).abs() < 1e-9);
        prop_assert!(af > 0.0 && af <= 1.0);
    }

    #[test]
    fn block_time_bounds(p in chain(), m in 1u64..10_000) {
        // Lower bound: no ceilings; upper bound: each ceiling adds < 1.
        let v = p.vector_width() as f64;
        let totals = p.total_gains();
        let lower: f64 = p.nodes().iter().zip(&totals)
            .map(|(n, &g)| (m as f64 * g / v) * n.service_time).sum();
        let upper: f64 = lower + p.total_service_time();
        let t = monolithic_block_time(&p, m);
        prop_assert!(t >= lower - 1e-6, "{t} < {lower}");
        prop_assert!(t <= upper + 1e-6, "{t} > {upper}");
    }

    #[test]
    fn block_time_is_nondecreasing_in_m(p in chain(), m in 1u64..5_000) {
        prop_assert!(monolithic_block_time(&p, m + 1) >= monolithic_block_time(&p, m) - 1e-9);
    }

    #[test]
    fn period_bounds_scale_linearly_with_tau0(p in chain(), tau0 in 1.0..100.0f64) {
        let a = period_upper_bounds(&p, &RtParams::new(tau0, 1e5).unwrap());
        let b = period_upper_bounds(&p, &RtParams::new(2.0 * tau0, 1e5).unwrap());
        for (x, y) in a.iter().zip(&b) {
            if x.is_finite() {
                prop_assert!((y / x - 2.0).abs() < 1e-9);
            } else {
                prop_assert!(y.is_infinite());
            }
        }
    }

    #[test]
    fn limits_relationship_holds_generally(p in chain(), tau0 in 1.0..100.0f64) {
        let params = RtParams::new(tau0, 1e6).unwrap();
        let e = enforced_limit_active_fraction(&p, &params);
        let m = monolithic_limit_active_fraction(&p, &params);
        prop_assert!((m - e * p.len() as f64).abs() <= 1e-12 * m.abs().max(1.0));
    }

    #[test]
    fn gain_sampling_respects_max_outputs(g in gain_model(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = g.max_outputs().unwrap();
        let sampler = g.sampler().unwrap();
        for _ in 0..200 {
            prop_assert!(sampler.sample(&mut rng) <= max);
        }
    }

    #[test]
    fn gain_sample_mean_tracks_model_mean(g in gain_model(), seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 30_000;
        let sum = g.sampler().unwrap().sample_sum(&mut rng, n);
        let sample_mean = sum as f64 / n as f64;
        let model_mean = g.mean();
        // 6-sigma-ish tolerance using the model's own variance.
        let tol = 6.0 * (g.variance() / n as f64).sqrt() + 1e-6;
        prop_assert!(
            (sample_mean - model_mean).abs() <= tol,
            "sample {sample_mean} vs model {model_mean} (tol {tol})"
        );
    }

    /// With the cap 50 standard deviations above the mean, the censored
    /// moments are the Poisson law's own, on both sides of the mean
    /// where `exp(−λ)` underflows.
    #[test]
    fn uncensored_poisson_moments_equal_the_mean(log_mean in -3.0..5.5f64) {
        let mean = 10f64.powf(log_mean);
        let cap = (mean + 50.0 * mean.sqrt() + 50.0) as u32;
        let g = GainModel::CensoredPoisson { mean, cap };
        prop_assert!((g.mean() / mean - 1.0).abs() < 1e-9, "{mean}: mean {}", g.mean());
        prop_assert!(
            (g.variance() / mean - 1.0).abs() < 1e-9,
            "{mean}: variance {}",
            g.variance()
        );
    }

    /// `sampler()` is the typed gate: a law `validate` rejects is an
    /// `Err`, never a panic, and one it accepts builds and draws within
    /// its support.
    #[test]
    fn sampler_is_err_exactly_for_invalid_laws(g in any_gain_model(), seed in 0u64..1000) {
        match g.sampler() {
            Err(_) => prop_assert!(g.validate(usize::MAX).is_err()),
            Ok(s) => {
                prop_assert!(g.validate(usize::MAX).is_ok());
                let max = g.max_outputs().unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..20 {
                    prop_assert!(s.sample(&mut rng) <= max);
                }
            }
        }
        let invalid = match &g {
            GainModel::Bernoulli { p } => !(0.0..=1.0).contains(p),
            GainModel::CensoredPoisson { mean, cap } => {
                !mean.is_finite() || *mean <= 0.0 || *cap == 0
            }
            GainModel::Empirical { pmf } => {
                pmf.is_empty()
                    || pmf.iter().any(|(_, p)| !p.is_finite() || *p < 0.0)
                    || (pmf.iter().map(|(_, p)| p).sum::<f64>() - 1.0).abs() > 1e-9
            }
            GainModel::Deterministic { .. } => false,
        };
        prop_assert_eq!(g.sampler().is_err(), invalid);
    }

    #[test]
    fn min_feasible_deadline_is_a_true_lower_bound(p in chain(), b_raw in prop::collection::vec(1.0..8.0f64, 6)) {
        let b = &b_raw[..p.len()];
        let min_d = min_feasible_deadline(&p, b);
        // Any period vector with x >= t has at least this latency bound.
        let bound_at_t = enforced_latency_bound(&p, &p.service_times(), b);
        prop_assert!((min_d - bound_at_t).abs() < 1e-9);
        let inflated: Vec<f64> = p.service_times().iter().map(|t| t * 1.7).collect();
        prop_assert!(enforced_latency_bound(&p, &inflated, b) >= min_d);
    }
}
