//! The one-uniform Poisson table and the chunked latency moments change
//! every BLAST draw sequence, but not the law being simulated. Per-seed
//! mean latency and active fraction of BLAST under both strategies,
//! recorded with the product-of-uniforms sampler and Welford's fold
//! (`tests/fixtures/blast_seeds_before_sampler_switch.json`), must agree
//! with today's runs of the same seeds by Welch's t at 3 standard errors.

use rtsdf::core::comparison::SweepConfig;
use rtsdf::prelude::*;
use serde_json::Value;

const DEADLINE: f64 = 1e5;
const ITEMS: usize = 20_000;

fn fixture() -> Value {
    serde_json::from_str(include_str!(
        "fixtures/blast_seeds_before_sampler_switch.json"
    ))
    .expect("fixture parses")
}

fn column(v: &Value) -> Vec<f64> {
    v.as_array()
        .expect("array")
        .iter()
        .map(|x| x.as_f64().expect("number"))
        .collect()
}

fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var)
}

/// Welch's t of two samples; 0 when both are constant and equal.
fn welch_t(a: &[f64], b: &[f64]) -> f64 {
    let ((ma, va), (mb, vb)) = (mean_var(a), mean_var(b));
    let se = (va / a.len() as f64 + vb / b.len() as f64).sqrt();
    if se == 0.0 {
        return if ma == mb { 0.0 } else { f64::INFINITY };
    }
    (ma - mb) / se
}

#[test]
fn blast_latency_and_activity_keep_their_distribution() {
    let fixture = fixture();
    let p = rtsdf::blast::paper_pipeline();
    let t = Topology::chain(&p);
    let cfg = SweepConfig::paper_blast();
    let enforced_sched = EnforcedWaitsProblem::new(
        &p,
        RtParams::new(10.0, DEADLINE).unwrap(),
        cfg.enforced_b.clone(),
    )
    .solve()
    .unwrap();
    let monolithic_sched = MonolithicProblem::new(
        &p,
        RtParams::new(50.0, DEADLINE).unwrap(),
        cfg.monolithic_b,
        cfg.monolithic_s,
    )
    .solve_fast()
    .unwrap();
    for (strategy, tau0) in [("enforced", 10.0), ("monolithic", 50.0)] {
        let before_latency = column(&fixture[strategy]["latency_mean"]);
        let before_af = column(&fixture[strategy]["active_fraction"]);
        assert!(before_latency.len() >= 16);
        let (mut latency, mut af) = (Vec::new(), Vec::new());
        for seed in 0..before_latency.len() as u64 {
            let c = SimConfig::quick(tau0, seed, ITEMS);
            let m = match strategy {
                "enforced" => {
                    enforced::simulate(&t, &enforced_sched, DEADLINE, &c, Hooks::default())
                }
                _ => monolithic::simulate(&t, &monolithic_sched, DEADLINE, &c, Hooks::default()),
            }
            .unwrap();
            latency.push(m.latency.mean());
            af.push(m.active_fraction);
        }
        for (metric, now, before) in [
            ("latency_mean", &latency, &before_latency),
            ("active_fraction", &af, &before_af),
        ] {
            let t = welch_t(now, before);
            assert!(
                t.abs() < 3.0,
                "{strategy} {metric}: Welch t = {t:.2} (now {:?}, before {:?})",
                mean_var(now),
                mean_var(before)
            );
        }
    }
}
