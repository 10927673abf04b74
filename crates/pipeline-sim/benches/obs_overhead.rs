//! Overhead of the observability layer on the enforced-waits simulator.
//!
//! Three variants of the same run:
//!
//! - `obs_disabled` — [`enforced::simulate`] with `Hooks::default()`,
//!   which passes `None` for the sink. The per-event cost of
//!   instrumentation is a branch on an `Option` that is never taken;
//!   this must stay within noise (≤2%) of the seed simulator.
//! - `obs_enabled` — full per-stage histograms and counters.
//! - `obs_enabled_traced` — histograms plus a 256-event ring trace.

use criterion::{criterion_group, criterion_main, Criterion};
use dataflow_model::{GainModel, PipelineSpec, PipelineSpecBuilder, RtParams, Topology};
use des::obs::{ObsConfig, ObsSink};
use pipeline_sim::{enforced, Hooks, SimConfig};
use rtsdf_core::{EnforcedProblem, WaitSchedule};
use std::hint::black_box;

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

fn schedule(pipeline: &PipelineSpec) -> WaitSchedule {
    let params = RtParams::new(20.0, 2e5).unwrap();
    EnforcedProblem::new(&Topology::chain(pipeline), params, vec![1.0, 3.0, 9.0, 6.0])
        .solve()
        .unwrap()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let p = blast();
    let t = Topology::chain(&p);
    let sched = schedule(&p);
    let cfg = SimConfig::quick(20.0, 7, 2_000);
    let observed = |obs_config: ObsConfig| {
        let mut sink = ObsSink::new(t.len(), obs_config);
        let hooks = Hooks {
            obs: Some(&mut sink),
            ..Hooks::default()
        };
        let m = enforced::simulate(&t, &sched, 2e5, &cfg, hooks).unwrap();
        (m, sink.report())
    };

    c.bench_function("enforced_obs_disabled", |b| {
        b.iter(|| black_box(enforced::simulate(&t, &sched, 2e5, &cfg, Hooks::default())))
    });
    c.bench_function("enforced_obs_enabled", |b| {
        b.iter(|| black_box(observed(ObsConfig::default())))
    });
    c.bench_function("enforced_obs_enabled_traced", |b| {
        b.iter(|| black_box(observed(ObsConfig::with_trace(256))))
    });
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
