//! Criterion bench: the Fig.-1 and Fig.-2 optimizers themselves.
//!
//! The paper relied on AMPL + BONMIN per grid cell; these benches show
//! that the specialized solvers answer in microseconds, which is what
//! makes full-resolution Fig. 3/4 sweeps cheap.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rtsdf::prelude::*;
use std::hint::black_box;

fn blast() -> PipelineSpec {
    rtsdf::blast::paper_pipeline()
}

fn bench_enforced_solvers(c: &mut Criterion) {
    let p = blast();
    let params = RtParams::new(10.0, 1e5).unwrap();
    let b = vec![1.0, 3.0, 9.0, 6.0];
    let mut group = c.benchmark_group("enforced_solve");
    group.bench_function("waterfilling", |bench| {
        bench.iter(|| {
            let prob = EnforcedWaitsProblem::new(&p, params, b.clone());
            black_box(prob.solve().unwrap())
        })
    });
    group.finish();
}

fn bench_monolithic_solvers(c: &mut Criterion) {
    let p = blast();
    let params = RtParams::new(30.0, 2e5).unwrap();
    let mut group = c.benchmark_group("monolithic_solve");
    group.bench_function("exact_scan", |bench| {
        bench.iter(|| {
            black_box(
                MonolithicProblem::new(&p, params, 1.0, 1.0)
                    .solve()
                    .unwrap(),
            )
        })
    });
    group.bench_function("breakpoint", |bench| {
        bench.iter(|| {
            black_box(
                MonolithicProblem::new(&p, params, 1.0, 1.0)
                    .solve_fast()
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_deep_pipeline_scaling(c: &mut Criterion) {
    // Solver cost vs pipeline depth (the water-filling inner solve is
    // O(N) per λ).
    let mut group = c.benchmark_group("enforced_solve_depth");
    for n in [4usize, 16, 64] {
        let mut b = PipelineSpecBuilder::new(128);
        for i in 0..n {
            b = b.stage(
                format!("s{i}"),
                100.0 + i as f64,
                GainModel::Bernoulli { p: 0.9 },
            );
        }
        let p = b.build().unwrap();
        let factors = vec![2.0; n];
        let params = RtParams::new(5.0, 1e6 * n as f64).unwrap();
        group.bench_function(format!("waterfilling_n{n}"), |bench| {
            bench.iter_batched(
                || EnforcedWaitsProblem::new(&p, params, factors.clone()),
                |prob| black_box(prob.solve().unwrap()),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_enforced_solvers,
    bench_monolithic_solvers,
    bench_deep_pipeline_scaling
);
criterion_main!(benches);
