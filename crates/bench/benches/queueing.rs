//! Criterion bench: the bulk-service queue analysis (experiment E7's
//! computational core).

use criterion::{criterion_group, criterion_main, Criterion};
use rtsdf::prelude::*;
use rtsdf::queueing::bulk::BulkQueue;
use rtsdf::queueing::estimate::{estimate_backlog_factors, EstimateConfig};
use rtsdf::queueing::pmf;
use std::hint::black_box;

fn bench_stationary_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_stationary");
    for load in [0.5, 0.8, 0.95] {
        let q = BulkQueue::new(128, pmf::poisson(128.0 * load, 1024));
        group.bench_function(format!("poisson_load_{load}"), |b| {
            b.iter(|| black_box(q.stationary(2048)))
        });
    }
    group.finish();
}

fn bench_backlog_estimation(c: &mut Criterion) {
    let p = rtsdf::blast::paper_pipeline();
    let params = RtParams::new(10.0, 3e4).unwrap();
    let sched = EnforcedProblem::new(&Topology::chain(&p), params, vec![1.0, 3.0, 9.0, 6.0])
        .solve()
        .unwrap();
    c.bench_function("estimate_backlog_factors_blast", |b| {
        b.iter(|| {
            black_box(estimate_backlog_factors(
                &p,
                &sched.periods,
                10.0,
                &EstimateConfig::default(),
            ))
        })
    });
}

criterion_group!(benches, bench_stationary_solve, bench_backlog_estimation);
criterion_main!(benches);
