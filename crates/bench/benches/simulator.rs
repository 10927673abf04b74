//! Criterion bench: the discrete-event simulator's throughput (items
//! simulated per second) under both runtimes — the cost that dominates
//! experiments E2 and E6.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rtsdf::prelude::*;
use std::hint::black_box;

fn bench_enforced_simulation(c: &mut Criterion) {
    let p = rtsdf::blast::paper_pipeline();
    let params = RtParams::new(10.0, 1e5).unwrap();
    let sched = EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
        .solve()
        .unwrap();
    let t = Topology::chain(&p);
    let items = 5_000usize;
    let mut group = c.benchmark_group("simulate");
    group.throughput(Throughput::Elements(items as u64));
    group.bench_function("enforced_5k_items", |b| {
        b.iter(|| {
            let cfg = SimConfig::quick(10.0, 42, items);
            black_box(enforced::simulate(&t, &sched, 1e5, &cfg, Hooks::default()))
        })
    });
    group.finish();
}

fn bench_monolithic_simulation(c: &mut Criterion) {
    let p = rtsdf::blast::paper_pipeline();
    let params = RtParams::new(50.0, 1e5).unwrap();
    let sched = MonolithicProblem::new(&p, params, 1.0, 1.0)
        .solve()
        .unwrap();
    let t = Topology::chain(&p);
    let items = 20_000usize;
    let mut group = c.benchmark_group("simulate");
    group.throughput(Throughput::Elements(items as u64));
    group.bench_function("monolithic_20k_items", |b| {
        b.iter(|| {
            let cfg = SimConfig::quick(50.0, 42, items);
            black_box(monolithic::simulate(
                &t,
                &sched,
                1e5,
                &cfg,
                Hooks::default(),
            ))
        })
    });
    group.finish();
}

fn bench_multi_seed(c: &mut Criterion) {
    let p = rtsdf::blast::paper_pipeline();
    let params = RtParams::new(10.0, 1e5).unwrap();
    let sched = EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
        .solve()
        .unwrap();
    let t = Topology::chain(&p);
    c.bench_function("run_seeds_enforced_8x2k", |b| {
        b.iter(|| {
            let cfg = SimConfig::quick(10.0, 0, 2_000);
            black_box(run_seeds(&cfg, 8, None, |c, h| {
                enforced::simulate(&t, &sched, 1e5, c, h)
            }))
        })
    });
}

criterion_group!(
    benches,
    bench_enforced_simulation,
    bench_monolithic_simulation,
    bench_multi_seed
);
criterion_main!(benches);
