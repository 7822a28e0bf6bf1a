//! Criterion benchmarks for the four outer-product strategies: one full
//! scheduling run (simulation) per iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetsched_outer::{DynamicOuter, DynamicOuter2Phases, RandomOuter, SortedOuter};
use hetsched_platform::{Platform, SpeedDistribution, SpeedModel};
use hetsched_sim::Engine;
use hetsched_util::rng::rng_for;
use std::hint::black_box;

fn platform(p: usize) -> Platform {
    Platform::sample(p, &SpeedDistribution::paper_default(), &mut rng_for(1, 0))
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("outer_full_run");
    group.sample_size(20);
    let n = 100;
    let p = 20;
    let pf = platform(p);

    group.bench_function(BenchmarkId::new("RandomOuter", n), |b| {
        b.iter(|| {
            let (r, _) =
                Engine::new(&pf, SpeedModel::Fixed, RandomOuter::new(n, p)).run(&mut rng_for(2, 0));
            black_box(r.total_blocks)
        })
    });
    group.bench_function(BenchmarkId::new("SortedOuter", n), |b| {
        b.iter(|| {
            let (r, _) =
                Engine::new(&pf, SpeedModel::Fixed, SortedOuter::new(n, p)).run(&mut rng_for(2, 0));
            black_box(r.total_blocks)
        })
    });
    group.bench_function(BenchmarkId::new("DynamicOuter", n), |b| {
        b.iter(|| {
            let (r, _) = Engine::new(&pf, SpeedModel::Fixed, DynamicOuter::new(n, p))
                .run(&mut rng_for(2, 0));
            black_box(r.total_blocks)
        })
    });
    group.bench_function(BenchmarkId::new("DynamicOuter2Phases", n), |b| {
        b.iter(|| {
            let (r, _) = Engine::new(
                &pf,
                SpeedModel::Fixed,
                DynamicOuter2Phases::with_beta(n, p, 4.17),
            )
            .run(&mut rng_for(2, 0));
            black_box(r.total_blocks)
        })
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // Throughput of the two-phase scheduler as the task grid grows.
    let mut group = c.benchmark_group("outer_two_phase_scaling");
    group.sample_size(10);
    for n in [100usize, 300, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let pf = platform(50);
            b.iter(|| {
                let (r, _) = Engine::new(
                    &pf,
                    SpeedModel::Fixed,
                    DynamicOuter2Phases::with_beta(n, 50, 5.0),
                )
                .run(&mut rng_for(3, 0));
                black_box(r.total_blocks)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_strategies, bench_scaling);
criterion_main!(benches);
