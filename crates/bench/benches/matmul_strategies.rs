//! Criterion benchmarks for the four matrix-multiplication strategies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetsched_matmul::{DynamicMatrix, DynamicMatrix2Phases, RandomMatrix, SortedMatrix};
use hetsched_platform::{Platform, SpeedDistribution, SpeedModel};
use hetsched_sim::Engine;
use hetsched_util::rng::rng_for;
use std::hint::black_box;

fn platform(p: usize) -> Platform {
    Platform::sample(p, &SpeedDistribution::paper_default(), &mut rng_for(1, 0))
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_full_run");
    group.sample_size(10);
    let n = 40; // the paper's Fig. 9 size: 64 000 tasks
    let p = 50;
    let pf = platform(p);

    group.bench_function(BenchmarkId::new("RandomMatrix", n), |b| {
        b.iter(|| {
            let (r, _) = Engine::new(&pf, SpeedModel::Fixed, RandomMatrix::new(n, p))
                .run(&mut rng_for(2, 0));
            black_box(r.total_blocks)
        })
    });
    group.bench_function(BenchmarkId::new("SortedMatrix", n), |b| {
        b.iter(|| {
            let (r, _) = Engine::new(&pf, SpeedModel::Fixed, SortedMatrix::new(n, p))
                .run(&mut rng_for(2, 0));
            black_box(r.total_blocks)
        })
    });
    group.bench_function(BenchmarkId::new("DynamicMatrix", n), |b| {
        b.iter(|| {
            let (r, _) = Engine::new(&pf, SpeedModel::Fixed, DynamicMatrix::new(n, p))
                .run(&mut rng_for(2, 0));
            black_box(r.total_blocks)
        })
    });
    group.bench_function(BenchmarkId::new("DynamicMatrix2Phases", n), |b| {
        b.iter(|| {
            let (r, _) = Engine::new(
                &pf,
                SpeedModel::Fixed,
                DynamicMatrix2Phases::with_beta(n, p, 2.95),
            )
            .run(&mut rng_for(2, 0));
            black_box(r.total_blocks)
        })
    });
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    // Fig. 10 scale: one million tasks.
    let mut group = c.benchmark_group("matmul_two_phase_scaling");
    group.sample_size(10);
    for n in [40usize, 64, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let pf = platform(100);
            b.iter(|| {
                let (r, _) = Engine::new(
                    &pf,
                    SpeedModel::Fixed,
                    DynamicMatrix2Phases::with_beta(n, 100, 3.0),
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
