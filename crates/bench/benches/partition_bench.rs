//! Criterion benchmarks for the static column-partition machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetsched_partition::{optimal_column_partition, GridPartition, StaticOuter};
use hetsched_platform::{Platform, SpeedDistribution, SpeedModel};
use hetsched_sim::Engine;
use hetsched_util::rng::rng_for;
use std::hint::black_box;

fn areas(p: usize) -> Vec<f64> {
    let pf = Platform::sample(p, &SpeedDistribution::paper_default(), &mut rng_for(1, 0));
    pf.relative_speeds()
}

fn bench_partition_dp(c: &mut Criterion) {
    // The DP is O(p²); confirm it stays in scheduler-startup territory.
    let mut group = c.benchmark_group("column_partition_dp");
    for p in [20usize, 100, 1000] {
        let a = areas(p);
        group.bench_with_input(BenchmarkId::from_parameter(p), &a, |b, a| {
            b.iter(|| black_box(optimal_column_partition(a)))
        });
    }
    group.finish();
}

fn bench_grid_discretization(c: &mut Criterion) {
    let a = areas(100);
    let part = optimal_column_partition(&a);
    c.bench_function("grid_discretization_p100_n1000", |b| {
        b.iter(|| black_box(GridPartition::from_continuous(&part, 1000)))
    });
}

fn bench_static_full_run(c: &mut Criterion) {
    let pf = Platform::sample(20, &SpeedDistribution::paper_default(), &mut rng_for(2, 0));
    c.bench_function("static_outer_full_run_n100", |b| {
        b.iter(|| {
            let (r, _) = Engine::new(&pf, SpeedModel::Fixed, StaticOuter::new(100, &pf))
                .run(&mut rng_for(3, 0));
            black_box(r.total_blocks)
        })
    });
}

criterion_group!(
    benches,
    bench_partition_dp,
    bench_grid_discretization,
    bench_static_full_run
);
criterion_main!(benches);
