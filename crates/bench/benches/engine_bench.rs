//! Criterion benchmarks for the simulation engine's hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetsched_outer::RandomOuter;
use hetsched_platform::{Platform, SpeedDistribution, SpeedModel};
use hetsched_sim::Engine;
use hetsched_util::rng::rng_for;
use hetsched_util::{FixedBitSet, SwapList};
use rand::Rng;
use std::hint::black_box;

fn bench_engine_request_throughput(c: &mut Criterion) {
    // RandomOuter issues one task per request, so a full run at n = 100 is
    // 10 000 engine round-trips: queue pop, scheduler call, ledger update,
    // queue push.
    let mut group = c.benchmark_group("engine_requests");
    group.sample_size(20);
    for p in [10usize, 100, 300] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            let pf = Platform::sample(p, &SpeedDistribution::paper_default(), &mut rng_for(1, 0));
            b.iter(|| {
                let (r, _) = Engine::new(&pf, SpeedModel::Fixed, RandomOuter::new(100, p))
                    .run(&mut rng_for(2, 0));
                black_box(r.makespan)
            })
        });
    }
    group.finish();
}

fn bench_dynamic_speed_overhead(c: &mut Criterion) {
    // The dyn.* scenarios draw one RNG sample per task; measure the cost
    // against fixed speeds.
    let mut group = c.benchmark_group("speed_models");
    group.sample_size(20);
    let pf = Platform::sample(
        20,
        &SpeedDistribution::uniform(80.0, 120.0),
        &mut rng_for(3, 0),
    );
    for (label, model) in [("fixed", SpeedModel::Fixed), ("dyn20", SpeedModel::dyn20())] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let (r, _) =
                    Engine::new(&pf, model, RandomOuter::new(60, 20)).run(&mut rng_for(4, 0));
                black_box(r.makespan)
            })
        });
    }
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    c.bench_function("swaplist_draw_drain_10k", |b| {
        b.iter(|| {
            let mut rng = rng_for(5, 0);
            let mut s = SwapList::full(10_000);
            let mut acc = 0u64;
            while let Some(v) = s.draw(&mut rng) {
                acc = acc.wrapping_add(v as u64);
            }
            black_box(acc)
        })
    });
    c.bench_function("bitset_insert_iter_100k", |b| {
        b.iter(|| {
            let mut rng = rng_for(6, 0);
            let mut bs = FixedBitSet::new(100_000);
            for _ in 0..50_000 {
                bs.insert(rng.gen_range(0..100_000));
            }
            black_box(bs.iter_ones().count())
        })
    });
}

criterion_group!(
    benches,
    bench_engine_request_throughput,
    bench_dynamic_speed_overhead,
    bench_primitives
);
criterion_main!(benches);
