//! Criterion benchmarks for the simulation engine's hot paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetsched_outer::RandomOuter;
use hetsched_platform::{Platform, SpeedDistribution, SpeedModel};
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
                let (r, _) = hetsched_sim::run(
                    &pf,
                    SpeedModel::Fixed,
                    RandomOuter::new(100, p),
                    &mut rng_for(2, 0),
                );
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
                    hetsched_sim::run(&pf, model, RandomOuter::new(60, 20), &mut rng_for(4, 0));
                black_box(r.makespan)
            })
        });
    }
    group.finish();
}

fn bench_event_queues(c: &mut Criterion) {
    // The event queue never holds more than ~p+1 entries; measure the
    // binary heap (the engine's EventQueue) on a realistic churn pattern
    // (push/pop interleave with coarse time ties, as the engine produces).
    use hetsched_platform::ProcId;
    use hetsched_sim::EventQueue;

    fn churn_heap(pushes: &[(f64, u32)], live: usize) -> f64 {
        let mut q = EventQueue::new();
        let mut acc = 0.0;
        for (i, &(t, k)) in pushes.iter().enumerate() {
            q.push(t, ProcId(k));
            if i >= live {
                let (t, _) = q.pop().unwrap();
                acc += t;
            }
        }
        acc
    }

    let mut group = c.benchmark_group("event_queue");
    for p in [10usize, 100, 300] {
        // Deterministic workload: monotone-ish times with frequent ties.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let pushes: Vec<(f64, u32)> = (0..20_000)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (
                    (i / 8) as f64 + (state % 16) as f64 / 16.0,
                    (state % p as u64) as u32,
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("heap", p), &p, |b, &p| {
            b.iter(|| black_box(churn_heap(&pushes, p)))
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
    bench_event_queues,
    bench_primitives
);
criterion_main!(benches);
