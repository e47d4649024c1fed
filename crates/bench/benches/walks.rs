//! Benches for experiment family E1/E2/E3: the walk algorithms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drw_bench::{bench_regular, bench_torus};
use drw_congest::ExecutorKind;
use drw_core::{
    many_random_walks, naive_walk, podc09::podc09_walk, single_random_walk, Podc09Params,
    SingleWalkConfig,
};
use drw_graph::generators;
use std::hint::black_box;

fn bench_single_walk_algorithms(c: &mut Criterion) {
    let torus = bench_torus();
    let mut group = c.benchmark_group("e1_single_walk");
    group.sample_size(10);
    for len in [512u64, 2048] {
        group.bench_with_input(BenchmarkId::new("naive", len), &len, |b, &len| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(naive_walk(&torus, 0, len, seed).expect("walk"))
            });
        });
        group.bench_with_input(BenchmarkId::new("podc09", len), &len, |b, &len| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(
                    podc09_walk(&torus, 0, len, &Podc09Params::default(), seed).expect("walk"),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("podc10", len), &len, |b, &len| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(
                    single_random_walk(&torus, 0, len, &SingleWalkConfig::default(), seed)
                        .expect("walk"),
                )
            });
        });
    }
    group.finish();
}

fn bench_many_walks(c: &mut Criterion) {
    let g = bench_regular();
    let mut group = c.benchmark_group("e3_many_walks");
    group.sample_size(10);
    for k in [4usize, 16] {
        let sources: Vec<usize> = (0..k).map(|i| (i * 37) % g.n()).collect();
        group.bench_with_input(BenchmarkId::new("many", k), &k, |b, _| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(
                    many_random_walks(&g, &sources, 1024, &SingleWalkConfig::default(), seed)
                        .expect("walks"),
                )
            });
        });
    }
    group.finish();
}

/// E3b: one `k`-walk wave in the stitched regime (scaled-down lambda so
/// stitching dominates). Rounds are asserted in
/// `tests/batched_stitching.rs`; this tracks the simulator's wall-clock.
fn bench_batched_stitching(c: &mut Criterion) {
    let g = bench_torus();
    let cfg = SingleWalkConfig {
        params: drw_core::WalkParams {
            lambda_scale: 0.25,
            eta: 1.0,
        },
        ..SingleWalkConfig::default()
    };
    let mut group = c.benchmark_group("e3b_batched_stitching");
    group.sample_size(10);
    for k in [8usize, 16] {
        let sources: Vec<usize> = (0..k).map(|i| (i * 37) % g.n()).collect();
        group.bench_with_input(BenchmarkId::new("batched", k), &k, |b, _| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(many_random_walks(&g, &sources, 1024, &cfg, seed).expect("walks"))
            });
        });
    }
    group.finish();
}

fn bench_walk_with_regeneration(c: &mut Criterion) {
    let g = bench_torus();
    let cfg = SingleWalkConfig {
        record_walk: true,
        ..SingleWalkConfig::default()
    };
    let mut group = c.benchmark_group("e1_regeneration");
    group.sample_size(10);
    group.bench_function("podc10_record_1024", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(single_random_walk(&g, 0, 1024, &cfg, seed).expect("walk"))
        });
    });
    group.finish();
}

/// The tentpole acceptance workload: one long walk on a 64x64 torus
/// (n = 4096), where Phase 1 moves ~16k tokens per round — enough
/// receive-phase work for the sharded executor to show its worth. Both
/// backends compute bit-identical results; only wall-clock differs.
fn bench_executor_backends(c: &mut Criterion) {
    let torus = generators::torus2d(64, 64);
    let len = 8192u64;
    let mut group = c.benchmark_group("executor_64x64_torus");
    group.sample_size(5);
    for (name, kind) in [
        ("sequential", ExecutorKind::Sequential),
        ("sharded", ExecutorKind::Sharded),
    ] {
        let cfg = SingleWalkConfig {
            engine: drw_congest::EngineConfig::default().with_executor(kind),
            ..SingleWalkConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("single_walk", name), &cfg, |b, cfg| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                black_box(single_random_walk(&torus, 0, len, cfg, seed).expect("walk"))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_walk_algorithms,
    bench_many_walks,
    bench_batched_stitching,
    bench_walk_with_regeneration,
    bench_executor_backends
);
criterion_main!(benches);
