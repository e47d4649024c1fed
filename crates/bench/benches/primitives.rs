//! Benches for the CONGEST primitives and Phase 1 (family E7).

use criterion::{criterion_group, criterion_main, Criterion};
use drw_bench::{bench_regular, bench_torus};
use drw_congest::primitives::{AggOp, BfsTreeProtocol, ConvergecastProtocol, UpcastProtocol};
use drw_congest::{run_node_local, run_protocol, EngineConfig};
use drw_core::short_walks::ShortWalksProtocol;
use drw_core::WalkState;
use std::hint::black_box;

fn bench_bfs(c: &mut Criterion) {
    let g = bench_torus();
    c.bench_function("primitives/bfs_tree_256", |b| {
        b.iter(|| {
            let mut p = BfsTreeProtocol::new(0);
            run_protocol(&g, &EngineConfig::default(), 1, &mut p).expect("bfs");
            black_box(p.into_tree())
        });
    });
}

fn bench_convergecast(c: &mut Criterion) {
    let g = bench_torus();
    let mut p = BfsTreeProtocol::new(0);
    run_protocol(&g, &EngineConfig::default(), 1, &mut p).expect("bfs");
    let tree = p.into_tree();
    let values: Vec<u64> = (0..g.n() as u64).collect();
    c.bench_function("primitives/convergecast_sum_256", |b| {
        b.iter(|| {
            let mut cc = ConvergecastProtocol::new(&tree, AggOp::Sum, values.clone());
            run_protocol(&g, &EngineConfig::default(), 1, &mut cc).expect("cc");
            black_box(cc.result())
        });
    });
}

fn bench_upcast(c: &mut Criterion) {
    let g = bench_torus();
    let mut p = BfsTreeProtocol::new(0);
    run_protocol(&g, &EngineConfig::default(), 1, &mut p).expect("bfs");
    let tree = p.into_tree();
    let items: Vec<Vec<(u64, u64)>> = (0..g.n())
        .map(|v| {
            if v % 4 == 0 {
                vec![(v as u64, 1)]
            } else {
                vec![]
            }
        })
        .collect();
    c.bench_function("primitives/upcast_64_items", |b| {
        b.iter(|| {
            let mut up = UpcastProtocol::new(tree.clone(), items.clone());
            run_protocol(&g, &EngineConfig::default(), 1, &mut up).expect("upcast");
            black_box(up.collected().len())
        });
    });
}

fn bench_phase1(c: &mut Criterion) {
    let g = bench_regular();
    let counts: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
    let mut group = c.benchmark_group("e7_phase1");
    group.sample_size(10);
    group.bench_function("short_walks_lambda64", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut state = WalkState::new(g.n());
            let mut p = ShortWalksProtocol::new(&mut state, counts.clone(), 64, true);
            run_node_local(&g, &EngineConfig::default(), seed, &mut p).expect("phase1");
            black_box(state.total_stored())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bfs,
    bench_convergecast,
    bench_upcast,
    bench_phase1
);
criterion_main!(benches);
