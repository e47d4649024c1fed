//! E7 (Lemma 2.1 / Claim A.1): Phase-1 congestion. With `eta * deg(v)`
//! tokens per node, the expected per-edge per-round load is `2 eta`
//! (the token population is stationary), and the maximum load is
//! `O(eta log n)` w.h.p.
//!
//! Runs Phase 1 under an unbounded-capacity engine, so the report's
//! `max_edge_load` is the largest (edge, round) delivery count.

use drw_congest::{run_protocol, EngineConfig};
use drw_core::short_walks::ShortWalksProtocol;
use drw_core::WalkState;
use drw_experiments::{table::f3, workloads, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let lambda: u32 = if quick { 16 } else { 64 };
    let eta = 1usize;

    let mut t = Table::new(
        "E7 Phase-1 per-edge per-round load (eta=1, unbounded capacity)",
        &[
            "graph",
            "n",
            "lambda",
            "mean load",
            "max load",
            "eta",
            "4*eta*log2(n)",
        ],
    );
    for w in [
        workloads::regular(256),
        workloads::torus(16),
        workloads::lollipop(16, 32),
    ] {
        let g = &w.graph;
        let counts: Vec<usize> = (0..g.n()).map(|v| eta * g.degree(v)).collect();
        let mut state = WalkState::new(g.n());
        let mut p = ShortWalksProtocol::new(&mut state, counts, lambda, true);
        let cfg = EngineConfig::observing();
        let report = run_protocol(g, &cfg, 7, &mut p).unwrap();
        // Mean load over (edge, round) pairs that carried any messages at
        // all underestimates nothing: add zero-load pairs over the full
        // lambda-round window for the honest mean.
        let delivered: u64 = report.messages;
        let window_pairs = (g.dir_edge_count() as u64) * report.rounds.max(1);
        let mean_load = delivered as f64 / window_pairs as f64;
        let bound = 4.0 * eta as f64 * (g.n() as f64).log2();
        t.row(&[
            w.name.to_string(),
            g.n().to_string(),
            lambda.to_string(),
            f3(mean_load),
            report.max_edge_load.to_string(),
            f3(eta as f64),
            f3(bound),
        ]);
    }
    t.emit();
    println!(
        "Claim A.1: E[X_j(e)] = 2*eta per undirected edge at full population, i.e. eta per \
         directed edge; the measured time-average sits below eta because randomized-length \
         walks retire across the [lambda, 2*lambda) window. Lemma 2.1 bounds the max by \
         O(eta log n) w.h.p."
    );
}
