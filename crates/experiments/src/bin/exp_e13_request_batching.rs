//! E13: heterogeneous request batching (ISSUE 4's acceptance workload)
//! — four mixed requests served by one `Network::run_batch` versus the
//! same four served sequentially, each with its own setup.
//!
//! The batch (2 walks from different sources, 1 spanning-tree request,
//! 1 mixing probe) is lowered by the request scheduler into walk/stitch
//! work items that advance through **shared** engine runs: one session
//! BFS instead of four private ones, one shared Phase-1 store instead
//! of per-request rebuilds, and multiplexed sampling/replenishment/tail
//! waves instead of serialized `O(D)` compositions.
//!
//! Acceptance (ISSUE 4): on the 32x32 torus the batched bill is at
//! least 1.5x smaller than the sequential bill, with exactness
//! preserved (the conformance suites run through the facade in
//! `tests/`).

use drw_core::{Network, Request, TreeRequest};
use drw_experiments::{table::f3, walk_config_from_env, workloads, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let side = if quick { 16 } else { 32 };
    let trials: u64 = if quick { 1 } else { 3 };
    let w = workloads::torus(side);
    let g = &w.graph;
    let n = g.n() as u64;
    let walk_len = if quick { 4096 } else { 16384 };
    let probe_len = if quick { 256 } else { 512 };

    // The acceptance workload: 2 walks, 1 RST doubling phase (an
    // initial guess of 32n sits past the torus cover time, so the
    // tree covers in one extension w.h.p. and its work rides the same
    // waves as everything else instead of trailing alone), 1 mixing
    // probe. The walks are sized comparably to the tree's extension —
    // sharing pays off when the batched requests overlap, not when one
    // giant serial chain dominates the wave (Amdahl).
    let requests = || {
        vec![
            Request::walk(0, walk_len),
            Request::walk(g.n() / 2 + side / 2, walk_len),
            Request::SpanningTree(TreeRequest {
                initial_len: 32 * n,
                ..TreeRequest::new(0)
            }),
            Request::mixing_probe(0, probe_len),
        ]
    };
    let kinds: Vec<&'static str> = requests().iter().map(|r| r.kind()).collect();

    let mut t = Table::new(
        &format!(
            "E13 heterogeneous request batching on {side}x{side} {} — \
             batched vs sequential",
            w.name
        ),
        &["mode", "rounds", "waves share", "vs sequential"],
    );

    let cfg = walk_config_from_env();
    let (mut batched_total, mut sequential_total) = (0.0f64, 0.0f64);
    let mut per_request: Vec<(f64, f64)> = vec![(0.0, 0.0); kinds.len()];
    for s in 0..trials {
        // Batched: one Network, one shared session, one run_batch.
        let mut net = Network::builder(g)
            .config(cfg.clone())
            .seed(4200 + s)
            .build();
        let responses = net.run_batch(requests()).expect("batched run");
        batched_total += net.session_rounds() as f64;
        for (i, r) in responses.iter().enumerate() {
            per_request[i].0 += r.rounds() as f64;
        }

        // Sequential: each request on its own throwaway Network — the
        // legacy cost, every request paying its own BFS and Phase 1.
        for (i, req) in requests().into_iter().enumerate() {
            let mut net = Network::builder(g)
                .config(cfg.clone())
                .seed(4200 + s)
                .build();
            let rounds = net.run(req).expect("sequential run").rounds() as f64;
            sequential_total += rounds;
            per_request[i].1 += rounds;
        }
    }
    let nt = trials as f64;
    let (batched, sequential) = (batched_total / nt, sequential_total / nt);
    t.row(&[
        "batched".into(),
        f3(batched),
        "shared".into(),
        f3(batched / sequential.max(1.0)),
    ]);
    t.row(&["sequential".into(), f3(sequential), "none".into(), f3(1.0)]);
    t.emit();

    let mut t2 = Table::new(
        &format!("E13 per-request bill on {side}x{side}"),
        &["request", "batched (shared waves)", "sequential (private)"],
    );
    for (kind, (b, s)) in kinds.iter().zip(&per_request) {
        t2.row(&[kind.to_string(), f3(b / nt), f3(s / nt)]);
    }
    t2.emit();

    let speedup = sequential / batched.max(1.0);
    println!(
        "sequential/batched round ratio: {}{}",
        f3(speedup),
        if quick {
            " (16x16 smoke; the >= 1.5x acceptance bar applies to the full 32x32 run)"
        } else {
            " (acceptance: >= 1.5)"
        }
    );
    if !quick {
        assert!(
            speedup >= 1.5,
            "acceptance failed: sequential/batched = {speedup:.2} < 1.5"
        );
    }
}
