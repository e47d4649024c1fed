//! E14: dynamic topology churn (ISSUE 5's acceptance workload) —
//! serving the same `ManyWalks` request after a small edge delta via
//! *incremental session repair* versus a rebuild-from-scratch
//! baseline (the same request served one-shot).
//!
//! Protocol, per trial: a `Network` over a versioned `Topology` of the
//! 32x32 torus warms its shared session (two batched servings, so the
//! store is built and in steady state), a delta touching far below 1%
//! of the edges applies, and the *same* request is served again. The
//! incremental bill is the session-round delta of that serving: the
//! repair evicts only short walks whose recorded trajectories visited
//! touched nodes, re-runs the anchor BFS only if a tree edge broke, and
//! tops up only the eviction deficit (usually nothing — the deficit
//! stays under the top-up hysteresis). The rebuild baseline pays a
//! fresh BFS plus a full Phase 1 on the mutated graph, exactly like any
//! one-shot request.
//!
//! Acceptance (ISSUE 5): on the 32x32 torus the rebuild bill is at
//! least 2x the incremental bill, and endpoints served through the
//! repaired session still chi-square against the exact
//! transition-matrix distribution *of the mutated graph*.

use drw_core::exact::exact_distribution;
use drw_core::{Network, Request};
use drw_experiments::{table::f3, walk_config_from_env, workloads, Table};
use drw_graph::{Topology, TopologyDelta};
use drw_stats::chi2::chi_square_against_probs;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let side = if quick { 16 } else { 32 };
    let trials: u64 = if quick { 1 } else { 3 };
    let w = workloads::torus(side);
    let len: u64 = if quick { 2048 } else { 4096 };
    let sources: Vec<usize> = vec![0, side * side / 2, 17 % (side * side), side + 1];

    // A small stitch lambda keeps short-walk trajectories local, which
    // is what makes eviction surgical (the store is the asset the
    // repair preserves).
    let mut cfg = walk_config_from_env();
    cfg.params.lambda_scale = 0.25;
    cfg.params.eta = 12.0;

    // The delta: two chords in one neighborhood, far below the
    // <= 1%-of-edges budget (2 of 2048 edges on the full size).
    // Additions touch only their endpoints and never break the BFS
    // tree; clustering the touched nodes is what real link churn looks
    // like (a locality rewires) and keeps eviction surgical.
    let delta = |_n: usize| TopologyDelta::new().add_edge(0, 2).add_edge(1, 3);

    let mut t = Table::new(
        &format!(
            "E14 churn on {side}x{side} {}: same ManyWalks(k={}, l={len}) after a \
             2-edge delta — incremental repair vs full rebuild",
            w.name,
            sources.len()
        ),
        &[
            "mode",
            "rounds",
            "evicted",
            "bfs reruns",
            "topup rounds",
            "vs rebuild",
        ],
    );

    let n = w.graph.n();
    let (mut inc_total, mut reb_total) = (0.0f64, 0.0f64);
    let (mut evicted_total, mut bfs_total, mut topup_total) = (0u64, 0u64, 0u64);
    for s in 0..trials {
        let topo = Topology::new(w.graph.clone());
        let mut net = Network::over(topo.clone())
            .config(cfg.clone())
            .seed(1400 + s)
            .build();
        // Warm to steady state: the first serving builds the store, the
        // second shows the deficit-only regime the delta will perturb.
        for _ in 0..2 {
            net.run_batch(vec![Request::many_walks(sources.clone(), len)])
                .expect("warm serving");
        }
        let before = net.session_rounds();
        let report = net.apply_delta(&delta(n)).expect("valid churn delta");
        assert_eq!(report.epoch, 1);

        let served = net
            .run_batch(vec![Request::many_walks(sources.clone(), len)])
            .expect("incremental serving");
        assert_eq!(served.len(), 1);
        let incremental = net.session_rounds() - before;
        let session = net.session().expect("session exists");
        evicted_total += session.walks_evicted();
        bfs_total += session.repair_bfs_reruns();
        topup_total += served[0].clone().into_many_walks().rounds_phase1;
        inc_total += incremental as f64;

        // Rebuild baseline: the same request, one-shot, on the mutated
        // graph — its own BFS, its own full Phase 1.
        let mut rebuild_net = Network::over(topo.clone())
            .config(cfg.clone())
            .seed(1400 + s)
            .build();
        let rebuilt = rebuild_net
            .run(Request::many_walks(sources.clone(), len))
            .expect("rebuild serving")
            .into_many_walks();
        assert!(!rebuilt.used_naive_fallback);
        reb_total += rebuilt.rounds as f64;
    }
    let nt = trials as f64;
    let (incremental, rebuild) = (inc_total / nt, reb_total / nt);
    t.row(&[
        "incremental".into(),
        f3(incremental),
        f3(evicted_total as f64 / nt),
        f3(bfs_total as f64 / nt),
        f3(topup_total as f64 / nt),
        f3(incremental / rebuild.max(1.0)),
    ]);
    t.row(&[
        "rebuild".into(),
        f3(rebuild),
        "-".into(),
        f3(1.0),
        "-".into(),
        f3(1.0),
    ]);
    t.emit();

    let speedup = rebuild / incremental.max(1.0);
    println!(
        "rebuild/incremental round ratio: {}{}",
        f3(speedup),
        if quick {
            " (16x16 smoke; the >= 2x acceptance bar applies to the full 32x32 run)"
        } else {
            " (acceptance: >= 2)"
        }
    );
    if !quick {
        assert!(
            speedup >= 2.0,
            "acceptance failed: rebuild/incremental = {speedup:.2} < 2"
        );
    }

    // Conformance on the mutated graph: endpoints served through the
    // repaired session, chi-squared (by torus row, so cells stay well
    // populated) against the exact distribution of the *mutated* CSR.
    let conf_len: u64 = if quick { 128 } else { 256 };
    let conf_k = 64usize;
    let conf_calls = if quick { 2 } else { 8 };
    let topo = Topology::new(w.graph.clone());
    let mut net = Network::over(topo.clone())
        .config(cfg.clone())
        .seed(97)
        .build();
    net.run_batch(vec![Request::many_walks(vec![0; conf_k], conf_len)])
        .expect("warm");
    let _ = net.apply_delta(&delta(n)).expect("valid churn delta");
    let mut row_counts = vec![0u64; side];
    for _ in 0..conf_calls {
        let served = net
            .run_batch(vec![Request::many_walks(vec![0; conf_k], conf_len)])
            .expect("conformance serving")
            .remove(0)
            .into_many_walks();
        for d in served.destinations {
            row_counts[d / side] += 1;
        }
    }
    let g = net.graph();
    let probs = exact_distribution(&g, 0, conf_len);
    let mut row_probs = vec![0.0f64; side];
    for (v, p) in probs.iter().enumerate() {
        row_probs[v / side] += p;
    }
    let test = chi_square_against_probs(&row_counts, &row_probs);
    let mut t2 = Table::new(
        &format!("E14 endpoint conformance on the mutated {side}x{side} torus"),
        &["samples", "cells", "chi2", "p-value", "verdict"],
    );
    t2.row(&[
        format!("{}", conf_k * conf_calls),
        format!("{side}"),
        f3(test.statistic),
        f3(test.p_value),
        if test.passes(0.001) { "PASS" } else { "FAIL" }.into(),
    ]);
    t2.emit();
    if !quick {
        assert!(
            test.passes(0.001),
            "endpoints diverge from the mutated graph's law: {test:?}"
        );
    }
}
