//! E3b: one `k`-walk wave vs `k` one-walk waves (ISSUE 2's acceptance
//! workload).
//!
//! On the 32x32 torus, Phase 2 is forced into the stitched regime
//! (`lambda_scale = 0.25`) and measured both ways for growing `k`: one
//! `MANY-RANDOM-WALKS` request multiplexes all walks into one engine
//! run, `k` `SINGLE-RANDOM-WALK` requests run one lane each, one after
//! another. Expected shape: the serial Phase-2 rounds grow ~linearly in
//! `k`; the shared wave's grow far slower (concurrent stitches share
//! rounds), so the ratio falls well below 1. (Each single walk builds
//! its own store at its own `lambda(l, D)`; EXPERIMENTS.md also keeps a
//! since-deleted same-store loop's numbers for comparison.)
//!
//! A second table records the Theorem 2.8 acceptance point: k = 16
//! walks of length 64 as one `MANY-RANDOM-WALKS` call vs 16 sequential
//! `SINGLE-RANDOM-WALK` runs, at default parameters (the `k + l`
//! branch) and in the stitched regime (`lambda_scale = 0.12`).

use drw_core::{Network, Request, WalkParams};
use drw_experiments::{table::f3, walk_config_from_env, workloads, Table};

fn scaled(scale: f64) -> drw_core::SingleWalkConfig {
    drw_core::SingleWalkConfig {
        params: WalkParams {
            lambda_scale: scale,
            eta: 1.0,
        },
        ..walk_config_from_env()
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let w = workloads::torus(32);
    let g = &w.graph;
    let len: u64 = 1024;
    let trials: u64 = if quick { 1 } else { 3 };
    let ks: Vec<usize> = if quick {
        vec![2, 8]
    } else {
        vec![1, 2, 4, 8, 16]
    };

    let mut t = Table::new(
        &format!(
            "E3b Phase-2 rounds vs k at l={len} on 32x32 {} (lambda_scale=0.25)",
            w.name
        ),
        &[
            "k",
            "batched p2",
            "k x single p2",
            "ratio",
            "stitches",
            "gmw",
        ],
    );
    let cfg = scaled(0.25);
    for &k in &ks {
        let sources: Vec<usize> = (0..k).map(|i| (i * 131) % g.n()).collect();
        let (mut batched, mut serial, mut stitches, mut gmw) = (0.0, 0.0, 0.0, 0.0);
        for s in 0..trials {
            let b = Network::builder(g)
                .config(cfg.clone())
                .seed(42 + s)
                .build()
                .run(Request::many_walks(sources.clone(), len))
                .expect("batched")
                .into_many_walks();
            assert!(!b.used_naive_fallback, "must be in the stitched regime");
            batched += b.rounds_phase2 as f64;
            for (i, &source) in sources.iter().enumerate() {
                let one = Network::builder(g)
                    .config(cfg.clone())
                    .seed(4200 + 100 * s + i as u64)
                    .build()
                    .run(Request::walk(source, len))
                    .expect("single")
                    .into_walk();
                serial += (one.rounds_stitch + one.rounds_tail) as f64;
            }
            stitches += b.stitches as f64;
            gmw += b.gmw_invocations as f64;
        }
        let n = trials as f64;
        t.row(&[
            k.to_string(),
            f3(batched / n),
            f3(serial / n),
            f3(batched / serial.max(1.0)),
            f3(stitches / n),
            f3(gmw / n),
        ]);
    }
    t.emit();

    // Acceptance point: k = 16, l = 64 — one batched call vs 16
    // sequential single-walk runs.
    let mut t2 = Table::new(
        "E3b acceptance: k=16, l=64 on the 32x32 torus — MANY vs 16 x SINGLE",
        &[
            "regime",
            "many rounds",
            "16 x single",
            "speedup",
            "stitched",
        ],
    );
    for (name, cfg) in [
        ("default (k+l branch)", walk_config_from_env()),
        ("stitched (scale 0.12)", scaled(0.12)),
    ] {
        let sources: Vec<usize> = (0..16).map(|i| (i * 67) % g.n()).collect();
        let many = Network::builder(g)
            .config(cfg.clone())
            .seed(7)
            .build()
            .run(Request::many_walks(sources.clone(), 64))
            .expect("many")
            .into_many_walks();
        let singles: u64 = sources
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                Network::builder(g)
                    .config(cfg.clone())
                    .seed(700 + i as u64)
                    .build()
                    .run(Request::walk(s, 64))
                    .expect("single")
                    .rounds()
            })
            .sum();
        t2.row(&[
            name.to_string(),
            many.rounds.to_string(),
            singles.to_string(),
            f3(singles as f64 / many.rounds as f64),
            (!many.used_naive_fallback).to_string(),
        ]);
    }
    t2.emit();
}
