//! E3 (Theorem 2.8): `k` walks in `~O(min(sqrt(k l D) + k, k + l))`
//! rounds — MANY-RANDOM-WALKS vs `k` sequential naive walks vs the
//! simultaneous-naive branch.
//!
//! Expected shape: sublinear growth in `k` (exponent ~1/2) while the
//! stitched branch is active, and the automatic switch to the `k + l`
//! branch once `lambda(k) > l`. E3b measures what multiplexing
//! concurrent stitches into one engine run saves.

use drw_core::{naive_walk, Network, Request};
use drw_experiments::{parallel_trials, table::f3, walk_config_from_env, workloads, Table};
use drw_stats::log_log_slope;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let len: u64 = 2048;
    let trials: u64 = if quick { 2 } else { 4 };
    let ks: Vec<usize> = if quick {
        vec![1, 8, 64]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 128]
    };

    let w = workloads::regular(256);
    let g = &w.graph;
    let d = drw_graph::traversal::diameter_exact(g);
    let mut t = Table::new(
        &format!(
            "E3 rounds vs k at l={len} on {} (n={}, D={d})",
            w.name,
            g.n()
        ),
        &["k", "many", "k x naive", "fallback", "stitches"],
    );
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for &k in &ks {
        let sources: Vec<usize> = (0..k).map(|i| (i * 37) % g.n()).collect();
        let cfg = walk_config_from_env();
        let runs = parallel_trials(trials, 40, |s| {
            let r = Network::builder(g)
                .config(cfg.clone())
                .seed(s)
                .build()
                .run(Request::many_walks(sources.clone(), len))
                .expect("many walks")
                .into_many_walks();
            (r.rounds as f64, r.used_naive_fallback, r.stitches as f64)
        });
        let many = mean(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
        let fallback = runs.iter().filter(|r| r.1).count();
        let stitches = mean(&runs.iter().map(|r| r.2).collect::<Vec<_>>());
        // Baseline: k sequential naive walks = k * l rounds.
        let seq = k as f64
            * mean(&parallel_trials(trials, 50, |s| {
                naive_walk(g, 0, len, s).expect("naive").1 as f64
            }));
        t.row(&[
            k.to_string(),
            f3(many),
            f3(seq),
            format!("{fallback}/{trials}"),
            f3(stitches),
        ]);
        xs.push(k as f64);
        ys.push(many);
    }
    t.emit();
    if xs.len() >= 3 {
        println!(
            "log-log slope of MANY in k: {:.3} (paper: ~1/2 while stitching)",
            log_log_slope(&xs, &ys).slope
        );
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}
