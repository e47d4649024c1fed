//! E2 (Theorem 2.5, D-dependence): rounds vs diameter at fixed walk
//! length, on a path-of-cliques family with (roughly) constant `n`.
//!
//! Expected shape: podc10 grows like `sqrt(D)`, podc09 like `D^{1/3}`,
//! naive is flat in `D`.

use drw_core::{naive_walk, Network, Request};
use drw_experiments::{
    parallel_trials, podc09_walk, table::f3, walk_config_from_env, workloads, Podc09Params, Table,
};
use drw_stats::log_log_slope;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let len: u64 = 4096;
    let trials: u64 = if quick { 2 } else { 5 };
    let total_nodes = 256usize;
    let cliques: Vec<usize> = if quick {
        vec![4, 16, 64]
    } else {
        vec![2, 4, 8, 16, 32, 64]
    };

    let mut t = Table::new(
        &format!("E2 rounds vs D at l={len} on path-of-cliques (n~{total_nodes})"),
        &["cliques", "D", "naive", "podc09", "podc10"],
    );
    let (mut ds, mut y10, mut y09) = (Vec::new(), Vec::new(), Vec::new());
    for &c in &cliques {
        let size = (total_nodes / c).max(2);
        let w = workloads::path_of_cliques(c, size);
        let g = &w.graph;
        let d = drw_graph::traversal::diameter_exact(g);
        let naive = mean(&parallel_trials(trials, 10, |s| {
            naive_walk(g, 0, len, s).expect("naive").1 as f64
        }));
        let r09 = mean(&parallel_trials(trials, 20, |s| {
            podc09_walk(g, 0, len, &Podc09Params::default(), s)
                .expect("09")
                .rounds as f64
        }));
        let r10 = mean(&parallel_trials(trials, 30, |s| {
            Network::builder(g)
                .config(walk_config_from_env())
                .seed(s)
                .build()
                .run(Request::walk(0, len))
                .expect("10")
                .rounds() as f64
        }));
        t.row(&[c.to_string(), d.to_string(), f3(naive), f3(r09), f3(r10)]);
        ds.push(d as f64);
        y09.push(r09);
        y10.push(r10);
    }
    t.emit();
    if ds.len() >= 3 {
        println!(
            "log-log slopes in D: podc09={:.3} (paper: 1/3), podc10={:.3} (paper: 1/2)",
            log_log_slope(&ds, &y09).slope,
            log_log_slope(&ds, &y10).slope,
        );
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}
