//! E1 (Theorem 2.5): rounds vs walk length for the naive `O(l)` token
//! walk, the PODC 2009 `~O(l^{2/3} D^{1/3})` algorithm, and the PODC
//! 2010 `~O(sqrt(l D))` algorithm.
//!
//! Expected shape: log-log slopes near 1, 2/3 and 1/2 respectively, with
//! the 2010 algorithm winning for `l >> D` and crossovers at small `l`.

use drw_core::{naive_walk, Network, Request};
use drw_experiments::{
    mean, parallel_trials, podc09_walk, table::f3, walk_config_from_env, workloads, Podc09Params,
    Table,
};
use drw_stats::log_log_slope;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let lens: Vec<u64> = if quick {
        vec![64, 256, 1024]
    } else {
        vec![64, 128, 256, 512, 1024, 2048, 4096, 8192]
    };
    let trials: u64 = if quick { 2 } else { 5 };

    for w in [workloads::regular(256), workloads::torus(16)] {
        let g = &w.graph;
        let d = drw_graph::traversal::diameter_exact(g);
        let mut t = Table::new(
            &format!("E1 rounds vs l on {} (n={}, D={})", w.name, g.n(), d),
            &["l", "naive", "podc09", "podc10", "stitches", "gmw"],
        );
        let mut xs = Vec::new();
        let (mut y_naive, mut y_09, mut y_10) = (Vec::new(), Vec::new(), Vec::new());
        for &len in &lens {
            let naive: f64 = mean(&parallel_trials(trials, 10, |s| {
                naive_walk(g, 0, len, s).expect("naive walk").1 as f64
            }));
            let r09: f64 = mean(&parallel_trials(trials, 20, |s| {
                podc09_walk(g, 0, len, &Podc09Params::default(), s)
                    .expect("podc09 walk")
                    .rounds as f64
            }));
            let cfg10 = walk_config_from_env();
            let runs10 = parallel_trials(trials, 30, |s| {
                let r = Network::builder(g)
                    .config(cfg10.clone())
                    .seed(s)
                    .build()
                    .run(Request::walk(0, len))
                    .expect("podc10 walk")
                    .into_walk();
                (r.rounds as f64, r.stitches as f64, r.gmw_invocations as f64)
            });
            let r10 = mean(&runs10.iter().map(|r| r.0).collect::<Vec<_>>());
            let st = mean(&runs10.iter().map(|r| r.1).collect::<Vec<_>>());
            let gmw = mean(&runs10.iter().map(|r| r.2).collect::<Vec<_>>());
            t.row(&[
                len.to_string(),
                f3(naive),
                f3(r09),
                f3(r10),
                f3(st),
                f3(gmw),
            ]);
            xs.push(len as f64);
            y_naive.push(naive);
            y_09.push(r09);
            y_10.push(r10);
        }
        t.emit();
        if xs.len() >= 3 {
            println!(
                "log-log slopes: naive={:.3} (paper: 1), podc09={:.3} (paper: 2/3), podc10={:.3} (paper: 1/2)\n",
                log_log_slope(&xs, &y_naive).slope,
                log_log_slope(&xs, &y_09).slope,
                log_log_slope(&xs, &y_10).slope,
            );
        }
    }
}
