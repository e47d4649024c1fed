//! A1 (ablation of the paper's key idea): randomized short-walk lengths
//! `[lambda, 2*lambda-1]` vs fixed `lambda`, measured end-to-end on the
//! distributed algorithm.
//!
//! On periodic structures, fixed lengths revisit the same connectors,
//! drain their stores and force `GET-MORE-WALKS`; randomized lengths
//! keep connector load near `t / lambda` (Lemma 2.7).

use drw_core::{Network, Request, SingleWalkConfig};
use drw_experiments::{mean, parallel_trials, table::f3, walk_config_from_env, workloads, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials: u64 = if quick { 3 } else { 8 };
    let len: u64 = 1 << 13;

    let mut t = Table::new(
        "A1 randomized vs fixed short-walk lengths (end-to-end)",
        &["graph", "lengths", "rounds", "gmw", "max connector visits"],
    );
    for w in [workloads::odd_cycle(64), workloads::torus(8)] {
        let g = &w.graph;
        for (label, randomize) in [("random", true), ("fixed", false)] {
            let cfg = SingleWalkConfig {
                randomize_len: randomize,
                ..walk_config_from_env()
            };
            let runs = parallel_trials(trials, 30, |s| {
                let r = Network::builder(g)
                    .config(cfg.clone())
                    .seed(s)
                    .build()
                    .run(Request::walk(0, len))
                    .expect("walk")
                    .into_walk();
                (
                    r.rounds as f64,
                    r.gmw_invocations as f64,
                    *r.connector_visits.iter().max().unwrap() as f64,
                )
            });
            t.row(&[
                w.name.to_string(),
                label.to_string(),
                f3(mean(&runs.iter().map(|r| r.0).collect::<Vec<_>>())),
                f3(mean(&runs.iter().map(|r| r.1).collect::<Vec<_>>())),
                f3(mean(&runs.iter().map(|r| r.2).collect::<Vec<_>>())),
            ]);
        }
    }
    t.emit();
    println!(
        "The paper's randomization should show fewer/equal GMW calls and lower connector maxima."
    );
}
