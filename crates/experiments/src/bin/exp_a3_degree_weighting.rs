//! A3 (ablation): degree-proportional Phase-1 allocation
//! (`eta * deg(v)` walks per node, matching Lemma 2.6's visit profile)
//! vs the PODC'09-style uniform allocation, on skewed-degree graphs.
//!
//! Expected: uniform allocation starves high-degree nodes (the hub of a
//! star, the clique of a lollipop), forcing `GET-MORE-WALKS`.

use drw_core::{Network, Request, SingleWalkConfig};
use drw_experiments::{mean, parallel_trials, table::f3, walk_config_from_env, Table};
use drw_graph::generators;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials: u64 = if quick { 3 } else { 8 };
    let len: u64 = 1 << 12;

    let mut t = Table::new(
        "A3 degree-proportional vs uniform Phase-1 allocation",
        &["graph", "allocation", "rounds", "gmw", "phase1 rounds"],
    );
    for (name, g) in [
        ("star(64)", generators::star(64)),
        ("lollipop(16,16)", generators::lollipop(16, 16)),
    ] {
        for (label, proportional) in [("deg-proportional", true), ("uniform", false)] {
            let cfg = SingleWalkConfig {
                degree_proportional: proportional,
                ..walk_config_from_env()
            };
            let runs = parallel_trials(trials, 50, |s| {
                let r = Network::builder(&g)
                    .config(cfg.clone())
                    .seed(s)
                    .build()
                    .run(Request::walk(0, len))
                    .expect("walk")
                    .into_walk();
                (
                    r.rounds as f64,
                    r.gmw_invocations as f64,
                    r.rounds_phase1 as f64,
                )
            });
            t.row(&[
                name.to_string(),
                label.to_string(),
                f3(mean(&runs.iter().map(|r| r.0).collect::<Vec<_>>())),
                f3(mean(&runs.iter().map(|r| r.1).collect::<Vec<_>>())),
                f3(mean(&runs.iter().map(|r| r.2).collect::<Vec<_>>())),
            ]);
        }
    }
    t.emit();
    println!("Degree-proportional allocation should need fewer GET-MORE-WALKS on skewed graphs.");
}
