//! A2 (ablation): sweep the `lambda` scale constant `c` in
//! `lambda = c * sqrt(l * D)`.
//!
//! Theory: Phase 1 costs `~lambda`, stitching costs `~(l/lambda) * D`;
//! their sum is U-shaped in `c` with the optimum near the theoretical
//! `sqrt(l * D)` (`c ~ 1` up to the dropped polylogs).

use drw_core::{Network, Request, SingleWalkConfig, WalkParams};
use drw_experiments::{mean, parallel_trials, table::f3, walk_config_from_env, workloads, Table};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials: u64 = if quick { 2 } else { 6 };
    let len: u64 = 1 << 13;
    let scales = if quick {
        vec![0.25, 1.0, 4.0]
    } else {
        vec![0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    };

    let w = workloads::torus(16);
    let g = &w.graph;
    let mut t = Table::new(
        &format!("A2 lambda sweep at l={len} on {} (n={})", w.name, g.n()),
        &["c", "lambda", "rounds", "phase1", "stitch", "gmw"],
    );
    for &c in &scales {
        let cfg = SingleWalkConfig {
            params: WalkParams {
                lambda_scale: c,
                ..WalkParams::default()
            },
            ..walk_config_from_env()
        };
        let runs = parallel_trials(trials, 40, |s| {
            let r = Network::builder(g)
                .config(cfg.clone())
                .seed(s)
                .build()
                .run(Request::walk(0, len))
                .expect("walk")
                .into_walk();
            (
                r.rounds as f64,
                r.rounds_phase1 as f64,
                r.rounds_stitch as f64,
                r.gmw_invocations as f64,
                r.lambda,
            )
        });
        t.row(&[
            f3(c),
            runs[0].4.to_string(),
            f3(mean(&runs.iter().map(|r| r.0).collect::<Vec<_>>())),
            f3(mean(&runs.iter().map(|r| r.1).collect::<Vec<_>>())),
            f3(mean(&runs.iter().map(|r| r.2).collect::<Vec<_>>())),
            f3(mean(&runs.iter().map(|r| r.3).collect::<Vec<_>>())),
        ]);
    }
    t.emit();
    println!("Expect a U-shape in total rounds: phase1 grows with c, stitching shrinks with c.");
}
