//! E9 (Theorem 4.1): random spanning trees.
//!
//! 1. Rounds: distributed Aldous-Broder via fast walks (`~O(sqrt(m D))`)
//!    vs the naive token Aldous-Broder (cover time, `~O(m D)`), across
//!    graph sizes.
//! 2. Uniformity: chi-square of sampled trees against the enumerated
//!    tree set (cross-checked with Kirchhoff), in the exact ExtendWalk
//!    mode and in the paper-literal RestartPhases mode — the latter
//!    demonstrates the restart-conditioning bias (reproduction finding,
//!    see DESIGN.md and `drw_core::TreeMode`).

use drw_core::{Network, Request, TreeMode, TreeRequest};
use drw_experiments::{mean, parallel_trials, table::f3, workloads, Table};
use drw_graph::matrix_tree;
use drw_spanning::{naive_rst_cover_steps, uniformity_test};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials: u64 = if quick { 2 } else { 5 };

    let mut t = Table::new(
        "E9a RST rounds: distributed fast-walk AB vs naive token AB",
        &[
            "graph",
            "n",
            "m",
            "D",
            "fast rounds",
            "naive rounds",
            "speedup",
        ],
    );
    // The crossover favouring the fast algorithm appears once the cover
    // time m*D dwarfs sqrt(m*D)*polylog — i.e. at larger sizes.
    let sizes: Vec<usize> = if quick { vec![8] } else { vec![8, 12, 16, 20] };
    for side in sizes {
        let w = workloads::torus(side);
        let g = &w.graph;
        let d = drw_graph::traversal::diameter_exact(g);
        let fast = parallel_trials(trials, 10, |s| {
            Network::builder(g)
                .seed(s)
                .build()
                .run(Request::spanning_tree(0))
                .expect("rst")
                .rounds() as f64
        });
        let naive = parallel_trials(trials, 20, |s| {
            let mut rng = StdRng::seed_from_u64(s);
            naive_rst_cover_steps(g, 0, &mut rng) as f64
        });
        let (mf, mn) = (mean(&fast), mean(&naive));
        t.row(&[
            w.name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            d.to_string(),
            f3(mf),
            f3(mn),
            f3(mn / mf),
        ]);
    }
    t.emit();
    println!("Theorem 4.1 predicts the fast algorithm's advantage grows with m*D.\n");

    let samples: u64 = if quick { 300 } else { 1000 };
    let mut t = Table::new(
        "E9b RST uniformity (chi-square vs enumerated trees)",
        &[
            "graph", "trees", "mode", "samples", "chi2", "p-value", "verdict",
        ],
    );
    for (name, g) in [
        ("K4", drw_graph::generators::complete(4)),
        ("cycle6", drw_graph::generators::cycle(6)),
    ] {
        let tree_count = matrix_tree::spanning_tree_count(&g);
        for mode in [TreeMode::ExtendWalk, TreeMode::RestartPhases] {
            let req = TreeRequest {
                mode,
                ..TreeRequest::new(0)
            };
            let trees = parallel_trials(samples, 5000, |s| {
                Network::builder(&g)
                    .seed(s)
                    .build()
                    .run(Request::SpanningTree(req.clone()))
                    .expect("rst")
                    .into_tree()
                    .edges
            });
            let test = uniformity_test(&g, trees);
            let verdict = if test.passes(0.001) {
                "uniform"
            } else {
                "BIASED"
            };
            t.row(&[
                name.to_string(),
                tree_count.to_string(),
                format!("{mode:?}"),
                samples.to_string(),
                f3(test.statistic),
                format!("{:.2e}", test.p_value),
                verdict.to_string(),
            ]);
        }
    }
    t.emit();
    println!(
        "ExtendWalk must be uniform; RestartPhases demonstrates the paper-literal restart bias."
    );
}
