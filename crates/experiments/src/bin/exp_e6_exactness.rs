//! E6 (Theorem 2.5, correctness half): SINGLE-RANDOM-WALK outputs a
//! *true* sample of the `l`-step walk distribution.
//!
//! Draws thousands of end-to-end distributed samples and chi-squares the
//! destination histogram against the exact distribution (computed by
//! matrix powering). Runs both the default and the fixed-length
//! (PODC'09-style) configuration — both are exact; only rounds differ.

use drw_core::{exact::exact_distribution, Network, Request, SingleWalkConfig};
use drw_experiments::{parallel_trials, table::f3, walk_config_from_env, workloads, Table};
use drw_stats::chi2::chi_square_against_probs;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples: u64 = if quick { 1500 } else { 6000 };

    let mut t = Table::new(
        "E6 exactness: destination histogram vs exact l-step distribution",
        &["graph", "l", "config", "samples", "chi2", "dof", "p-value"],
    );
    for (w, len) in [
        (workloads::torus(4), 64u64),
        (workloads::odd_cycle(9), 33),
        (workloads::lollipop(5, 4), 48),
    ] {
        let g = &w.graph;
        let probs = exact_distribution(g, 0, len);
        for (cfg_name, cfg) in [
            ("default", walk_config_from_env()),
            (
                "fixed-lengths",
                SingleWalkConfig {
                    randomize_len: false,
                    ..walk_config_from_env()
                },
            ),
        ] {
            let dests = parallel_trials(samples, 1_000_000, |s| {
                Network::builder(g)
                    .config(cfg.clone())
                    .seed(s)
                    .build()
                    .run(Request::walk(0, len))
                    .expect("walk")
                    .into_walk()
                    .destination
            });
            let mut counts = vec![0u64; g.n()];
            for d in dests {
                counts[d] += 1;
            }
            let test = chi_square_against_probs(&counts, &probs);
            t.row(&[
                w.name.to_string(),
                len.to_string(),
                cfg_name.to_string(),
                samples.to_string(),
                f3(test.statistic),
                test.dof.to_string(),
                f3(test.p_value),
            ]);
        }
    }
    t.emit();
    println!("Exactness (Las Vegas) predicts p-values above any small alpha in every row.");
}
