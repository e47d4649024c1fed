//! E5 (Lemmas 2.4 and 2.7): randomized short-walk lengths spread
//! connector points; fixed lengths pile them up on periodic structures.
//!
//! Two parts:
//! 1. connector-visit maxima on a cycle (the periodic worst case) with
//!    fixed vs randomized lengths — the heart of Lemma 2.7;
//! 2. chi-square uniformity of sampled short-walk lengths over
//!    `[lambda, 2*lambda - 1]`, both from Phase 1 and from the
//!    reservoir-sampled `GET-MORE-WALKS` (Lemma 2.4).

use drw_congest::{run_protocol, Runner};
use drw_core::short_walks::ShortWalksProtocol;
use drw_core::visit_stats::connector_counts;
use drw_core::{StitchScheduler, StitchSetup, WalkState};
use drw_experiments::{engine_config_from_env, mean, parallel_trials, table::f3, workloads, Table};
use drw_stats::chi_square_uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials: u64 = if quick { 5 } else { 20 };

    // Part 1: connector spread (Lemma 2.7).
    let mut t = Table::new(
        "E5a connector max-visits: fixed vs randomized lengths",
        &[
            "graph",
            "lambda",
            "l",
            "max fixed",
            "max randomized",
            "ratio",
        ],
    );
    for (w, lambda, len) in [
        (workloads::odd_cycle(64), 8u32, 1u64 << 14),
        (workloads::torus(8), 8, 1 << 14),
    ] {
        let g = &w.graph;
        let fixed = parallel_trials(trials, 70, |s| {
            let mut rng = StdRng::seed_from_u64(s);
            *connector_counts(g, 0, len, lambda, false, &mut rng)
                .iter()
                .max()
                .unwrap() as f64
        });
        let random = parallel_trials(trials, 90, |s| {
            let mut rng = StdRng::seed_from_u64(s);
            *connector_counts(g, 0, len, lambda, true, &mut rng)
                .iter()
                .max()
                .unwrap() as f64
        });
        let (mf, mr) = (mean(&fixed), mean(&random));
        t.row(&[
            w.name.to_string(),
            lambda.to_string(),
            len.to_string(),
            f3(mf),
            f3(mr),
            f3(mf / mr),
        ]);
    }
    t.emit();

    // Part 2: length uniformity (Lemma 2.4).
    let mut t = Table::new(
        "E5b short-walk length uniformity over [lambda, 2*lambda-1]",
        &["source", "lambda", "samples", "chi2", "p-value"],
    );
    let g = drw_graph::generators::complete(16);
    let lambda = 8u32;
    for source in ["phase1", "gmw-reservoir"] {
        let mut state = WalkState::new(g.n());
        match source {
            "phase1" => {
                let mut p = ShortWalksProtocol::new(&mut state, vec![300; g.n()], lambda, true);
                run_protocol(&g, &engine_config_from_env(), 1, &mut p).unwrap();
            }
            _ => {
                // One 2*lambda-step walk over the empty store: its only
                // stitch replenishes with 4801 aggregated walks and
                // consumes one, leaving 4800 to tabulate.
                let mut sched = StitchScheduler::new(&StitchSetup {
                    lambda,
                    randomize_len: true,
                    aggregated_gmw: true,
                    gmw_count: 4801,
                    record: false,
                });
                sched.add_walk(0, 2 * u64::from(lambda));
                let mut runner = Runner::new(&g, engine_config_from_env(), 2);
                sched.run(&mut runner, &mut state).unwrap();
            }
        }
        let mut counts = vec![0u64; lambda as usize];
        for ns in &state.nodes {
            for wk in &ns.store {
                counts[(wk.len - lambda) as usize] += 1;
            }
        }
        let test = chi_square_uniform(&counts);
        t.row(&[
            source.to_string(),
            lambda.to_string(),
            counts.iter().sum::<u64>().to_string(),
            f3(test.statistic),
            f3(test.p_value),
        ]);
    }
    t.emit();
    println!("Lemma 2.7 predicts ratio >> 1 on the cycle; Lemma 2.4 predicts p-values above any small alpha.");
}
