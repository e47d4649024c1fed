//! E16: fault injection and self-healing (the PR-7 tentpole workload).
//!
//! One seeded, ARQ-healed [`FaultPlan`] per drop rate in
//! {0, 1%, 5%, 10%}, applied to every algorithm on the 32x32 torus:
//! `SINGLE-RANDOM-WALK`, batched `MANY-RANDOM-WALKS` (served through a
//! `Network` session so the fault ledger is visible), the random
//! spanning tree, and the mixing-time estimator. Reported per rate:
//! rounds, round overhead vs the fault-free baseline, drop/ack volume,
//! and the *verdict* — is the tree still a spanning tree, does the
//! mixing verdict match the fault-free run, do walk endpoints still
//! chi-square against the exact `P^l` law.
//!
//! The claim being quantified: healed faults cost rounds, never
//! correctness — overhead grows smoothly with the drop rate (~1.2x at
//! 5%) while every verdict stays identical to the fault-free run.
//!
//! Acceptance (ISSUE 7, full run only): at 5% drop the RST is a valid
//! spanning tree, the mixing verdict matches the fault-free verdict,
//! the endpoint chi-square has p >= 0.01, and every round overhead is
//! <= 2.5x.

use drw_congest::FaultPlan;
use drw_core::exact::exact_distribution;
use drw_core::{Network, Request};
use drw_experiments::{table::f3, walk_config_from_env, workloads, Table};
use drw_graph::matrix_tree;
use drw_mixing::{estimate_mixing_time, MixingConfig};
use drw_spanning::{distributed_rst, RstConfig};
use drw_stats::chi2::chi_square_against_probs;

/// Drop rates under test, in per-mille.
const RATES: [u16; 4] = [0, 10, 50, 100];

/// The acceptance bound on round overhead at 5% drop.
const MAX_OVERHEAD: f64 = 2.5;

fn overhead(rounds: u64, base: u64) -> f64 {
    rounds as f64 / base.max(1) as f64
}

#[allow(clippy::too_many_lines)]
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let side = if quick { 16 } else { 32 };
    let w = workloads::torus(side);
    let g = &w.graph;
    let walk_len: u64 = if quick { 1024 } else { 4096 };

    let mut cfg = walk_config_from_env();
    cfg.params.lambda_scale = 0.25;
    cfg.params.eta = 1.0;
    // The strict mixing configuration of the fault-tolerance suite: on
    // the bipartite torus the estimator's stable verdict is
    // "not converged at the cap", and parity means the faulty run says
    // exactly the same.
    let mixing_cfg = MixingConfig {
        samples_scale: 8.0,
        max_len: 1 << 12,
        threshold: 0.12,
        l2_threshold: 0.3,
        walk: cfg.clone(),
        ..MixingConfig::default()
    };

    let mut t = Table::new(
        &format!(
            "E16 fault overhead on the {side}x{side} {}: rounds and verdicts vs uniform \
             ARQ-healed drop rate",
            w.name
        ),
        &[
            "drop", "workload", "rounds", "overhead", "dropped", "retx", "verdict",
        ],
    );

    // Baselines at rate 0, filled on the first iteration.
    let mut base_rounds: Vec<u64> = Vec::new();
    let mut base_mix_verdict: Option<(bool, u64)> = None;
    let mut all_ok = true;

    for (ri, &rate) in RATES.iter().enumerate() {
        let plan = FaultPlan::drops(1 + ri as u64, rate);
        let faulty_cfg = drw_core::SingleWalkConfig {
            engine: cfg.engine.clone().with_faults(plan),
            ..cfg.clone()
        };
        let pct = format!("{:.0}%", f64::from(rate) / 10.0);
        let mut rounds_this_rate: Vec<u64> = Vec::new();

        // SINGLE-RANDOM-WALK.
        let sw = drw_core::single_random_walk(g, 0, walk_len, &faulty_cfg, 7).expect("single walk");
        rounds_this_rate.push(sw.rounds);
        let base = *base_rounds.first().unwrap_or(&sw.rounds);
        t.row(&[
            pct.clone(),
            format!("single(l={walk_len})"),
            format!("{}", sw.rounds),
            f3(overhead(sw.rounds, base)),
            "-".into(),
            "-".into(),
            format!("dest {}", sw.destination),
        ]);

        // Batched MANY-RANDOM-WALKS through a Network session: the one
        // workload where the session's fault ledger is visible.
        let sources: Vec<usize> = (0..8).map(|i| (i * 131) % g.n()).collect();
        let mut net = Network::builder(g)
            .config(faulty_cfg.clone())
            .seed(1600 + ri as u64)
            .build();
        let before = net.session_rounds();
        let served = net
            .run_batch(vec![Request::many_walks(sources.clone(), 256)])
            .expect("batched many walks")
            .remove(0)
            .into_many_walks();
        assert!(!served.used_naive_fallback);
        let session_rounds = net.session_rounds() - before;
        let faults = net.session().expect("session exists").total_faults();
        rounds_this_rate.push(session_rounds);
        let base = *base_rounds.get(1).unwrap_or(&session_rounds);
        t.row(&[
            pct.clone(),
            "many(k=8,l=256)".into(),
            format!("{session_rounds}"),
            f3(overhead(session_rounds, base)),
            format!("{}", faults.dropped),
            format!("{}", faults.retransmitted),
            if faults.dropped == faults.retransmitted {
                "ledger balanced".into()
            } else {
                all_ok = false;
                "LEDGER IMBALANCE".to_string()
            },
        ]);

        // Random spanning tree: validity is the verdict.
        let rst_cfg = RstConfig {
            walk: faulty_cfg.clone(),
            ..RstConfig::default()
        };
        let rst = distributed_rst(g, 0, &rst_cfg, 31).expect("RST");
        let valid = matrix_tree::is_spanning_tree(g, &rst.edges);
        all_ok &= valid;
        rounds_this_rate.push(rst.rounds);
        let base = *base_rounds.get(2).unwrap_or(&rst.rounds);
        t.row(&[
            pct.clone(),
            "rst".into(),
            format!("{}", rst.rounds),
            f3(overhead(rst.rounds, base)),
            "-".into(),
            "-".into(),
            if valid { "valid tree" } else { "NOT A TREE" }.into(),
        ]);

        // Mixing estimator: verdict parity with the fault-free run.
        let mcfg = MixingConfig {
            walk: faulty_cfg.clone(),
            ..mixing_cfg.clone()
        };
        let mix = estimate_mixing_time(g, 0, &mcfg, 3).expect("mixing");
        rounds_this_rate.push(mix.rounds);
        let base = *base_rounds.get(3).unwrap_or(&mix.rounds);
        let verdict = (mix.converged, mix.tau_estimate);
        let parity = base_mix_verdict.is_none_or(|b| b == verdict);
        all_ok &= parity;
        t.row(&[
            pct.clone(),
            "mixing".into(),
            format!("{}", mix.rounds),
            f3(overhead(mix.rounds, base)),
            "-".into(),
            "-".into(),
            format!(
                "conv={} tau={}{}",
                mix.converged,
                mix.tau_estimate,
                if parity { "" } else { " PARITY BROKEN" }
            ),
        ]);

        if ri == 0 {
            base_rounds = rounds_this_rate.clone();
            base_mix_verdict = Some(verdict);
        }
        if !quick && rate == 50 {
            assert!(valid, "acceptance failed: RST invalid at 5% drop");
            assert!(
                parity,
                "acceptance failed: mixing verdict flipped at 5% drop"
            );
            for (i, (&r, &b)) in rounds_this_rate.iter().zip(&base_rounds).enumerate() {
                let ratio = overhead(r, b);
                assert!(
                    ratio <= MAX_OVERHEAD,
                    "acceptance failed: workload {i} overhead {ratio:.2}x at 5% drop"
                );
            }
        }
    }
    t.emit();

    // Endpoint conformance vs drop rate: chi-square against the exact
    // P^l law, by torus row (cells stay well populated).
    let mut t2 = Table::new(
        &format!("E16 endpoint conformance on the {side}x{side} torus vs drop rate"),
        &["drop", "samples", "cells", "chi2", "p-value", "verdict"],
    );
    let conf_len: u64 = 256;
    // Quick mode still needs 128 samples so the per-row expected count
    // (8) clears the chi-square pooling threshold of 5 — fewer trials
    // pool every cell and the test degenerates to p = 1.
    let trials: u64 = if quick { 8 } else { 24 };
    let conf_sources = vec![0usize; 16];
    let probs = exact_distribution(g, 0, conf_len);
    let mut row_probs = vec![0f64; side];
    for (v, p) in probs.iter().enumerate() {
        row_probs[v / side] += p;
    }
    for (ri, &rate) in RATES.iter().enumerate() {
        let plan = FaultPlan::drops(21 + ri as u64, rate);
        let faulty_cfg = drw_core::SingleWalkConfig {
            engine: cfg.engine.clone().with_faults(plan),
            ..cfg.clone()
        };
        let mut row_counts = vec![0u64; side];
        for s in 0..trials {
            let r = drw_core::many_random_walks(g, &conf_sources, conf_len, &faulty_cfg, 9000 + s)
                .expect("conformance walks");
            assert!(!r.used_naive_fallback);
            for &d in &r.destinations {
                row_counts[d / side] += 1;
            }
        }
        let test = chi_square_against_probs(&row_counts, &row_probs);
        let pass = test.passes(0.01);
        t2.row(&[
            format!("{:.0}%", f64::from(rate) / 10.0),
            format!("{}", trials * conf_sources.len() as u64),
            format!("{side}"),
            f3(test.statistic),
            f3(test.p_value),
            if pass { "PASS" } else { "FAIL" }.into(),
        ]);
        if !quick && rate == 50 {
            assert!(
                pass,
                "acceptance failed: endpoint chi-square p = {} < 0.01 at 5% drop",
                test.p_value
            );
        }
    }
    t2.emit();

    assert!(all_ok || quick, "verdict parity broken (see table)");
    println!(
        "E16 verdicts: {}{}",
        if all_ok {
            "all parity"
        } else {
            "PARITY BROKEN"
        },
        if quick {
            " (16x16 smoke; acceptance bars apply to the full 32x32 run)"
        } else {
            ""
        }
    );
}
