//! E12: session reuse (ISSUE 3's acceptance workload) — the doubling
//! loops of both applications over one persistent `WalkSession` vs
//! per-phase / per-probe rebuilds.
//!
//! `drw-core` drives each request kind exactly one way — over a
//! session — so the rebuild baselines are composed *here*, from
//! one-shot `Network::run` requests that each pay their own BFS and
//! full Phase 1 (`drw_experiments::one_shot_rounds`).
//!
//! **RST** (`distributed_rst`, extend mode): the session pays one BFS
//! and carries the Phase-1 store across doubling phases; the baseline
//! serves every phase's recorded walk one-shot. A small `initial_len`
//! forces many phases, which is exactly where the amortization shows.
//!
//! **Mixing** (`estimate_mixing_time`): a stitched-regime configuration
//! (`lambda_scale = 0.15`, `eta = 2`) so the long probes of the doubling
//! scan actually exercise Phase 1; the session tops the shared store up
//! only for the deficit, the baseline serves every probe's walk cohort
//! one-shot. Both baselines bill walks only (no cover checks, no
//! upcasts), so the ratios are conservative.
//!
//! Acceptance (ISSUE 3): on the 32x32 torus the session estimator's
//! total rounds drop >= 25% vs the rebuild baseline, and session RST
//! performs exactly one BFS per call.

use drw_core::{Request, WalkParams};
use drw_experiments::{one_shot_rounds, table::f3, walk_config_from_env, workloads, Table};
use drw_mixing::{estimate_mixing_time, MixingConfig};
use drw_spanning::{distributed_rst, RstConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let side = if quick { 16 } else { 32 };
    let trials: u64 = if quick { 1 } else { 3 };
    let w = workloads::torus(side);
    let g = &w.graph;

    // --- RST: session vs rebuild-per-phase ---------------------------
    let mut t1 = Table::new(
        &format!(
            "E12 RST doubling loop on {side}x{side} {} — session vs rebuild",
            w.name
        ),
        &[
            "mode",
            "rounds",
            "bfs runs",
            "phases",
            "attempts",
            "vs rebuild",
        ],
    );
    let rst_cfg = RstConfig {
        walk: walk_config_from_env(),
        // A deliberately small first guess so the doubling loop runs
        // several phases — the regime the session amortizes.
        initial_len: (g.n() / 8) as u64,
        ..RstConfig::default()
    };
    // Per trial: the session run, then its phases' walks served
    // one-shot (one BFS each, plus none for cover checks).
    let (mut rounds, mut phases, mut attempts, mut rebuild) = (0.0, 0.0, 0.0, 0.0);
    for s in 0..trials {
        let r = distributed_rst(g, 0, &rst_cfg, 500 + s).expect("rst");
        assert_eq!(r.bfs_runs, 1, "one BFS per session RST call");
        rounds += r.rounds as f64;
        phases += r.phases as f64;
        attempts += r.attempts as f64;
        rebuild += one_shot_rounds(
            g,
            &rst_cfg.walk,
            500 + s,
            (0..r.phases).map(|phase| Request::Walk {
                source: 0,
                len: rst_cfg.initial_len << phase,
                record: true,
            }),
        ) as f64;
    }
    let n = trials as f64;
    t1.row(&[
        "session".into(),
        f3(rounds / n),
        f3(1.0),
        f3(phases / n),
        f3(attempts / n),
        f3(rounds / rebuild.max(1.0)),
    ]);
    t1.row(&[
        "rebuild".into(),
        f3(rebuild / n),
        f3(attempts / n),
        f3(phases / n),
        f3(attempts / n),
        f3(1.0),
    ]);
    t1.emit();

    // --- Mixing: session vs rebuild-per-probe ------------------------
    let mut t2 = Table::new(
        &format!(
            "E12 mixing estimator on {side}x{side} {} — session vs rebuild",
            w.name
        ),
        &[
            "mode",
            "rounds",
            "probes",
            "tau",
            "max probe len",
            "vs rebuild",
        ],
    );
    // Stitched-regime configuration: lambda_scale 0.15 keeps the long
    // probes out of the `k + l` fallback (so they exercise Phase 1),
    // eta = 2 provisions the shared store for k = 8*sqrt(n) contending
    // walks, and the tight l2 threshold makes the bipartite torus's
    // cap-scan verdicts deterministic (no spurious collision-noise
    // passes).
    let mix_cfg = MixingConfig {
        l2_threshold: 0.1,
        max_len: 1 << 12,
        walk: drw_core::SingleWalkConfig {
            params: WalkParams {
                lambda_scale: 0.15,
                eta: 2.0,
            },
            ..walk_config_from_env()
        },
        ..MixingConfig::default()
    };
    let (mut rounds, mut probes, mut tau, mut max_len, mut rebuild) = (0.0, 0.0, 0.0, 0u64, 0.0);
    for s in 0..trials {
        let est = estimate_mixing_time(g, 0, &mix_cfg, 900 + s).expect("estimate");
        rounds += est.rounds as f64;
        probes += est.probes.len() as f64;
        tau += est.tau_estimate as f64;
        max_len = max_len.max(est.probes.iter().map(|p| p.len).max().unwrap_or(0));
        rebuild += one_shot_rounds(
            g,
            &mix_cfg.walk,
            900 + s,
            est.probes
                .iter()
                .map(|p| Request::many_walks(vec![0; est.samples_per_probe], p.len)),
        ) as f64;
    }
    let n = trials as f64;
    let ratio = rounds / rebuild.max(1.0);
    for (mode, mode_rounds, vs) in [("session", rounds, ratio), ("rebuild", rebuild, 1.0)] {
        t2.row(&[
            mode.into(),
            f3(mode_rounds / n),
            f3(probes / n),
            f3(tau / n),
            max_len.to_string(),
            f3(vs),
        ]);
    }
    t2.emit();

    println!(
        "session/rebuild mixing-round ratio: {}{}",
        f3(ratio),
        if quick {
            " (16x16 smoke; the >= 25% acceptance bar applies to the full 32x32 run)"
        } else {
            " (acceptance: <= 0.75)"
        }
    );
}
