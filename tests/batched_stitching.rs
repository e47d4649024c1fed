//! Round-complexity acceptance and regression tests for the batched
//! Phase-2 scheduler (Theorem 2.8's `sqrt(k l D) + k` regime).
//!
//! The headline numbers measured here are recorded in EXPERIMENTS.md
//! (section E3b); the assertions guard against the scheduler silently
//! reverting to per-walk serialization.

use distributed_random_walks::prelude::*;
use drw_congest::EngineConfig;
use drw_core::{ShortWalksProtocol, StitchScheduler, StitchSetup, WalkState};
use drw_experiments::engine_config_from_env;

fn scaled_config(lambda_scale: f64) -> SingleWalkConfig {
    SingleWalkConfig {
        params: WalkParams {
            lambda_scale,
            eta: 1.0,
        },
        engine: engine_config_from_env(),
        ..SingleWalkConfig::default()
    }
}

/// `(total, Phase-2)` rounds of one `SINGLE-RANDOM-WALK` request per
/// source, served one after another on seeds `seed0, seed0 + 1, ...`.
fn serial_singles(
    g: &Graph,
    sources: &[usize],
    len: u64,
    cfg: &SingleWalkConfig,
    seed0: u64,
) -> (u64, u64) {
    let mut totals = (0, 0);
    for (&s, seed) in sources.iter().zip(seed0..) {
        let one = Network::builder(g)
            .config(cfg.clone())
            .seed(seed)
            .build()
            .run(Request::walk(s, len))
            .unwrap()
            .into_walk();
        totals.0 += one.rounds;
        totals.1 += one.rounds_stitch + one.rounds_tail;
    }
    totals
}

/// Regression: for k >= 8 on a 32x32 torus, one 8-walk request must use
/// strictly fewer Phase-2 rounds than eight one-walk requests served one
/// after another at the same scale.
#[test]
fn batched_phase2_beats_sequential_loop_on_torus32() {
    let g = generators::torus2d(32, 32);
    let cfg = scaled_config(0.25);
    let sources: Vec<usize> = (0..8).map(|i| (i * 131) % g.n()).collect();
    let len = 1024u64;

    let batched = Network::builder(&g)
        .config(cfg.clone())
        .seed(42)
        .build()
        .run(Request::many_walks(sources.clone(), len))
        .unwrap()
        .into_many_walks();
    assert!(!batched.used_naive_fallback && batched.stitches > 0);
    let (serial_rounds, serial_phase2) = serial_singles(&g, &sources, len, &cfg, 4200);
    assert!(
        batched.rounds_phase2 < serial_phase2,
        "batched Phase 2 ({}) must beat eight one-lane waves ({serial_phase2})",
        batched.rounds_phase2
    );
    assert!(
        batched.rounds < serial_rounds,
        "total rounds: batched {} vs serial {serial_rounds}",
        batched.rounds
    );
}

/// Acceptance: k = 16 walks of length 64 on the 32x32 torus complete in
/// measurably fewer CONGEST rounds than 16 sequential
/// `SINGLE-RANDOM-WALK` runs. At the default parameters `lambda_many`
/// exceeds `l`, so this exercises Theorem 2.8's `k + l` branch — all
/// 16 tokens walking simultaneously.
#[test]
fn k16_l64_on_torus32_beats_sixteen_single_walks() {
    let g = generators::torus2d(32, 32);
    let cfg = SingleWalkConfig {
        engine: engine_config_from_env(),
        ..SingleWalkConfig::default()
    };
    let sources: Vec<usize> = (0..16).map(|i| (i * 67) % g.n()).collect();

    let many = Network::builder(&g)
        .config(cfg.clone())
        .seed(7)
        .build()
        .run(Request::many_walks(sources.clone(), 64))
        .unwrap()
        .into_many_walks();
    let (singles, _) = serial_singles(&g, &sources, 64, &cfg, 700);
    assert!(
        2 * many.rounds < singles,
        "measurably fewer rounds required: batched {} vs {} for 16 sequential runs",
        many.rounds,
        singles
    );
}

/// The same k = 16, l = 64 workload forced into the *stitched* regime
/// (scaled-down lambda): batched Phase 2 stitches and still beats 16
/// sequential single-walk runs at the same scale.
#[test]
fn k16_l64_stitched_regime_beats_sixteen_single_walks() {
    let g = generators::torus2d(32, 32);
    let cfg = scaled_config(0.12);
    let sources: Vec<usize> = (0..16).map(|i| (i * 67) % g.n()).collect();

    let many = Network::builder(&g)
        .config(cfg.clone())
        .seed(9)
        .build()
        .run(Request::many_walks(sources.clone(), 64))
        .unwrap()
        .into_many_walks();
    assert!(!many.used_naive_fallback, "must stitch at this scale");
    assert!(many.stitches > 0);
    let (singles, _) = serial_singles(&g, &sources, 64, &cfg, 900);
    assert!(
        2 * many.rounds < singles,
        "stitched regime: batched {} vs {} for 16 sequential runs",
        many.rounds,
        singles
    );
}

/// The scheduler's reported `RunReport` is exactly the engine's bill
/// for its single multiplexed run — rounds and messages reconcile with
/// the runner's accumulators.
#[test]
fn scheduler_report_reconciles_with_runner_totals() {
    let g = generators::torus2d(8, 8);
    let mut runner = Runner::new(&g, EngineConfig::default(), 31);
    let mut state = WalkState::new(g.n());
    let mut p1 = ShortWalksProtocol::new(&mut state, vec![4; g.n()], 10, true);
    runner.run(&mut p1).unwrap();

    let setup = StitchSetup {
        lambda: 10,
        randomize_len: true,
        gmw_count: 16,
    };
    let mut sched = StitchScheduler::new(&setup);
    for i in 0..6 {
        sched.add_walk((i * 9) % g.n(), 300);
    }
    let rounds_before = runner.total_rounds();
    let messages_before = runner.total_messages();
    let out = sched.run(&mut runner, &mut state).unwrap();
    assert_eq!(out.report.rounds, runner.total_rounds() - rounds_before);
    assert_eq!(
        out.report.messages,
        runner.total_messages() - messages_before
    );
    assert_eq!(out.walks.len(), 6);
}
