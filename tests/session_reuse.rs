//! ISSUE 3 acceptance: session reuse is measured and wins.
//!
//! - On the 32x32 torus, `estimate_mixing_time` — every probe riding
//!   one private `WalkSession` — must cost >= 25% fewer total rounds
//!   than serving the same probe cohorts one-shot, each paying its own
//!   BFS and Phase 1 (in a stitched-regime configuration, so the probes
//!   actually exercise Phase 1).
//! - `distributed_rst` must perform exactly one BFS per call, across a
//!   multi-phase doubling run.
//! - Statistical conformance is preserved, checked against the exact
//!   references: session-backed RST trees are uniform over the
//!   enumerated tree set (`drw_spanning::uniformity_test`), and session
//!   mixing verdicts are the ones the exact walk distribution dictates
//!   (`drw_mixing::ground_truth`).
//!
//! The rebuild baselines are composed here from one-shot requests
//! (`drw_experiments::one_shot_rounds`); `drw-core` itself has one
//! driver per request kind and no rebuild path.
//!
//! `DRW_FAULTS` selects the transport, so the CI matrix runs this over
//! a perfect and a lossy ARQ-healed network.

use distributed_random_walks::prelude::*;
use drw_experiments::{engine_config_from_env, one_shot_rounds};
use drw_mixing::ground_truth::exact_tau_mix;
use drw_mixing::MixingConfig as Mix;
use drw_spanning::distributed::{RstConfig as Rst, RstMode};

fn walk_cfg() -> SingleWalkConfig {
    SingleWalkConfig {
        engine: engine_config_from_env(),
        ..SingleWalkConfig::default()
    }
}

/// The stitched-regime mixing configuration of experiment E12:
/// `lambda_scale 0.15` keeps the long probes out of the `k + l`
/// fallback (so they exercise Phase 1), `eta = 2` provisions the
/// shared store for `k = 8*sqrt(n)` contending walks, and the tight
/// l2 threshold makes the bipartite 32x32 torus's cap-scan verdicts
/// deterministic (no spurious collision-noise passes).
fn stitched_mixing_cfg() -> Mix {
    Mix {
        l2_threshold: 0.1,
        max_len: 1 << 12,
        walk: SingleWalkConfig {
            params: WalkParams {
                lambda_scale: 0.15,
                eta: 2.0,
            },
            ..walk_cfg()
        },
        ..Mix::default()
    }
}

#[test]
fn mixing_session_drops_rounds_by_a_quarter_on_the_torus() {
    let g = generators::torus2d(32, 32);
    let cfg = stitched_mixing_cfg();
    let s = estimate_mixing_time(&g, 0, &cfg, 900).expect("session estimate");
    // The rebuild baseline: the same probe cohorts, each served one-shot
    // (walks only — the session's bill additionally carries the setup
    // and the per-probe upcasts, so the comparison is conservative).
    let rebuild = one_shot_rounds(
        &g,
        &cfg.walk,
        900,
        s.probes
            .iter()
            .map(|p| Request::many_walks(vec![0; s.samples_per_probe], p.len)),
    );
    // The acceptance bar: >= 25% fewer rounds with the session.
    assert!(
        4 * s.rounds <= 3 * rebuild,
        "session {} rounds vs rebuild {rebuild} — drop below 25%",
        s.rounds
    );
    // Verdicts are the exact ones: the even torus is bipartite, so the
    // simple walk never mixes — the estimator must march the doubling
    // schedule to the cap and fail every probe.
    assert_eq!(exact_tau_mix(&g, 0, cfg.max_len as usize), None);
    assert!(!s.converged);
    assert_eq!(s.tau_estimate, cfg.max_len);
    let lens: Vec<u64> = s.probes.iter().map(|p| p.len).collect();
    let doubling: Vec<u64> = (0..=12).map(|i| 1u64 << i).collect();
    assert_eq!(lens, doubling, "cap scan must probe 1, 2, 4, ..., 4096");
    assert!(s.probes.iter().all(|p| !p.pass));
}

#[test]
fn rst_session_pays_one_bfs_across_many_phases() {
    let g = generators::torus2d(8, 8);
    let cfg = Rst {
        walk: walk_cfg(),
        initial_len: 4, // force a long doubling loop
        ..Rst::default()
    };
    for seed in 0..3u64 {
        let s = distributed_rst(&g, 0, &cfg, 60 + seed).expect("session rst");
        assert!(s.phases >= 4, "initial_len 4 must take several phases");
        assert_eq!(s.bfs_runs, 1, "exactly one BFS per RST call");
        assert!(drw_graph::matrix_tree::is_spanning_tree(&g, &s.edges));
    }
}

#[test]
fn session_rst_is_uniform_on_the_cycle() {
    // On C5 every spanning tree is "drop one edge": chi-square the
    // session sampler's trees against uniform over the enumerated tree
    // set (the K4 exact-uniform chi-square lives in drw-spanning's
    // tests).
    let g = generators::cycle(5);
    let cfg = Rst {
        walk: walk_cfg(),
        ..Rst::default()
    };
    let samples = (0..300u64).map(|seed| {
        distributed_rst(&g, 0, &cfg, 4000 + seed)
            .expect("rst")
            .edges
    });
    let t = drw_spanning::uniformity_test(&g, samples);
    assert!(t.passes(0.001), "{t:?}");
}

#[test]
fn restart_mode_works_over_a_session() {
    // The paper-literal ablation still runs (and still restarts) on the
    // shared store.
    let g = generators::torus2d(4, 4);
    let cfg = Rst {
        walk: walk_cfg(),
        mode: RstMode::RestartPhases,
        ..Rst::default()
    };
    let r = distributed_rst(&g, 0, &cfg, 77).expect("restart rst");
    assert!(drw_graph::matrix_tree::is_spanning_tree(&g, &r.edges));
    assert_eq!(r.bfs_runs, 1);
}

#[test]
fn mixing_session_verdicts_match_exact_at_fixed_seeds() {
    // Decisive graphs: the full PASS/FAIL sequence must be the one the
    // exact walk distribution dictates — PASS exactly from the exact
    // mixing time on, never on a bipartite graph.
    for (g, seed) in [
        (generators::complete(32), 5u64),
        (generators::cycle(16), 6u64),
    ] {
        let cfg = Mix {
            max_len: 512,
            walk: walk_cfg(),
            ..Mix::default()
        };
        let s = estimate_mixing_time(&g, 0, &cfg, seed).expect("session");
        let exact = exact_tau_mix(&g, 0, 512);
        assert_eq!(s.converged, exact.is_some());
        assert_eq!(s.tau_estimate, exact.unwrap_or(512));
        for p in &s.probes {
            assert_eq!(p.pass, exact.is_some_and(|tau| p.len >= tau), "{p:?}");
        }
    }
}

/// `(forwarding-log entries, steps of the stored replayable walks)`,
/// network-wide.
fn log_census(s: &WalkSession) -> (usize, usize) {
    let stored = s.state().nodes.iter().flat_map(|ns| &ns.store);
    let steps = stored.filter(|w| w.replayable).map(|w| w.len as usize);
    (s.state().forward_entries(), steps.sum())
}

#[test]
fn a_reclaim_leaves_exactly_the_stored_walks_steps_in_the_logs() {
    // A walk of `len` steps is logged once per step (its source logs
    // step 0, its endpoint nothing), so right after a reclaim that ran
    // the logs hold exactly the live store's steps — no dead entry
    // kept, no live one lost. The healed transport of `DRW_FAULTS`
    // delivers every token exactly once (ARQ retransmits below the
    // protocol), so equality, not `<=`, holds on that leg too.
    let topo = Topology::new(generators::torus2d(8, 8));
    let mut s = WalkSession::attach(&topo, 0, &walk_cfg(), 41).expect("session");
    let mut at = 0;
    for _ in 0..6 {
        at = s.single_walk(at, 1024).expect("walk").destination;
    }
    let (logged, live) = log_census(&s);
    assert!(logged > live, "consumed walks stay logged until a reclaim");

    // Repair site: eviction kills most of the store, so the pass runs.
    let _ = topo.apply(&TopologyDelta::new().add_edge(0, 27)).unwrap();
    let evicted = s.sync().expect("repair").walks_evicted;
    let (logged, live) = log_census(&s);
    assert!(evicted > 0 && live > 0, "surgical eviction, survivors left");
    assert_eq!(logged, live, "after the repair's reclaim");

    // Top-up site: a regime upgrade discards the whole store just
    // before the launch (the regime names a walk long enough that the
    // relaunch pays for itself). The wave's only walk is a forced-naive
    // hop, so nothing is consumed and the launch is all the logs hold.
    let hop = drw_core::StitchSpec {
        naive: true,
        ..drw_core::StitchSpec::plain(at, 1)
    };
    let lambda = 4 * s.store_lambda();
    let wave = s
        .run_wave(lambda, 64 * u64::from(lambda), &[hop])
        .expect("wave");
    assert!(wave.rounds_topup > 0 && s.walks_discarded() > 0);
    assert_eq!(s.store_lambda(), lambda, "the wave upgraded the regime");
    let (logged, live) = log_census(&s);
    assert_eq!(logged, live, "after the top-up's reclaim and launch");
}
