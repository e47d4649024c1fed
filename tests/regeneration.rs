//! Regeneration rides the Phase-2 wave (ISSUE 24): a recorded walk's
//! stitched segments are replayed inside the run that stitches them, the
//! connector learning *which* of its walks was taken by message. Every
//! case below demands the same thing of a recorded wave — each position
//! of `(pos_offset, pos_offset + len]` visited exactly once, chaining
//! over graph edges from the source to the reported destination — over
//! the situations that notify the connector differently. (The planted
//! bugs — a dropped `Taken`, a `prev` honoured twice — live beside the
//! protocol, in `stitch_scheduler.rs`.)

use drw_congest::{EngineConfig, FaultPlan, Runner};
use drw_core::{
    BatchedStitchOutcome, ShortWalksProtocol, SingleWalkConfig, StitchScheduler, StitchSetup,
    StitchSpec, Visit, WalkId, WalkSession, WalkState,
};
use drw_graph::{generators, Graph, NodeId};
use rand::SeedableRng;

const LAMBDA: u32 = 6;

fn graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(24);
    let regular = generators::random_regular(40, 4, &mut rng);
    assert!(drw_graph::traversal::is_connected(&regular));
    vec![("torus", generators::torus2d(6, 6)), ("4-regular", regular)]
}

/// A Phase-1 store: `per_node` short walks from every node.
fn store(g: &Graph, cfg: &EngineConfig, per_node: usize, seed: u64) -> WalkState {
    let mut state = WalkState::new(g.n());
    if per_node > 0 {
        let mut runner = Runner::new(g, cfg.clone(), seed);
        let mut p1 = ShortWalksProtocol::new(&mut state, vec![per_node; g.n()], LAMBDA, true);
        runner.run(&mut p1).expect("phase 1");
    }
    state
}

/// One recorded walk over `state`, standing at `pos_offset`.
fn recorded_wave(
    g: &Graph,
    cfg: &EngineConfig,
    state: &mut WalkState,
    spec: (NodeId, u64, u64),
    seed: u64,
) -> (BatchedStitchOutcome, Vec<(NodeId, Visit)>) {
    let (source, len, pos_offset) = spec;
    let mut runner = Runner::new(g, cfg.clone(), seed);
    let mut sched = StitchScheduler::new(&StitchSetup {
        lambda: LAMBDA,
        randomize_len: true,
        aggregated_gmw: false,
        gmw_count: 4,
        record: false,
    });
    sched.add_spec(StitchSpec {
        pos_offset,
        record: true,
        ..StitchSpec::plain(source, len)
    });
    let out = sched.run(&mut runner, state).expect("recorded wave");
    (out, state.drain_visits())
}

/// The completeness law; returns the trajectory `source ..= destination`.
fn assert_complete(
    g: &Graph,
    spec: (NodeId, u64, u64),
    out: &BatchedStitchOutcome,
    visits: &[(NodeId, Visit)],
    tag: &str,
) -> Vec<NodeId> {
    let (source, len, pos_offset) = spec;
    let mut sorted = visits.to_vec();
    sorted.sort_unstable_by_key(|(_, v)| v.pos);
    let positions: Vec<u64> = sorted.iter().map(|(_, v)| v.pos).collect();
    let expected: Vec<u64> = (pos_offset + 1..=pos_offset + len).collect();
    assert_eq!(positions, expected, "{tag}: each position exactly once");
    let mut walk = vec![source];
    for (node, v) in &sorted {
        let at = *walk.last().expect("non-empty");
        assert_eq!(v.pred(), Some(at), "{tag}: pos {} chains", v.pos);
        assert!(g.has_edge(at, *node), "{tag}: non-edge {at}-{node}");
        walk.push(*node);
    }
    assert_eq!(*walk.last().expect("non-empty"), out.walks[0].destination);
    let stitched: u64 = out.walks[0].segments.iter().map(|s| u64::from(s.len)).sum();
    assert!(stitched <= len, "{tag}");
    walk
}

#[test]
fn recorded_waves_visit_every_position_once_on_stored_walks() {
    // Scanned over seeds until both notification shapes were seen with a
    // remote owner (`prev` on the next wave for every stitch but the
    // last, `Taken` for the last) and an owner that is its own connector.
    let cfg = drw_experiments::engine_config_from_env();
    for (name, g) in graphs() {
        let (mut remote_last, mut own_connector) = (false, false);
        for seed in 0..24u64 {
            let spec = (seed as usize % g.n(), 90 + seed, 1000 * seed);
            let mut state = store(&g, &cfg, 3, seed);
            let (out, visits) = recorded_wave(&g, &cfg, &mut state, spec, 100 + seed);
            let tag = format!("{name}, seed {seed}");
            assert_complete(&g, spec, &out, &visits, &tag);
            let segs = &out.walks[0].segments;
            assert!(segs.len() >= 3, "{tag}: {} stitches", segs.len());
            assert!(out.rounds_tail > 0, "{tag}: a tail follows the last stitch");
            assert!(segs.iter().all(|s| s.replayable));
            let last = segs.last().expect("stitched");
            remote_last |= last.owner != last.connector;
            own_connector |= segs.iter().any(|s| s.owner == s.connector);
        }
        assert!(remote_last && own_connector, "{name}: a shape went unseen");
    }
}

#[test]
fn a_last_stitch_that_consumes_the_walk_exactly_is_replayed_too() {
    // Stored walks are shorter than `2 * lambda`, so a stitch never ends
    // a walk — unless the store says otherwise: one hand-logged walk of
    // exactly the requested length, along row 0 of the torus and back.
    let g = generators::torus2d(6, 6);
    let cfg = drw_experiments::engine_config_from_env();
    let len = 2 * u64::from(LAMBDA);
    let path: Vec<NodeId> = vec![0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0];
    assert_eq!(path.len() as u64, len + 1);
    let mut state = WalkState::new(g.n());
    let id = WalkId { source: 0, seq: 9 };
    for (step, hop) in path.windows(2).enumerate() {
        let index = (0..g.degree(hop[0]))
            .find(|&i| g.neighbor_at(hop[0], i) == hop[1])
            .expect("row neighbours");
        state.nodes[hop[0]].log_forward_hop(id.source, id.seq, step as u32, index as u32);
    }
    state.store_walk(0, id, len as u32, true);
    let spec = (0, len, 77);
    let (out, visits) = recorded_wave(&g, &cfg, &mut state, spec, 5);
    assert_eq!((out.stitches, out.rounds_tail), (1, 0), "stitch, then done");
    assert_eq!(
        out.walks[0].segments[0].owner, 0,
        "owner and connector coincide"
    );
    let walk = assert_complete(&g, spec, &out, &visits, "exact stitch");
    assert_eq!(walk, path);
    // The walk landed with its stitch; every later round was replay.
    assert_eq!(out.rounds_replay, len);
}

#[test]
fn an_empty_store_replays_get_more_walks_segments() {
    // No Phase 1: every segment is a per-token `GET-MORE-WALKS` walk
    // launched, logged, taken and replayed within the one run.
    let cfg = drw_experiments::engine_config_from_env();
    for (name, g) in graphs() {
        for seed in 0..6u64 {
            let spec = (3, 80, 0);
            let mut state = WalkState::new(g.n());
            let (out, visits) = recorded_wave(&g, &cfg, &mut state, spec, 40 + seed);
            assert!(out.gmw_invocations >= 3, "{name}: store starts empty");
            assert_complete(&g, spec, &out, &visits, &format!("{name}, seed {seed}"));
        }
    }
}

#[test]
fn sequence_numbers_beyond_the_packed_log_budget_replay_identically() {
    // `ForwardLog` packs `seq` into 12 bits and boxes what does not fit;
    // the wire word `source:32 | seq:32` has no such edge. Start every
    // node's counter just below 2^12 so the walks of the first
    // `GET-MORE-WALKS` straddle it: the same run, from counter 0 and
    // from 4094, must visit the same nodes at the same positions.
    let g = generators::torus2d(6, 6);
    let cfg = EngineConfig::default();
    let spec = (3, 80, 500);
    let run = |first_seq: u32| {
        let mut state = WalkState::new(g.n());
        for ns in &mut state.nodes {
            ns.next_seq = first_seq;
        }
        recorded_wave(&g, &cfg, &mut state, spec, 41)
    };
    let (low, low_visits) = run(0);
    let (high, high_visits) = run(4094);
    assert_complete(&g, spec, &high, &high_visits, "seq across 2^12");
    assert_eq!(low_visits, high_visits);
    assert_eq!(low.report.rounds, high.report.rounds);
    let boxed = |out: &BatchedStitchOutcome| {
        let segs = &out.walks[0].segments;
        segs.iter().filter(|s| s.id.seq >= 1 << 12).count()
    };
    assert_eq!(boxed(&low), 0);
    assert!(boxed(&high) >= 2, "taken walks must sit in the boxed log");
}

#[test]
fn visits_are_identical_when_sharded_and_complete_under_faults() {
    let g = generators::torus2d(6, 6);
    let spec = (7, 150, 40);
    let run = |cfg: &EngineConfig| {
        let mut state = store(&g, cfg, 3, 9);
        let (out, visits) = recorded_wave(&g, cfg, &mut state, spec, 19);
        assert_complete(&g, spec, &out, &visits, "recorded wave");
        (
            visits,
            out.report.rounds,
            out.rounds_tail,
            out.rounds_replay,
        )
    };
    let reference = run(&EngineConfig::default());
    // The CI smoke plan (`DRW_FAULTS=smoke`): healed drops, delays and
    // reorders move rounds, never a visit out of place.
    let smoke = FaultPlan::drops(0xFA, 10)
        .with_delays(5, 2)
        .with_reorder(10);
    let _ = run(&EngineConfig::default().with_faults(smoke));
    // Replayed after the faulty run, the perfect one repeats exactly.
    assert_eq!(run(&EngineConfig::default()), reference);
}

#[test]
fn replay_is_at_most_a_tenth_of_a_trees_rounds() {
    // The doubling loop of the spanning-tree sampler on the benchmark's
    // graph: recorded extensions of n, 2n, 4n, ... steps until the walk
    // has covered the torus. Run after the wave, replay was 24 % of a
    // tree's rounds; riding it, only what outlasts each phase's landing
    // is left.
    let g = generators::torus2d(12, 12);
    let cfg = SingleWalkConfig {
        record_walk: true,
        ..SingleWalkConfig::default()
    };
    let mut session = WalkSession::new(&g, 0, &cfg, 11).expect("session");
    let d_est = u64::from(session.diameter_estimate());
    let mut seen = vec![false; g.n()];
    seen[0] = true;
    let (mut at, mut offset, mut len) = (0, 0u64, g.n() as u64);
    let (mut rounds, mut replay, mut phases) = (0u64, 0u64, 0);
    while seen.iter().any(|&s| !s) {
        let spec = StitchSpec {
            pos_offset: offset,
            record: true,
            ..StitchSpec::plain(at, len)
        };
        let lambda = cfg.params.lambda(len, d_est);
        let wave = session.run_wave(lambda, len, &[spec]).expect("phase");
        for (v, _) in &wave.walks[0].visits {
            seen[*v] = true;
        }
        rounds += wave.rounds;
        replay += wave.rounds_replay;
        at = wave.walks[0].destination;
        offset += len;
        len *= 2;
        phases += 1;
    }
    assert!(phases >= 2, "a 144-step walk does not cover the torus");
    assert!(
        10 * replay <= rounds,
        "replay {replay} of {rounds} rounds over {phases} phases"
    );
}
