//! Fixed-seed regression guard for the shared request drivers
//! (`drw_core::network::drivers`): `run_batch`, one-shot `run`, session
//! walks and a mixed multiplexed wave must keep reproducing golden
//! values to the byte, at the listed seeds. The
//! values were first captured from the hand-written loops the drivers
//! replaced (ISSUEs 9, 14, 20, 21, 22) and re-captured once, when
//! `SAMPLE-DESTINATION` became one echo (ISSUE 23): a different Phase-2
//! message schedule draws the reservoirs in a different order, so every
//! stitched sample moved (CHANGES.md has the old → new table); the two
//! one-shot mixing estimates, which never stitch, did not. The goldens
//! of waves that carry a *recorded* spec (trees, the churned session,
//! the mixed wave's visit digest, the walk served beside a tree phase)
//! were re-captured a second time when regeneration moved inside the
//! Phase-2 run (ISSUE 24): replay tokens now share edges with the
//! lane's own sweeps. They were re-captured a third time when each
//! segment's replay moved to the node that took it, running backwards:
//! replay tokens start earlier and take other edges, so the mixed
//! wave's plain lanes, which share its rounds, moved with it. Every
//! golden of a wave without a recorded spec reproduced unedited. Stitch
//! traces are hashed field by field (`segments_digest`), not by their
//! `Debug` text, so a digest moves only when a segment does. Every golden
//! that stitches was re-captured when the connector began to choose from
//! its own ledger and claim the walk by a flood (CHANGES.md has the
//! before → after table); the two one-shot mixing estimates, which never
//! stitch, did not move.

use distributed_random_walks::prelude::*;
use drw_congest::{FaultPlan, Runner};
use drw_core::{Segment, ShortWalksProtocol, StitchScheduler, StitchSetup, StitchSpec, WalkState};

/// A stable digest of a byte slice (FNV-1a, 64-bit): enough to pin a
/// spanning tree's exact edge set without listing 35 edges inline.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn tree_digest(edges: &[(usize, usize)]) -> u64 {
    let mut bytes = Vec::with_capacity(edges.len() * 16);
    for &(u, v) in edges {
        bytes.extend_from_slice(&(u as u64).to_le_bytes());
        bytes.extend_from_slice(&(v as u64).to_le_bytes());
    }
    fnv(&bytes)
}

/// The heterogeneous batch the golden values pin: every request kind,
/// plus a mid-batch `Mutate` barrier.
fn golden_batch(n: usize) -> Vec<Request> {
    vec![
        Request::walk(0, 512),
        Request::many_walks(vec![3, 8], 300),
        Request::spanning_tree(0),
        Request::mixing_probe(0, 64),
        Request::mutate(TopologyDelta::new().add_edge(0, 14)),
        Request::walk(n / 2, 256),
    ]
}

#[test]
fn run_batch_outputs_are_byte_identical_to_pre_refactor() {
    let g = drw_graph::generators::torus2d(6, 6);
    let mut net = Network::builder(&g).seed(31).build();
    let rs = net.run_batch(golden_batch(g.n())).expect("golden batch");
    assert_eq!(rs.len(), 6);

    let walk = rs[0].clone().into_walk();
    let many = rs[1].clone().into_many_walks();
    let tree = rs[2].clone().into_tree();
    let mix = rs[3].clone().into_mixing();
    let epoch = rs[4].clone().into_epoch();
    let walk2 = rs[5].clone().into_walk();

    // Seed 31, 6x6 torus. Any divergence means a
    // change of scheduling or randomness.
    assert_eq!(
        (walk.destination, walk.rounds, walk.stitches),
        (GOLDEN.walk_dest, GOLDEN.walk_rounds, GOLDEN.walk_stitches),
        "walk response drifted"
    );
    assert_eq!(
        (many.destinations.clone(), many.rounds, many.stitches),
        (
            GOLDEN.many_dests.to_vec(),
            GOLDEN.many_rounds,
            GOLDEN.many_stitches
        ),
        "many-walks response drifted"
    );
    assert_eq!(
        (tree_digest(&tree.edges), tree.rounds, tree.phases),
        (GOLDEN.tree_digest, GOLDEN.tree_rounds, GOLDEN.tree_phases),
        "spanning-tree response drifted"
    );
    assert_eq!(mix.probes.len(), 1);
    assert_eq!(
        (
            mix.probes[0].discrepancy.to_bits(),
            mix.probes[0].pass,
            mix.rounds
        ),
        (GOLDEN.mix_disc_bits, GOLDEN.mix_pass, GOLDEN.mix_rounds),
        "mixing response drifted"
    );
    assert_eq!((epoch.epoch, epoch.touched), (1, vec![0, 14]));
    assert_eq!(
        (walk2.destination, walk2.rounds),
        (GOLDEN.walk2_dest, GOLDEN.walk2_rounds),
        "post-barrier walk drifted"
    );
    assert_eq!(
        net.session_rounds(),
        GOLDEN.session_rounds,
        "shared session bill drifted"
    );
}

struct Golden {
    walk_dest: usize,
    walk_rounds: u64,
    walk_stitches: u64,
    many_dests: [usize; 2],
    many_rounds: u64,
    many_stitches: u64,
    tree_digest: u64,
    tree_rounds: u64,
    tree_phases: u32,
    mix_disc_bits: u64,
    mix_pass: bool,
    mix_rounds: u64,
    walk2_dest: usize,
    walk2_rounds: u64,
    session_rounds: u64,
}

const GOLDEN: Golden = Golden {
    walk_dest: 0,
    walk_rounds: 296,
    walk_stitches: 4,
    many_dests: [32, 30],
    many_rounds: 296,
    many_stitches: 6,
    tree_digest: 0xbe244e1142e08a60,
    tree_rounds: 464,
    tree_phases: 3,
    mix_disc_bits: 0x3ca0000000000000,
    mix_pass: false,
    mix_rounds: 344,
    walk2_dest: 20,
    walk2_rounds: 262,
    session_rounds: 781,
};

/// A digest of anything with a stable `Debug` form (probe lists,
/// visits): floats print their shortest round-trip decimal, so equal
/// digests mean equal bits.
fn debug_digest<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv(format!("{value:?}").as_bytes())
}

/// A digest of stitch traces, one per walk, over the fields a trace
/// means: each segment's connector, walk id, length, start position and
/// owner. A field added to `Segment` or a changed `Debug` form leaves it
/// alone.
fn segments_digest(walks: &[Vec<Segment>]) -> u64 {
    let mut bytes = Vec::new();
    for segs in walks {
        bytes.extend_from_slice(&(segs.len() as u64).to_le_bytes());
        for s in segs {
            for word in [
                s.connector as u64,
                u64::from(s.id.source),
                u64::from(s.id.seq),
                u64::from(s.len),
                s.start_pos,
                s.owner as u64,
            ] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
    fnv(&bytes)
}

fn one_shot_tree(mode: TreeMode) -> TreeSample {
    let g = drw_graph::generators::torus2d(6, 6);
    let mut net = Network::builder(&g).seed(31).build();
    net.run(Request::SpanningTree(TreeRequest {
        mode,
        initial_len: 8, // several doubling phases
        ..TreeRequest::new(0)
    }))
    .expect("golden tree")
    .into_tree()
}

fn one_shot_mixing(g: &Graph, seed: u64) -> MixingReport {
    let mut net = Network::builder(g).seed(seed).build();
    net.run(Request::MixingTime(MixingRequest {
        max_len: 512,
        ..MixingRequest::full_estimate(0)
    }))
    .expect("golden estimate")
    .into_mixing()
}

/// `(destination, rounds, segment digest)` of two consecutive session
/// walks, plus the session's round total.
fn two_session_walks() -> ([(usize, u64, u64); 2], u64) {
    let g = drw_graph::generators::torus2d(6, 6);
    let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 31).expect("session");
    let a = s.single_walk(0, 512).expect("first walk");
    let b = s.single_walk(a.destination, 512).expect("second walk");
    (
        [
            (a.destination, a.rounds, segments_digest(&[a.segments])),
            (b.destination, b.rounds, segments_digest(&[b.segments])),
        ],
        s.total_rounds(),
    )
}

/// One stitched (`l >= 2 * lambda`) many-walks request: `(destinations,
/// rounds, messages, digest of everything else)`.
fn one_shot_many() -> (Vec<usize>, u64, u64, u64) {
    let g = drw_graph::generators::torus2d(16, 16);
    let mut net = Network::builder(&g).seed(31).build();
    let m = net
        .run(Request::many_walks(vec![3, 8, 200, 77], 2048))
        .expect("golden cohort")
        .into_many_walks();
    let phases = [m.rounds_bfs, m.rounds_phase1, m.rounds_phase2];
    let stored = m.state.total_stored();
    let rest = (
        m.stitches,
        m.lambda,
        phases,
        segments_digest(&m.segments),
        m.connector_visits,
        stored,
    );
    (m.destinations, m.rounds, m.messages, debug_digest(&rest))
}

type TreeGolden = (u64, u32, u64, u64, u64, u64);

fn tree_tuple(t: &TreeSample) -> TreeGolden {
    (
        tree_digest(&t.edges),
        t.phases,
        t.attempts,
        t.cover_len,
        t.rounds,
        t.bfs_runs,
    )
}

type MixGolden = (u64, usize, u64, bool, u64);

fn mix_tuple(m: &MixingReport) -> MixGolden {
    (
        debug_digest(&m.probes),
        m.probes.len(),
        m.tau_estimate,
        m.converged,
        m.rounds,
    )
}

#[test]
fn one_shot_and_session_outputs_are_byte_identical_to_pre_refactor() {
    // Seed 31 on the 6x6 torus for trees and session walks; seeds 6 / 5
    // on C16 / K32 for the full mixing estimate.
    assert_eq!(
        tree_tuple(&one_shot_tree(TreeMode::ExtendWalk)),
        ONE_SHOT.tree_extend,
        "one-shot extend-mode tree drifted"
    );
    assert_eq!(
        tree_tuple(&one_shot_tree(TreeMode::RestartPhases)),
        ONE_SHOT.tree_restart,
        "one-shot restart-mode tree drifted"
    );
    assert_eq!(
        mix_tuple(&one_shot_mixing(&drw_graph::generators::cycle(16), 6)),
        ONE_SHOT.mix_c16,
        "one-shot mixing estimate on C16 drifted"
    );
    assert_eq!(
        mix_tuple(&one_shot_mixing(&drw_graph::generators::complete(32), 5)),
        ONE_SHOT.mix_k32,
        "one-shot mixing estimate on K32 drifted"
    );
    assert_eq!(
        two_session_walks(),
        (ONE_SHOT.session_walks, ONE_SHOT.session_total_rounds),
        "consecutive session walks drifted"
    );
    // Seed 31, 16x16 torus.
    let many = (vec![208, 243, 31, 144], 1522, 582_622, 0xfa90115ff2342c05);
    assert_eq!(one_shot_many(), many, "many-walks drifted");
}

/// `(edge digest, phases, attempts, cover_len, rounds, bfs_runs)` per
/// tree, `(probe digest, probes, tau, converged, rounds)` per estimate.
struct OneShotGolden {
    tree_extend: TreeGolden,
    tree_restart: TreeGolden,
    mix_c16: MixGolden,
    mix_k32: MixGolden,
    session_walks: [(usize, u64, u64); 2],
    session_total_rounds: u64,
}

const ONE_SHOT: OneShotGolden = OneShotGolden {
    tree_extend: (0x1d340f745005b3ae, 5, 5, 248, 193, 1),
    tree_restart: (0x752001273ee8b952, 6, 31, 256, 1069, 1),
    mix_c16: (0xb99e0d7c047865c3, 10, 512, false, 2129),
    mix_k32: (0xc87a7138c0308730, 1, 1, true, 14),
    session_walks: [(24, 197, 0xf26e31859b7a7f13), (31, 30, 0xcd4d26b5dfc1e5a3)],
    session_total_rounds: 234,
};

/// `(destinations, rounds, reissues, digest of segments + gmw_by_walk +
/// tail visits + connector visits)` of one mixed multiplexed wave.
type WaveGolden = (Vec<usize>, u64, u64, u64);

/// One `StitchScheduler` run of six lanes over a `side x side` torus
/// store: two plain stitched walks sharing a connector, a third of
/// another request, a pure tail (`len < 2 * lambda`), a forced-naive
/// walk and — with `record` — a recorded extension at an offset.
fn mixed_wave(side: usize, cfg: EngineConfig, record: bool) -> WaveGolden {
    let g = drw_graph::generators::torus2d(side, side);
    let n = g.n();
    let mut runner = Runner::new(&g, cfg, 31);
    let mut state = WalkState::new(n);
    let mut p1 = ShortWalksProtocol::new(&mut state, vec![2; n], 8, true);
    runner.run(&mut p1).expect("phase 1");
    let mut sched = StitchScheduler::new(&StitchSetup {
        lambda: 8,
        randomize_len: true,
        gmw_count: 8,
    });
    let spec = |req: u16, source: usize, len: u64| StitchSpec {
        source: source % n,
        len,
        pos_offset: 0,
        req,
        record: false,
        naive: false,
    };
    sched
        .add_spec(spec(0, 0, 200))
        .add_spec(spec(0, 0, 160))
        .add_spec(spec(1, 77, 120))
        .add_spec(spec(2, 5, 9))
        .add_spec(StitchSpec {
            naive: true,
            ..spec(3, 130, 64)
        })
        .add_spec(StitchSpec {
            record,
            pos_offset: 40,
            ..spec(4, 200, 150)
        });
    let out = sched.run(&mut runner, &mut state).expect("mixed wave");
    let visits = state.drain_visits();
    let segments: Vec<_> = out.walks.iter().map(|w| w.segments.clone()).collect();
    (
        out.walks.iter().map(|w| w.destination).collect(),
        out.report.rounds,
        out.reissues,
        debug_digest(&(
            segments_digest(&segments),
            &out.gmw_by_walk,
            visits,
            &out.connector_visits,
        )),
    )
}

#[test]
fn mixed_wave_outputs_are_byte_identical_to_the_dense_lane_table() {
    // Seed 31; the connector visits are digested as the non-zero
    // `(node, count)` pairs.
    let golden: WaveGolden = (vec![134, 547, 95, 8, 388, 732], 88, 0, 0x575d722968d0c576);
    let wave = mixed_wave(32, EngineConfig::default(), true);
    assert_eq!(wave, golden, "mixed wave drifted");

    // The lossy re-issue path: fail-silent 0.1 % drops on a 4x4 torus
    // (a recorded walk cannot be re-issued, so that lane runs plain).
    let lossy = EngineConfig::default().with_faults(FaultPlan::drops(3, 1).lossy());
    let reissued = mixed_wave(4, lossy, false);
    assert_eq!(
        reissued,
        (vec![15, 2, 0, 14, 5, 10], 257, 1, 0xcf48e0cf15ce9e96),
        "lossy re-issued mixed wave drifted"
    );
}

/// One shared recorded session under churn: trees, walks and a cohort
/// around three `Mutate` barriers, with an 8192-step walk in the middle
/// that upgrades the store regime — every way a stored walk dies
/// (consumed, evicted, discarded), so both reclaim sites fire. Digests
/// everything a caller sees except walk identities (sequence numbers
/// restart at a reclaim), plus the session's round total.
fn churned_recorded_batch() -> (u64, u64) {
    let g = drw_graph::generators::torus2d(6, 6);
    let mut net = Network::builder(&g).seed(47).build();
    let batch = vec![
        Request::spanning_tree(0),
        Request::walk(5, 256),
        Request::mutate(TopologyDelta::new().add_edge(0, 14)),
        Request::spanning_tree(7),
        Request::walk(3, 8192),
        Request::many_walks(vec![1, 20, 33], 512),
        Request::mutate(TopologyDelta::new().remove_edge(0, 14)),
        Request::spanning_tree(21),
        Request::walk(9, 2048),
        Request::mutate(TopologyDelta::new().add_edge(2, 16)),
        Request::spanning_tree(30),
        Request::walk(30, 1024),
    ];
    let rows: Vec<String> = net
        .run_batch(batch)
        .expect("churned batch")
        .into_iter()
        .map(|r| match r {
            Response::SpanningTree(t) => format!("{:?}", tree_tuple(&t)),
            Response::Walk(w) => format!("{:?}", (w.destination, w.rounds, w.stitches)),
            Response::ManyWalks(m) => format!("{:?}", (m.destinations, m.rounds, m.stitches)),
            Response::Epoch(e) => format!("{:?}", (e.epoch, e.touched)),
            other => panic!("unexpected response {other:?}"),
        })
        .collect();
    (debug_digest(&rows), net.session_rounds())
}

#[test]
fn churned_recorded_session_is_byte_identical_to_unreclaimed_logs() {
    // Seed 47, 6x6 torus. (Logs that keep every entry for the life of
    // the session give the same values: a reclaim is invisible.)
    let golden = (0xeb07c6c220b5e6e6, 3405);
    assert_eq!(churned_recorded_batch(), golden, "churned session drifted");
}
