//! Integration tests of the CONGEST model enforcement across the stack.

use distributed_random_walks::prelude::*;
use drw_congest::primitives::{BfsTreeProtocol, UpcastMsg, UpcastProtocol, VectorSumProtocol};
use drw_congest::{
    run_protocol, run_scripted, Ctx, Envelope, FaultPlan, Mux2, Protocol, RunError, Runner,
    ScriptedSchedule,
};
use drw_core::short_walks::ShortWalksProtocol;
use drw_core::{StitchScheduler, StitchSetup, StitchSpec, WalkState};

/// Naive walks cost exactly their length in rounds — the model's
/// baseline sanity anchor.
#[test]
fn naive_walk_rounds_equal_length() {
    let g = generators::torus2d(5, 5);
    for len in [1u64, 10, 321] {
        let (_, rounds) = naive_walk(&g, 0, len, 7).unwrap();
        assert_eq!(rounds, len);
    }
}

/// Bandwidth enforcement: a message wider than the configured word cap
/// aborts any protocol, including through the high-level drivers.
#[test]
fn oversized_messages_abort() {
    let g = generators::path(4);
    let cfg = EngineConfig {
        max_message_words: 2, // walk tokens need 4 words
        ..EngineConfig::default()
    };
    let mut state = WalkState::new(g.n());
    let mut p = ShortWalksProtocol::new(&mut state, vec![1; 4], 2, true);
    let err = run_protocol(&g, &cfg, 1, &mut p).unwrap_err();
    assert!(matches!(
        err,
        RunError::OversizedMessage { words: 4, cap: 2 }
    ));
}

/// The round cap surfaces as a walk error through the driver.
#[test]
fn round_cap_surfaces_through_drivers() {
    let g = generators::torus2d(4, 4);
    let engine = EngineConfig {
        max_rounds: 3,
        ..EngineConfig::default()
    };
    let err = Network::builder(&g)
        .engine(engine)
        .seed(1)
        .build()
        .run(Request::walk(0, 4096))
        .unwrap_err();
    assert!(matches!(
        err,
        DrwError::Walk(WalkError::Engine(RunError::MaxRoundsExceeded(3)))
    ));
}

/// Congestion (many tokens over few edges) shows up as extra rounds, not
/// as lost messages: all Phase-1 walks complete on a bottleneck graph.
#[test]
fn congestion_delays_but_never_drops() {
    let g = generators::barbell(6, 1); // single bridge edge bottleneck
    let mut state = WalkState::new(g.n());
    let counts: Vec<usize> = (0..g.n()).map(|v| 2 * g.degree(v)).collect();
    let total: usize = counts.iter().sum();
    let mut p = ShortWalksProtocol::new(&mut state, counts, 12, true);
    let report = run_protocol(&g, &EngineConfig::default(), 3, &mut p).unwrap();
    assert_eq!(state.total_stored(), total, "every token must land");
    // The bridge forces serialization: strictly more rounds than the
    // maximum walk length.
    assert!(report.rounds > 24, "rounds = {}", report.rounds);
    assert!(report.max_edge_backlog > 1);
}

// ---------------------------------------------------------------------------
// Per-protocol word accounting: `RunReport::max_edge_words_per_round`
// counts the words of each message's wire listing (`Message::encode`)
// as they cross an edge. At the default `edge_capacity = Some(1)` each
// directed edge delivers at most one message per round, so the recorded
// maximum must equal the protocol's wire-format width exactly — any
// widening of a message listing shows up here as a changed constant.
// ---------------------------------------------------------------------------

/// BFS wave messages are 2 words (`Option<u32>` distance + wave flag).
#[test]
fn bfs_edge_words_match_wire_format() {
    let g = generators::torus2d(6, 6);
    let cfg = EngineConfig::default();
    let mut p = BfsTreeProtocol::new(0);
    let report = run_protocol(&g, &cfg, 11, &mut p).unwrap();
    assert_eq!(report.max_edge_words_per_round, 2);
    assert!(report.max_edge_words_per_round <= cfg.max_message_words);
}

/// Upcast items are `(u64, u64)` pairs: 2 words per edge per round, one
/// item at a time up the tree (the pipelining is in time, not width).
#[test]
fn upcast_edge_words_match_wire_format() {
    let g = generators::torus2d(5, 5);
    let cfg = EngineConfig::default();
    let mut bfs = BfsTreeProtocol::new(0);
    run_protocol(&g, &cfg, 13, &mut bfs).unwrap();
    let tree = bfs.into_tree();
    let items: Vec<Vec<(u64, u64)>> = (0..g.n() as u64).map(|v| vec![(v, 3 * v)]).collect();
    let mut p = UpcastProtocol::new(tree, items);
    let report = run_protocol(&g, &cfg, 13, &mut p).unwrap();
    assert_eq!(report.max_edge_words_per_round, 2);
}

/// Vector-sum convergecast: `(index, partial-sum)` pairs, 2 words.
#[test]
fn vecsum_edge_words_match_wire_format() {
    let g = generators::torus2d(5, 5);
    let cfg = EngineConfig::default();
    let mut bfs = BfsTreeProtocol::new(0);
    run_protocol(&g, &cfg, 17, &mut bfs).unwrap();
    let tree = bfs.into_tree();
    let values: Vec<Vec<u64>> = (0..g.n() as u64).map(|v| vec![v, v + 1]).collect();
    let mut p = VectorSumProtocol::new(tree, values);
    let report = run_protocol(&g, &cfg, 17, &mut p).unwrap();
    assert_eq!(report.max_edge_words_per_round, 2);
}

/// Phase-1 walk tokens are the widest production payload: 4 words
/// (source, seq, remaining steps, length) — exactly the default cap.
#[test]
fn short_walks_edge_words_match_wire_format() {
    let g = generators::torus2d(4, 4);
    let cfg = EngineConfig::default();
    let mut state = WalkState::new(g.n());
    let mut p = ShortWalksProtocol::new(&mut state, vec![2; g.n()], 8, false);
    let report = run_protocol(&g, &cfg, 19, &mut p).unwrap();
    assert_eq!(report.max_edge_words_per_round, 4);
    assert_eq!(report.max_edge_words_per_round, cfg.max_message_words);
}

/// GET-MORE-WALKS sends one token per new walk: `Gmw` is Phase 1's
/// token (seq, step, total) under the lane tag, 4 words, at the cap.
/// The tokens leave the drained connector over its `deg` edges, so an
/// invocation of `count` walks queues about `count / deg` rounds on top
/// of its `2*lambda - 1` hops and the two sampling epochs around it. At
/// the counts walks use (`l / lambda`, 5-22 on the graphs DESIGN.md
/// cites) that is a few rounds; DESIGN.md prices large counts. One
/// `2*lambda`-step walk over an empty store, eight seeds per count.
#[test]
fn gmw_edge_words_match_wire_format() {
    let g = generators::torus2d(4, 4);
    let lambda = 10u64;
    for count in [8u64, 24] {
        for seed in 100..108 {
            let mut runner = Runner::new(&g, EngineConfig::default().with_wire_census(), seed);
            let mut state = WalkState::new(g.n());
            let mut sched = StitchScheduler::new(&StitchSetup {
                lambda: lambda as u32,
                randomize_len: true,
                gmw_count: count,
            });
            sched.add_walk(0, 2 * lambda);
            let out = sched.run(&mut runner, &mut state).unwrap();
            let tag = format!("count {count}, seed {seed}");
            assert_eq!(out.gmw_invocations, 1, "{tag}");
            assert_eq!(state.total_stored() as u64 + out.stitches, count, "{tag}");
            let rounds = out.report.rounds - out.rounds_tail;
            let queueing = count.div_ceil(4);
            assert!(rounds <= 2 * lambda + 32 + queueing, "{tag}: {rounds}");
            assert_eq!(out.report.max_edge_words_per_round, 4, "{tag}");
            let wire = out.report.wire.get("StitchMsg").expect("census recorded");
            let max = |name| {
                wire.fields
                    .iter()
                    .find(|f| f.field == name)
                    .unwrap()
                    .max_value
            };
            assert_eq!(max("Gmw.seq"), count - 1, "{tag}: one token per walk");
            assert!(max("Gmw.total") < 2 * lambda, "{tag}");
        }
    }
}

/// The batched Phase-2 scheduler multiplexes every lane over
/// `Mux2<StitchMsg>`: widest arm (Gmw/Ride/Replay, 3 words) plus the
/// packed `(req, lane)` word — 4 words, at but never over the cap. A
/// claim is 3 words, so the recorded lane's replay is what reaches it.
#[test]
fn stitch_scheduler_edge_words_match_wire_format() {
    let g = generators::torus2d(4, 4);
    let cfg = EngineConfig::default();
    let mut runner = Runner::new(&g, cfg.clone(), 29);
    let mut state = WalkState::new(g.n());
    {
        let mut p = ShortWalksProtocol::new(&mut state, vec![4; g.n()], 8, true);
        runner.run(&mut p).unwrap();
    }
    let setup = StitchSetup {
        lambda: 8,
        randomize_len: true,
        gmw_count: 8,
    };
    let mut sched = StitchScheduler::new(&setup);
    for source in [0usize, 5] {
        sched.add_walk(source, 128);
    }
    sched.add_spec(StitchSpec {
        record: true,
        ..StitchSpec::plain(10, 128)
    });
    let out = sched.run(&mut runner, &mut state).unwrap();
    assert_eq!(out.report.max_edge_words_per_round, 4);
    assert!(out.report.max_edge_words_per_round <= cfg.max_message_words);
}

/// The fault/ARQ lane never widens the wire format: retransmissions
/// resend the original token through the same capacity-enforced
/// buckets, so a lossy healed run stays at the 4-word walk-token width.
#[test]
fn arq_retransmissions_do_not_widen_edges() {
    let g = generators::torus2d(4, 4);
    let cfg = EngineConfig::default().with_faults(FaultPlan::drops(7, 80));
    let mut state = WalkState::new(g.n());
    let mut p = ShortWalksProtocol::new(&mut state, vec![2; g.n()], 8, false);
    let report = run_protocol(&g, &cfg, 31, &mut p).unwrap();
    assert!(report.faults.dropped > 0, "the plan must actually bite");
    assert_eq!(report.max_edge_words_per_round, 4);
    assert!(report.max_edge_words_per_round <= cfg.max_message_words);
}

/// The ack/seq (ARQ) lane keeps its word pin under every fault
/// schedule: whichever deliveries a plan's drops and delays land on,
/// the healed run still stores every token and the wire never widens
/// past the 4-word walk-token format.
#[test]
fn ack_lane_words_pinned_under_fault_schedules() {
    let g = generators::torus2d(4, 4);
    let total = 2 * g.n();
    for seed in 41..47u64 {
        let plan = FaultPlan::new(seed).with_drops(80).with_delays(50, 3);
        let cfg = EngineConfig::default().with_faults(plan);
        let mut state = WalkState::new(g.n());
        let mut p = ShortWalksProtocol::new(&mut state, vec![2; g.n()], 8, true);
        let report = run_protocol(&g, &cfg, 31, &mut p).unwrap();
        assert!(
            report.faults.total() > 0,
            "plan seed {seed}: the plan must actually bite"
        );
        assert_eq!(
            state.total_stored(),
            total,
            "plan seed {seed}: ARQ must heal every token"
        );
        assert_eq!(report.max_edge_words_per_round, 4, "plan seed {seed}");
    }
}

/// A dense gossip over `Mux2`-multiplexed payloads, for pinning the
/// two-level multiplex header's word price under scripted receive
/// orders.
struct Mux2Gossip {
    ttl: u64,
    nodes: Vec<u64>,
}

type LaneMsg = Mux2<UpcastMsg>;

impl Protocol for Mux2Gossip {
    type Msg = LaneMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, LaneMsg>) {
        for v in 0..ctx.graph().n() {
            for u in ctx.graph().neighbors(v).collect::<Vec<_>>() {
                let m = UpcastMsg((v as u64, 3 * v as u64));
                ctx.send(v, u, Mux2::new((v % 3) as u16, (u % 5) as u16, m));
            }
        }
    }

    fn on_receive(&mut self, node: usize, inbox: &[Envelope<LaneMsg>], ctx: &mut Ctx<'_, LaneMsg>) {
        let state = &mut self.nodes[node];
        let mut ctx = ctx.at(node);
        for env in inbox {
            *state = state.rotate_left(9)
                ^ (u64::from(env.msg.req) << 40)
                ^ (u64::from(env.msg.lane) << 20)
                ^ env.msg.msg.0 .0
                ^ env.msg.msg.0 .1;
        }
        if ctx.round() < self.ttl {
            let neighbors: Vec<usize> = ctx.graph().neighbors(node).collect();
            for u in neighbors {
                let m = UpcastMsg((node as u64, ctx.round()));
                ctx.send(u, Mux2::new((node % 3) as u16, (u % 5) as u16, m));
            }
        }
    }
}

/// `Mux2` under scripted receive orders: the packed `(req, lane)`
/// header plus the 2-word inner payload is exactly 3 words, and neither
/// the word pin nor the results move when every round's receivers run
/// in rotated orders instead of node order.
#[test]
fn mux2_words_pinned_under_scripted_receive_orders() {
    let g = generators::torus2d(4, 4);
    let cfg = EngineConfig::default();
    let mk = || Mux2Gossip {
        ttl: 5,
        nodes: vec![0; g.n()],
    };

    let mut seq = mk();
    let r_seq = run_protocol(&g, &cfg, 43, &mut seq).unwrap();
    assert_eq!(r_seq.max_edge_words_per_round, 3, "header + 2-word payload");

    for rot in 0..6usize {
        let mut p = mk();
        // A rotation keyed off (round, rot): a valid permutation that
        // departs from node order on most rounds.
        let order = &mut |round, c: usize| {
            let k = (round as usize + rot) % c;
            (0..c).map(|i| (i + k) % c).collect()
        };
        let r = run_scripted(&g, &cfg, 43, &mut p, ScriptedSchedule::new(order)).unwrap();
        assert_eq!(r.max_edge_words_per_round, 3, "rotation {rot}");
        // Bit-identity: report and per-node digests must not see the
        // receive order.
        assert_eq!(r, r_seq, "rotation {rot}");
        assert_eq!(p.nodes, seq.nodes, "rotation {rot}: node digests");
    }
}

/// Message accounting is exact for a single token: one message per round.
#[test]
fn message_accounting_matches_rounds_for_single_token() {
    let g = generators::cycle(12);
    let mut runner = Runner::new(&g, EngineConfig::default(), 9);
    let mut sched = StitchScheduler::new(&StitchSetup {
        lambda: 1,
        randomize_len: false,
        gmw_count: 1,
    });
    sched.add_spec(StitchSpec {
        naive: true,
        ..StitchSpec::plain(0, 57)
    });
    let out = sched.run(&mut runner, &mut WalkState::new(g.n())).unwrap();
    assert_eq!(out.report.rounds, 57);
    assert_eq!(out.report.messages, 57);
    assert_eq!(out.report.max_edge_backlog, 1);
}
