//! The determinism contract: a run is a function of its graph,
//! configuration and seed alone — identical run statistics, walk
//! outputs and per-node state however often, and after whatever other
//! runs, it is repeated. Each test runs its cases, then replays them in
//! reverse order on the same thread (so every replay follows a
//! different history of runs than its first run did) under the
//! configuration the retired `"sharded"` backend name resolves to,
//! which is what configurations naming it run; across graph families.

use distributed_random_walks::prelude::*;
use drw_congest::primitives::BfsTreeProtocol;
use drw_congest::{
    derive_seed, run_protocol, Ctx, Envelope, Message, Protocol, Runner, WireReader, WireSink,
};
use drw_core::WalkState;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph_families() -> Vec<(&'static str, Graph)> {
    let torus = generators::torus2d(8, 8);
    let mut rng = StdRng::seed_from_u64(0xD0D0);
    let regular = generators::random_regular(96, 4, &mut rng);
    // Erdős–Rényi above the connectivity threshold; retry seeds until
    // connected (deterministic: the seed sequence is fixed).
    let er = (0..100)
        .find_map(|i| {
            let mut rng = StdRng::seed_from_u64(0xE6 + i);
            let g = generators::er_gnp(80, 0.08, &mut rng);
            drw_graph::traversal::is_connected(&g).then_some(g)
        })
        .expect("some seed yields a connected G(n, p)");
    vec![
        ("torus 8x8", torus),
        ("random-regular(96,4)", regular),
        ("er_gnp(80,0.08)", er),
    ]
}

/// The engine configuration a configuration naming the retired
/// `"sharded"` backend runs under.
fn by_old_name() -> EngineConfig {
    let kind = ExecutorKind::from_name("sharded").expect("the name still parses");
    EngineConfig::default().with_executor(kind)
}

/// Runs `run` on every case under the default engine configuration,
/// then replays the cases in reverse order under [`by_old_name`];
/// returns `(case, first, replay)` triples.
fn run_and_replay<C: Copy, T>(cases: &[C], run: impl Fn(C, EngineConfig) -> T) -> Vec<(C, T, T)> {
    let first: Vec<T> = cases
        .iter()
        .map(|&c| run(c, EngineConfig::default()))
        .collect();
    let mut replays: Vec<T> = cases.iter().rev().map(|&c| run(c, by_old_name())).collect();
    replays.reverse();
    cases
        .iter()
        .zip(first)
        .zip(replays)
        .map(|((&c, a), b)| (c, a, b))
        .collect()
}

fn assert_states_match(name: &str, a: &WalkState, b: &WalkState) {
    assert_eq!(a.nodes.len(), b.nodes.len());
    for v in 0..a.nodes.len() {
        assert_eq!(
            a.nodes[v].store, b.nodes[v].store,
            "{name}: store at node {v}"
        );
        assert_eq!(
            a.nodes[v].forward, b.nodes[v].forward,
            "{name}: forward log at node {v}"
        );
        assert_eq!(
            a.nodes[v].visits, b.nodes[v].visits,
            "{name}: visits at node {v}"
        );
    }
}

/// `SINGLE-RANDOM-WALK` end to end: destination, round/message counts,
/// stitch traces, per-node stores and forwarding logs all agree.
#[test]
fn single_walk_is_identical_across_backends() {
    let families = graph_families();
    let cases: Vec<(usize, u64)> = (0..families.len())
        .flat_map(|f| [1u64, 77, 4242].map(|seed| (f, seed)))
        .collect();
    let walk = |(f, seed): (usize, u64), engine| {
        Network::builder(&families[f].1)
            .engine(engine)
            .seed(seed)
            .build()
            .run(Request::walk(0, 2048))
            .expect("walk")
            .into_walk()
    };
    for ((f, seed), first, replay) in run_and_replay(&cases, walk) {
        let tag = format!("{} seed {seed}", families[f].0);
        assert_eq!(first.destination, replay.destination, "{tag}: destination");
        assert_eq!(first.rounds, replay.rounds, "{tag}: rounds");
        assert_eq!(first.messages, replay.messages, "{tag}: messages");
        assert_eq!(first.segments, replay.segments, "{tag}: stitch trace");
        assert_eq!(first.stitches, replay.stitches, "{tag}: stitches");
        assert_eq!(
            first.connector_visits, replay.connector_visits,
            "{tag}: connector visits"
        );
        assert_states_match(&tag, &first.state, &replay.state);
    }
}

/// With `record_walk`, the regenerated trajectory — every node's visit
/// positions, i.e. the full walk — is identical step for step.
#[test]
fn recorded_trajectories_are_identical_across_backends() {
    let families = graph_families();
    let len = 1024u64;
    let walk = |f: usize, engine| {
        let out = Network::builder(&families[f].1)
            .engine(engine)
            .seed(99)
            .build()
            .run(Request::Walk {
                source: 1,
                len,
                record: true,
            })
            .expect("recorded walk")
            .into_walk();
        let walk = out.state.reconstruct_walk(len);
        assert_eq!(walk[0], 1);
        assert_eq!(*walk.last().unwrap(), out.destination);
        walk
    };
    let cases: Vec<usize> = (0..families.len()).collect();
    for (f, first, replay) in run_and_replay(&cases, walk) {
        assert_eq!(first, replay, "{}: full trajectory", families[f].0);
    }
}

/// `MANY-RANDOM-WALKS` agrees too (shared Phase-1 store, interleaved
/// stitching, batched tails).
#[test]
fn many_walks_are_identical_across_backends() {
    let families = graph_families();
    let walks = |f: usize, engine| {
        let g = &families[f].1;
        let sources: Vec<usize> = vec![0, 3, g.n() / 2, g.n() - 1];
        Network::builder(g)
            .engine(engine)
            .seed(7)
            .build()
            .run(Request::many_walks(sources.clone(), 1024))
            .expect("walks")
            .into_many_walks()
    };
    let cases: Vec<usize> = (0..families.len()).collect();
    for (f, first, replay) in run_and_replay(&cases, walks) {
        let tag = families[f].0;
        assert_eq!(
            first.destinations, replay.destinations,
            "{tag}: destinations"
        );
        assert_eq!(first.rounds, replay.rounds, "{tag}: rounds");
        assert_eq!(first.messages, replay.messages, "{tag}: messages");
        assert_eq!(first.stitches, replay.stitches, "{tag}: stitches");
        assert_eq!(
            first.connector_visits, replay.connector_visits,
            "{tag}: connector visits"
        );
    }
}

/// Batched `MANY-RANDOM-WALKS` — the one multiplexed Phase-2 run —
/// replays exactly: destinations, round and message counts, per-walk
/// stitch traces, connector visits and the leftover store all agree.
#[test]
fn batched_many_walks_identical_across_backends() {
    let families = graph_families();
    let walks = |f: usize, engine| {
        let g = &families[f].1;
        let sources: Vec<usize> = (0..8).map(|i| (i * 11) % g.n()).collect();
        Network::builder(g)
            .engine(engine)
            .seed(13)
            .build()
            .run(Request::many_walks(sources.clone(), 1024))
            .expect("walks")
            .into_many_walks()
    };
    let cases: Vec<usize> = (0..families.len()).collect();
    for (f, first, replay) in run_and_replay(&cases, walks) {
        let tag = families[f].0;
        assert!(!first.used_naive_fallback, "{tag}: want the stitched path");
        assert_eq!(
            first.destinations, replay.destinations,
            "{tag}: destinations"
        );
        assert_eq!(first.rounds, replay.rounds, "{tag}: rounds");
        assert_eq!(first.messages, replay.messages, "{tag}: messages");
        assert_eq!(first.stitches, replay.stitches, "{tag}: stitches");
        assert_eq!(first.segments, replay.segments, "{tag}: stitch traces");
        assert_eq!(
            first.connector_visits, replay.connector_visits,
            "{tag}: connector visits"
        );
        assert_states_match(tag, &first.state, &replay.state);
    }
}

/// The fault schedule is part of the determinism contract: a faulty run
/// — drops, delays and reorders all active — replays exactly too:
/// destinations, rounds, messages, stitch traces and per-node state.
#[test]
fn faulty_runs_are_identical_across_backends() {
    use drw_congest::FaultPlan;
    let plan = FaultPlan::new(0xFA17)
        .with_drops(40)
        .with_delays(30, 3)
        .with_reorder(50);
    let families = graph_families();
    let walks = |f: usize, engine: EngineConfig| {
        let g = &families[f].1;
        let sources: Vec<usize> = (0..6).map(|i| (i * 13) % g.n()).collect();
        Network::builder(g)
            .engine(engine.with_faults(plan))
            .seed(23)
            .build()
            .run(Request::many_walks(sources.clone(), 768))
            .expect("faulty walks")
            .into_many_walks()
    };
    let cases: Vec<usize> = (0..families.len()).collect();
    for (f, first, replay) in run_and_replay(&cases, walks) {
        let tag = format!("{} under faults", families[f].0);
        assert_eq!(
            first.destinations, replay.destinations,
            "{tag}: destinations"
        );
        assert_eq!(first.rounds, replay.rounds, "{tag}: rounds");
        assert_eq!(first.messages, replay.messages, "{tag}: messages");
        assert_eq!(first.segments, replay.segments, "{tag}: stitch traces");
        assert_states_match(&tag, &first.state, &replay.state);
    }
}

/// The applications on top (random spanning trees) inherit determinism.
#[test]
fn spanning_trees_are_identical_across_backends() {
    let g = generators::torus2d(5, 5);
    let tree = |seed: u64, engine| {
        let mut net = Network::builder(&g).engine(engine).seed(seed).build();
        let t = net.run(Request::spanning_tree(0)).expect("RST").into_tree();
        (t.edges, t.rounds)
    };
    for (seed, first, replay) in run_and_replay(&[31, 32], tree) {
        assert_eq!(first, replay, "seed {seed}: tree edges and rounds");
    }
}

// ---- A runner's kept engine scratch (ISSUE 20) ----

/// Every node answers each token with a fresh random one to a random
/// neighbor, forever: the run ends on `is_done` with mail in flight,
/// or — `trap` — by a handler panic with mail in inboxes.
#[derive(Clone, Debug, PartialEq)]
struct Tok(u64);
impl Message for Tok {
    fn encode(&self, w: &mut impl WireSink) {
        w.word("tok", self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.read().map(Tok)
    }
}

struct Churn {
    stop_after: u64,
    rounds: u64,
    trap: bool,
    folded: Vec<u64>,
}

impl Protocol for Churn {
    type Msg = Tok;

    fn start(&mut self, ctx: &mut Ctx<'_, Tok>) {
        for v in 0..ctx.graph().n() {
            let x = rand::Rng::random(ctx.rng(v));
            ctx.send_random_neighbor(v, Tok(x));
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, Tok>) {
        self.rounds = ctx.round();
    }

    fn is_done(&self) -> bool {
        self.rounds == self.stop_after
    }

    fn on_receive(&mut self, node: usize, inbox: &[Envelope<Tok>], ctx: &mut Ctx<'_, Tok>) {
        let mut ctx = ctx.at(node);
        assert!(!(self.trap && ctx.round() == 3 && node >= 8), "trap sprung");
        for env in inbox {
            self.folded[node] = self.folded[node].rotate_left(7) ^ env.msg.0;
            let x = rand::Rng::random(ctx.rng());
            ctx.send_random_neighbor(Tok(x));
        }
    }
}

#[test]
fn kept_scratch_is_invisible_across_runs_types_early_exits_and_rebind() {
    use drw_graph::{Topology, TopologyDelta};
    let churn = |n: usize, trap: bool| Churn {
        stop_after: 6,
        rounds: 0,
        trap,
        folded: vec![0; n],
    };
    let cfg = EngineConfig::default();
    let topo = Topology::new(generators::torus2d(4, 4));
    let mut runner = Runner::on(topo.snapshot(), cfg.clone(), 5);
    // Each step: what the long-lived runner computes must equal
    // a run on fresh buffers under the same derived seed.
    let check = |runner: &mut Runner| {
        let seed = derive_seed(5, runner.runs() + 1); // one trapped run below
        let (mut kept, mut fresh) = (churn(runner.graph().n(), false), None);
        let report = runner.run(&mut kept).unwrap();
        let g = runner.graph_arc();
        let again = fresh.insert(churn(g.n(), false));
        assert_eq!(run_protocol(&g, &cfg, seed, again).unwrap(), report);
        assert_eq!(again.folded, kept.folded);
        assert_eq!(report.rounds, 6, "ended on is_done, mail in flight");
    };
    // A handler panic leaves mail in inboxes and in the queue.
    let mut trapped = churn(16, true);
    let run = std::panic::AssertUnwindSafe(|| runner.run(&mut trapped));
    assert!(std::panic::catch_unwind(run).is_err());
    check(&mut runner);
    // Another message type in between, then the first one again.
    runner.run(&mut BfsTreeProtocol::new(3)).unwrap();
    check(&mut runner);
    // Grow, then shrink back: inboxes and RNG pool follow `n`.
    let delta = TopologyDelta::new().add_node().add_edge(16, 2);
    let _ = topo.apply(&delta).unwrap();
    runner.rebind(topo.snapshot());
    check(&mut runner);
    let delta = TopologyDelta::new().remove_edge(16, 2).remove_node(16);
    let _ = topo.apply(&delta).unwrap();
    runner.rebind(topo.snapshot());
    check(&mut runner);
}
