//! Acceptance test for the executor backends: the sharded backend must
//! produce results **bit-identical** to the sequential reference — identical run
//! statistics, identical walk outputs, identical per-node state — for
//! the same graph and seed, across graph families.

use distributed_random_walks::prelude::*;
use drw_congest::primitives::BfsTreeProtocol;
use drw_congest::{
    derive_seed, run_node_local, Ctx, Envelope, ExecutorKind, Message, NodeCtx, NodeLocalProtocol,
    Runner,
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

/// The backends that must reproduce the sequential reference.
const ALT_BACKENDS: [ExecutorKind; 1] = [ExecutorKind::Sharded];

fn config_with(executor: ExecutorKind, record: bool) -> SingleWalkConfig {
    SingleWalkConfig {
        record_walk: record,
        engine: EngineConfig::default().with_executor(executor),
        ..SingleWalkConfig::default()
    }
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
    for (name, g) in graph_families() {
        for seed in [1u64, 77, 4242] {
            let seq = single_random_walk(
                &g,
                0,
                2048,
                &config_with(ExecutorKind::Sequential, false),
                seed,
            )
            .expect("sequential walk");
            for alt in ALT_BACKENDS {
                let par = single_random_walk(&g, 0, 2048, &config_with(alt, false), seed)
                    .expect("alternate-backend walk");
                let tag = format!("{name} seed {seed} vs {}", alt.name());
                assert_eq!(seq.destination, par.destination, "{tag}: destination");
                assert_eq!(seq.rounds, par.rounds, "{tag}: rounds");
                assert_eq!(seq.messages, par.messages, "{tag}: messages");
                assert_eq!(seq.segments, par.segments, "{tag}: stitch trace");
                assert_eq!(seq.stitches, par.stitches, "{tag}: stitches");
                assert_eq!(
                    seq.connector_visits, par.connector_visits,
                    "{tag}: connector visits"
                );
                assert_states_match(&tag, &seq.state, &par.state);
            }
        }
    }
}

/// With `record_walk`, the regenerated trajectory — every node's visit
/// positions, i.e. the full walk — is identical step for step.
#[test]
fn recorded_trajectories_are_identical_across_backends() {
    for (name, g) in graph_families() {
        let len = 1024u64;
        let seq = single_random_walk(&g, 1, len, &config_with(ExecutorKind::Sequential, true), 99)
            .expect("sequential walk");
        let walk_seq = seq.state.reconstruct_walk(len);
        assert_eq!(walk_seq[0], 1);
        assert_eq!(*walk_seq.last().unwrap(), seq.destination);
        for alt in ALT_BACKENDS {
            let par = single_random_walk(&g, 1, len, &config_with(alt, true), 99)
                .expect("alternate-backend walk");
            let walk_par = par.state.reconstruct_walk(len);
            assert_eq!(
                walk_seq,
                walk_par,
                "{name} vs {}: full trajectory",
                alt.name()
            );
        }
    }
}

/// `MANY-RANDOM-WALKS` agrees too (shared Phase-1 store, interleaved
/// stitching, batched tails).
#[test]
fn many_walks_are_identical_across_backends() {
    for (name, g) in graph_families() {
        let sources: Vec<usize> = vec![0, 3, g.n() / 2, g.n() - 1];
        let seq_cfg = config_with(ExecutorKind::Sequential, false);
        let seq = many_random_walks(&g, &sources, 1024, &seq_cfg, 7).expect("sequential");
        for alt in ALT_BACKENDS {
            let par = many_random_walks(&g, &sources, 1024, &config_with(alt, false), 7)
                .expect("alternate backend");
            let tag = format!("{name} vs {}", alt.name());
            assert_eq!(seq.destinations, par.destinations, "{tag}: destinations");
            assert_eq!(seq.rounds, par.rounds, "{tag}: rounds");
            assert_eq!(seq.messages, par.messages, "{tag}: messages");
            assert_eq!(seq.stitches, par.stitches, "{tag}: stitches");
            assert_eq!(
                seq.connector_visits, par.connector_visits,
                "{tag}: connector visits"
            );
        }
    }
}

/// Batched `MANY-RANDOM-WALKS` — the one multiplexed Phase-2 run — is
/// bit-identical between the sequential and the sharded backend:
/// destinations, round and message counts, per-walk stitch traces,
/// connector visits and the leftover store all agree exactly.
#[test]
fn batched_many_walks_identical_across_backends() {
    for (name, g) in graph_families() {
        let sources: Vec<usize> = (0..8).map(|i| (i * 11) % g.n()).collect();
        let base = many_random_walks(
            &g,
            &sources,
            1024,
            &config_with(ExecutorKind::Sequential, false),
            13,
        )
        .expect("sequential");
        assert!(!base.used_naive_fallback, "{name}: want the stitched path");
        for alt in ALT_BACKENDS {
            let par = many_random_walks(&g, &sources, 1024, &config_with(alt, false), 13)
                .expect("alternate backend");
            let tag = format!("{name} vs {}", alt.name());
            assert_eq!(base.destinations, par.destinations, "{tag}: destinations");
            assert_eq!(base.rounds, par.rounds, "{tag}: rounds");
            assert_eq!(base.messages, par.messages, "{tag}: messages");
            assert_eq!(base.stitches, par.stitches, "{tag}: stitches");
            assert_eq!(base.segments, par.segments, "{tag}: stitch traces");
            assert_eq!(
                base.connector_visits, par.connector_visits,
                "{tag}: connector visits"
            );
            assert_states_match(&tag, &base.state, &par.state);
        }
    }
}

/// Fault injection lives in the executors' *shared* delivery path, so a
/// faulty run — drops, delays and reorders all active — must stay
/// bit-identical across backends: identical destinations, rounds,
/// messages, stitch traces and per-node state. The fault schedule is
/// part of the determinism contract.
#[test]
fn faulty_runs_are_identical_across_backends() {
    use drw_congest::FaultPlan;
    let plan = FaultPlan::new(0xFA17)
        .with_drops(40)
        .with_delays(30, 3)
        .with_reorder(50);
    for (name, g) in graph_families() {
        let sources: Vec<usize> = (0..6).map(|i| (i * 13) % g.n()).collect();
        let mut seq_cfg = config_with(ExecutorKind::Sequential, false);
        seq_cfg.engine = seq_cfg.engine.with_faults(plan);
        let base = many_random_walks(&g, &sources, 768, &seq_cfg, 23).expect("sequential faulty");
        for alt in ALT_BACKENDS {
            let mut cfg = config_with(alt, false);
            cfg.engine = cfg.engine.with_faults(plan);
            let par = many_random_walks(&g, &sources, 768, &cfg, 23).expect("faulty alternate");
            let tag = format!("{name} under faults vs {}", alt.name());
            assert_eq!(base.destinations, par.destinations, "{tag}: destinations");
            assert_eq!(base.rounds, par.rounds, "{tag}: rounds");
            assert_eq!(base.messages, par.messages, "{tag}: messages");
            assert_eq!(base.segments, par.segments, "{tag}: stitch traces");
            assert_states_match(&tag, &base.state, &par.state);
        }
    }
}

/// The applications on top (random spanning trees) inherit determinism.
#[test]
fn spanning_trees_are_identical_across_backends() {
    let g = generators::torus2d(5, 5);
    let mut seq_cfg = RstConfig::default();
    seq_cfg.walk.engine = EngineConfig::default().with_executor(ExecutorKind::Sequential);
    let seq = distributed_rst(&g, 0, &seq_cfg, 31).expect("sequential RST");
    for alt in ALT_BACKENDS {
        let mut alt_cfg = RstConfig::default();
        alt_cfg.walk.engine = EngineConfig::default().with_executor(alt);
        let par = distributed_rst(&g, 0, &alt_cfg, 31).expect("alternate-backend RST");
        assert_eq!(seq.edges, par.edges, "{}: tree edges", alt.name());
        assert_eq!(seq.rounds, par.rounds, "{}: rounds", alt.name());
    }
}

// ---- A runner's kept engine scratch (ISSUE 20) ----

/// Every node answers each token with a fresh random one to a random
/// neighbor, forever: the run ends on `is_done` with mail in flight,
/// or — `trap` — by a handler panic with mail in inboxes.
#[derive(Clone, Debug)]
struct Tok(u64);
impl Message for Tok {}

struct Churn {
    stop_after: u64,
    rounds: u64,
    trap: bool,
    folded: Vec<u64>,
}

impl NodeLocalProtocol for Churn {
    type Msg = Tok;
    type Shared = bool;
    type NodeState = u64;

    fn start(&mut self, ctx: &mut Ctx<'_, Tok>) {
        for v in 0..ctx.graph().n() {
            let x = rand::Rng::random(ctx.rng(v));
            ctx.send_random_neighbor(v, Tok(x));
        }
    }

    fn after_receive(&mut self, _active: &[usize]) {
        self.rounds += 1;
    }

    fn is_done(&self) -> bool {
        self.rounds == self.stop_after
    }

    fn parts(&mut self) -> (&bool, &mut [u64]) {
        (&self.trap, &mut self.folded)
    }

    fn on_receive_local(
        trap: &bool,
        folded: &mut u64,
        node: usize,
        inbox: &[Envelope<Tok>],
        ctx: &mut NodeCtx<'_, Tok>,
    ) {
        assert!(!(*trap && ctx.round() == 3 && node >= 8), "trap sprung");
        for env in inbox {
            *folded = folded.rotate_left(7) ^ env.msg.0;
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
    for cfg in [
        EngineConfig::default(),
        EngineConfig::default().with_executor(ExecutorKind::Sharded),
    ] {
        let topo = Topology::new(generators::torus2d(4, 4));
        let mut runner = Runner::on(topo.snapshot(), cfg.clone(), 5);
        // Each step: what the long-lived runner computes must equal
        // a run on fresh buffers under the same derived seed.
        let check = |runner: &mut Runner| {
            let seed = derive_seed(5, runner.runs() + 1); // one trapped run below
            let (mut kept, mut fresh) = (churn(runner.graph().n(), false), None);
            let report = runner.run_local(&mut kept).unwrap();
            let g = runner.graph_arc();
            let again = fresh.insert(churn(g.n(), false));
            assert_eq!(run_node_local(&g, &cfg, seed, again).unwrap(), report);
            assert_eq!(again.folded, kept.folded);
            assert_eq!(report.rounds, 6, "ended on is_done, mail in flight");
        };
        // A handler panic leaves mail in inboxes and in the queue.
        let mut trapped = churn(16, true);
        let run = std::panic::AssertUnwindSafe(|| runner.run_local(&mut trapped));
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
}
