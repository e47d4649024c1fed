//! The six workloads: what each generates from the seed, what one
//! *pass* (set-up from fresh state, then the timed op list) does, and
//! which counters it hands to the per-layer ledger.
//!
//! The harness calls only the surface ROADMAP.md keeps: `generators`,
//! `Topology`/`TopologyDelta`, `Network::{builder, run, run_batch}`,
//! `WalkSession` and its counters, `Service::{builder, serve_trace,
//! report}`, `Request`, `EngineConfig`. The library receives generated
//! inputs only; the seed never reaches it except as engine seeds.

use crate::checks::{check_service, check_tree, Digest};
use crate::metrics::{median, percentile, Layer};
use crate::trace::Tracer;
use drw_congest::{derive_seed, EngineConfig, ExecutorKind};
use drw_core::{
    ArrivalTrace, Error, Network, Request, Response, Service, ServiceConfig, SingleWalkConfig,
    StateMemory, TraceEvent, WalkSession,
};
use drw_graph::{generators, traversal, Graph, NodeId, Topology, TopologyDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot walks on an expander, sequential backend.
    ColdDense,
    /// The same ops on the parallel backend.
    ColdDensePar,
    /// Closed-loop walks served off a warm session store.
    WarmStitch,
    /// Short walks on a large graph: one message per round.
    SparseTail,
    /// One-shot random spanning trees on a torus.
    RstCover,
    /// A mixed multi-tenant arrival trace through the `Service`.
    ServiceMix,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::ColdDense,
        Workload::ColdDensePar,
        Workload::WarmStitch,
        Workload::SparseTail,
        Workload::RstCover,
        Workload::ServiceMix,
    ];

    /// The workload's name, as `--workload` and `BENCHMARK.json` spell
    /// it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdDense => "cold_dense",
            Workload::ColdDensePar => "cold_dense_par",
            Workload::WarmStitch => "warm_stitch",
            Workload::SparseTail => "sparse_tail",
            Workload::RstCover => "rst_cover",
            Workload::ServiceMix => "service_mix",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the
    /// same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdDense => {
                "one-shot walks: every op pays BFS + Phase 1, so queue deliver/stage and the \
                 short-walk token handler carry the cost; session and service do nothing"
            }
            Workload::ColdDensePar => {
                "the same ops on the parallel backend: a queue or handler change that helps \
                 one receive path and costs the other shows here; outputs must be bit-identical"
            }
            Workload::WarmStitch => {
                "served regime: Phase 1 is amortised into set-up, SAMPLE-DESTINATION sweeps \
                 and tails dominate; bypasses Phase-1 optimisations"
            }
            Workload::SparseTail => {
                "short walks on a large graph are pure naive tails, one message per round: \
                 the executor's per-round fixed cost is all there is; bypasses per-message work"
            }
            Workload::RstCover => {
                "Section 4.1 application on a small large-diameter graph: doubling recorded \
                 walks and GET-MORE-WALKS, where per-round driver logic dominates, not memory"
            }
            Workload::ServiceMix => {
                "open loop in virtual time at about half load, with churn: service pump, fair \
                 admission, billing and session repair carry the cost, the engine little"
            }
        }
    }

    /// How many times one pass repeats its set-up (the last build is
    /// the one the timed ops use). Cheap set-ups are repeated so that
    /// `setup_s` is a median of many samples, not one timer reading of
    /// a few microseconds.
    fn setup_reps(self) -> usize {
        match self {
            Workload::ColdDense | Workload::ColdDensePar => 16,
            Workload::WarmStitch | Workload::SparseTail => 1,
            Workload::RstCover | Workload::ServiceMix => 64,
        }
    }
}

/// Everything a pass is generated from.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload seed: graph, op sources and lengths, arrival trace
    /// and engine seeds all derive from it.
    pub seed: u64,
    /// Smoke sizes: `n` and op counts divided by 8.
    pub quick: bool,
    /// Engine configuration (backend and worker count).
    pub engine: EngineConfig,
}

/// Worker threads `cold_dense_par` uses: `min(nproc, 2)`.
pub fn par_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

impl Inputs {
    /// The inputs of workload `w`. `cold_dense_par` resolves "the
    /// parallel backend" by name, preferring `sharded`, so that merging
    /// the two parallel executors cannot break the harness.
    pub fn new(w: Workload, seed: u64, quick: bool) -> Self {
        let mut engine = EngineConfig::default();
        if w == Workload::ColdDensePar {
            let kind = ["sharded", "parallel"]
                .into_iter()
                .find_map(ExecutorKind::from_name)
                .expect("the engine has a parallel backend");
            engine = engine.with_executor(kind);
            engine.parallel_workers = par_workers();
        }
        Inputs {
            seed,
            quick,
            engine,
        }
    }

    /// The same inputs on the default (sequential) backend.
    pub fn sequential(&self) -> Self {
        Inputs {
            engine: EngineConfig::default(),
            ..self.clone()
        }
    }

    fn sub(&self, stream: u64) -> u64 {
        derive_seed(self.seed, stream)
    }

    /// A draw from `0..bound`, fixed by the seed and `stream`.
    fn pick(&self, stream: u64, bound: usize) -> usize {
        (self.sub(stream) % bound as u64) as usize
    }

    fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 8).max(1)
        } else {
            full
        }
    }

    fn walk_cfg(&self) -> SingleWalkConfig {
        SingleWalkConfig {
            engine: self.engine.clone(),
            ..SingleWalkConfig::default()
        }
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// One sample per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host time of the timed op list.
    pub wall_s: f64,
    /// Host time of each timed call: one closed-loop op, or on
    /// `service_mix` one `serve_trace` (opaque from outside).
    pub op_ms: Vec<f64>,
    /// Requests one timed call serves: 1, or a segment's arrivals on
    /// `service_mix`.
    pub requests_per_call: usize,
    /// CONGEST rounds of each op, from due time to completion.
    pub op_rounds: Vec<u64>,
    /// CONGEST rounds the timed ops consumed.
    pub rounds: u64,
    /// Messages delivered, where the kept API exposes a count.
    pub messages: Option<u64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error, were rejected, or never resolved.
    pub failed: u64,
    /// Hash of the outputs.
    pub digest: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Counters for the per-layer ledger.
    pub layer: Layer,
}

/// Runs one pass of `w` from fresh state.
pub fn run_pass(w: Workload, inp: &Inputs, tr: &mut Tracer) -> Pass {
    let mut pass = match w {
        Workload::ColdDense | Workload::ColdDensePar => cold_pass(w, inp, tr),
        Workload::WarmStitch => session_pass(w, inp, &SessionSpec::warm_stitch(inp), tr),
        Workload::SparseTail => session_pass(w, inp, &SessionSpec::sparse_tail(inp), tr),
        Workload::RstCover => rst_pass(w, inp, tr),
        Workload::ServiceMix => service_pass(w, inp, tr),
    };
    pass.requests_per_call = pass.requests_per_call.max(1);
    pass
}

/// Runs `build` `w.setup_reps()` times under a `setup` span each,
/// keeping every sample and the last result.
fn timed_setup<T>(
    w: Workload,
    pass: &mut Pass,
    tr: &mut Tracer,
    mut build: impl FnMut(&mut Tracer) -> T,
) -> T {
    tr.op = 0;
    let mut last = None;
    for _ in 0..w.setup_reps() {
        drop(last.take());
        let (built, secs) = tr.span("setup", &mut build);
        pass.setup_s.push(secs);
        last = Some(built);
    }
    last.expect("at least one set-up repetition")
}

/// A random 4-regular graph under a generator span, with its build
/// time. The sizes the workloads use (1024, 6144, 131072) are ones
/// where every BFS depth from every source came out the same over 20
/// seeds: the diameter estimate sets `lambda`, and a size where it flips
/// between two values makes rounds bimodal across seeds.
fn expander(inp: &Inputs, n: usize, tr: &mut Tracer) -> (Graph, f64) {
    let mut rng = StdRng::seed_from_u64(inp.sub(1));
    tr.span("graph.generators.build", |_| {
        generators::random_regular(n, 4, &mut rng)
    })
}

/// The 12 x 12 torus of `rst_cover` and `service_mix`: at this size
/// about 85 % of trees cover in four doubling phases and 15 % in
/// three, so neither the median nor the 90th percentile of per-tree
/// rounds sits on a phase boundary (at 16 x 16 the 90th did).
fn torus(inp: &Inputs, tr: &mut Tracer) -> (Graph, f64) {
    let side = if inp.quick { 6 } else { 12 };
    tr.span("graph.generators.build", |_| {
        generators::torus2d(side, side)
    })
}

fn generator_rows(layer: &mut Layer, g: &Graph, build_s: f64) {
    layer.set("graph.generators.build_s", build_s);
    layer.set_ratio("graph.generators.ns_per_edge", build_s * 1e9, g.m() as f64);
}

fn engine_rows(layer: &mut Layer, pass: &Pass) {
    let rounds = pass.rounds as f64;
    layer.set_ratio("congest.engine.us_per_round", pass.wall_s * 1e6, rounds);
    if let Some(m) = pass.messages {
        layer.set("congest.engine.messages", m as f64);
        layer.set_ratio("congest.engine.ns_per_msg", pass.wall_s * 1e9, m as f64);
        layer.set_ratio("congest.engine.msgs_per_round", m as f64, rounds);
    }
}

fn state_rows(layer: &mut Layer, m: &StateMemory) {
    layer.set("core.state.bytes_per_node", m.bytes_per_node());
    layer.set("core.state.forward_bytes", m.forward_bytes as f64);
}

fn check_destination(pass: &mut Pass, op: usize, dest: NodeId, n: usize) {
    if dest >= n {
        pass.errors
            .push(format!("op {op}: destination {dest} >= n = {n}"));
    }
}

// ---------------------------------------------------------------- cold

/// Nodes of the `cold_dense` expander.
const COLD_N: usize = 1024;

enum ColdOp {
    Walk { source: NodeId, len: u64 },
    Many { sources: Vec<NodeId>, len: u64 },
}

/// The paper's SINGLE/MANY-RANDOM-WALKS as stated: every op is a fresh
/// `Network` and pays its own BFS and Phase 1. The counts put the
/// median op in the middle of the `l = 1024` class and the 90th
/// percentile inside the `MANY-RANDOM-WALKS` class, so neither rides on
/// a single op's random tail.
fn cold_ops(inp: &Inputs, n: usize) -> Vec<ColdOp> {
    let mut ops = Vec::new();
    for (len, count) in [(256, 4), (1024, 12), (4096, 1)] {
        for _ in 0..inp.scaled(count) {
            let source = inp.pick(100 + ops.len() as u64, n);
            ops.push(ColdOp::Walk { source, len });
        }
    }
    for m in 0..inp.scaled(3) as u64 {
        let sources = (0..inp.scaled(16) as u64)
            .map(|j| inp.pick(300 + 16 * m + j, n))
            .collect();
        ops.push(ColdOp::Many { sources, len: 256 });
    }
    ops
}

fn cold_pass(w: Workload, inp: &Inputs, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let n = inp.scaled(COLD_N);
    let (g, build_s) = timed_setup(w, &mut pass, tr, |tr| expander(inp, n, tr));
    let ops = cold_ops(inp, n);

    let mut digest = Digest::default();
    let mut messages = 0;
    // Sums over the single-walk ops, for the phase shares.
    let (mut walk_rounds, mut phase1, mut stitch, mut tail) = (0u64, 0u64, 0u64, 0u64);
    let (mut stitches, mut gmw, mut sqrt_ld) = (0u64, 0u64, 0f64);
    let mut state = None;
    let (_, wall_s) = tr.timed_ops(|tr| {
        for (k, op) in ops.into_iter().enumerate() {
            tr.op = k as u32 + 1;
            let (request, len) = match op {
                ColdOp::Walk { source, len } => (Request::walk(source, len), len),
                ColdOp::Many { sources, len } => (Request::many_walks(sources, len), len),
            };
            let (response, secs) = tr.span("op", |tr| {
                let (mut net, _) = tr.span("core.network.build", |_| {
                    Network::builder(&g)
                        .engine(inp.engine.clone())
                        .seed(inp.sub(1000 + k as u64))
                        .build()
                });
                tr.span("core.network.run", |_| net.run(request)).0
            });
            pass.attempted += 1;
            pass.op_ms.push(secs * 1e3);
            match response {
                Ok(Response::Walk(r)) => {
                    check_destination(&mut pass, k, r.destination, n);
                    digest.push(r.destination as u64);
                    pass.op_rounds.push(r.rounds);
                    messages += r.messages;
                    walk_rounds += r.rounds;
                    phase1 += r.rounds_phase1;
                    stitch += r.rounds_stitch;
                    tail += r.rounds_tail;
                    stitches += r.stitches;
                    gmw += r.gmw_invocations;
                    sqrt_ld += ((len * u64::from(r.diameter_estimate)) as f64).sqrt();
                    state = Some(r.state.memory_report());
                }
                Ok(Response::ManyWalks(r)) => {
                    for &d in &r.destinations {
                        check_destination(&mut pass, k, d, n);
                        digest.push(d as u64);
                    }
                    pass.op_rounds.push(r.rounds);
                    messages += r.messages;
                    stitches += r.stitches;
                    gmw += r.gmw_invocations;
                }
                Ok(other) => pass
                    .errors
                    .push(format!("op {k}: unexpected {} response", other.kind())),
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("op {k}: {e}"));
                }
            }
        }
    });
    pass.wall_s = wall_s;
    pass.rounds = pass.op_rounds.iter().sum();
    pass.messages = Some(messages);
    pass.digest = digest.value();

    let mut layer = Layer::default();
    generator_rows(&mut layer, &g, build_s);
    engine_rows(&mut layer, &pass);
    let walk_rounds = walk_rounds as f64;
    layer.set_ratio("core.short_walks.round_share", phase1 as f64, walk_rounds);
    layer.set_ratio("core.stitch.round_share", stitch as f64, walk_rounds);
    layer.set_ratio("core.tail.round_share", tail as f64, walk_rounds);
    layer.set_ratio("core.stitch.gmw_per_stitch", gmw as f64, stitches as f64);
    layer.set_ratio("core.rounds_over_sqrt_ld", walk_rounds, sqrt_ld);
    if let Some(m) = &state {
        state_rows(&mut layer, m);
    }
    pass.layer = layer;
    pass
}

// ------------------------------------------------------------- session

/// A closed loop of `ops` equal-length `single_walk`s on one session;
/// set-up opens the session and serves one walk of the same length,
/// which builds the short-walk store (or, on `sparse_tail`, declines
/// to).
struct SessionSpec {
    n: usize,
    len: u64,
    ops: usize,
}

impl SessionSpec {
    /// Every op has one length so that the ops form one class: with
    /// mixed lengths the median op sits on the border between two
    /// stitch counts and jumps by 15 % from seed to seed.
    fn warm_stitch(inp: &Inputs) -> Self {
        SessionSpec {
            n: inp.scaled(6144),
            len: 1024,
            ops: inp.scaled(64),
        }
    }

    /// Peer sampling with short walks. A walk stitches only when
    /// `l >= 2 * lambda = 2 * sqrt(l * D)`, i.e. `l >= 4 D`; `l = 32`
    /// stays a pure naive tail for every `D >= 9`, so the session never
    /// builds a store whatever graph the seed draws.
    fn sparse_tail(inp: &Inputs) -> Self {
        SessionSpec {
            n: inp.scaled(131_072),
            len: 32,
            ops: inp.scaled(24),
        }
    }
}

/// Opens a session on `g` under `core.session.open` and returns it with
/// the open time.
fn open_session(inp: &Inputs, g: &Graph, tr: &mut Tracer) -> (Result<WalkSession, Error>, f64) {
    let anchor = inp.pick(3, g.n());
    tr.span("core.session.open", |_| {
        WalkSession::new(g, anchor, &inp.walk_cfg(), inp.sub(2)).map_err(Error::from)
    })
}

fn session_pass(w: Workload, inp: &Inputs, spec: &SessionSpec, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let n = spec.n;
    let (g, build_s, session) = timed_setup(w, &mut pass, tr, |tr| {
        let (g, build_s) = expander(inp, n, tr);
        let (session, _) = open_session(inp, &g, tr);
        let session = session.and_then(|mut s| {
            let source = inp.pick(4, n);
            tr.span("core.session.first_walk", |_| {
                s.single_walk(source, spec.len)
            })
            .0?;
            Ok(s)
        });
        (g, build_s, session)
    });
    let mut session = match session {
        Ok(s) => s,
        Err(e) => {
            pass.attempted = 1;
            pass.failed = 1;
            pass.errors.push(format!("set-up: {e}"));
            return pass;
        }
    };
    let len = spec.len;
    let d_est = u64::from(session.diameter_estimate());
    let topups0 = session.topups();
    let topup_rounds0 = session.rounds_topup();
    let messages0 = session.runner_mut().total_messages();

    let mut digest = Digest::default();
    let (mut stitches, mut gmw, mut sqrt_ld) = (0u64, 0u64, 0f64);
    let (_, wall_s) = tr.timed_ops(|tr| {
        for k in 0..spec.ops {
            tr.op = k as u32 + 1;
            let source = inp.pick(100 + k as u64, n);
            let (outcome, secs) = tr.span("core.session.single_walk", |_| {
                session.single_walk(source, len)
            });
            pass.attempted += 1;
            pass.op_ms.push(secs * 1e3);
            match outcome {
                Ok(o) => {
                    check_destination(&mut pass, k, o.destination, n);
                    digest.push(o.destination as u64);
                    pass.op_rounds.push(o.rounds);
                    stitches += o.stitches;
                    gmw += o.gmw_invocations;
                    sqrt_ld += ((len * d_est) as f64).sqrt();
                }
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("op {k}: {e}"));
                }
            }
        }
    });
    pass.wall_s = wall_s;
    pass.rounds = pass.op_rounds.iter().sum();
    let messages = session.runner_mut().total_messages() - messages0;
    pass.messages = Some(messages);
    pass.digest = digest.value();

    let mut layer = Layer::default();
    generator_rows(&mut layer, &g, build_s);
    engine_rows(&mut layer, &pass);
    let rounds = pass.rounds as f64;
    layer.set("core.stitch.warm_walk_ms_p50", median(&pass.op_ms));
    layer.set_ratio("core.stitch.us_per_round", wall_s * 1e6, rounds);
    layer.set_ratio("core.stitch.rounds_per_stitch", rounds, stitches as f64);
    layer.set_ratio(
        "core.stitch.msgs_per_stitch",
        messages as f64,
        stitches as f64,
    );
    layer.set_ratio("core.stitch.gmw_per_stitch", gmw as f64, stitches as f64);
    layer.set_ratio("core.rounds_over_sqrt_ld", rounds, sqrt_ld);
    layer.set("core.session.topups", (session.topups() - topups0) as f64);
    layer.set_ratio(
        "core.session.topup_round_share",
        (session.rounds_topup() - topup_rounds0) as f64,
        rounds,
    );
    layer.set(
        "core.session.walks_discarded",
        session.walks_discarded() as f64,
    );
    state_rows(&mut layer, &session.state().memory_report());
    pass.layer = layer;
    pass
}

// ----------------------------------------------------------------- rst

fn rst_pass(w: Workload, inp: &Inputs, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let (g, build_s) = timed_setup(w, &mut pass, tr, |tr| torus(inp, tr));
    let n = g.n();
    let trees = inp.scaled(128);

    let mut digest = Digest::default();
    let (mut phases, mut cover_len, mut bfs_runs) = (0u64, 0u64, 0u64);
    let (_, wall_s) = tr.timed_ops(|tr| {
        for k in 0..trees {
            tr.op = k as u32 + 1;
            let root = inp.pick(100 + k as u64, n);
            let (response, secs) = tr.span("op", |tr| {
                let (mut net, _) = tr.span("core.network.build", |_| {
                    Network::builder(&g)
                        .engine(inp.engine.clone())
                        .seed(inp.sub(1000 + k as u64))
                        .build()
                });
                tr.span("core.network.run", |_| {
                    net.run(Request::spanning_tree(root))
                })
                .0
            });
            pass.attempted += 1;
            pass.op_ms.push(secs * 1e3);
            match response {
                Ok(Response::SpanningTree(t)) => {
                    if let Err(why) = check_tree(n, &t.edges, |u, v| g.has_edge(u, v)) {
                        pass.errors.push(format!("op {k}: {why}"));
                    }
                    for &(u, v) in &t.edges {
                        digest.push(u as u64);
                        digest.push(v as u64);
                    }
                    pass.op_rounds.push(t.rounds);
                    phases += u64::from(t.phases);
                    cover_len += t.cover_len;
                    bfs_runs += t.bfs_runs;
                }
                Ok(other) => pass
                    .errors
                    .push(format!("op {k}: unexpected {} response", other.kind())),
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("op {k}: {e}"));
                }
            }
        }
    });
    pass.wall_s = wall_s;
    pass.rounds = pass.op_rounds.iter().sum();
    pass.digest = digest.value();

    let mut layer = Layer::default();
    generator_rows(&mut layer, &g, build_s);
    engine_rows(&mut layer, &pass);
    let done = pass.op_rounds.len() as f64;
    let rounds = pass.rounds as f64;
    layer.set_ratio("spanning.rounds_per_tree", rounds, done);
    layer.set_ratio("spanning.phases_per_tree", phases as f64, done);
    layer.set_ratio("spanning.cover_len_per_tree", cover_len as f64, done);
    layer.set_ratio("spanning.bfs_runs_per_tree", bfs_runs as f64, done);
    // The paper's bound is ~O(sqrt(m) * D) rounds per tree; the torus
    // side is its diameter.
    let diameter = (n as f64).sqrt();
    layer.set_ratio(
        "spanning.rounds_over_sqrt_m_d",
        rounds,
        done * (g.m() as f64).sqrt() * diameter,
    );
    pass.layer = layer;
    pass
}

// ------------------------------------------------------------- service

/// Independent services per pass, and arrivals per service. Host time
/// per served trace swings by 15 % or more from one seed to the next
/// (session repair cost rides on how the store happened to grow), so a
/// pass serves several short independent traces rather than one long
/// one and the swings average out.
const SEGMENTS: usize = 8;
const SEGMENT_EVENTS: usize = 250;

/// The `service_mix` inputs: graph, churn pairs and one arrival trace
/// per segment.
struct ServiceInputs {
    g: Graph,
    build_s: f64,
    pairs: Vec<(NodeId, NodeId)>,
    traces: Vec<ArrivalTrace>,
}

/// Non-edge pairs the trace's `Mutate` events toggle an extra edge on.
fn churn_pairs(inp: &Inputs, g: &Graph) -> Vec<(NodeId, NodeId)> {
    let n = g.n();
    let mut pairs = Vec::new();
    let mut stream = 900;
    while pairs.len() < 8 {
        let (u, v) = (inp.pick(stream, n), inp.pick(stream + 1, n));
        stream += 2;
        if u != v && !g.has_edge(u, v) && !pairs.contains(&(u, v)) && !pairs.contains(&(v, u)) {
            pairs.push((u, v));
        }
    }
    pairs
}

/// `count` values evenly spread over `[lo, hi]`.
fn grid(lo: u64, hi: u64, count: usize) -> impl DoubleEndedIterator<Item = u64> {
    let steps = (count as u64).saturating_sub(1).max(1);
    (0..count as u64).map(move |k| lo + (hi - lo) * k / steps)
}

/// One segment's arrival trace: the request kinds of
/// `MixedTraceSpec::balanced` (54 % walks, 20 % cohorts, 12 % trees, 8 %
/// mixing probes, 6 % churn deltas) in *exact* counts and a
/// seed-shuffled order, so every seed
/// serves the same multiset of requests and only order, sources, tenants
/// and arrival times vary. Gaps are uniform in `[0, 1200]` rounds: open
/// loop in virtual time at about half load.
///
/// The first arrival is the longest walk, at time zero: the session
/// sizes its short-walk store for the first stitched request it sees
/// and rebuilds it when a later request wants twice the length, so
/// without this the store regime — and with it rounds and memory by a
/// factor of two — would ride on where the long requests fall.
fn segment_trace(
    inp: &Inputs,
    segment: usize,
    n: usize,
    pairs: &[(NodeId, NodeId)],
) -> ArrivalTrace {
    let events = inp.scaled(SEGMENT_EVENTS);
    let base = 10_000 * (segment as u64 + 1);
    let pick = |stream: u64, bound: usize| inp.pick(base + stream, bound);
    let source = |i: usize| pick(4 * i as u64, n);
    let share = |pct: usize| events * pct / 100;

    let cohorts = share(20);
    let (trees, probes, deltas) = (share(12), share(8), share(6));
    let walks = events - trees - probes - deltas - cohorts;
    let cohort_lens = grid(128, 512, cohorts);
    // Longest first: walk 0 leads the trace (see above).
    let walk_lens = grid(128, 1024, walks).rev();
    let mut pair_active = vec![false; pairs.len()];
    let mut requests: Vec<Request> = Vec::with_capacity(events);
    requests.extend(
        walk_lens
            .enumerate()
            .map(|(i, len)| Request::walk(source(i), len)),
    );
    requests.extend(cohort_lens.enumerate().map(|(i, len)| {
        let k = 2 + i % 3;
        let sources = (0..k).map(|j| pick(4 * (i + j) as u64 + 1, n)).collect();
        Request::many_walks(sources, len)
    }));
    requests.extend((0..trees).map(|i| Request::spanning_tree(pick(4 * i as u64 + 2, n))));
    requests.extend((0..probes).map(|i| Request::mixing_probe(pick(4 * i as u64 + 3, n), 64)));
    // Placeholders: the deltas are filled in below, in arrival order.
    requests.extend((0..deltas).map(|_| Request::mutate(TopologyDelta::new())));
    // Shuffle everything but the leading longest walk.
    for i in (2..requests.len()).rev() {
        requests.swap(i, 1 + pick(5000 + i as u64, i));
    }

    let mut trace = ArrivalTrace::new();
    let mut at = 0;
    for (i, mut request) in requests.into_iter().enumerate() {
        if i > 0 {
            at += pick(6000 + i as u64, 1201) as u64;
        }
        // Each delta toggles its pair's current state, so it is valid
        // whatever the shuffle did.
        if matches!(request, Request::Mutate(_)) {
            let p = pick(7000 + i as u64, pairs.len());
            let (u, v) = pairs[p];
            let delta = if pair_active[p] {
                TopologyDelta::new().remove_edge(u, v)
            } else {
                TopologyDelta::new().add_edge(u, v)
            };
            pair_active[p] = !pair_active[p];
            request = Request::mutate(delta);
        }
        trace = trace.push(at, pick(8000 + i as u64, 3) as u32, request);
    }
    trace
}

fn service_inputs(inp: &Inputs, tr: &mut Tracer) -> ServiceInputs {
    let (g, build_s) = torus(inp, tr);
    let pairs = churn_pairs(inp, &g);
    let traces = (0..SEGMENTS)
        .map(|s| segment_trace(inp, s, g.n(), &pairs))
        .collect();
    ServiceInputs {
        g,
        build_s,
        pairs,
        traces,
    }
}

/// One served trace and the service that served it.
struct Served {
    wall_s: f64,
    run: drw_core::TraceRun,
    service: Service,
}

fn serve(
    inp: &Inputs,
    g: &Graph,
    segment: usize,
    trace: &ArrivalTrace,
    policy: ServiceConfig,
    tr: &mut Tracer,
) -> Result<Served, Error> {
    let (mut service, _) = tr.span("core.service.build", |_| {
        Service::builder(g)
            .engine(inp.engine.clone())
            .service_config(policy)
            .seed(inp.sub(8000 + segment as u64))
            .build()
    });
    let (run, wall_s) = tr.span("core.service.serve_trace", |_| service.serve_trace(trace));
    Ok(Served {
        wall_s,
        run: run?,
        service,
    })
}

/// Mean turnaround, in rounds, of the events that arrived after time
/// zero (the ones a policy can make wait).
fn mean_late_turnaround(run: &drw_core::TraceRun) -> f64 {
    let late: Vec<u64> = run
        .completions
        .iter()
        .filter(|c| c.submitted_at > 0)
        .map(|c| c.turnaround())
        .collect();
    late.iter().sum::<u64>() as f64 / late.len().max(1) as f64
}

/// Folds one served segment's outputs into the pass: per-event rounds,
/// digest, correctness checks. Returns the admission waits.
fn absorb_segment(
    pass: &mut Pass,
    digest: &mut Digest,
    si: &ServiceInputs,
    served: &Served,
) -> Vec<u64> {
    let n = si.g.n();
    let is_edge =
        |u, v| si.g.has_edge(u, v) || si.pairs.contains(&(u, v)) || si.pairs.contains(&(v, u));
    let mut tickets = Vec::new();
    let mut waits = Vec::new();
    for c in &served.run.completions {
        let id = c.ticket.id();
        tickets.push(id);
        digest.push(id);
        digest.push(c.completed_at);
        pass.op_rounds.push(c.turnaround());
        waits.push(c.admission_latency());
        match &c.response {
            Ok(Response::Walk(r)) => {
                check_destination(pass, id as usize, r.destination, n);
                digest.push(r.destination as u64);
            }
            Ok(Response::ManyWalks(r)) => {
                for &d in &r.destinations {
                    check_destination(pass, id as usize, d, n);
                    digest.push(d as u64);
                }
            }
            Ok(Response::SpanningTree(t)) => {
                if let Err(why) = check_tree(n, &t.edges, is_edge) {
                    pass.errors.push(format!("ticket {id}: {why}"));
                }
                for &(u, v) in &t.edges {
                    digest.push(u as u64);
                    digest.push(v as u64);
                }
            }
            Ok(Response::MixingTime(m)) => digest.push(m.tau_estimate),
            Ok(Response::Epoch(e)) => digest.push(e.epoch),
            Err(e) => {
                pass.failed += 1;
                pass.errors.push(format!("ticket {id}: {e}"));
            }
        }
    }
    let rejected = served.run.rejections.len();
    pass.failed += rejected as u64;
    let reconciles = served.service.report().reconciles();
    let events = tickets.len() + rejected;
    if let Err(why) = check_service(events, &tickets, rejected, reconciles) {
        pass.errors.push(why);
    }
    waits
}

fn service_pass(w: Workload, inp: &Inputs, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let si = timed_setup(w, &mut pass, tr, |tr| service_inputs(inp, tr));
    pass.requests_per_call = inp.scaled(SEGMENT_EVENTS);

    let mut digest = Digest::default();
    let mut waits = Vec::new();
    let mut totals = ServiceTotals::default();
    let (_, wall_s) = tr.timed_ops(|tr| {
        for (s, trace) in si.traces.iter().enumerate() {
            tr.op = s as u32 + 1;
            pass.attempted += trace.len() as u64;
            let served = match serve(inp, &si.g, s, trace, ServiceConfig::default(), tr) {
                Ok(served) => served,
                Err(e) => {
                    pass.failed += trace.len() as u64;
                    pass.errors.push(format!("segment {s}: serve_trace: {e}"));
                    continue;
                }
            };
            if served.run.completions.len() + served.run.rejections.len() != trace.len() {
                pass.errors
                    .push(format!("segment {s}: events went missing"));
            }
            pass.op_ms.push(served.wall_s * 1e3);
            waits.extend(absorb_segment(&mut pass, &mut digest, &si, &served));
            totals.add(&served.service);
        }
    });
    pass.wall_s = wall_s;
    pass.rounds = totals.engine_rounds;
    pass.digest = digest.value();

    let mut layer = Layer::default();
    generator_rows(&mut layer, &si.g, si.build_s);
    engine_rows(&mut layer, &pass);
    let (waves, rounds) = (totals.waves as f64, pass.rounds as f64);
    layer.set("core.service.waves", waves);
    layer.set_ratio("core.service.us_per_wave", wall_s * 1e6, waves);
    layer.set_ratio("core.service.rounds_per_wave", rounds, waves);
    layer.set_ratio("core.service.us_per_round", wall_s * 1e6, rounds);
    layer.set("core.service.setup_rounds", totals.setup_rounds as f64);
    layer.set("core.service.churn_rounds", totals.churn_rounds as f64);
    layer.set("core.service.rejected", totals.rejected as f64);
    if !waits.is_empty() {
        layer.set(
            "core.service.admission_wait_rounds_p50",
            percentile(&waits, 0.5) as f64,
        );
    }
    layer.set("core.session.topups", totals.topups as f64);
    layer.set_ratio(
        "core.session.topup_round_share",
        totals.topup_rounds as f64,
        rounds,
    );
    layer.set(
        "core.session.walks_discarded",
        totals.walks_discarded as f64,
    );
    layer.set("core.session.repairs", totals.repairs as f64);
    layer.set("core.session.repair_bfs_reruns", totals.bfs_reruns as f64);
    layer.set("core.session.walks_evicted", totals.walks_evicted as f64);
    if let Some(m) = &totals.state {
        state_rows(&mut layer, m);
    }
    pass.layer = layer;
    pass
}

/// Sums of the segments' service reports and session counters (the
/// state census is the last segment's).
#[derive(Default)]
struct ServiceTotals {
    engine_rounds: u64,
    waves: u64,
    setup_rounds: u64,
    churn_rounds: u64,
    rejected: u64,
    topups: u64,
    topup_rounds: u64,
    walks_discarded: u64,
    repairs: u64,
    bfs_reruns: u64,
    walks_evicted: u64,
    state: Option<StateMemory>,
}

impl ServiceTotals {
    fn add(&mut self, service: &Service) {
        let report = service.report();
        self.engine_rounds += report.engine_rounds;
        self.waves += report.waves;
        self.setup_rounds += report.setup_rounds;
        self.churn_rounds += report.churn_rounds;
        self.rejected += report.rejected;
        if let Some(session) = service.session() {
            self.topups += session.topups();
            self.topup_rounds += session.rounds_topup();
            self.walks_discarded += session.walks_discarded();
            self.repairs += session.repairs();
            self.bfs_reruns += session.repair_bfs_reruns();
            self.walks_evicted += session.walks_evicted();
            self.state = Some(session.state().memory_report());
        }
    }
}

// --------------------------------------------------------- side probes

/// The traced run's side probes: short extra measurements, each under
/// its own span, that fill the ledger rows a timed pass cannot reach
/// through the kept API.
pub fn side_probes(w: Workload, inp: &Inputs, layer: &mut Layer, tr: &mut Tracer) {
    tr.op = 0;
    match w {
        Workload::ColdDense | Workload::ColdDensePar => {
            let (g, _) = expander(inp, inp.scaled(COLD_N), tr);
            phase1_probe(inp, &g, 1024, layer, tr);
        }
        Workload::WarmStitch => {
            let spec = SessionSpec::warm_stitch(inp);
            let (g, _) = expander(inp, spec.n, tr);
            phase1_probe(inp, &g, spec.len, layer, tr);
            batch8_probe(inp, &g, spec.len, layer, tr);
        }
        Workload::SparseTail => {
            // Session open and BFS only: a store build at this size
            // would cost more than the whole timed pass.
            let (g, _) = expander(inp, SessionSpec::sparse_tail(inp).n, tr);
            open_probe(inp, &g, layer, tr);
        }
        Workload::RstCover => {
            let (g, _) = torus(inp, tr);
            phase1_probe(inp, &g, 512, layer, tr);
        }
        Workload::ServiceMix => {
            let si = service_inputs(inp, tr);
            phase1_probe(inp, &si.g, 512, layer, tr);
            policy_probe(inp, &si, layer, tr);
            growth_probe(inp, &si, layer, tr);
            churn_share_probe(inp, &si, layer, tr);
            churn_probe(inp, &si, layer, tr);
            mixing_probe(inp, &si.g, layer, tr);
        }
    }
}

/// `core.session.open_s` and the BFS inside it: `WalkSession::new` is a
/// connectivity check plus the anchor BFS, so the BFS time is the open
/// span minus a separately timed connectivity check.
fn open_probe(inp: &Inputs, g: &Graph, layer: &mut Layer, tr: &mut Tracer) -> Option<WalkSession> {
    let (_, connected_s) = tr.span("graph.traversal.is_connected", |_| {
        traversal::is_connected(g)
    });
    let (session, open_s) = open_session(inp, g, tr);
    let session = session.ok()?;
    layer.set("core.session.open_s", open_s);
    layer.set("congest.primitives.bfs_s", (open_s - connected_s).max(0.0));
    layer.set("congest.primitives.bfs_rounds", session.rounds_bfs() as f64);
    Some(session)
}

/// Phase 1 in isolation: the first `len`-step walk on a fresh session
/// builds the store; three more walks of the same length from the same
/// source give the warm cost to subtract.
fn phase1_probe(inp: &Inputs, g: &Graph, len: u64, layer: &mut Layer, tr: &mut Tracer) {
    let Some(mut session) = open_probe(inp, g, layer, tr) else {
        return;
    };
    let source = inp.pick(4, g.n());
    let mut walk = |session: &mut WalkSession, name| {
        let before = session.runner_mut().total_messages();
        let (outcome, secs) = tr.span(name, |_| session.single_walk(source, len));
        let msgs = session.runner_mut().total_messages() - before;
        outcome.ok().map(|_| (secs, msgs as f64))
    };
    let Some((first_s, first_msgs)) = walk(&mut session, "core.session.first_walk") else {
        return;
    };
    let phase1_rounds = session.rounds_topup();
    let walks_added = session.walks_added();
    let warm: Vec<(f64, f64)> = (0..3)
        .filter_map(|_| walk(&mut session, "core.session.single_walk"))
        .collect();
    if warm.is_empty() {
        return;
    }
    let warm_s = median(&warm.iter().map(|w| w.0).collect::<Vec<_>>());
    let warm_msgs = median(&warm.iter().map(|w| w.1).collect::<Vec<_>>());
    let phase1_s = (first_s - warm_s).max(0.0);
    let phase1_msgs = (first_msgs - warm_msgs).max(0.0);
    layer.set("core.short_walks.phase1_s", phase1_s);
    layer.set("core.short_walks.phase1_rounds", phase1_rounds as f64);
    layer.set("core.short_walks.phase1_msgs", phase1_msgs);
    layer.set("core.short_walks.walks_added", walks_added as f64);
    // One token step is one message.
    layer.set_ratio(
        "core.short_walks.ns_per_token_step",
        phase1_s * 1e9,
        phase1_msgs,
    );
}

/// Eight walks per `run_batch` on a warm shared session: rounds are
/// shared across the batch, host time mostly is not.
fn batch8_probe(inp: &Inputs, g: &Graph, len: u64, layer: &mut Layer, tr: &mut Tracer) {
    let mut net = Network::builder(g)
        .engine(inp.engine.clone())
        .seed(inp.sub(9))
        .build();
    let batch = |round: u64| -> Vec<Request> {
        (0..8)
            .map(|j| Request::walk(inp.pick(600 + 8 * round + j, g.n()), len))
            .collect()
    };
    // The first batch builds the shared session and its store.
    if net.run_batch(batch(0)).is_err() {
        return;
    }
    let before = net.session_rounds();
    let (out, secs) = tr.span("core.network.run_batch", |_| net.run_batch(batch(1)));
    if out.is_ok() {
        let rounds = (net.session_rounds() - before) as f64;
        layer.set("core.network.batch8_rounds_per_walk", rounds / 8.0);
        layer.set("core.network.batch8_ms_per_walk", secs * 1e3 / 8.0);
    }
}

/// The first two segments under both admission policies: how much
/// later late arrivals resolve when admission waits for the batch
/// boundary than under continuous batching.
fn policy_probe(inp: &Inputs, si: &ServiceInputs, layer: &mut Layer, tr: &mut Tracer) {
    let mut late = |policy: fn() -> ServiceConfig| -> Option<f64> {
        let mut sum = 0.0;
        for (s, trace) in si.traces.iter().enumerate().take(2) {
            let served = serve(inp, &si.g, s, trace, policy(), tr).ok()?;
            sum += mean_late_turnaround(&served.run);
        }
        Some(sum)
    };
    if let (Some(boundary), Some(continuous)) =
        (late(ServiceConfig::boundary), late(ServiceConfig::default))
    {
        layer.set_ratio("core.service.late_turnaround_ratio", boundary, continuous);
    }
}

/// A trace of the given arrivals (kept in order).
fn subtrace<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> ArrivalTrace {
    events.into_iter().fold(ArrivalTrace::new(), |t, e| {
        t.push(e.at, e.tenant, e.request.clone())
    })
}

/// The first two segments with and without their churn deltas: the
/// share of host time that topology churn (barriers, session repair,
/// eviction and the top-ups that follow) adds to serving the rest.
fn churn_share_probe(inp: &Inputs, si: &ServiceInputs, layer: &mut Layer, tr: &mut Tracer) {
    let (mut with, mut without) = (0.0, 0.0);
    for (s, trace) in si.traces.iter().enumerate().take(2) {
        let calm = subtrace(
            trace
                .events()
                .iter()
                .filter(|e| !matches!(e.request, Request::Mutate(_))),
        );
        let policy = ServiceConfig::default;
        let (Ok(a), Ok(b)) = (
            serve(inp, &si.g, s, trace, policy(), tr),
            serve(inp, &si.g, s, &calm, policy(), tr),
        ) else {
            return;
        };
        with += a.wall_s;
        without += b.wall_s;
    }
    layer.set_ratio("core.service.churn_wall_share", with - without, with);
}

/// Host time per event on the first segment over host time per event
/// on the first half of its arrivals (best of three each): above 1
/// means cost grows with history.
fn growth_probe(inp: &Inputs, si: &ServiceInputs, layer: &mut Layer, tr: &mut Tracer) {
    let Some(full) = si.traces.first() else {
        return;
    };
    let half = subtrace(&full.events()[..full.len() / 2]);
    let mut ms_per_event = |trace: &ArrivalTrace| -> Option<f64> {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let served = serve(inp, &si.g, 0, trace, ServiceConfig::default(), tr).ok()?;
            best = best.min(served.wall_s);
        }
        Some(best * 1e3 / trace.len().max(1) as f64)
    };
    if let (Some(full_ms), Some(half_ms)) = (ms_per_event(full), ms_per_event(&half)) {
        layer.set_ratio("core.service.wall_per_event_growth", full_ms, half_ms);
    }
}

/// `Topology::apply` followed by `WalkSession::sync` on a warm session,
/// toggling each churn pair on and off.
fn churn_probe(inp: &Inputs, si: &ServiceInputs, layer: &mut Layer, tr: &mut Tracer) {
    let topo = Topology::new(si.g.clone());
    let anchor = inp.pick(3, si.g.n());
    let Ok(mut session) = WalkSession::attach(&topo, anchor, &inp.walk_cfg(), inp.sub(2)) else {
        return;
    };
    if session.single_walk(anchor, 512).is_err() {
        return;
    }
    let (mut apply_us, mut sync_ms) = (Vec::new(), Vec::new());
    for add in [true, false] {
        for &(u, v) in &si.pairs {
            let delta = if add {
                TopologyDelta::new().add_edge(u, v)
            } else {
                TopologyDelta::new().remove_edge(u, v)
            };
            let (applied, secs) = tr.span("graph.topology.apply", |_| topo.apply(&delta));
            if applied.is_err() {
                return;
            }
            apply_us.push(secs * 1e6);
            let (synced, secs) = tr.span("core.session.sync", |_| session.sync());
            if synced.is_err() {
                return;
            }
            sync_ms.push(secs * 1e3);
        }
    }
    layer.set("graph.topology.apply_us_p50", median(&apply_us));
    layer.set("core.session.sync_ms_p50", median(&sync_ms));
}

/// A loop of one-shot stationarity probes, the cheapest request kind
/// in the mix.
fn mixing_probe(inp: &Inputs, g: &Graph, layer: &mut Layer, tr: &mut Tracer) {
    let (mut ms, mut rounds) = (Vec::new(), 0u64);
    for k in 0..inp.scaled(8) as u64 {
        let mut net = Network::builder(g)
            .engine(inp.engine.clone())
            .seed(inp.sub(700 + k))
            .build();
        let source = inp.pick(720 + k, g.n());
        let (out, secs) = tr.span("mixing.probe", |_| {
            net.run(Request::mixing_probe(source, 64))
        });
        if let Ok(response) = out {
            ms.push(secs * 1e3);
            rounds += response.rounds();
        }
    }
    if !ms.is_empty() {
        layer.set("mixing.probe_ms_p50", median(&ms));
        layer.set("mixing.rounds_per_probe", rounds as f64 / ms.len() as f64);
    }
}
