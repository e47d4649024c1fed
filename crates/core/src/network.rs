//! The unified `Network` service facade: typed requests, one handle,
//! and a heterogeneous request scheduler.
//!
//! The paper's primitive is a *service* — a network that answers
//! walk-sample requests in `~O(sqrt(l * D))` rounds — and its
//! applications are clients of that service (the follow-up
//! "Near-Optimal Random Walk Sampling in Distributed Networks",
//! arXiv:1201.1363, makes the serving problem explicit). [`Network`] is
//! that service as an API: build a long-lived handle with
//! [`Network::builder`], submit typed [`Request`]s one-shot with
//! [`Network::run`], or submit a *batch* with [`Network::run_batch`],
//! where the request scheduler lowers every request into walk/stitch
//! work items and advances them through **shared** engine runs — four
//! walk requests from different sources plus a mixing probe share BFS
//! waves and Phase-1 launches instead of serializing.
//!
//! # One-shot vs batched
//!
//! Every request kind is driven by exactly one state machine
//! (`network/drivers.rs`), advanced wave by wave through
//! [`WalkSession::run_wave`]; the two entry points differ only in whose
//! session the waves run on.
//!
//! - [`Network::run`] serves the request with its own setup, as a
//!   *batch of one*: a private session anchored at the request's own
//!   source/root (one BFS), the request's driver run to completion on
//!   it, the session discarded. A walk is a one-lane wave and a
//!   many-walks request a `k`-lane wave over a store built for it (one
//!   full Phase 1, skipped when no walk is long enough to stitch); the
//!   doubling extensions of a tree (or the probes of an estimate) share
//!   one BFS and one short-walk store. The response's `rounds` is that
//!   private session's whole bill, and it carries what only a request
//!   that owns its session can know (`rounds_bfs`, `connector_visits`,
//!   the final `state`). The first request uses the builder seed
//!   verbatim; request `i > 0` uses `derive_seed(seed, i)`. The legacy
//!   free functions (`single_random_walk`, `many_random_walks`,
//!   `distributed_rst`, `estimate_mixing_time`) are thin shims over a
//!   throwaway `Network`.
//! - [`Network::run_batch`] owns one persistent [`WalkSession`]
//!   (created lazily on the first batch: one BFS, one shared short-walk
//!   store) and advances all requests concurrently in *super-steps*:
//!   each step collects every active request's next walk work items —
//!   plain walks, `MANY-RANDOM-WALKS` cohorts (or their Theorem 2.8
//!   `k + l` naive-fallback tokens), a spanning-tree request's next
//!   doubling extension, a mixing request's next probe cohort — and
//!   runs them in **one** multiplexed engine run
//!   ([`WalkSession::run_wave`], request-tagged via
//!   [`drw_congest::Mux2`]). Private per-request protocols (cover-check
//!   convergecasts, histogram upcasts) run between waves on the same
//!   session runner and are billed to their request alone.
//!
//! # Round accounting in batches
//!
//! A wave's rounds are genuinely shared, so they cannot be attributed
//! exclusively: every response reports the full rounds of the waves its
//! request rode plus its private inter-wave rounds. The *batch total*
//! ([`Network::session_rounds`]) is the real shared bill — the quantity
//! experiment E13 compares against sequential execution. Batched
//! responses leave one-shot-only fields at their neutral values
//! (`rounds_bfs = 0` — the session BFS is shared, `connector_visits`
//! all zero, an empty final `state`; `TreeSample::bfs_runs = 0`).

pub(crate) mod drivers;
mod mixing;
mod spanning;

pub use spanning::MAX_TOTAL_WALK_LEN;

use crate::error::Error;
use crate::request::{Request, Response};
use crate::session::WalkSession;
use crate::single_walk::SingleWalkConfig;
use drivers::{ConnectorVisits, Member, Slot};
use drw_congest::{derive_seed, EngineConfig, ExecutorKind};
use drw_graph::{EpochReport, Graph, NodeId, Topology, TopologyDelta};
use std::sync::Arc;

use crate::params::WalkParams;

/// Seed tag for the network's shared batch session (one-shot requests
/// derive their own seeds; see the module docs).
const SESSION_SEED_TAG: u64 = 0x5E55;

/// Builder for a [`Network`] handle.
///
/// | method | configures | default |
/// |---|---|---|
/// | [`executor`](NetworkBuilder::executor) | round-executor backend | sequential |
/// | [`engine`](NetworkBuilder::engine) | full engine config (bandwidth, caps) | [`EngineConfig::default`] |
/// | [`params`](NetworkBuilder::params) | `lambda` / `eta` selection | [`WalkParams::default`] |
/// | [`config`](NetworkBuilder::config) | the whole walk config at once | [`SingleWalkConfig::default`] |
/// | [`seed`](NetworkBuilder::seed) | deterministic RNG seed | 0 |
/// | [`anchor`](NetworkBuilder::anchor) | batch session's BFS anchor | node 0 |
#[derive(Debug, Clone)]
pub struct NetworkBuilder<'g> {
    src: BuilderSource<'g>,
    cfg: SingleWalkConfig,
    seed: u64,
    anchor: NodeId,
}

/// Where a builder gets its topology from: a borrowed static graph
/// (wrapped into a private [`Topology`] at build time) or a shared
/// versioned handle.
#[derive(Debug, Clone)]
enum BuilderSource<'g> {
    Graph(&'g Graph),
    Topo(Topology),
}

impl<'g> NetworkBuilder<'g> {
    /// Selects the round-executor backend (results are bit-identical
    /// across backends; only wall-clock time changes).
    pub fn executor(mut self, kind: ExecutorKind) -> Self {
        self.cfg.engine = self.cfg.engine.with_executor(kind);
        self
    }

    /// Replaces the engine configuration (bandwidth, round caps,
    /// executor).
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Sets the walk parameters (`lambda` scale, `eta`).
    pub fn params(mut self, params: WalkParams) -> Self {
        self.cfg.params = params;
        self
    }

    /// Replaces the whole walk configuration (parameters, ablation
    /// toggles, engine) at once — what the legacy free-function shims
    /// use to forward their config structs.
    pub fn config(mut self, cfg: SingleWalkConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the deterministic seed (request `i` derives its seed from
    /// it; see the module docs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the batch session's BFS anchor (default: node 0). One-shot
    /// requests root their own setup at their sources.
    pub fn anchor(mut self, anchor: NodeId) -> Self {
        self.anchor = anchor;
        self
    }

    /// Builds the handle. Cheap: no BFS, no connectivity check — setup
    /// is paid by the first request (one-shot) or the first batch (the
    /// shared session), and input validation happens per request, which
    /// is what keeps the legacy shims zero-overhead. A borrowed static
    /// graph is wrapped into a private [`Topology`] (epoch 0); a shared
    /// handle ([`Network::over`]) is observed live.
    pub fn build(self) -> Network {
        let topo = match self.src {
            BuilderSource::Graph(g) => Topology::new(g.clone()),
            BuilderSource::Topo(t) => t,
        };
        Network {
            topo,
            cfg: self.cfg,
            base_seed: self.seed,
            requests_issued: 0,
            anchor: self.anchor,
            session: None,
        }
    }
}

/// A long-lived handle to the walk service over one graph (see the
/// module docs).
///
/// # Example
///
/// ```
/// use drw_core::network::Network;
/// use drw_core::request::{Request, Response};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_core::Error> {
/// let g = generators::torus2d(8, 8);
/// let mut net = Network::builder(&g).seed(7).build();
/// // One-shot: what the legacy single_random_walk runs.
/// let walk = net.run(Request::walk(0, 1024))?.into_walk();
/// assert!(walk.rounds < 1024, "sublinear in the walk length");
/// // Batched: heterogeneous requests share engine runs.
/// let responses = net.run_batch(vec![
///     Request::walk(0, 512),
///     Request::walk(21, 512),
/// ])?;
/// assert_eq!(responses.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    cfg: SingleWalkConfig,
    base_seed: u64,
    requests_issued: u64,
    anchor: NodeId,
    session: Option<WalkSession>,
}

impl Network {
    /// Starts building a network handle over a static graph `g` (the
    /// handle wraps a private versioned [`Topology`] around a clone of
    /// it, so [`Network::apply_delta`] works on any network).
    pub fn builder(g: &Graph) -> NetworkBuilder<'_> {
        NetworkBuilder {
            src: BuilderSource::Graph(g),
            cfg: SingleWalkConfig::default(),
            seed: 0,
            anchor: 0,
        }
    }

    /// Starts building a network handle over a *shared* versioned
    /// [`Topology`]: deltas applied through any clone of the handle
    /// (including by other components) are observed live, and the
    /// shared session repairs incrementally on its next use.
    pub fn over(topo: Topology) -> NetworkBuilder<'static> {
        NetworkBuilder {
            src: BuilderSource::Topo(topo),
            cfg: SingleWalkConfig::default(),
            seed: 0,
            anchor: 0,
        }
    }

    /// The current graph snapshot this network serves.
    pub fn graph(&self) -> Arc<Graph> {
        self.topo.snapshot()
    }

    /// The versioned topology behind this network.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Applies a topology delta (validated, transactional; see
    /// [`Topology::apply`]). The shared batch session is *not* repaired
    /// here — it repairs itself incrementally at its next use, so churn
    /// between batches costs nothing until traffic actually arrives.
    ///
    /// # Errors
    ///
    /// [`Error::Graph`] when the delta is rejected; the topology is
    /// unchanged.
    pub fn apply_delta(&mut self, delta: &TopologyDelta) -> Result<EpochReport, Error> {
        Ok(self.topo.apply(delta)?)
    }

    /// Crashes the highest-numbered node: one forced [`TopologyDelta`]
    /// that detaches all of its edges and retires the node, expressed
    /// through the ordinary [`Network::apply_delta`] path so the shared
    /// session heals it exactly like any other churn (stored walks on
    /// the crashed node are evicted at the next repair; in-flight work
    /// re-routes on the shrunken epoch).
    ///
    /// The dense-id contract only permits retiring the *last* node —
    /// the fault suites crash recently joined nodes, which is also the
    /// realistic churn shape (the long-lived core stays, the newest
    /// arrival fails).
    ///
    /// # Errors
    ///
    /// [`Error::Graph`] when the crash would disconnect the survivors
    /// (the partition case: the delta is rejected atomically and the
    /// topology is unchanged) or when the network has a single node.
    pub fn crash_last_node(&mut self) -> Result<EpochReport, Error> {
        let g = self.topo.snapshot();
        let v = g.n() - 1;
        let mut delta = TopologyDelta::new();
        for u in g.neighbors(v) {
            delta = delta.remove_edge(u, v);
        }
        self.apply_delta(&delta.remove_node(v))
    }

    /// Rejoins a crashed (or brand-new) node with the given attachment
    /// edges: one forced [`TopologyDelta`] that appends a node — it
    /// gets the next dense id, returned in the report's `touched` set —
    /// and wires it to `neighbors`. The session picks the newcomer up
    /// at its next incremental repair.
    ///
    /// # Errors
    ///
    /// [`Error::Graph`] when `neighbors` is empty (the newcomer would
    /// be disconnected) or names an unknown node; the delta is rejected
    /// atomically.
    pub fn rejoin_node(&mut self, neighbors: &[NodeId]) -> Result<EpochReport, Error> {
        let v = self.topo.snapshot().n();
        let mut delta = TopologyDelta::new().add_node();
        for &u in neighbors {
            delta = delta.add_edge(u, v);
        }
        self.apply_delta(&delta)
    }

    /// The walk configuration every request runs under.
    pub fn config(&self) -> &SingleWalkConfig {
        &self.cfg
    }

    /// Total CONGEST rounds billed to the shared batch session so far
    /// (0 before the first [`Network::run_batch`]): the real shared
    /// cost of all batches, including the one session BFS. One-shot
    /// requests bill their own private runners instead (reported in
    /// their responses).
    pub fn session_rounds(&self) -> u64 {
        self.session.as_ref().map_or(0, |s| s.total_rounds())
    }

    /// The shared batch session, if one was created.
    pub fn session(&self) -> Option<&WalkSession> {
        self.session.as_ref()
    }

    /// The seed for the next request: the base seed verbatim for
    /// request 0 (so a one-request throwaway network — a legacy shim —
    /// runs on exactly the seed its caller passed), derived for every
    /// later request.
    fn next_seed(&mut self) -> u64 {
        let i = self.requests_issued;
        self.requests_issued += 1;
        if i == 0 {
            self.base_seed
        } else {
            derive_seed(self.base_seed, i)
        }
    }

    /// Serves one request with its own setup (see the module docs).
    ///
    /// # Errors
    ///
    /// [`Error::Walk`] for walk failures (bad sources, disconnected
    /// graphs, engine errors, a mixing request with fewer than two
    /// samples per probe), [`Error::NotCovered`] /
    /// [`Error::LengthOverflow`] for spanning-tree requests.
    pub fn run(&mut self, request: Request) -> Result<Response, Error> {
        // Mutations consume no seed (they run no protocol), so a
        // request stream with interleaved churn derives the same walk
        // seeds as the same stream without it.
        if let Request::Mutate(delta) = request {
            return self.apply_delta(&delta).map(Response::Epoch);
        }
        let seed = self.next_seed();
        self.run_batch_of_one(self.topo.snapshot(), request, seed)
    }

    /// Serves one request as a batch of one over a private session
    /// anchored at the request's own source/root, then fills the fields
    /// only a request that owns its session can know: `rounds` is the
    /// session's whole bill (BFS included), the session's connectors
    /// and final walk state are the request's own, and a tree paid
    /// exactly one BFS.
    fn run_batch_of_one(
        &self,
        g: Arc<Graph>,
        request: Request,
        seed: u64,
    ) -> Result<Response, Error> {
        // Walk requests run on the request seed verbatim and trees and
        // estimates on a tagged derivation of it: each kind keeps the
        // random stream its legacy free function always had. (An empty
        // cohort has no anchor and needs none: it resolves below.)
        let (anchor, session_seed, record) = match &request {
            Request::Walk { source, record, .. } => (*source, seed, *record),
            Request::ManyWalks { sources, .. } => (sources.first().map_or(0, |&s| s), seed, false),
            Request::SpanningTree(t) => (t.root, derive_seed(seed, 0xC0FE), true),
            Request::MixingTime(m) => (m.source, derive_seed(seed, 0xB00), self.cfg.record_walk),
            Request::Mutate(_) => unreachable!("handled by the caller"),
        };
        // Validate before any protocol runs: a bad source is reported
        // ahead of a disconnected graph, and an empty cohort resolves
        // here, without a BFS.
        let mut slot = drivers::new_slot(request, &g)?;
        if let Some(response) = slot.response.take() {
            return Ok(response);
        }
        let cfg = SingleWalkConfig {
            record_walk: record,
            ..self.cfg.clone()
        };
        let topo = Topology::from_shared(g);
        let mut session = WalkSession::attach(&topo, anchor, &cfg, session_seed)?;
        let connectors = drain(&mut session, std::slice::from_mut(&mut slot))?;
        let mut response = slot.response.expect("drained slots are resolved");
        let rounds = session.total_rounds();
        let messages = session.runner_mut().total_messages();
        let rounds_bfs = session.rounds_bfs();
        let scatter = |dense: &mut [u32]| connectors.iter().for_each(|&(v, c)| dense[v] = c);
        match &mut response {
            Response::Walk(walk) => {
                (walk.rounds, walk.messages, walk.rounds_bfs) = (rounds, messages, rounds_bfs);
                scatter(&mut walk.connector_visits);
                // The session's store and forwarding logs, plus the
                // positions the walk recorded.
                let mut recorded = std::mem::replace(&mut walk.state, session.into_state());
                for (v, visit) in recorded.drain_visits() {
                    walk.state.record_visit(v, visit.pos, visit.pred());
                }
            }
            Response::ManyWalks(many) => {
                (many.rounds, many.messages, many.rounds_bfs) = (rounds, messages, rounds_bfs);
                scatter(&mut many.connector_visits);
                many.state = session.into_state();
            }
            Response::SpanningTree(tree) => {
                tree.rounds = rounds;
                tree.bfs_runs = 1;
            }
            Response::MixingTime(report) => report.rounds = rounds,
            Response::Epoch(_) => unreachable!("responses come back in the request's variant"),
        }
        Ok(response)
    }

    /// Serves a batch of heterogeneous requests over the network's
    /// shared session, multiplexing their walk work into shared engine
    /// runs (see the module docs; responses come back in request
    /// order).
    ///
    /// [`Request::Mutate`] entries act as barriers: the requests before
    /// one complete on the old epoch, the delta applies, and the
    /// requests after it are served on the mutated graph by the
    /// incrementally repaired session (repair rounds appear in
    /// [`Network::session_rounds`]).
    ///
    /// # Errors
    ///
    /// As [`Network::run`]; the first failing request (or rejected
    /// delta) aborts the rest of the batch.
    pub fn run_batch(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, Error> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        // Mutations consume no request seed (they run no protocol), in
        // batches exactly as in `run` — interleaved churn must not
        // shift the seed stream of the surrounding requests.
        self.requests_issued += requests
            .iter()
            .filter(|r| !matches!(r, Request::Mutate(_)))
            .count() as u64;
        let mut responses = Vec::with_capacity(requests.len());
        let mut segment: Vec<Request> = Vec::new();
        for request in requests {
            match request {
                Request::Mutate(delta) => {
                    if !segment.is_empty() {
                        let session = self.ensure_session()?;
                        responses.extend(run_batch_on(session, std::mem::take(&mut segment))?);
                    }
                    responses.push(Response::Epoch(self.topo.apply(&delta)?));
                }
                other => segment.push(other),
            }
        }
        if !segment.is_empty() {
            let session = self.ensure_session()?;
            responses.extend(run_batch_on(session, segment)?);
        }
        Ok(responses)
    }

    /// Lazily creates the shared batch session. Deferred to the first
    /// walk-bearing segment so a leading (or lone) [`Request::Mutate`]
    /// never pays a BFS on an epoch about to be superseded.
    fn ensure_session(&mut self) -> Result<&mut WalkSession, Error> {
        if self.session.is_none() {
            let cfg = SingleWalkConfig {
                record_walk: true,
                ..self.cfg.clone()
            };
            self.session = Some(WalkSession::attach(
                &self.topo,
                self.anchor,
                &cfg,
                derive_seed(self.base_seed, SESSION_SEED_TAG),
            )?);
        }
        Ok(self.session.as_mut().expect("session just ensured"))
    }
}

/// Serves one barrier-free batch on `session`, responses in request
/// order.
fn run_batch_on(session: &mut WalkSession, requests: Vec<Request>) -> Result<Vec<Response>, Error> {
    // Repair first, so the graph the requests are validated against is
    // the epoch this batch will be served on.
    let _ = session.sync()?;
    let g = session.graph();

    // Validate every request up front (building a slot runs no
    // protocol) so a bad source late in the batch cannot waste the
    // whole run.
    let mut slots: Vec<Slot> = requests
        .into_iter()
        .map(|request| drivers::new_slot(request, &g))
        .collect::<Result<_, _>>()?;
    drain(session, &mut slots)?;
    Ok(slots
        .into_iter()
        .map(|s| s.response.expect("every request resolved"))
        .collect())
}

/// Runs `slots` to completion on `session`: the caller policy over
/// [`drivers::wave_step`] is a fixed slot set and abort-on-first-error.
/// Returns the connector visits of the last wave — the whole of them for
/// a walk or many-walks request served alone, which rides exactly one.
fn drain(session: &mut WalkSession, slots: &mut [Slot]) -> Result<ConnectorVisits, Error> {
    // Round-robin pointer for the recording slot (see
    // `drivers::assemble_wave`): seeded past the last index so the
    // first grant falls to the lowest-indexed recorder.
    let mut last_recorder: usize = slots.len().saturating_sub(1);
    let mut connectors = Vec::new();
    loop {
        let active: Vec<Member<'_>> = slots
            .iter_mut()
            .enumerate()
            .filter(|(_, slot)| slot.response.is_none())
            .map(|(i, slot)| Member {
                key: i,
                req: i as u16,
                slot,
            })
            .collect();
        if active.is_empty() {
            return Ok(connectors);
        }
        let (steps, wave) = drivers::wave_step(session, active, &mut last_recorder)?;
        steps.into_iter().try_for_each(|step| step.result)?;
        connectors = wave.unwrap_or_default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{MixingRequest, TreeRequest};
    use crate::single_walk::WalkError;
    use drw_graph::generators;

    #[test]
    fn builder_configures_the_handle() {
        let g = generators::torus2d(4, 4);
        let net = Network::builder(&g)
            .executor(ExecutorKind::Sharded)
            .params(WalkParams {
                lambda_scale: 0.5,
                eta: 2.0,
            })
            .seed(9)
            .anchor(3)
            .build();
        assert_eq!(net.config().engine.executor, ExecutorKind::Sharded);
        assert_eq!(net.config().params.eta, 2.0);
        assert_eq!(net.graph().n(), 16);
        assert_eq!(net.session_rounds(), 0, "no session before the first batch");
    }

    #[test]
    fn one_shot_requests_resolve_every_kind() {
        let g = generators::torus2d(4, 4);
        let mut net = Network::builder(&g).seed(5).build();
        let walk = net.run(Request::walk(0, 64)).unwrap().into_walk();
        assert_eq!((walk.destination / 4 + walk.destination % 4) % 2, 0);
        let many = net
            .run(Request::many_walks(vec![0, 5], 64))
            .unwrap()
            .into_many_walks();
        assert_eq!(many.destinations.len(), 2);
        let tree = net.run(Request::spanning_tree(0)).unwrap().into_tree();
        assert_eq!(tree.edges.len(), g.n() - 1);
        let mix = net
            .run(Request::MixingTime(MixingRequest {
                max_len: 64,
                ..MixingRequest::full_estimate(0)
            }))
            .unwrap()
            .into_mixing();
        assert!(!mix.probes.is_empty());
        assert_eq!(net.session_rounds(), 0, "one-shot requests bill privately");
    }

    #[test]
    fn a_walk_request_is_a_batch_of_one() {
        // One wave on a private session anchored at the source, seeded
        // with the request seed verbatim; the response carries that
        // session's whole bill, split into phases that sum to it.
        let g = generators::torus2d(8, 8);
        for seed in [0u64, 7, 99] {
            let mut net = Network::builder(&g).seed(seed).build();
            let routed = net.run(Request::walk(5, 1024)).unwrap().into_walk();
            let mut session = WalkSession::new(&g, 5, &SingleWalkConfig::default(), seed).unwrap();
            let wave = session.single_walk(5, 1024).unwrap();
            assert_eq!(routed.destination, wave.destination, "seed {seed}");
            assert_eq!(routed.segments, wave.segments, "seed {seed}");
            assert_eq!(routed.rounds, session.total_rounds(), "seed {seed}");
            assert_eq!(routed.state.total_stored(), session.state().total_stored());
            let phase2 = routed.rounds_stitch + routed.rounds_tail + routed.rounds_replay;
            let phases = routed.rounds_bfs + routed.rounds_phase1 + phase2;
            assert_eq!(phases, routed.rounds, "seed {seed}");
            assert!(routed.rounds_stitch > 0 && routed.rounds_tail > 0);
            let connectors: u32 = routed.connector_visits.iter().sum();
            assert_eq!(u64::from(connectors), routed.stitches, "seed {seed}");
        }
    }

    #[test]
    fn distinct_requests_draw_distinct_seeds() {
        let g = generators::torus2d(6, 6);
        let mut net = Network::builder(&g).seed(11).build();
        let a = net.run(Request::walk(0, 512)).unwrap().into_walk();
        let b = net.run(Request::walk(0, 512)).unwrap().into_walk();
        // Same request twice must explore differently (different derived
        // seeds), yet a fresh network with the same base seed reproduces
        // the same sequence.
        let mut net2 = Network::builder(&g).seed(11).build();
        let a2 = net2.run(Request::walk(0, 512)).unwrap().into_walk();
        let b2 = net2.run(Request::walk(0, 512)).unwrap().into_walk();
        assert_eq!(a.destination, a2.destination);
        assert_eq!(b.destination, b2.destination);
        assert!(
            a.destination != b.destination || a.segments != b.segments,
            "request seeds must differ"
        );
    }

    #[test]
    fn batch_serves_heterogeneous_requests() {
        let g = generators::torus2d(6, 6);
        let mut net = Network::builder(&g).seed(31).build();
        let responses = net
            .run_batch(vec![
                Request::walk(0, 512),
                Request::walk(21, 512),
                Request::SpanningTree(TreeRequest {
                    initial_len: 4 * g.n() as u64,
                    ..TreeRequest::new(0)
                }),
                Request::mixing_probe(0, 64),
            ])
            .unwrap();
        assert_eq!(responses.len(), 4);
        let parity = |v: usize| (v / 6 + v % 6) % 2;
        match (&responses[0], &responses[1]) {
            (Response::Walk(a), Response::Walk(b)) => {
                assert_eq!(parity(a.destination), 0);
                assert_eq!(parity(b.destination), parity(21));
                assert!(a.rounds > 0);
            }
            other => panic!(
                "wrong response kinds: {:?}",
                (other.0.kind(), other.1.kind())
            ),
        }
        let tree = responses[2].clone().into_tree();
        assert_eq!(tree.edges.len(), g.n() - 1);
        assert!(tree.phases >= 1);
        let mix = responses[3].clone().into_mixing();
        assert_eq!(mix.probes.len(), 1);
        assert_eq!(mix.probes[0].len, 64);
        assert!(net.session_rounds() > 0, "batches bill the shared session");
    }

    #[test]
    fn batch_matches_sequential_semantics_for_many_walks_fallback() {
        // Theorem 2.8 regime rule inside a batch: large k, tiny l means
        // the naive branch, flagged exactly as the one-shot driver does.
        let g = generators::torus2d(4, 4);
        let mut net = Network::builder(&g).seed(3).build();
        let sources: Vec<NodeId> = (0..16).collect();
        let r = net
            .run_batch(vec![Request::many_walks(sources.clone(), 8)])
            .unwrap()
            .remove(0)
            .into_many_walks();
        assert!(r.used_naive_fallback);
        assert_eq!(r.stitches, 0);
        assert_eq!(r.destinations.len(), 16);
        for (&s, &d) in sources.iter().zip(&r.destinations) {
            assert_eq!((s / 4 + s % 4) % 2, (d / 4 + d % 4) % 2);
        }
    }

    #[test]
    fn two_tree_requests_alternate_recording_waves() {
        // Two spanning-tree requests in one batch: the recording slot
        // serializes their extensions across waves, but both finish and
        // both trees are valid.
        let g = generators::torus2d(4, 4);
        let mut net = Network::builder(&g).seed(77).build();
        let responses = net
            .run_batch(vec![
                Request::spanning_tree(0),
                Request::spanning_tree(5),
                Request::walk(3, 256),
            ])
            .unwrap();
        let t0 = responses[0].clone().into_tree();
        let t1 = responses[1].clone().into_tree();
        assert_eq!(t0.edges.len(), g.n() - 1);
        assert_eq!(t1.edges.len(), g.n() - 1);
        assert!(drw_graph::matrix_tree::is_spanning_tree(&g, &t0.edges));
        assert!(drw_graph::matrix_tree::is_spanning_tree(&g, &t1.edges));
    }

    #[test]
    fn apply_delta_repairs_the_session_on_next_use() {
        let g = generators::torus2d(6, 6);
        let mut net = Network::builder(&g).seed(17).build();
        let r1 = net
            .run_batch(vec![Request::many_walks(vec![0, 9], 512)])
            .unwrap()
            .remove(0)
            .into_many_walks();
        assert_eq!(r1.destinations.len(), 2);
        let report = net
            .apply_delta(&TopologyDelta::new().add_edge(0, 14))
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(net.topology().epoch(), 1);
        // The session lags until traffic arrives, then repairs once.
        assert_eq!(net.session().unwrap().epoch(), 0);
        let r2 = net
            .run_batch(vec![Request::many_walks(vec![0, 9], 512)])
            .unwrap()
            .remove(0)
            .into_many_walks();
        assert_eq!(r2.destinations.len(), 2);
        let session = net.session().unwrap();
        assert_eq!(session.epoch(), 1);
        assert_eq!(session.repairs(), 1);
        assert!(session.graph().has_edge(0, 14));
    }

    #[test]
    fn interleaved_mutations_act_as_batch_barriers() {
        let g = generators::torus2d(5, 5);
        let mut net = Network::builder(&g).seed(23).build();
        let responses = net
            .run_batch(vec![
                Request::walk(0, 256),
                Request::mutate(TopologyDelta::new().add_edge(0, 12)),
                Request::walk(12, 256),
            ])
            .unwrap();
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].kind(), "walk");
        let epoch = responses[1].clone().into_epoch();
        assert_eq!(epoch.epoch, 1);
        assert_eq!(epoch.touched, vec![0, 12]);
        assert_eq!(responses[2].kind(), "walk");
        // The second walk was served post-delta by the repaired session.
        assert_eq!(net.session().unwrap().epoch(), 1);
        assert_eq!(net.session().unwrap().repairs(), 1);
    }

    #[test]
    fn rejected_delta_aborts_the_batch_atomically() {
        let g = generators::path(4);
        let mut net = Network::builder(&g).seed(1).build();
        let err = net
            .run_batch(vec![
                Request::walk(0, 8),
                Request::mutate(TopologyDelta::new().remove_edge(1, 2)),
                Request::walk(0, 8),
            ])
            .unwrap_err();
        assert_eq!(err, Error::Graph(drw_graph::GraphError::Disconnects));
        assert_eq!(net.topology().epoch(), 0, "rejected deltas change nothing");
    }

    #[test]
    fn batched_mutate_consumes_no_seed_either() {
        // The batch path's counterpart of the one-shot invariant: a
        // mutate-only batch must not shift the seed of a later one-shot
        // request.
        let g = generators::torus2d(5, 5);
        let mut plain = Network::builder(&g).seed(19).build();
        let a = plain.run(Request::walk(0, 300)).unwrap().into_walk();
        let mut churned = Network::builder(&g).seed(19).build();
        let rs = churned
            .run_batch(vec![Request::mutate(TopologyDelta::new())])
            .unwrap();
        assert_eq!(rs[0].clone().into_epoch().epoch, 1);
        let b = churned.run(Request::walk(0, 300)).unwrap().into_walk();
        assert_eq!(a.destination, b.destination);
        assert_eq!(a.segments, b.segments);
        assert!(
            churned.session().is_none(),
            "a mutate-only batch must not pay a session build"
        );
    }

    #[test]
    fn one_shot_mutate_consumes_no_seed() {
        let g = generators::torus2d(5, 5);
        // Interleaving a (trivial) mutation must not perturb the walk
        // seeds of the surrounding one-shot requests.
        let mut plain = Network::builder(&g).seed(9).build();
        let a1 = plain.run(Request::walk(0, 300)).unwrap().into_walk();
        let a2 = plain.run(Request::walk(0, 300)).unwrap().into_walk();
        let mut churned = Network::builder(&g).seed(9).build();
        let b1 = churned.run(Request::walk(0, 300)).unwrap().into_walk();
        let epoch = churned
            .run(Request::mutate(TopologyDelta::new()))
            .unwrap()
            .into_epoch();
        assert_eq!(epoch.epoch, 1);
        let b2 = churned.run(Request::walk(0, 300)).unwrap().into_walk();
        assert_eq!(a1.destination, b1.destination);
        assert_eq!(a2.destination, b2.destination);
        assert_eq!(a2.segments, b2.segments);
    }

    #[test]
    fn network_over_shared_topology_observes_external_churn() {
        let topo = Topology::new(generators::torus2d(4, 4));
        let mut net = Network::over(topo.clone()).seed(3).build();
        // Churn applied by another component (a clone of the handle).
        let _ = topo.apply(&TopologyDelta::new().add_edge(0, 10)).unwrap();
        assert!(net.graph().has_edge(0, 10));
        let walk = net.run(Request::walk(0, 64)).unwrap().into_walk();
        assert!(walk.destination < 16);
    }

    #[test]
    fn empty_batch_is_free() {
        let g = generators::path(4);
        let mut net = Network::builder(&g).seed(1).build();
        assert!(net.run_batch(Vec::new()).unwrap().is_empty());
        assert!(net.session().is_none());
    }

    #[test]
    fn batch_rejects_bad_sources_before_running() {
        let g = generators::path(4);
        let mut net = Network::builder(&g).seed(1).build();
        let err = net
            .run_batch(vec![Request::walk(0, 8), Request::walk(9, 8)])
            .unwrap_err();
        assert_eq!(err, Error::Walk(WalkError::SourceOutOfRange(9)));
    }

    #[test]
    fn crash_and_rejoin_heal_through_the_session() {
        // Crash + rejoin as forced deltas: the shared session must
        // survive both (evicting the crashed node's stored walks,
        // adopting the rejoined id) and keep serving correct walks.
        let g = generators::torus2d(4, 4);
        let mut net = Network::builder(&g).seed(41).build();
        let r1 = net
            .run_batch(vec![Request::many_walks(vec![0, 5], 128)])
            .unwrap()
            .remove(0)
            .into_many_walks();
        assert_eq!(r1.destinations.len(), 2);

        let crash = net.crash_last_node().unwrap();
        assert_eq!(crash.epoch, 1);
        assert_eq!(net.graph().n(), 15);
        // Node 15's walks are gone from the repaired session.
        let r2 = net
            .run_batch(vec![Request::many_walks(vec![0, 5], 128)])
            .unwrap()
            .remove(0)
            .into_many_walks();
        for &d in &r2.destinations {
            assert!(d < 15, "walk landed on the crashed node");
        }
        assert_eq!(net.session().unwrap().epoch(), 1);

        let rejoin = net.rejoin_node(&[0, 3, 12]).unwrap();
        assert_eq!(rejoin.epoch, 2);
        assert_eq!(net.graph().n(), 16);
        assert!(net.graph().has_edge(15, 12));
        // The rejoined node serves as a source straight away.
        let r3 = net
            .run_batch(vec![Request::many_walks(vec![15, 0], 128)])
            .unwrap()
            .remove(0)
            .into_many_walks();
        assert_eq!(r3.destinations.len(), 2);
        assert_eq!(net.session().unwrap().epoch(), 2);
        assert_eq!(net.session().unwrap().repairs(), 2);
    }

    #[test]
    fn crash_that_partitions_is_rejected_atomically() {
        // The single-node floor: crashing down to one node works, but
        // crashing the last survivor must fail loudly and leave the
        // topology untouched (the same atomic-rejection path a
        // disconnecting crash takes).
        let g = generators::path(2);
        let mut net = Network::builder(&g).seed(1).build();
        let report = net.crash_last_node().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(net.graph().n(), 1);
        let err = net.crash_last_node().unwrap_err();
        assert!(matches!(err, Error::Graph(_)), "{err:?}");
        assert_eq!(net.graph().n(), 1, "rejected crash changed the topology");
        assert_eq!(net.topology().epoch(), 1);
    }

    #[test]
    fn rejoin_requires_an_attachment_edge() {
        let g = generators::path(3);
        let mut net = Network::builder(&g).seed(1).build();
        let err = net.rejoin_node(&[]).unwrap_err();
        assert!(matches!(err, Error::Graph(_)), "{err:?}");
        assert_eq!(net.graph().n(), 3);
        assert_eq!(net.topology().epoch(), 0);
    }

    #[test]
    fn crashes_under_faulty_transport_still_serve_walks() {
        // The combined story: ARQ-healed lossy links *and* node churn
        // in one request stream, mid-batch via Mutate barriers.
        use drw_congest::FaultPlan;
        let g = generators::torus2d(4, 4);
        let mut net = Network::builder(&g)
            .engine(EngineConfig::default().with_faults(FaultPlan::drops(11, 50)))
            .seed(29)
            .build();
        let responses = net
            .run_batch(vec![
                Request::walk(0, 128),
                Request::mutate(
                    TopologyDelta::new()
                        .add_node()
                        .add_edge(5, 16)
                        .add_edge(10, 16),
                ),
                Request::walk(16, 128),
            ])
            .unwrap();
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[1].clone().into_epoch().epoch, 1);
        let w = responses[2].clone().into_walk();
        assert!(w.destination < 17);
        let crash = net.crash_last_node().unwrap();
        assert_eq!(crash.epoch, 2);
        let w2 = net
            .run_batch(vec![Request::walk(0, 128)])
            .unwrap()
            .remove(0)
            .into_walk();
        assert!(w2.destination < 16);
        assert_eq!((w2.destination / 4 + w2.destination % 4) % 2, 0);
    }

    #[test]
    fn batch_determinism() {
        let g = generators::torus2d(5, 5);
        let run = || {
            let mut net = Network::builder(&g).seed(13).build();
            let rs = net
                .run_batch(vec![
                    Request::walk(0, 300),
                    Request::many_walks(vec![3, 8], 200),
                    Request::spanning_tree(0),
                ])
                .unwrap();
            let rounds = net.session_rounds();
            (
                rs[0].clone().into_walk().destination,
                rs[1].clone().into_many_walks().destinations,
                rs[2].clone().into_tree().edges,
                rounds,
            )
        };
        assert_eq!(run(), run());
    }
}
