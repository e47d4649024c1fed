//! A persistent walk session: one BFS, one short-walk store, many walks.
//!
//! The paper's applications drive the walk machinery through *doubling
//! loops* — the spanning-tree sampler doubles segment lengths until
//! coverage, the mixing estimator doubles its probe length and then
//! binary-searches — and a naive embedding pays a fresh BFS, a fresh
//! diameter estimate and a full Phase-1 rebuild for every iteration,
//! even though Phase 1 is the algorithm's reusable asset: its short
//! walks are independent of everything stitched so far, so whatever the
//! previous request left unused extends the next request exactly. The
//! follow-up work ("Near-Optimal Random Walk Sampling in Distributed
//! Networks", arXiv:1201.1363) makes precisely this amortization its
//! headline — regenerate and reuse prepared short walks across
//! successive requests.
//!
//! [`WalkSession`] is that amortization as a subsystem. It owns one
//! [`Runner`] (a single CONGEST round/message bill), the BFS tree and
//! diameter estimate of an anchor node, and a persistent [`WalkState`]
//! short-walk store. Every wave reuses the cached diameter, takes its
//! `lambda` per call, and *tops the store up* instead of rebuilding it:
//!
//! - **Deficit-only Phase 1** ([`ShortWalksProtocol::top_up`]): node `v`
//!   launches only `target(v) - unused(v)` fresh walks, `unused(v)` read
//!   off its own ledger ([`crate::state::Ledger`]), and only
//!   once the store-wide deficit is worth a launch wave (a wave costs
//!   `~2 * lambda` rounds however few walks ride it, so small deficits
//!   are cheaper to leave to `GET-MORE-WALKS`). In steady state most
//!   calls pay zero Phase-1 rounds; a rebuild never recurs.
//! - **Regime upgrades**: the store's base length
//!   ([`WalkSession::store_lambda`]) only grows. A call stitches at the
//!   store's regime — exact for any `lambda`, only with more stitches —
//!   unless relaunching at its own longer `lambda` pays for itself
//!   within a few calls like it, by the session's own round ledger and
//!   counting the connectors the short store would leave dry
//!   (`WalkSession::upgrade_pays`). Then stale short walks are discarded
//!   (free, local, and exact — the decision reads lengths, never
//!   trajectories) and the store relaunches in the longer regime.
//!   Without the discard the store would never drain and every future
//!   stitch would stay pinned to the first request's short segments. The
//!   effective stitch `lambda` is always the store's, which keeps every
//!   stored length below `2 * lambda` so no segment can overshoot a
//!   walk's remaining budget.
//! - **Walk extension** (a recorded [`StitchSpec`] with a `pos_offset`):
//!   continue a completed walk from its destination for `len` more
//!   steps through the batched [`StitchScheduler`] without re-entering
//!   setup. Walks are memoryless, so the continuation is exact; visits
//!   are recorded at `pos_offset + local position` and the extension
//!   never records its own start — the hand-off position was already
//!   recorded as the previous segment's endpoint, which makes the
//!   segment-boundary accounting explicit instead of accidental.
//!
//! Every walk the session performs goes through one entry point,
//! [`WalkSession::run_wave`] ([`WalkSession::single_walk`] is a wave of
//! one). Which walks ride a wave, and in which regime — Theorem 2.8's
//! `k + l` fallback, per-request `lambda` formulas — is decided by the
//! request drivers in `network/drivers.rs`, never here.
//!
//! - **Incremental topology repair** ([`WalkSession::sync`]): a session
//!   attached to a versioned [`Topology`] follows deltas without
//!   rebuilding. Eviction is surgical — only short walks whose
//!   recorded trajectories visit a *touched* node are discarded
//!   (path probabilities factor over visited nodes' neighbor sets,
//!   which only change at touched nodes) — and the anchor BFS re-runs
//!   only when a delta actually broke the tree. Everything else
//!   (degree-proportional targets, the claim flood's neighbour lists)
//!   reads the live snapshot and refreshes lazily. Surgical eviction is
//!   *approximately* exact: survivors are samples of the new law
//!   conditioned on avoiding the touched set, a per-segment bias
//!   bounded by the touched-hit mass (see
//!   [`WalkState::evict_touched`]); conformance is pinned empirically
//!   by the chi-square suites, and
//!   [`WalkSession::set_strict_repair`] buys measure-exactness back
//!   at full-relaunch cost.
//!
//! - **Bounded node state**: [`WalkState::reclaim_forward_logs`] drops
//!   dead (consumed, evicted, discarded) walks' forwarding-log entries
//!   once the logs exceed twice the live store's steps, from two places:
//!   a top-up just before its launch and [`WalkSession::sync`] right
//!   after eviction. Both precede the wave's engine run and a recorded
//!   stitch is replayed within that run, so no reclaim ever sees a
//!   consumed walk that still awaits its replay, and replay's and
//!   repair's linear log scans stay cheap for the life of the session.
//!
//! Correctness is Theorem 2.5's argument, which never cares *when* a
//! short walk was generated, only that it is unused and independent;
//! reuse only changes the round bill, from `O(phases x full rebuild)`
//! to pay-as-you-go. A one-shot request ([`crate::Network::run`]) is
//! the degenerate case: a private session that serves one request and
//! is dropped.

use crate::params::WalkParams;
use crate::short_walks::ShortWalksProtocol;
use crate::single_walk::{Segment, SingleWalkConfig, StitchSetup, WalkError};
use crate::state::{Visit, WalkState};
use crate::stitch_scheduler::{StitchScheduler, StitchSpec, MAX_WAVE_LANES};
use drw_congest::primitives::{BfsTree, BfsTreeProtocol};
use drw_congest::{Protocol, Runner};
use drw_graph::{traversal, Graph, NodeId, Topology};
use std::sync::Arc;

/// Replenishment hysteresis: the store is topped up once its deficit
/// reaches `1/TOPUP_DEFICIT_DENOM` of the target size (see
/// `WalkSession::ensure_store`).
const TOPUP_DEFICIT_DENOM: usize = 4;

/// How many requests like the current one a regime upgrade's relaunch
/// must repay itself within (`WalkSession::upgrade_pays`): the request
/// and the next two. The relaunched store outlives the request, so a
/// horizon of one would keep a short store under a run of long walks
/// that each stitch only a little slower on it.
const UPGRADE_HORIZON: f64 = 3.0;

/// Forwarding logs are reclaimed once they hold more than this many
/// times the live store's steps ([`WalkState::reclaim_forward_logs`]).
const LOG_RECLAIM_SLACK: usize = 2;

/// What one [`WalkSession::sync`] repair did (all zero when the session
/// was already at the topology's epoch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Epochs the session advanced by (0 = already current).
    pub epochs: u64,
    /// Size of the touched-node union repaired against.
    pub touched: usize,
    /// Stored short walks evicted because their trajectories visited
    /// touched nodes.
    pub walks_evicted: usize,
    /// Whether the anchor BFS had to be re-run (only when a delta broke
    /// a tree edge or changed the node count).
    pub bfs_rerun: bool,
    /// Rounds the repair itself consumed (the BFS re-run; eviction and
    /// rebinding are local and free).
    pub rounds: u64,
}

/// Result of [`WalkSession::single_walk`].
#[derive(Debug, Clone)]
pub struct SessionWalkOutcome {
    /// The walk's destination — an exact `len`-step walk sample.
    pub destination: NodeId,
    /// Rounds consumed by this call (top-up + stitching + tail).
    pub rounds: u64,
    /// The effective stitch `lambda` governing this call.
    pub lambda: u32,
    /// Stitches performed.
    pub stitches: u64,
    /// `GET-MORE-WALKS` invocations.
    pub gmw_invocations: u64,
    /// The stitch trace.
    pub segments: Vec<Segment>,
}

/// One walk's outcome within a [`WalkSession::run_wave`] run.
#[derive(Debug, Clone)]
pub struct WaveWalk {
    /// The walk's destination — an exact `len`-step sample.
    pub destination: NodeId,
    /// The stitch trace, in position order (empty for naive/tail-only
    /// walks).
    pub segments: Vec<Segment>,
    /// For a recorded spec: every visit of the extension, as
    /// `(node, visit)` pairs with global positions
    /// `pos_offset + 1 ..= pos_offset + len`. The start (`pos_offset`
    /// itself) is deliberately not recorded: it is the previous
    /// extension's endpoint (or the caller's position 0), so each
    /// global position is recorded exactly once and every recorded
    /// visit carries a predecessor. Empty for unrecorded specs.
    pub visits: Vec<(NodeId, Visit)>,
}

/// Result of one [`WalkSession::run_wave`] call.
#[derive(Debug, Clone, Default)]
pub struct WaveOutcome {
    /// Per-spec outcomes, in spec order.
    pub walks: Vec<WaveWalk>,
    /// Rounds consumed by the whole wave (top-up + the shared
    /// multiplexed run, which regenerates a recorded spec as it goes).
    pub rounds: u64,
    /// Messages delivered by the whole wave.
    pub messages: u64,
    /// Rounds of this wave spent topping up the store.
    pub rounds_topup: u64,
    /// Rounds of the multiplexed run from its last stitch to its last
    /// walk landing — for a one-walk wave, the walk's naive tail
    /// ([`crate::BatchedStitchOutcome::rounds_tail`]).
    pub rounds_tail: u64,
    /// Rounds the run continued after that, waiting for the recorded
    /// spec's replay tokens and the `GET-MORE-WALKS` acknowledgements
    /// ([`crate::BatchedStitchOutcome::rounds_replay`]).
    pub rounds_replay: u64,
    /// The effective stitch `lambda` that governed the wave.
    pub lambda: u32,
    /// Total stitches across all walks.
    pub stitches: u64,
    /// Total `GET-MORE-WALKS` invocations.
    pub gmw_invocations: u64,
    /// `GET-MORE-WALKS` invocations per spec, in spec order.
    pub gmw_by_walk: Vec<u64>,
    /// How many times each node served as a connector in this wave:
    /// `(node, count)` for the nodes that did, ascending by node.
    pub connector_visits: Vec<(NodeId, u32)>,
}

/// A long-lived walk session over one graph: cached BFS/diameter, a
/// persistent short-walk store with deficit-only top-up, and one walk
/// entry point, [`WalkSession::run_wave`] (see the module docs).
///
/// # Example
///
/// ```
/// use drw_core::{SingleWalkConfig, WalkSession};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_core::WalkError> {
/// let g = generators::torus2d(6, 6);
/// let mut session = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 7)?;
/// let a = session.single_walk(0, 512)?; // builds the store
/// let b = session.single_walk(a.destination, 512)?; // mostly reuses it
/// assert!(b.destination < g.n());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WalkSession {
    topo: Topology,
    g: Arc<Graph>,
    epoch: u64,
    cfg: SingleWalkConfig,
    runner: Runner,
    state: WalkState,
    tree: BfsTree,
    anchor: NodeId,
    d_est: u32,
    store_lambda: u32,
    /// The stitch demand Phase 1 is sized for, if the session serves one
    /// known walk ([`WalkSession::provision_for_walk`]); `None` keeps the
    /// full `ceil(eta * deg(v))` targets.
    stitch_demand: Option<u64>,
    strict_repair: bool,
    rounds_bfs: u64,
    rounds_topup: u64,
    /// Sum of the `lambda`s of the top-ups behind `rounds_topup`.
    topup_lambdas: u64,
    /// Stitching rounds of the waves so far, and the stitches on their
    /// critical paths (each wave's longest lane).
    rounds_stitch: u64,
    stitch_depth: u64,
    topups: u64,
    walks_added: u64,
    walks_discarded: u64,
    repairs: u64,
    repair_bfs_reruns: u64,
    walks_evicted: u64,
}

impl WalkSession {
    /// Opens a session over a *private* topology wrapping a clone of
    /// `g` — the static-graph entry point, seed-for-seed identical to
    /// the pre-versioning constructor. Sessions that must observe live
    /// deltas attach to a shared handle with [`WalkSession::attach`].
    ///
    /// # Errors
    ///
    /// [`WalkError::Disconnected`] / [`WalkError::SourceOutOfRange`] on
    /// bad inputs, or an engine error from the BFS.
    pub fn new(
        g: &Graph,
        anchor: NodeId,
        cfg: &SingleWalkConfig,
        seed: u64,
    ) -> Result<Self, WalkError> {
        Self::attach(&Topology::new(g.clone()), anchor, cfg, seed)
    }

    /// Opens a session attached to a shared versioned [`Topology`]:
    /// checks the current snapshot, runs the one BFS (diameter estimate
    /// plus the tree later reused by convergecasts), and starts with an
    /// empty store synced to the topology's current epoch. Later deltas
    /// applied through any clone of the handle are picked up lazily:
    /// every entry point first runs [`WalkSession::sync`], which
    /// repairs the session *incrementally* against the touched-node
    /// union instead of rebuilding.
    ///
    /// # Errors
    ///
    /// [`WalkError::Disconnected`] / [`WalkError::SourceOutOfRange`] on
    /// bad inputs, or an engine error from the BFS.
    pub fn attach(
        topo: &Topology,
        anchor: NodeId,
        cfg: &SingleWalkConfig,
        seed: u64,
    ) -> Result<Self, WalkError> {
        let epoch = topo.epoch();
        let g = topo.snapshot();
        if anchor >= g.n() {
            return Err(WalkError::SourceOutOfRange(anchor));
        }
        if !traversal::is_connected(&g) {
            return Err(WalkError::Disconnected);
        }
        let mut runner = Runner::on(g.clone(), cfg.engine.clone(), seed);
        let tree = bfs_tree(&mut runner, anchor)?;
        let d_est = tree.depth().max(1);
        let rounds_bfs = runner.total_rounds();
        let n = g.n();
        Ok(WalkSession {
            topo: topo.clone(),
            g,
            epoch,
            cfg: cfg.clone(),
            runner,
            state: WalkState::new(n),
            tree,
            anchor,
            d_est,
            store_lambda: 0,
            stitch_demand: None,
            strict_repair: false,
            rounds_bfs,
            rounds_topup: 0,
            topup_lambdas: 0,
            rounds_stitch: 0,
            stitch_depth: 0,
            topups: 0,
            walks_added: 0,
            walks_discarded: 0,
            repairs: 0,
            repair_bfs_reruns: 0,
            walks_evicted: 0,
        })
    }

    /// Brings the session up to the topology's current epoch by
    /// *incremental repair* (a no-op when already current; every entry
    /// point calls this first, so explicit calls are only needed to
    /// observe the [`RepairReport`]):
    ///
    /// 1. **Store eviction** — by default only short walks whose
    ///    recorded trajectories visit a touched node are discarded
    ///    ([`WalkState::evict_touched`]; survivors are conditioned on
    ///    avoiding the touched set — approximately exact, see that
    ///    method's fine print — or the whole store under
    ///    [`WalkSession::set_strict_repair`]); the resulting
    ///    per-source deficits feed the next deficit-only top-up wave.
    /// 2. **BFS repair** — the anchor tree is re-run *only when broken*
    ///    (a removed edge was a tree edge, or the node count changed);
    ///    edge additions and non-tree removals keep the tree a valid
    ///    spanning tree and its depth a valid distance bound, so the
    ///    cached tree and diameter estimate survive.
    /// 3. **Lazy weights** — degree-dependent Phase-1 targets and the
    ///    neighbour lists the claim flood walks always read the live
    ///    snapshot, so they refresh by rebinding alone.
    ///
    /// Retired node ids (node removals) additionally purge their
    /// forwarding-log entries network-wide, so a later re-issue of the
    /// same id can never alias a dead walk during replay. A forwarding-log
    /// reclaim follows the eviction (module docs), unbilled like it.
    ///
    /// # Errors
    ///
    /// [`WalkError::SourceOutOfRange`] if a delta removed the session's
    /// anchor, or an engine error from the BFS re-run.
    pub fn sync(&mut self) -> Result<RepairReport, WalkError> {
        // One atomic view: a delta applied concurrently with this read
        // can never slip between the touched union and the snapshot
        // (either both see it, or neither does and the next sync will).
        let (current, snapshot, touched) = self.topo.sync_view(self.epoch);
        if current == self.epoch {
            return Ok(RepairReport::default());
        }
        let epochs = current - self.epoch;
        let n = snapshot.n();
        if self.anchor >= n {
            return Err(WalkError::SourceOutOfRange(self.anchor));
        }
        // Evict against the *old* state: a removed node's forwarding log
        // is the only record of the walks that visited it. Everything up
        // to the BFS is infallible and idempotent, and the epoch only
        // commits after the one fallible step (the repair BFS) succeeds
        // — a failed sync leaves the session retryable, never torn
        // (`self.tree` still names its own size, so the retry sees the
        // breakage again).
        let walks_evicted = if self.strict_repair {
            self.state.evict_all_stored()
        } else {
            self.state.evict_touched(&touched)
        };
        if n < self.state.nodes.len() {
            self.state.purge_sources_at_or_above(n as u32);
        }
        self.state.resize(n);
        self.state.reclaim_forward_logs(LOG_RECLAIM_SLACK);
        self.g = snapshot.clone();
        self.runner.rebind(snapshot);

        // The tree is broken iff the node set changed or a touched
        // node's parent edge no longer exists (both endpoints of every
        // removed edge are touched, so a child-side check covers the
        // parent side too). Compared against the tree itself, not a
        // cached node count, so a retried sync re-detects the breakage.
        let broken = n != self.tree.parent.len()
            || touched.iter().any(|&u| {
                u < self.tree.parent.len()
                    && self.tree.parent[u].is_some_and(|p| !self.g.has_edge(u, p))
            });
        let mut rounds = 0;
        if broken {
            let before = self.runner.total_rounds();
            self.tree = bfs_tree(&mut self.runner, self.anchor)?;
            self.d_est = self.tree.depth().max(1);
            rounds = self.runner.total_rounds() - before;
            self.rounds_bfs += rounds;
            self.repair_bfs_reruns += 1;
        }
        self.epoch = current;
        self.repairs += 1;
        self.walks_evicted += walks_evicted as u64;
        Ok(RepairReport {
            epochs,
            touched: touched.len(),
            walks_evicted,
            bfs_rerun: broken,
            rounds,
        })
    }

    /// Selects the repair invalidation policy. `false` (default):
    /// surgical trajectory-based eviction — cheap, approximately exact
    /// (survivors are conditioned on avoiding the touched set; bias
    /// bounded by the touched-hit mass). `true`: every stored walk is
    /// discarded on any epoch change — measure-exact by construction,
    /// at full Phase-1 relaunch cost (what the rebuild baseline pays).
    pub fn set_strict_repair(&mut self, strict: bool) {
        self.strict_repair = strict;
    }

    /// The shared versioned topology this session observes.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The topology epoch the session is synced to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of repairs ([`WalkSession::sync`] calls that found a
    /// newer epoch).
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Number of repairs that had to re-run the anchor BFS.
    pub fn repair_bfs_reruns(&self) -> u64 {
        self.repair_bfs_reruns
    }

    /// Total stored walks evicted by topology repairs so far.
    pub fn walks_evicted(&self) -> u64 {
        self.walks_evicted
    }

    /// The graph snapshot of the epoch the session is synced to.
    pub fn graph(&self) -> Arc<Graph> {
        self.g.clone()
    }

    /// The session's anchor node (BFS root).
    pub fn anchor(&self) -> NodeId {
        self.anchor
    }

    /// The walk parameters every request on this session is planned
    /// under.
    pub(crate) fn params(&self) -> WalkParams {
        self.cfg.params
    }

    /// The cached diameter estimate (the anchor's eccentricity).
    pub fn diameter_estimate(&self) -> u32 {
        self.d_est
    }

    /// The session's runner, for composing further sub-protocols onto
    /// the same round bill (cover checks, histogram upcasts, ...).
    pub fn runner_mut(&mut self) -> &mut Runner {
        &mut self.runner
    }

    /// The cached BFS tree rooted at the anchor and the runner, side by
    /// side: a convergecast or upcast composed onto the session borrows
    /// the one while it runs on the other.
    pub fn tree_and_runner(&mut self) -> (&BfsTree, &mut Runner) {
        (&self.tree, &mut self.runner)
    }

    /// The persistent walk state (store + forwarding logs).
    pub fn state(&self) -> &WalkState {
        &self.state
    }

    /// Ends the session and hands out its walk state — what a request
    /// that owned its session reports as its final `state`.
    pub(crate) fn into_state(self) -> WalkState {
        self.state
    }

    /// The store's current short-walk base length (0 before the first
    /// top-up). Non-decreasing: see the module docs on regime upgrades.
    pub fn store_lambda(&self) -> u32 {
        self.store_lambda
    }

    /// Total rounds across the whole session (BFS + every call).
    pub fn total_rounds(&self) -> u64 {
        self.runner.total_rounds()
    }

    /// Total injected faults across the whole session — all-zero unless
    /// the engine configuration carries an active
    /// [`drw_congest::FaultPlan`]. What experiment E16 reads to report
    /// drop/retransmission volume alongside the round bill.
    pub fn total_faults(&self) -> drw_congest::FaultCounters {
        self.runner.total_faults()
    }

    /// Rounds spent on the one anchor BFS.
    pub fn rounds_bfs(&self) -> u64 {
        self.rounds_bfs
    }

    /// Cumulative rounds spent topping up the store (the session's
    /// entire Phase-1 bill).
    pub fn rounds_topup(&self) -> u64 {
        self.rounds_topup
    }

    /// Number of top-ups that actually launched walks.
    pub fn topups(&self) -> u64 {
        self.topups
    }

    /// Total short walks launched by top-ups so far.
    pub fn walks_added(&self) -> u64 {
        self.walks_added
    }

    /// Total stale short walks discarded by regime upgrades so far.
    pub fn walks_discarded(&self) -> u64 {
        self.walks_discarded
    }

    /// Sizes Phase 1 for the one `len`-step walk this session will serve:
    /// its stitch demand is `S = ceil(len / lambda)` at the `lambda` the
    /// walk will plan (0 when `len < 2 * lambda`: it will not stitch).
    /// Only a one-shot walk's private session calls this; every other
    /// session keeps the full targets, because its store outlives the
    /// request.
    pub(crate) fn provision_for_walk(&mut self, len: u64) {
        let lambda = u64::from(self.cfg.params.lambda(len, u64::from(self.d_est)));
        let stitches = if len >= 2 * lambda {
            len.div_ceil(lambda)
        } else {
            0
        };
        self.stitch_demand = Some(stitches);
    }

    /// The Phase-1 targets: `ceil(eta * w(v))` walks per node, with
    /// weight `w(v) = deg(v)` (or 1 under the flat ablation — A3). A
    /// session provisioned for stitch demand `S`
    /// ([`WalkSession::provision_for_walk`]) caps each target at
    /// `ceil(mu + 2 sqrt(mu))`, where `mu = S * w(v) / W` (`W` the weight
    /// total, `2m` or `n`) is about the mean number of stitches `v`
    /// connects: a node runs dry, and its stitch rides a fresh walk of
    /// `~1.5 lambda` rounds instead of a claim of `~dist` rounds, only
    /// in the tail of its visits. `GET-MORE-WALKS` covers that tail, so
    /// the walk law is unchanged.
    fn targets(&self) -> Vec<usize> {
        let n = self.g.n();
        let by_degree = self.cfg.degree_proportional;
        let weight = |v| if by_degree { self.g.degree(v) } else { 1 };
        let total = if by_degree { 2 * self.g.m() } else { n };
        (0..n)
            .map(|v| {
                let w = weight(v);
                let full = self.cfg.params.walks_for_degree(w);
                match self.stitch_demand {
                    None => full,
                    Some(s) => {
                        let mu = w as f64 * s as f64 / total.max(1) as f64;
                        full.min((mu + 2.0 * mu.sqrt()).ceil() as usize)
                    }
                }
            })
            .collect()
    }

    /// The per-node launch deficits against [`WalkSession::targets`]
    /// (the counts a [`ShortWalksProtocol::top_up`] wave would launch),
    /// plus the total target size for the hysteresis test.
    fn deficit_counts(&self) -> (Vec<usize>, usize) {
        let targets = self.targets();
        let target_total = targets.iter().sum();
        let counts = (targets.iter().zip(&self.state.nodes))
            .map(|(&t, ns)| t.saturating_sub(ns.unused().len()))
            .collect();
        (counts, target_total)
    }

    /// Launches one top-up wave with the given per-node deficit counts
    /// at `lambda`, billing its rounds to the session's Phase-1 account.
    /// First the logs forget the walks that died since the last launch.
    fn run_topup(&mut self, counts: Vec<usize>, lambda: u32) -> Result<(), WalkError> {
        let added: usize = counts.iter().sum();
        if added == 0 {
            return Ok(());
        }
        self.state.reclaim_forward_logs(LOG_RECLAIM_SLACK);
        let before = self.runner.total_rounds();
        let mut p1 =
            ShortWalksProtocol::new(&mut self.state, counts, lambda, self.cfg.randomize_len);
        self.runner.run(&mut p1)?;
        // A token lost in flight leaves its launcher an entry for a walk
        // no node stores.
        self.state.drop_unstored_ledger_entries();
        self.topups += 1;
        self.walks_added += added as u64;
        self.rounds_topup += self.runner.total_rounds() - before;
        self.topup_lambdas += u64::from(lambda);
        Ok(())
    }

    /// Whether discarding the store and relaunching it at `lambda_call`
    /// costs `len`-step requests fewer rounds than stitching them at the
    /// store's shorter `lambda`. Priced from the session's own ledger:
    /// a relaunch at its top-ups' rounds per unit `lambda`, a stitch at
    /// its waves' rounds per stitch (before the first: a sweep out and
    /// back, `2 * d_est`). A walk stitches segments of mean
    /// `1.5 * lambda`, rides a fresh walk of as many rounds at each
    /// connector it finds dry ([`WalkSession::dry_stitches`]), and then
    /// walks a tail of about `lambda`. The store outlives the request,
    /// so the relaunch is weighed against [`UPGRADE_HORIZON`] requests
    /// like this one.
    fn upgrade_pays(&self, lambda_call: u32, len: u64) -> bool {
        if lambda_call <= self.store_lambda {
            return false;
        }
        let (call, store) = (f64::from(lambda_call), f64::from(self.store_lambda));
        let per_stitch = match self.stitch_depth {
            0 => 2.0 * f64::from(self.d_est),
            depth => self.rounds_stitch as f64 / depth as f64,
        };
        let targets = self.targets();
        let relaunch = self.rounds_topup as f64 / self.topup_lambdas.max(1) as f64 * call;
        let phase2 = |lambda: f64| {
            let stitches = len as f64 / (1.5 * lambda);
            stitches * per_stitch + self.dry_stitches(stitches, &targets) * 1.5 * lambda + lambda
        };
        relaunch < UPGRADE_HORIZON * (phase2(store) - phase2(call))
    }

    /// The expected number of dry connectors `stitches` stitches meet
    /// over a store of `targets` walks per node: node `v` connects about
    /// `Poisson(mu)` of them, `mu = stitches * deg(v) / 2m` (a walk's
    /// stationary share), and runs dry on `E[(X - target(v))^+]`.
    fn dry_stitches(&self, stitches: f64, targets: &[usize]) -> f64 {
        let two_m = (2 * self.g.m()).max(1) as f64;
        (targets.iter().enumerate())
            .map(|(v, &t)| {
                let mu = stitches * self.g.degree(v) as f64 / two_m;
                // E[(X - t)^+] = mu - t + sum_{k < t} (t - k) P(X = k).
                let (mut p, mut short) = ((-mu).exp(), 0.0);
                for k in 0..t {
                    short += (t - k) as f64 * p;
                    p *= mu / (k + 1) as f64;
                }
                (mu - t as f64 + short).max(0.0)
            })
            .sum()
    }

    /// Ensures the store can serve a `len`-step request whose computed
    /// base length is `lambda_call`, and returns the effective stitch
    /// `lambda` for the call.
    ///
    /// - **Regime upgrade** (the first build, or a relaunch that pays
    ///   for itself — [`WalkSession::upgrade_pays`] — and the request
    ///   would actually stitch there): stale short walks would otherwise
    ///   pin every future stitch to the old `lambda` — the store never
    ///   drains by itself — so they are discarded (free, local and
    ///   exact: the decision reads lengths, never trajectories) and the
    ///   store is relaunched in the new regime.
    /// - **Within-regime** (otherwise): stitch at the store's `lambda`
    ///   (finer than requested) and top up only the deficit, with
    ///   hysteresis — a launch wave costs
    ///   `~2 * lambda` rounds however few walks ride it, so small
    ///   deficits are cheaper to leave to `GET-MORE-WALKS`, and most
    ///   steady-state calls pay zero Phase-1 rounds.
    /// - **Pure tail**: requests too short to stitch never touch the
    ///   store.
    fn ensure_store(&mut self, lambda_call: u32, len: u64) -> Result<u32, WalkError> {
        let lambda_call = lambda_call.max(1);
        let upgrade = self.store_lambda == 0 || self.upgrade_pays(lambda_call, len);
        if upgrade && len >= 2 * u64::from(lambda_call) {
            self.walks_discarded += self.state.discard_shorter_than(lambda_call) as u64;
            self.store_lambda = lambda_call;
            let (counts, _) = self.deficit_counts();
            self.run_topup(counts, lambda_call)?;
            return Ok(lambda_call);
        }
        if self.store_lambda == 0 {
            // Nothing stored and the request is too short to justify a
            // build: serve it as a pure naive tail.
            return Ok(lambda_call);
        }
        let lambda_eff = self.store_lambda;
        if len < 2 * u64::from(lambda_eff) {
            // Pure-tail request: no stitching, leave the store alone.
            return Ok(lambda_eff);
        }
        let (counts, target_total) = self.deficit_counts();
        let deficit: usize = counts.iter().sum();
        if deficit * TOPUP_DEFICIT_DENOM >= target_total.max(1) {
            self.run_topup(counts, lambda_eff)?;
        }
        Ok(lambda_eff)
    }

    /// One `len`-step walk from `source` over the session store — a
    /// wave of one: an exact sample, priced at top-up deficit plus
    /// Phase 2.
    ///
    /// # Errors
    ///
    /// [`WalkError::SourceOutOfRange`] or an engine error.
    pub fn single_walk(
        &mut self,
        source: NodeId,
        len: u64,
    ) -> Result<SessionWalkOutcome, WalkError> {
        // Repair first, so `lambda` is computed from the diameter
        // estimate of the epoch the walk is served on.
        let _ = self.sync()?;
        let lambda_call = self.cfg.params.lambda(len, u64::from(self.d_est));
        let wave = self.wave_at_epoch(lambda_call, len, &[StitchSpec::plain(source, len)])?;
        let walk = wave.walks.into_iter().next().expect("one spec, one walk");
        Ok(SessionWalkOutcome {
            destination: walk.destination,
            rounds: wave.rounds,
            lambda: wave.lambda,
            stitches: wave.stitches,
            gmw_invocations: wave.gmw_invocations,
            segments: walk.segments,
        })
    }

    /// Runs one heterogeneous *wave*: the walk work items of several
    /// requests — plain walks, recorded spanning-tree extensions,
    /// forced-naive fallback walks — in **one** multiplexed engine run
    /// over the session store, sharing CONGEST rounds across requests.
    ///
    /// `lambda_call` and `stitch_len` drive the store regime for the
    /// whole wave: the caller passes the *largest* per-request computed
    /// `lambda` among stitch-eligible items and the longest
    /// stitch-eligible length (the regime decisions themselves —
    /// Theorem 2.8's `k + l` fallback, per-request `lambda` formulas —
    /// belong to the request scheduler, which lowers fallback items
    /// with [`StitchSpec::naive`] set).
    ///
    /// A recorded spec continues a walk standing at `source` with
    /// global position `pos_offset`: every visited node records its
    /// global position(s) and predecessor — tail hops inline, stitched
    /// segments as their replay tokens pass, within the same run
    /// ([`crate::stitch_scheduler`]) — and the visits are drained from
    /// the shared state into [`WaveWalk::visits`], so consecutive
    /// extensions never accumulate or double-record.
    ///
    /// # Errors
    ///
    /// [`WalkError::SourceOutOfRange`], [`WalkError::TooManyLanes`] for
    /// more than [`MAX_WAVE_LANES`] specs, or an engine error.
    ///
    /// # Panics
    ///
    /// Panics if more than one spec records (the visit ledger is not
    /// lane-tagged).
    pub fn run_wave(
        &mut self,
        lambda_call: u32,
        stitch_len: u64,
        specs: &[StitchSpec],
    ) -> Result<WaveOutcome, WalkError> {
        let _ = self.sync()?;
        self.wave_at_epoch(lambda_call, stitch_len, specs)
    }

    /// [`WalkSession::run_wave`] on a session already synced to the
    /// topology's epoch.
    fn wave_at_epoch(
        &mut self,
        lambda_call: u32,
        stitch_len: u64,
        specs: &[StitchSpec],
    ) -> Result<WaveOutcome, WalkError> {
        if specs.len() > MAX_WAVE_LANES {
            return Err(WalkError::TooManyLanes(specs.len()));
        }
        for spec in specs {
            if spec.source >= self.g.n() {
                return Err(WalkError::SourceOutOfRange(spec.source));
            }
        }
        let recorded = specs.iter().position(|s| s.record);
        assert!(
            specs.iter().filter(|s| s.record).count() <= 1,
            "at most one recorded spec per wave (the visit ledger is shared)"
        );
        let start = self.runner.total_rounds();
        let start_messages = self.runner.total_messages();
        if specs.is_empty() {
            return Ok(WaveOutcome {
                lambda: self.store_lambda,
                ..WaveOutcome::default()
            });
        }
        let lambda = self.ensure_store(lambda_call, stitch_len)?;
        let rounds_topup = self.runner.total_rounds() - start;
        let mut sched = StitchScheduler::new(&StitchSetup {
            lambda,
            randomize_len: self.cfg.randomize_len,
            gmw_count: (stitch_len / u64::from(lambda.max(1))).max(1),
        });
        for &spec in specs {
            sched.add_spec(spec);
        }
        let out = sched.run(&mut self.runner, &mut self.state)?;

        let rounds = self.runner.total_rounds() - start;
        self.rounds_stitch += rounds - rounds_topup - out.rounds_tail - out.rounds_replay;
        let depth = out.walks.iter().map(|w| w.segments.len()).max();
        self.stitch_depth += depth.unwrap_or(0) as u64;
        let mut walks: Vec<WaveWalk> = out
            .walks
            .into_iter()
            .map(|w| WaveWalk {
                destination: w.destination,
                segments: w.segments,
                visits: Vec::new(),
            })
            .collect();
        // The recorded spec's visits are complete when the run returns
        // (tail hops and replay tokens both record as they go): drain
        // them out of the shared ledger.
        if let Some(r) = recorded {
            walks[r].visits = self.state.drain_visits();
            assert_eq!(
                walks[r].visits.len() as u64,
                specs[r].len,
                "a recorded wave item records exactly (pos_offset, pos_offset + len]"
            );
        }
        Ok(WaveOutcome {
            walks,
            rounds,
            messages: self.runner.total_messages() - start_messages,
            rounds_topup,
            rounds_tail: out.rounds_tail,
            rounds_replay: out.rounds_replay,
            lambda,
            stitches: out.stitches,
            gmw_invocations: out.gmw_invocations,
            gmw_by_walk: out.gmw_by_walk,
            connector_visits: out.connector_visits,
        })
    }
}

/// The session's BFS tree from `anchor`. On a connected graph it misses
/// a node or a child link only if fail-silent links lost messages.
fn bfs_tree(runner: &mut Runner, anchor: NodeId) -> Result<BfsTree, WalkError> {
    let mut bfs = BfsTreeProtocol::new(anchor);
    runner.run(&mut bfs)?;
    bfs.try_into_tree().ok_or(WalkError::MessagesLost)
}

/// Runs a primitive over the session's tree (convergecast, broadcast,
/// upcast), which needs every message it sends: a drop that fail-silent
/// links never retransmitted loses its result.
pub(crate) fn run_whole<P: Protocol>(runner: &mut Runner, p: &mut P) -> Result<(), WalkError> {
    let faults = runner.run(p)?.faults;
    if faults.dropped > faults.retransmitted {
        return Err(WalkError::MessagesLost);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::generators;

    fn parity(v: usize, cols: usize) -> usize {
        (v / cols + v % cols) % 2
    }

    /// One stitched wave of `len`-step walks from `sources`, at the
    /// `lambda` a many-walks request of that shape computes.
    fn cohort(s: &mut WalkSession, sources: &[NodeId], len: u64) -> WaveOutcome {
        let d_est = u64::from(s.diameter_estimate());
        let lambda = s.params().lambda_many(sources.len() as u64, len, d_est);
        let specs: Vec<StitchSpec> = sources.iter().map(|&v| StitchSpec::plain(v, len)).collect();
        s.run_wave(lambda, len, &specs).unwrap()
    }

    /// A recorded extension of `len` steps from `from`, standing at
    /// global position `pos_offset`: a wave of one recorded spec.
    fn extend(s: &mut WalkSession, from: NodeId, len: u64, pos_offset: u64) -> WaveOutcome {
        let lambda = s.params().lambda(len, u64::from(s.diameter_estimate()));
        let spec = StitchSpec {
            pos_offset,
            record: true,
            ..StitchSpec::plain(from, len)
        };
        s.run_wave(lambda, len, &[spec]).unwrap()
    }

    #[test]
    fn session_single_walks_preserve_parity() {
        let g = generators::torus2d(4, 4);
        let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 3).unwrap();
        let mut at = 0usize;
        for _ in 0..4 {
            let r = s.single_walk(at, 64).unwrap();
            assert_eq!(parity(at, 4), parity(r.destination, 4));
            at = r.destination;
        }
    }

    #[test]
    fn second_call_pays_less_phase1_than_the_first() {
        let g = generators::torus2d(6, 6);
        let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 5).unwrap();
        let sources = [0usize, 9, 20];
        let a = cohort(&mut s, &sources, 1024);
        assert!(a.rounds_topup > 0, "first call must build the store");
        let b = cohort(&mut s, &sources, 1024);
        assert_eq!(
            b.rounds_topup, 0,
            "a lightly-consumed store is not replenished (hysteresis)"
        );
        assert_eq!(s.topups(), 1);
        assert!(b.rounds < a.rounds, "reuse must beat the build call");
    }

    #[test]
    fn forced_naive_walks_leave_the_store_alone() {
        // How a Theorem 2.8 `k + l` fallback cohort reaches the session:
        // every spec forced naive, no stitch-eligible regime.
        let g = generators::torus2d(4, 4);
        let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 7).unwrap();
        let specs: Vec<StitchSpec> = (0..16)
            .map(|v| StitchSpec {
                naive: true,
                ..StitchSpec::plain(v, 8)
            })
            .collect();
        let r = s.run_wave(0, 0, &specs).unwrap();
        assert_eq!(r.stitches, 0);
        assert_eq!(r.rounds_topup, 0);
        assert_eq!(s.state().total_stored(), 0, "no store for naive walks");
        for (spec, w) in specs.iter().zip(&r.walks) {
            assert_eq!(parity(spec.source, 4), parity(w.destination, 4));
        }
    }

    #[test]
    fn store_lambda_only_grows_across_regimes() {
        let g = generators::torus2d(6, 6);
        let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 11).unwrap();
        s.single_walk(0, 256).unwrap();
        let small = s.store_lambda();
        assert!(small >= 1);
        s.single_walk(0, 4096).unwrap();
        let big = s.store_lambda();
        assert!(big > small, "longer request must upgrade the regime");
        let r = s.single_walk(0, 300).unwrap();
        assert_eq!(s.store_lambda(), big, "short request keeps the regime");
        assert_eq!(parity(0, 6), parity(r.destination, 6));
    }

    #[test]
    fn recorded_extensions_chain_into_one_valid_walk() {
        let g = generators::torus2d(5, 5);
        let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 13).unwrap();
        let (l1, l2) = (300u64, 500u64);
        let w1 = extend(&mut s, 0, l1, 0);
        let e1 = &w1.walks[0];
        let w2 = extend(&mut s, e1.destination, l2, l1);
        let e2 = &w2.walks[0];
        assert!(w1.stitches > 0 || w2.stitches > 0, "long walks must stitch");

        // Assemble: the caller records position 0; each extension
        // records exactly (pos_offset, pos_offset + extra_len].
        let mut state = WalkState::new(g.n());
        state.record_visit(0, 0, None);
        assert_eq!(e1.visits.len() as u64, l1);
        assert_eq!(e2.visits.len() as u64, l2);
        for (node, v) in e1.visits.iter().chain(&e2.visits) {
            assert!(v.pos >= 1, "extensions never record their start");
            assert!(v.pred().is_some(), "every extension visit has a pred");
            state.record_visit(*node, v.pos, v.pred());
        }
        let walk = state.reconstruct_walk(l1 + l2);
        assert_eq!(walk[0], 0);
        assert_eq!(walk[l1 as usize], e1.destination, "hand-off is explicit");
        assert_eq!(*walk.last().unwrap(), e2.destination);
        for w in walk.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "non-edge {}-{}", w[0], w[1]);
        }
    }

    #[test]
    fn recorded_waves_that_reclaim_still_record_every_position() {
        // The reclaim runs before a wave's engine run and the recorded
        // spec's stitches are replayed after it, inside the same wave. A
        // pass moved behind `sched.run` would forget the walks this very
        // wave consumed before their replay.
        let g = generators::torus2d(5, 5);
        let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 29).unwrap();
        let mut walk = WalkState::new(g.n());
        walk.record_visit(0, 0, None);
        let (len, mut at, mut reclaiming_waves) = (600u64, 0, 0);
        for i in 0..40 {
            let pos = i * len;
            let logged = s.state().forward_entries();
            let w = extend(&mut s, at, len, pos);
            // Only a reclaim shrinks the logs, and only a top-up runs one
            // on a static graph.
            if s.state().forward_entries() < logged {
                assert!(w.rounds_topup > 0);
                assert!(w.stitches > 0, "the wave must have stitches to replay");
                reclaiming_waves += 1;
            }
            let e = &w.walks[0];
            assert_eq!(e.visits.len() as u64, len, "wave {i}");
            for (node, v) in &e.visits {
                assert!(v.pos > pos && v.pos <= pos + len, "wave {i}: {v:?}");
                walk.record_visit(*node, v.pos, v.pred());
            }
            at = e.destination;
        }
        assert!(reclaiming_waves >= 3, "{reclaiming_waves} reclaiming waves");
        let walk = walk.reconstruct_walk(40 * len);
        assert_eq!(*walk.last().unwrap(), at);
        for w in walk.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "non-edge {}-{}", w[0], w[1]);
        }
    }

    #[test]
    fn zero_length_extension_is_free() {
        let g = generators::path(5);
        let mut s = WalkSession::new(&g, 2, &SingleWalkConfig::default(), 17).unwrap();
        let before = s.total_rounds();
        let e = extend(&mut s, 3, 0, 44);
        assert_eq!(e.walks[0].destination, 3);
        assert_eq!(e.rounds, 0);
        assert!(e.walks[0].visits.is_empty());
        assert_eq!(s.total_rounds(), before);
    }

    #[test]
    fn deterministic_in_the_seed() {
        let g = generators::torus2d(5, 5);
        let run = || {
            let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 99).unwrap();
            let a = cohort(&mut s, &[0, 6, 13], 512);
            let b = s.single_walk(7, 700).unwrap();
            let dests: Vec<NodeId> = a.walks.iter().map(|w| w.destination).collect();
            (dests, b.destination, s.total_rounds())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wave_mixes_requests_over_one_run() {
        // One wave hosting three requests: a plain walk, a recorded
        // extension standing at global position 10, and two forced-naive
        // fallback walks — all sharing one engine run over the session
        // store.
        let g = generators::torus2d(6, 6);
        let cfg = SingleWalkConfig::default();
        let mut s = WalkSession::new(&g, 0, &cfg, 23).unwrap();
        let lambda_call = cfg.params.lambda(400, u64::from(s.diameter_estimate()));
        let specs = [
            StitchSpec {
                req: 0,
                source: 0,
                len: 400,
                pos_offset: 0,
                record: false,
                naive: false,
            },
            StitchSpec {
                req: 1,
                source: 7,
                len: 300,
                pos_offset: 10,
                record: true,
                naive: false,
            },
            StitchSpec {
                req: 2,
                source: 12,
                len: 16,
                pos_offset: 0,
                record: false,
                naive: true,
            },
            StitchSpec {
                req: 2,
                source: 13,
                len: 16,
                pos_offset: 0,
                record: false,
                naive: true,
            },
        ];
        let out = s.run_wave(lambda_call, 400, &specs).unwrap();
        assert_eq!(out.walks.len(), 4);
        let parity = |v: usize| (v / 6 + v % 6) % 2;
        for (spec, walk) in specs.iter().zip(&out.walks) {
            assert_eq!(
                (parity(spec.source) + spec.len as usize) % 2,
                parity(walk.destination),
                "walk law broken for req {}",
                spec.req
            );
        }
        // Naive items never stitch; the long walks did.
        assert!(out.walks[2].segments.is_empty());
        assert!(out.walks[3].segments.is_empty());
        assert!(out.stitches > 0, "length-400 walks must stitch");
        // Only the recorded item carries visits: exactly its length, all
        // above its hand-off position, all with predecessors.
        assert_eq!(out.walks[1].visits.len(), 300);
        for (_, v) in &out.walks[1].visits {
            assert!(v.pos > 10 && v.pos <= 310);
            assert!(v.pred().is_some());
        }
        assert!(out.walks[0].visits.is_empty());
        // The wave's bill is one shared run, not a sum of four.
        assert!(out.rounds > 0);
        assert_eq!(out.rounds, s.total_rounds() - s.rounds_bfs());
    }

    #[test]
    fn empty_wave_is_free() {
        let g = generators::path(4);
        let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 1).unwrap();
        let before = s.total_rounds();
        let out = s.run_wave(4, 0, &[]).unwrap();
        assert!(out.walks.is_empty());
        assert_eq!(out.rounds, 0);
        assert_eq!(s.total_rounds(), before);
    }

    #[test]
    fn add_only_delta_repairs_without_bfs_rerun() {
        use crate::params::WalkParams;
        use drw_graph::{Topology, TopologyDelta};
        let topo = Topology::new(generators::torus2d(8, 8));
        // A small lambda keeps short-walk trajectories local, so most of
        // the store survives a two-node touch.
        let cfg = SingleWalkConfig {
            params: WalkParams {
                lambda_scale: 0.1,
                eta: 1.0,
            },
            ..SingleWalkConfig::default()
        };
        let mut s = WalkSession::attach(&topo, 0, &cfg, 5).unwrap();
        let a = cohort(&mut s, &[9, 20, 35], 1024);
        assert!(a.rounds_topup > 0, "first call builds the store");
        let stored_before = s.state().total_stored();
        let lambda_before = s.store_lambda();

        // An added chord touches only its endpoints: the BFS tree stays
        // a valid spanning tree (no repair BFS), and only the walks
        // whose recorded trajectories visited 0 or 27 are evicted.
        let report = topo.apply(&TopologyDelta::new().add_edge(0, 27)).unwrap();
        assert_eq!(report.touched, vec![0, 27]);
        let repair = s.sync().unwrap();
        assert_eq!(repair.epochs, 1);
        assert_eq!(repair.touched, 2);
        assert!(!repair.bfs_rerun, "additions never break the tree");
        assert_eq!(repair.rounds, 0);
        assert!(repair.walks_evicted > 0, "walks through node 0 are stale");
        assert!(
            repair.walks_evicted < stored_before,
            "eviction is surgical ({} of {stored_before})",
            repair.walks_evicted
        );
        assert_eq!(s.store_lambda(), lambda_before, "regime survives churn");
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.repair_bfs_reruns(), 0);

        // The next call serves on the mutated snapshot; its top-up only
        // covers the eviction deficit, never a rebuild.
        let b = cohort(&mut s, &[9, 20, 35], 1024);
        assert!(
            b.rounds_topup <= a.rounds_topup,
            "deficit top-up must not exceed the cold build"
        );
    }

    #[test]
    fn strict_repair_wipes_the_store() {
        use drw_graph::{Topology, TopologyDelta};
        let topo = Topology::new(generators::torus2d(6, 6));
        let mut s = WalkSession::attach(&topo, 0, &SingleWalkConfig::default(), 5).unwrap();
        s.set_strict_repair(true);
        cohort(&mut s, &[0, 9], 512);
        let stored = s.state().total_stored();
        assert!(stored > 0);
        let _ = topo.apply(&TopologyDelta::new().add_edge(14, 27)).unwrap();
        let repair = s.sync().unwrap();
        assert_eq!(repair.walks_evicted, stored, "strict repair keeps nothing");
        assert_eq!(s.state().total_stored(), 0);
        // The next serving relaunches from scratch — exact by
        // construction, priced like the rebuild baseline's Phase 1.
        let r = cohort(&mut s, &[0, 9], 512);
        assert!(r.rounds_topup > 0);
    }

    #[test]
    fn tree_edge_removal_forces_bfs_rerun() {
        use drw_graph::{Topology, TopologyDelta};
        let topo = Topology::new(generators::torus2d(6, 6));
        let mut s = WalkSession::attach(&topo, 0, &SingleWalkConfig::default(), 7).unwrap();
        s.single_walk(0, 512).unwrap();
        // Node 1's BFS parent is the anchor 0 (distance 1), so removing
        // {0, 1} breaks a tree edge; the torus minus one edge stays
        // connected.
        assert_eq!(s.tree_and_runner().0.parent[1], Some(0));
        let _ = topo.apply(&TopologyDelta::new().remove_edge(0, 1)).unwrap();
        let repair = s.sync().unwrap();
        assert!(repair.bfs_rerun, "a broken tree edge must re-run BFS");
        assert!(repair.rounds > 0, "the repair BFS is billed");
        assert_eq!(s.repair_bfs_reruns(), 1);
        assert!(!s.graph().has_edge(0, 1));
        // Walks still work on the mutated graph and never use the
        // removed edge: removal-only deltas keep the torus bipartite,
        // so the parity law still holds.
        let r = s.single_walk(0, 512).unwrap();
        assert_eq!(parity(0, 6), parity(r.destination, 6));
    }

    #[test]
    fn recorded_walks_respect_the_mutated_edge_set() {
        use drw_graph::{Topology, TopologyDelta};
        let topo = Topology::new(generators::torus2d(5, 5));
        let mut s = WalkSession::attach(&topo, 0, &SingleWalkConfig::default(), 13).unwrap();
        let w1 = extend(&mut s, 0, 300, 0);
        let e1 = &w1.walks[0];
        let _ = topo
            .apply(&TopologyDelta::new().remove_edge(0, 1).add_edge(0, 12))
            .unwrap();
        let w2 = extend(&mut s, e1.destination, 300, 300);
        let e2 = &w2.walks[0];
        // Reconstruct the post-delta extension and check every hop is an
        // edge of the *new* snapshot.
        let g = s.graph();
        let mut state = WalkState::new(g.n());
        state.record_visit(0, 0, None);
        for (node, v) in e1.visits.iter().chain(&e2.visits) {
            state.record_visit(*node, v.pos, v.pred());
        }
        let walk = state.reconstruct_walk(600);
        // Only the post-delta extension must respect the new edge set
        // (the first extension legitimately walked the old graph).
        for w in walk[300..].windows(2) {
            assert!(g.has_edge(w[0], w[1]), "non-edge {}-{}", w[0], w[1]);
        }
    }

    #[test]
    fn node_join_and_leave_through_the_session() {
        use drw_graph::{Topology, TopologyDelta};
        let topo = Topology::new(generators::cycle(6));
        let mut s = WalkSession::attach(&topo, 0, &SingleWalkConfig::default(), 3).unwrap();
        s.single_walk(0, 64).unwrap();

        // Join: node 6 arrives with two links.
        let _ = topo
            .apply(
                &TopologyDelta::new()
                    .add_node()
                    .add_edge(6, 0)
                    .add_edge(6, 3),
            )
            .unwrap();
        let repair = s.sync().unwrap();
        assert!(repair.bfs_rerun, "node count changed");
        assert_eq!(s.state().nodes.len(), 7);
        let r = s.single_walk(6, 65).unwrap();
        assert!(r.destination < 7);

        // Leave: strip node 6 and remove it; the session shrinks back.
        let _ = topo
            .apply(
                &TopologyDelta::new()
                    .remove_edge(6, 0)
                    .remove_edge(6, 3)
                    .remove_node(6),
            )
            .unwrap();
        let repair = s.sync().unwrap();
        assert!(repair.bfs_rerun);
        assert_eq!(s.state().nodes.len(), 6);
        let r = s.single_walk(0, 64).unwrap();
        assert!(r.destination < 6);
        assert!(
            matches!(s.single_walk(6, 8), Err(WalkError::SourceOutOfRange(6))),
            "requests naming the departed node are rejected"
        );
    }

    #[test]
    fn anchor_removal_is_a_typed_error() {
        use drw_graph::{Topology, TopologyDelta};
        let topo = Topology::new(generators::cycle(4));
        let mut s = WalkSession::attach(&topo, 3, &SingleWalkConfig::default(), 1).unwrap();
        let _ = topo
            .apply(
                &TopologyDelta::new()
                    .add_edge(0, 2)
                    .remove_edge(2, 3)
                    .remove_edge(3, 0)
                    .remove_node(3),
            )
            .unwrap();
        assert!(matches!(s.sync(), Err(WalkError::SourceOutOfRange(3))));
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::path(4);
        assert!(matches!(
            WalkSession::new(&g, 9, &SingleWalkConfig::default(), 1),
            Err(WalkError::SourceOutOfRange(9))
        ));
        let disconnected = drw_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            WalkSession::new(&disconnected, 0, &SingleWalkConfig::default(), 1),
            Err(WalkError::Disconnected)
        ));
        let mut s = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 1).unwrap();
        assert!(matches!(
            s.single_walk(9, 8),
            Err(WalkError::SourceOutOfRange(9))
        ));
        assert!(matches!(
            s.run_wave(1, 8, &[StitchSpec::plain(0, 8), StitchSpec::plain(9, 8)]),
            Err(WalkError::SourceOutOfRange(9))
        ));
    }
}
