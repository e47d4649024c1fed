//! Phase 2 of the paper's algorithms: every walk of a wave — the `k`
//! tokens of `MANY-RANDOM-WALKS`, or the single token of Algorithm 1,
//! which is the `k = 1` wave — advances concurrently in **one**
//! multiplexed CONGEST run.
//!
//! Stitching walks one after another would cost the *sum* of `k` full
//! `SAMPLE-DESTINATION` / `GET-MORE-WALKS` / naive-tail compositions —
//! `k * ~O(D)` rounds per stitch generation, even though each
//! composition leaves almost every edge idle (EXPERIMENTS.md E3b has
//! the numbers). The follow-up works (the JACM version of "Distributed Random Walks",
//! arXiv:1302.4544, and "Near-Optimal Random Walk Sampling in
//! Distributed Networks", arXiv:1201.1363) interleave the token
//! movements instead: concurrent stitches share rounds, and congestion
//! for an edge surfaces as queueing — which is exactly what
//! Theorem 2.8's `sqrt(k l D) + k` term prices in.
//!
//! [`StitchScheduler`] realizes that interleaving. Every sub-protocol
//! message is tagged with its owning request and walk id
//! ([`drw_congest::Mux2`] — one packed word on the wire), each node
//! keeps one [`SdLaneSlot`] per walk, and a single engine run hosts,
//! *simultaneously and asynchronously per walk*:
//!
//! - a **sampling epoch** per pending stitch: one echo from the walk's
//!   current connector — a wave floods out and builds a flood tree, the
//!   aggregates that come back reservoir-sample one unused short walk
//!   of that connector (Algorithm 3 / Lemma A.2) — and the choice is
//!   routed down one tree path to the chosen owner, which deletes one
//!   token and *becomes* the connector, immediately starting the next
//!   epoch — no global barrier;
//! - **`GET-MORE-WALKS`** when an epoch finds the connector drained
//!   (Algorithm 2, aggregated counts + reservoir lengths, or the
//!   per-token replayable variant): finished tokens acknowledge up the
//!   epoch's tree, and the root resamples once all acks arrived;
//! - the **naive tail** once fewer than `2*lambda` steps remain;
//! - **regeneration** of a recorded lane (end of Section 2.2): as soon
//!   as an owner takes a short walk, the connector that launched it
//!   sends a `Replay` token along its forwarding log; every node on the
//!   path records `(position, predecessor)` and forwards per its own
//!   log, and the token stops where the log does — at the owner. Segment
//!   `i` replays while stitches `i + 1..` and the tail run, so a recorded
//!   wave costs its critical path. Replay hops need no lane table.
//!
//! ## Why per-walk epochs are safe without global coordination
//!
//! A sampling epoch's root finalizes only after it heard from every
//! neighbour, a child's aggregate says the child heard from all of its
//! own, and so on down the tree — so by the time a new epoch for the
//! same walk can exist, every `Wave` and `Agg` of the old one (one per
//! directed edge) has been delivered. `Chosen` is a single message on a
//! single path, and the next epoch starts *at* the node that consumes
//! it. What is left are `Retry`/ack messages, which only exist while
//! the walk's root is blocked waiting for them; the epoch guards drop
//! any that a re-issued walk leaves behind.
//!
//! ## How the connector learns which walk was taken
//!
//! The owner knows the taken `seq`, the connector holds the log and the
//! walk's position (`hosted`); one of two messages carries the one to
//! the other (an owner that is its own connector just injects):
//!
//! - *The walk goes on stitching:* the owner roots the next epoch, whose
//!   `Wave` carries `prev = connector:32 | seq:32`. A wave reaches every
//!   node, and a node resets its lane on exactly one arrival per epoch
//!   (`epoch > lane.epoch`); the old connector honours `prev` on that
//!   arrival only, reading `hosted` — still `Some`, nothing newer has
//!   touched its lane — before the reset. A resample at the same root
//!   took nothing and announces nothing.
//! - *It was the last stitch:* no newer epoch will reset the finished
//!   epoch's tree, so `Taken { epoch, seq }` climbs its parent pointers
//!   to the root as `Retry` does. With a newer epoch in flight they could
//!   be gone — `Taken` exists only when there is none.
//!
//! The run ends when every walk has landed and every token is home.
//!
//! ## Sharing the store without sharing segments
//!
//! Two walks whose connectors coincide sample from the same pool of
//! short walks. Selection is optimistic: each epoch snapshots counts,
//! picks an owner with probability proportional to its count, and the
//! owner then removes a uniformly random *still-present* token of that
//! root ([`crate::state::NodeWalkState::take_uniform_from`]) — removal
//! is what makes double-consumption impossible. If a rival consumed the
//! last token first, the take fails and the root resamples with a fresh
//! epoch (and replenishes via `GET-MORE-WALKS` once the pool is truly
//! dry). Exactness is preserved: every stored short walk is an
//! independent random walk of its (uniformly random) length from the
//! connector, so *any* unused token — however contention resolved —
//! extends the walk with the correct distribution, just as in
//! Theorem 2.5's argument.

use crate::get_more_walks::{reservoir_split, scatter_counts, AGGREGATED_SEQ};
use crate::sample_destination::SdLaneSlot;
use crate::single_walk::{Segment, StitchSetup, WalkAction, WalkDriver, WalkError};
use crate::state::{NodeWalkState, StoredWalk, WalkId, WalkState};
use drw_congest::{Ctx, Envelope, Message, Mux2, NodeCtx, NodeLocalProtocol, RunReport, Runner};
use drw_graph::NodeId;

/// One walk to stitch: `len` steps from `source` — a work item of a
/// [`StitchScheduler`] run and of a session wave
/// ([`crate::WalkSession::run_wave`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StitchSpec {
    /// Starting node.
    pub source: NodeId,
    /// Number of steps.
    pub len: u64,
    /// Global position of `source` within a larger stitched walk (0 for
    /// a standalone walk). Only consulted in record mode: tail visits
    /// are recorded at `pos_offset + local position`, which is how a
    /// session extends an already-recorded walk without re-entering
    /// setup.
    pub pos_offset: u64,
    /// The request this walk belongs to within a heterogeneous batch
    /// (0 for standalone schedulers). Rides every message as the outer
    /// [`Mux2`] tag; the facade's request scheduler uses it to group
    /// work items back into responses.
    pub req: u16,
    /// Record this walk's tail visits (position + predecessor) into the
    /// per-node state. Per-walk, so one batch can mix recorded
    /// spanning-tree extensions with plain walk requests.
    pub record: bool,
    /// Force the pure naive token walk for this spec regardless of
    /// `lambda` — the Theorem 2.8 `k + l` fallback regime, lowered into
    /// the same multiplexed run as the stitched walks so both share
    /// rounds.
    pub naive: bool,
}

impl StitchSpec {
    /// A standalone, unrecorded, stitch-eligible walk of request 0.
    pub fn plain(source: NodeId, len: u64) -> Self {
        StitchSpec {
            source,
            len,
            pos_offset: 0,
            req: 0,
            record: false,
            naive: false,
        }
    }

    /// What this walk does when it stands at `completed` steps.
    fn action_at(&self, completed: u64, lambda: u32) -> WalkAction {
        if self.naive {
            let remaining = self.len - completed;
            if remaining > 0 {
                WalkAction::Tail(remaining)
            } else {
                WalkAction::Done
            }
        } else {
            WalkDriver::action_at(self.len, completed, lambda)
        }
    }
}

/// One walk's message within the multiplexed Phase-2 run. The walk id
/// travels as the [`Mux`] lane (one extra word); every variant fits the
/// default 4-word CONGEST budget with it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StitchMsg {
    /// The epoch's wave, flooding from the root: a node adopts its
    /// first sender as parent and forwards the wave to everyone else.
    /// On a recorded lane `prev` names the short walk the root took to
    /// get here, as one word `connector:32 | seq:32` ([`pack_walk`]) —
    /// the old connector's cue to replay it — and is [`NO_PREV`]
    /// otherwise.
    Wave { epoch: u32, root: u32, prev: u64 },
    /// The echo: a subtree's aggregate, sent to the parent once the
    /// node has heard from every neighbour — its candidate token owner
    /// and total token count (`count == 0` means none).
    Agg { owner: u32, count: u64 },
    /// The root's choice, routed down the tree towards `owner` along
    /// the children whose aggregates carried it. The owner deletes one
    /// token of the root and takes over the walk, which stands at
    /// `completed` steps.
    Chosen {
        epoch: u32,
        owner: u32,
        completed: u64,
    },
    /// Owner-side conflict (a rival walk consumed the pool): routed up
    /// the tree to the root, which resamples with a fresh epoch.
    Retry { epoch: u32 },
    /// Aggregated `GET-MORE-WALKS` tokens crossing an edge; the
    /// receiver is the `step`-th node of their walks.
    Gmw { step: u32, count: u64 },
    /// One per-token (replayable) `GET-MORE-WALKS` walk in flight.
    Swk { seq: u32, step: u32, total: u32 },
    /// `GET-MORE-WALKS` completion acknowledgements, routed and merged
    /// up the epoch's tree toward the waiting root.
    GmwAck { count: u64 },
    /// The naive tail token: `left` steps remain after this hop.
    Tail { left: u64 },
    /// A recorded lane's last stitch took the root's walk `seq`: routed
    /// up the finished epoch's tree, as `Retry` is, to the connector.
    Taken { epoch: u32, seq: u32 },
    /// A replay token regenerating the short walk `walk`
    /// ([`pack_walk`]): the receiver is the walk's `step`-th node and
    /// sits at global position `pos` of the recorded walk.
    Replay { walk: u64, step: u32, pos: u64 },
}

/// [`StitchMsg::Wave::prev`] of a wave that announces no taken walk.
const NO_PREV: u64 = u64::MAX;

/// A short walk's identity as one wire word, `source:32 | seq:32`.
fn pack_walk(id: WalkId) -> u64 {
    (u64::from(id.source) << 32) | u64::from(id.seq)
}

fn unpack_walk(word: u64) -> WalkId {
    WalkId {
        source: (word >> 32) as u32,
        seq: word as u32,
    }
}

impl Message for StitchMsg {
    fn size_words(&self) -> usize {
        match self {
            StitchMsg::Wave { .. }
            | StitchMsg::Chosen { .. }
            | StitchMsg::Swk { .. }
            | StitchMsg::Replay { .. } => 3,
            StitchMsg::Agg { .. } | StitchMsg::Gmw { .. } | StitchMsg::Taken { .. } => 2,
            StitchMsg::Retry { .. } | StitchMsg::GmwAck { .. } | StitchMsg::Tail { .. } => 1,
        }
    }

    fn census(&self, census: &mut drw_congest::WireCensus) {
        let rec = census.record("StitchMsg", self.size_words());
        let _ = match self {
            StitchMsg::Wave { epoch, root, prev } => {
                let rec = rec
                    .field("Wave.epoch", u64::from(*epoch))
                    .field("Wave.root", u64::from(*root));
                let id = unpack_walk(*prev);
                if *prev == NO_PREV {
                    rec
                } else {
                    rec.field("Wave.prev.source", u64::from(id.source))
                        .field("Wave.prev.seq", u64::from(id.seq))
                }
            }
            StitchMsg::Agg { owner, count } => rec
                .field("Agg.owner", u64::from(*owner))
                .field("Agg.count", *count),
            StitchMsg::Chosen {
                epoch,
                owner,
                completed,
            } => rec
                .field("Chosen.epoch", u64::from(*epoch))
                .field("Chosen.owner", u64::from(*owner))
                .field("Chosen.completed", *completed),
            StitchMsg::Retry { epoch } => rec.field("Retry.epoch", u64::from(*epoch)),
            StitchMsg::Gmw { step, count } => rec
                .field("Gmw.step", u64::from(*step))
                .field("Gmw.count", *count),
            StitchMsg::Swk { seq, step, total } => rec
                .field("Swk.seq", u64::from(*seq))
                .field("Swk.step", u64::from(*step))
                .field("Swk.total", u64::from(*total)),
            StitchMsg::GmwAck { count } => rec.field("GmwAck.count", *count),
            StitchMsg::Tail { left } => rec.field("Tail.left", *left),
            StitchMsg::Taken { epoch, seq } => rec
                .field("Taken.epoch", u64::from(*epoch))
                .field("Taken.seq", u64::from(*seq)),
            StitchMsg::Replay { walk, step, pos } => {
                let id = unpack_walk(*walk);
                rec.field("Replay.source", u64::from(id.source))
                    .field("Replay.seq", u64::from(id.seq))
                    .field("Replay.step", u64::from(*step))
                    .field("Replay.pos", *pos)
            }
        };
    }
}

type BatchMsg = Mux2<StitchMsg>;

/// Immutable per-run configuration, readable by every node handler.
#[derive(Debug)]
struct SharedCfg {
    lambda: u32,
    randomize_len: bool,
    aggregated_gmw: bool,
    gmw_count: u64,
    walks: Vec<StitchSpec>,
}

impl SharedCfg {
    /// Wraps a lane's message with its `(req, lane)` [`Mux2`] tags.
    fn mux(&self, lane_idx: u32, msg: StitchMsg) -> BatchMsg {
        Mux2::new(self.walks[lane_idx as usize].req, lane_idx as u16, msg)
    }
}

/// One node's view of one walk ("lane"): the lane's current sampling
/// epoch and, at the connector only, the hosted token.
#[derive(Debug, Clone, Default)]
struct LaneState {
    /// Current epoch at this node (0 = never participated).
    epoch: u32,
    /// The epoch's root (the walk's connector).
    root: u32,
    /// This node's sampling slot for the epoch.
    slot: SdLaneSlot,
    /// `Some(completed)` while this node hosts the walk token as the
    /// epoch's root.
    hosted: Option<u64>,
    /// Root-side: a `GET-MORE-WALKS` is in flight for this lane.
    gmw_active: bool,
    /// Root-side: tokens acknowledged so far.
    gmw_acked: u64,
    /// `GET-MORE-WALKS` invocations this node launched for the lane over
    /// the whole run — never reset by [`LaneState::enter`] — so the
    /// facade's request scheduler can bill replenishment to the request
    /// that caused it.
    gmw_events: u64,
}

impl LaneState {
    /// Resets the lane for (this node's view of) a new epoch.
    fn enter(&mut self, epoch: u32, root: u32) {
        self.epoch = epoch;
        self.root = root;
        self.hosted = None;
        self.gmw_active = false;
        self.gmw_acked = 0;
        self.slot.reset();
    }
}

/// What a node accumulates for the post-run result assembly.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// Walks whose final step landed here (destination = this node).
    finished: Vec<u32>,
    /// Segments resolved here (this node was the segment's endpoint).
    segments: Vec<(u32, Segment)>,
    /// Times this node served as a connector (Lemma 2.7's quantity).
    connector_visits: u32,
    /// The last round in which a segment resolved here (0 = none did).
    last_stitch_round: u64,
    /// Replay tokens this node still waits for: `+1` when a recorded
    /// lane takes a walk here, `-1` when that walk's replay token stops
    /// here (a segment ends at its owner). Drained into the run's count
    /// by [`BatchedStitchProtocol::note`].
    replays_open: i32,
}

/// One node's scratch for the wave in flight, held in
/// [`NodeWalkState::wave`]: boxed by the first handler that runs at the
/// node, collected and dropped by [`StitchScheduler::run`] when the
/// engine returns. A wave therefore costs the nodes it touches — a
/// 32-step tail on a 131072-node graph boxes 33 of these.
#[derive(Debug, Clone, Default)]
pub(crate) struct WaveScratch {
    /// One lane per walk, sized by the first message that needs a lane
    /// (a tail hop needs none).
    lanes: Vec<LaneState>,
    tally: Tally,
    /// `tally.finished` entries already in the run's completion count.
    counted: usize,
    /// Whether the run's touched list names this node.
    listed: bool,
}

/// The receive handler's merge buffers: filled and read within one
/// call. One set per thread ([`MERGE`]) rather than per call or per
/// node: a call allocates nothing, and the buffers stay hot in cache —
/// kept in each node's [`WaveScratch`] they measured 6 % of
/// `warm_stitch`'s wall time in cache misses. They carry nothing from
/// call to call (the handler clears them on entry, so not even a
/// panicked call's leftovers).
#[derive(Default)]
struct Merge {
    /// Wave adoptions `(lane, epoch, root, prev, from)`, deferred past
    /// the bookkeeping pass so the parent is the minimum sender among
    /// the round's arrivals.
    adopt: Vec<(u32, u32, u32, u64, NodeId)>,
    /// Lanes whose echo may have completed, re-checked after the
    /// adoptions.
    ready: Vec<u32>,
    /// `GET-MORE-WALKS` acknowledgements merged per lane within the
    /// round: one tally (or one upward message) per lane, however many
    /// tokens stopped here or ack envelopes arrived.
    acks: Vec<(u32, u64)>,
    /// Aggregated `GET-MORE-WALKS` arrivals merged per `(lane, step)`
    /// within the round — Algorithm 2's "counts collapse into one
    /// message per edge": the node sums its inbox before splitting.
    gmw_in: Vec<(u32, u32, u64)>,
}

thread_local! {
    static MERGE: std::cell::RefCell<Merge> = std::cell::RefCell::default();
}

/// The lane of walk `lane_idx`, sizing the table for `k` walks first if
/// this is the node's first use of any lane.
fn lane_of(lanes: &mut Vec<LaneState>, k: usize, lane_idx: u32) -> &mut LaneState {
    if lanes.is_empty() {
        lanes.resize_with(k, LaneState::default);
    }
    &mut lanes[lane_idx as usize]
}

/// Begins a sampling epoch at `node` for the walk standing at
/// `completed` steps: resets the lane and snapshots the local pool. The
/// caller floods the epoch's wave to every neighbor.
fn start_epoch(lane: &mut LaneState, ws: &NodeWalkState, node: NodeId, epoch: u32, completed: u64) {
    lane.enter(epoch, node as u32);
    lane.hosted = Some(completed);
    lane.slot
        .join(node as u32, None, ws.count_from(node) as u64);
}

/// Restarts a lane's sampling epoch at its current connector `node`
/// (the walk still stands at `completed` steps): the resample after a
/// stitch — whose wave then announces the taken walk as `prev` — a take
/// conflict, a remote-owner `Retry`, or a completed `GET-MORE-WALKS`
/// (all [`NO_PREV`]).
#[allow(clippy::too_many_arguments)]
fn restart_epoch(
    shared: &SharedCfg,
    lane: &mut LaneState,
    ws: &NodeWalkState,
    node: NodeId,
    completed: u64,
    lane_idx: u32,
    prev: u64,
    ctx: &mut NodeCtx<'_, BatchMsg>,
) {
    let epoch = lane.epoch + 1;
    start_epoch(lane, ws, node, epoch, completed);
    let root = node as u32;
    for i in 0..ctx.graph().degree(node) {
        let v = ctx.graph().neighbor_at(node, i);
        ctx.send(
            v,
            shared.mux(lane_idx, StitchMsg::Wave { epoch, root, prev }),
        );
    }
}

/// Moves a replay token of the short walk `walk` on from `node`, its
/// `step`-th node, at global position `pos`: along the hop `node` logged
/// for that step. `false` if it logged none — the walk ended here.
fn forward_replay(
    shared: &SharedCfg,
    ws: &NodeWalkState,
    node: NodeId,
    lane_idx: u32,
    (walk, step, pos): (u64, u32, u64),
    ctx: &mut NodeCtx<'_, BatchMsg>,
) -> bool {
    let id = unpack_walk(walk);
    let Some(hop) = ws.forward.hop(id.source, id.seq, step) else {
        return false;
    };
    let next = ctx.graph().neighbor_at(node, hop as usize);
    let replay = StitchMsg::Replay {
        walk,
        step: step + 1,
        pos: pos + 1,
    };
    ctx.send(next, shared.mux(lane_idx, replay));
    true
}

/// Starts regenerating the short walk `(node, seq)` a recorded lane just
/// took, at its connector `node`, where the walk stood at `start` steps.
/// The connector's own position is on record already (the previous
/// segment's endpoint, or the caller's hand-off), so visits begin one
/// step in.
fn inject_replay(
    shared: &SharedCfg,
    ws: &NodeWalkState,
    node: NodeId,
    lane_idx: u32,
    seq: u32,
    start: u64,
    ctx: &mut NodeCtx<'_, BatchMsg>,
) {
    let source = node as u32;
    let pos = shared.walks[lane_idx as usize].pos_offset + start;
    let token = (pack_walk(WalkId { source, seq }), 0, pos);
    let logged = forward_replay(shared, ws, node, lane_idx, token, ctx);
    assert!(
        logged,
        "walk ({source}, {seq}) is not replayable: no log at its source"
    );
}

/// One aggregated `GET-MORE-WALKS` hop: scatters `count`
/// indistinguishable tokens of `lane_idx` from `node` to uniformly
/// random neighbors, one count message per receiving edge, arriving at
/// step `step`. Shared by the launch at the drained root and every
/// subsequent diffusion hop.
fn scatter_gmw(
    node: NodeId,
    req: u16,
    lane_idx: u32,
    step: u32,
    count: u64,
    ctx: &mut NodeCtx<'_, BatchMsg>,
) {
    let degree = ctx.graph().degree(node);
    let per_neighbor = scatter_counts(ctx.rng(), degree, count);
    for (idx, &c) in per_neighbor.iter().enumerate() {
        if c > 0 {
            let to = ctx.graph().edge_target(ctx.graph().nth_edge_id(node, idx));
            ctx.send(
                to,
                Mux2::new(req, lane_idx as u16, StitchMsg::Gmw { step, count: c }),
            );
        }
    }
}

/// The scheduler's one protocol: Phase 2 of all `k` walks, multiplexed,
/// over the walk state's own per-node slice.
#[derive(Debug)]
struct BatchedStitchProtocol<'s> {
    shared: SharedCfg,
    nodes: &'s mut [NodeWalkState],
    /// Nodes holding wave scratch, in first-touch order.
    touched: Vec<NodeId>,
    /// Walks finished so far — `is_done` in O(1).
    done: usize,
    /// Recorded segments taken whose replay token is not home yet.
    replaying: usize,
    /// The last round that began with a walk still under way: the round
    /// the last walk landed in, or the run's last if one never did.
    walking_until: u64,
}

impl BatchedStitchProtocol<'_> {
    /// Brings the run-level facts up to date with what `v` recorded:
    /// lists it for collection and counts its new completions.
    fn note(&mut self, v: NodeId) {
        let Some(w) = self.nodes[v].wave.as_mut() else {
            return;
        };
        if !std::mem::replace(&mut w.listed, true) {
            self.touched.push(v);
        }
        self.done += w.tally.finished.len() - w.counted;
        w.counted = w.tally.finished.len();
        if w.tally.replays_open != 0 {
            let delta = std::mem::take(&mut w.tally.replays_open) as isize;
            let open = self.replaying.checked_add_signed(delta);
            self.replaying = open.expect("a replay token came home that no stitch owed");
        }
    }
}

/// Applies a freshly taken segment at its endpoint `node` and moves the
/// walk into its next phase: a new sampling epoch here, the naive tail,
/// or completion.
#[allow(clippy::too_many_arguments)]
fn advance_walk(
    shared: &SharedCfg,
    lane: &mut LaneState,
    ws: &NodeWalkState,
    tally: &mut Tally,
    node: NodeId,
    lane_idx: u32,
    walk: StoredWalk,
    completed: u64,
    ctx: &mut NodeCtx<'_, BatchMsg>,
) {
    let seg = Segment {
        connector: lane.root as usize,
        id: walk.id,
        len: walk.len,
        start_pos: completed,
        owner: node,
        replayable: walk.replayable,
    };
    tally.segments.push((lane_idx, seg));
    tally.last_stitch_round = ctx.round();
    let completed = completed + u64::from(walk.len);
    let spec = shared.walks[lane_idx as usize];
    let action = spec.action_at(completed, shared.lambda);
    // Regeneration (module docs): the connector learns what to replay.
    let mut prev = NO_PREV;
    if spec.record {
        assert!(walk.replayable, "recorded lanes replay what they stitch");
        tally.replays_open += 1;
        if seg.connector == node {
            inject_replay(shared, ws, node, lane_idx, walk.id.seq, seg.start_pos, ctx);
        } else if action == WalkAction::Stitch {
            prev = pack_walk(walk.id);
        } else {
            let (epoch, seq) = (lane.epoch, walk.id.seq);
            let parent = lane
                .slot
                .parent
                .expect("an owner off the root has a parent");
            ctx.send(
                parent,
                shared.mux(lane_idx, StitchMsg::Taken { epoch, seq }),
            );
        }
    }
    match action {
        WalkAction::Stitch => {
            tally.connector_visits += 1;
            restart_epoch(shared, lane, ws, node, completed, lane_idx, prev, ctx);
        }
        WalkAction::Tail(steps) => {
            lane.hosted = None;
            ctx.send_random_neighbor(shared.mux(lane_idx, StitchMsg::Tail { left: steps - 1 }));
        }
        WalkAction::Done => tally.finished.push(lane_idx),
    }
}

impl NodeLocalProtocol for BatchedStitchProtocol<'_> {
    type Msg = BatchMsg;
    type Shared = SharedCfg;
    type NodeState = NodeWalkState;

    fn start(&mut self, ctx: &mut Ctx<'_, BatchMsg>) {
        let n = ctx.graph().n();
        assert_eq!(self.nodes.len(), n, "one NodeWalkState per graph node");
        let k = self.shared.walks.len();
        for w in 0..k {
            let spec = self.shared.walks[w];
            assert!(spec.source < n, "walk source out of range");
            let mux = |m| Mux2::new(spec.req, w as u16, m);
            let action = spec.action_at(0, self.shared.lambda);
            if let WalkAction::Tail(steps) = action {
                ctx.send_random_neighbor(spec.source, mux(StitchMsg::Tail { left: steps - 1 }));
                continue;
            }
            let ws = &mut self.nodes[spec.source];
            let mut wave = ws.wave.take().unwrap_or_default();
            if action == WalkAction::Done {
                wave.tally.finished.push(w as u32);
            } else {
                wave.tally.connector_visits += 1;
                start_epoch(lane_of(&mut wave.lanes, k, w as u32), ws, spec.source, 1, 0);
                let root = spec.source as u32;
                for i in 0..ctx.graph().degree(spec.source) {
                    let v = ctx.graph().neighbor_at(spec.source, i);
                    let wave = StitchMsg::Wave {
                        epoch: 1,
                        root,
                        prev: NO_PREV,
                    };
                    ctx.send(spec.source, v, mux(wave));
                }
            }
            ws.wave = Some(wave);
            self.note(spec.source);
        }
    }

    fn is_done(&self) -> bool {
        self.done == self.shared.walks.len() && self.replaying == 0
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, BatchMsg>) {
        if self.done < self.shared.walks.len() {
            self.walking_until = ctx.round();
        }
    }

    fn after_receive(&mut self, active: &[NodeId]) {
        for &v in active {
            self.note(v);
        }
    }

    fn parts(&mut self) -> (&SharedCfg, &mut [NodeWalkState]) {
        (&self.shared, self.nodes)
    }

    fn on_receive_local(
        shared: &SharedCfg,
        ws: &mut NodeWalkState,
        node: NodeId,
        inbox: &[Envelope<BatchMsg>],
        ctx: &mut NodeCtx<'_, BatchMsg>,
    ) {
        // The scratch leaves the state for the call, so the handlers
        // below can hold the store and the lanes side by side.
        let mut wave = ws.wave.take().unwrap_or_default();
        MERGE.with_borrow_mut(|merge| receive(shared, ws, &mut wave, merge, node, inbox, ctx));
        ws.wave = Some(wave);
    }
}

/// [`BatchedStitchProtocol`]'s receive handler proper.
fn receive(
    shared: &SharedCfg,
    ws: &mut NodeWalkState,
    wave: &mut WaveScratch,
    merge: &mut Merge,
    node: NodeId,
    inbox: &[Envelope<BatchMsg>],
    ctx: &mut NodeCtx<'_, BatchMsg>,
) {
    let WaveScratch { lanes, tally, .. } = wave;
    let Merge {
        adopt,
        ready,
        acks,
        gmw_in,
    } = merge;
    adopt.clear();
    ready.clear();
    acks.clear();
    gmw_in.clear();
    let degree = ctx.graph().degree(node);
    let k = shared.walks.len();
    for env in inbox {
        let lane_idx = u32::from(env.msg.lane);
        debug_assert_eq!(
            env.msg.req, shared.walks[lane_idx as usize].req,
            "request tag must match the lane's owning request"
        );
        if let StitchMsg::Tail { left } = env.msg.msg {
            let spec = shared.walks[lane_idx as usize];
            if spec.record {
                // The receiver is the `len - left`-th node of
                // its walk; `pos_offset` lifts that to the
                // global position within a session-extended
                // walk. The tail start itself is never recorded
                // (it is the endpoint of the last replayed
                // segment, or the caller's hand-off position).
                ws.record_visit(spec.pos_offset + spec.len - left, Some(env.from));
            }
            if left == 0 {
                tally.finished.push(lane_idx);
            } else {
                ctx.send_random_neighbor(shared.mux(lane_idx, StitchMsg::Tail { left: left - 1 }));
            }
            continue;
        }
        if let StitchMsg::Replay { walk, step, pos } = env.msg.msg {
            ws.record_visit(pos, Some(env.from));
            if !forward_replay(shared, ws, node, lane_idx, (walk, step, pos), ctx) {
                tally.replays_open -= 1; // home: at the node that took it
            }
            continue;
        }
        let lane = lane_of(lanes, k, lane_idx);
        match env.msg.msg {
            StitchMsg::Tail { .. } | StitchMsg::Replay { .. } => unreachable!("handled above"),
            StitchMsg::Wave { epoch, root, prev } => {
                // Only the arrival that resets the lane may honour
                // `prev`; what this node hosted is read before `enter`
                // forgets it. (`NO_PREV` names no node.)
                let hosted = lane.hosted;
                let fresh = epoch > lane.epoch;
                if fresh {
                    lane.enter(epoch, root);
                } else if epoch < lane.epoch {
                    continue; // stale tail of an old epoch's flood
                }
                #[cfg(test)]
                let fresh = tests::stale_prev_planted(lane, hosted) || fresh;
                let taken = unpack_walk(prev);
                if fresh && taken.source as usize == node {
                    let start = hosted.expect("the connector `prev` names hosts its epoch");
                    inject_replay(shared, ws, node, lane_idx, taken.seq, start, ctx);
                }
                lane.slot.heard += 1;
                if !lane.slot.joined {
                    match adopt.iter_mut().find(|a| a.0 == lane_idx && a.1 == epoch) {
                        Some(a) => a.4 = a.4.min(env.from),
                        None => adopt.push((lane_idx, epoch, root, prev, env.from)),
                    }
                }
                ready.push(lane_idx);
            }
            StitchMsg::Agg { owner, count } => {
                // Aggregates never straddle epochs: a root finalizes
                // only after every aggregate reached it (mod docs).
                lane.slot.absorb(env.from, owner, count, ctx.rng());
                ready.push(lane_idx);
            }
            StitchMsg::Chosen {
                epoch,
                owner,
                completed,
            } => {
                if epoch == lane.epoch {
                    choose(
                        shared, lane, ws, tally, node, lane_idx, owner, completed, ctx,
                    );
                }
            }
            StitchMsg::Retry { epoch } => {
                if epoch != lane.epoch {
                    continue;
                }
                if let Some(completed) = lane.hosted {
                    // Root: resample with a fresh epoch.
                    restart_epoch(shared, lane, ws, node, completed, lane_idx, NO_PREV, ctx);
                } else if let Some(p) = lane.slot.parent {
                    ctx.send(p, shared.mux(lane_idx, StitchMsg::Retry { epoch }));
                }
            }
            StitchMsg::Taken { epoch, seq } => {
                if epoch != lane.epoch {
                    continue;
                }
                #[cfg(test)]
                if tests::DROP_TAKEN.get() {
                    continue;
                }
                if let Some(start) = lane.hosted {
                    inject_replay(shared, ws, node, lane_idx, seq, start, ctx);
                } else if let Some(p) = lane.slot.parent {
                    ctx.send(p, shared.mux(lane_idx, StitchMsg::Taken { epoch, seq }));
                }
            }
            StitchMsg::Gmw { step, count } => {
                match gmw_in.iter_mut().find(|g| g.0 == lane_idx && g.1 == step) {
                    Some(g) => g.2 += count,
                    None => gmw_in.push((lane_idx, step, count)),
                }
            }
            StitchMsg::Swk { seq, step, total } => {
                if step == total {
                    ws.store_walk(
                        WalkId {
                            source: lane.root,
                            seq,
                        },
                        total,
                        true,
                    );
                    push_ack(acks, lane_idx, 1);
                } else {
                    let (hop, _) = ctx.send_random_neighbor_hop(shared.mux(
                        lane_idx,
                        StitchMsg::Swk {
                            seq,
                            step: step + 1,
                            total,
                        },
                    ));
                    ws.log_forward_hop(lane.root, seq, step, hop);
                }
            }
            StitchMsg::GmwAck { count } => {
                push_ack(acks, lane_idx, count);
            }
        }
    }

    // Flush the merged GET-MORE-WALKS arrivals: one reservoir split
    // and one scatter per (lane, step) for the whole round, so a
    // lane's tokens reaching this node over several edges leave as
    // one count per outgoing edge again.
    for &(lane_idx, step, arrived) in gmw_in.iter() {
        let lane = &mut lanes[lane_idx as usize];
        let (stopped, moving) = reservoir_split(
            ctx.rng(),
            arrived,
            step,
            shared.lambda,
            shared.randomize_len,
        );
        if stopped > 0 {
            for _ in 0..stopped {
                ws.store_walk(
                    WalkId {
                        source: lane.root,
                        seq: AGGREGATED_SEQ,
                    },
                    step,
                    false,
                );
            }
            push_ack(acks, lane_idx, stopped);
        }
        if moving > 0 {
            let req = shared.walks[lane_idx as usize].req;
            scatter_gmw(node, req, lane_idx, step + 1, moving, ctx);
        }
    }

    // Flush the merged acknowledgements: per lane, one root tally
    // or one upward message for the whole round.
    for &(lane_idx, count) in acks.iter() {
        let lane = &mut lanes[lane_idx as usize];
        acknowledge_gmw(shared, lane, ws, node, lane_idx, count, ctx);
    }

    // Deferred wave adoption: join the tree under the minimum sender
    // and forward the wave to everyone else, exactly once per lane and
    // epoch (the parent hears from this node through its aggregate).
    for &(lane_idx, epoch, root, prev, from) in adopt.iter() {
        let lane = &mut lanes[lane_idx as usize];
        if lane.epoch != epoch || lane.slot.joined {
            continue; // a newer epoch arrived later in this inbox
        }
        lane.slot
            .join(node as u32, Some(from), ws.count_from(root as usize) as u64);
        for i in 0..degree {
            let v = ctx.graph().neighbor_at(node, i);
            if v != from {
                let wave = StitchMsg::Wave { epoch, root, prev };
                ctx.send(v, shared.mux(lane_idx, wave));
            }
        }
        ready.push(lane_idx);
    }

    // Lanes whose echo may just have completed.
    ready.sort_unstable();
    ready.dedup();
    for &lane_idx in ready.iter() {
        let lane = &mut lanes[lane_idx as usize];
        if !lane.slot.ready_to_aggregate(degree) {
            continue;
        }
        lane.slot.agg_sent = true;
        match lane.slot.parent {
            Some(p) => {
                ctx.send(
                    p,
                    shared.mux(
                        lane_idx,
                        StitchMsg::Agg {
                            owner: lane.slot.cand_owner.unwrap_or(0),
                            count: lane.slot.count,
                        },
                    ),
                );
            }
            None => finalize_at_root(shared, lane, ws, tally, node, lane_idx, ctx),
        }
    }
}

/// The root's choice `owner` at `node` — where the root made it, or on
/// its way down the epoch's tree. The owner takes one token of the root
/// and moves the walk on; any other node passes the choice to the child
/// whose aggregate put `owner` in its reservoir.
#[allow(clippy::too_many_arguments)]
fn choose(
    shared: &SharedCfg,
    lane: &mut LaneState,
    ws: &mut NodeWalkState,
    tally: &mut Tally,
    node: NodeId,
    lane_idx: u32,
    owner: u32,
    completed: u64,
    ctx: &mut NodeCtx<'_, BatchMsg>,
) {
    let epoch = lane.epoch;
    if owner as usize != node {
        let child = lane.slot.cand_from;
        let child = child.expect("a candidate that is not this node's came from a child");
        let chosen = StitchMsg::Chosen {
            epoch,
            owner,
            completed,
        };
        return ctx.send(child, shared.mux(lane_idx, chosen));
    }
    let taken = ws.take_uniform_from(lane.root as usize, ctx.rng());
    match (taken, lane.slot.parent) {
        (Some(walk), _) => advance_walk(
            shared, lane, ws, tally, node, lane_idx, walk, completed, ctx,
        ),
        // A rival consumed the pool since the snapshot: the root
        // resamples with a fresh epoch — at once, if that is this node.
        (None, Some(p)) => ctx.send(p, shared.mux(lane_idx, StitchMsg::Retry { epoch })),
        (None, None) => restart_epoch(shared, lane, ws, node, completed, lane_idx, NO_PREV, ctx),
    }
}

/// Root-side epilogue of a sampling epoch: launch `GET-MORE-WALKS` when
/// the pool is dry, else make the choice.
fn finalize_at_root(
    shared: &SharedCfg,
    lane: &mut LaneState,
    ws: &mut NodeWalkState,
    tally: &mut Tally,
    node: NodeId,
    lane_idx: u32,
    ctx: &mut NodeCtx<'_, BatchMsg>,
) {
    let completed = lane.hosted.expect("the epoch root hosts the walk token");
    if lane.slot.count == 0 {
        // Drained connector: GET-MORE-WALKS (Algorithm 1, lines 7-10).
        lane.gmw_events += 1;
        lane.gmw_active = true;
        lane.gmw_acked = 0;
        if shared.aggregated_gmw {
            let req = shared.walks[lane_idx as usize].req;
            scatter_gmw(node, req, lane_idx, 1, shared.gmw_count, ctx);
        } else {
            let first = ws.alloc_seqs(shared.gmw_count as usize);
            for i in 0..shared.gmw_count {
                let seq = first + i as u32;
                let r = if shared.randomize_len {
                    use rand::Rng;
                    ctx.rng().random_range(0..shared.lambda)
                } else {
                    0
                };
                let total = shared.lambda + r;
                let (hop, _) = ctx.send_random_neighbor_hop(shared.mux(
                    lane_idx,
                    StitchMsg::Swk {
                        seq,
                        step: 1,
                        total,
                    },
                ));
                ws.log_forward_hop(node as u32, seq, 0, hop);
            }
        }
        return;
    }
    let owner = lane.slot.cand_owner.expect("count > 0 implies a candidate");
    choose(
        shared, lane, ws, tally, node, lane_idx, owner, completed, ctx,
    );
}

/// Accounts `count` finished `GET-MORE-WALKS` tokens: at the waiting
/// root the tally advances (resampling once complete); elsewhere the
/// acknowledgement is forwarded up the epoch's tree.
fn acknowledge_gmw(
    shared: &SharedCfg,
    lane: &mut LaneState,
    ws: &NodeWalkState,
    node: NodeId,
    lane_idx: u32,
    count: u64,
    ctx: &mut NodeCtx<'_, BatchMsg>,
) {
    if lane.gmw_active && lane.hosted.is_some() {
        lane.gmw_acked += count;
        if lane.gmw_acked >= shared.gmw_count {
            let completed = lane.hosted.expect("checked");
            restart_epoch(shared, lane, ws, node, completed, lane_idx, NO_PREV, ctx);
        }
    } else if let Some(p) = lane.slot.parent {
        ctx.send(p, shared.mux(lane_idx, StitchMsg::GmwAck { count }));
    }
}

/// Accumulates a `GET-MORE-WALKS` acknowledgement into the round's
/// per-lane merge buffer.
fn push_ack(acks: &mut Vec<(u32, u64)>, lane_idx: u32, count: u64) {
    match acks.iter_mut().find(|a| a.0 == lane_idx) {
        Some(a) => a.1 += count,
        None => acks.push((lane_idx, count)),
    }
}

/// Per-walk result of a batched Phase-2 run.
#[derive(Debug, Clone)]
pub struct BatchedWalk {
    /// The walk's destination — an exact `len`-step walk sample.
    pub destination: NodeId,
    /// The walk's stitch trace, in position order.
    pub segments: Vec<Segment>,
}

/// Result of [`StitchScheduler::run`].
#[derive(Debug, Clone)]
pub struct BatchedStitchOutcome {
    /// Per-walk destinations and stitch traces, in spec order.
    pub walks: Vec<BatchedWalk>,
    /// Total stitches across all walks.
    pub stitches: u64,
    /// Total `GET-MORE-WALKS` invocations across all walks.
    pub gmw_invocations: u64,
    /// `GET-MORE-WALKS` invocations per walk, in spec order.
    pub gmw_by_walk: Vec<u64>,
    /// How many times each node served as a connector: `(node, count)`
    /// for the nodes that did, ascending by node.
    pub connector_visits: Vec<(NodeId, u32)>,
    /// Rounds from the run's last stitch to its last walk landing — the
    /// stretch in which only naive-tail (and replay) tokens moved; every
    /// round of a run that never stitched. For a one-walk run this is
    /// exactly the walk's naive tail (Algorithm 1, line 14) and
    /// `report.rounds - rounds_tail - rounds_replay` its stitching bill.
    pub rounds_tail: u64,
    /// Rounds the run continued after its last walk landed, until the
    /// last recorded segment's replay token was home: what regeneration
    /// adds to the walk's own critical path. 0 on every run without a
    /// recorded spec.
    pub rounds_replay: u64,
    /// Walk re-issues performed by the self-healing pass: on an
    /// unhealed (fail-silent) network, walks whose token was lost are
    /// relaunched from their last stitched checkpoint once the run goes
    /// quiescent. Always 0 on perfect or ARQ-healed networks.
    pub reissues: u64,
    /// The engine report of the multiplexed run (summed over re-issue
    /// passes, if any) — Phase 2's entire round/message bill.
    pub report: RunReport,
}

/// Folds a re-issue pass's engine report into the outcome's running
/// total: additive traffic, max-composed extremes, summed fault
/// counters (telemetry keeps the last pass's values).
fn merge_report(total: &mut RunReport, pass: RunReport) {
    total.rounds += pass.rounds;
    total.messages += pass.messages;
    total.words += pass.words;
    total.max_edge_backlog = total.max_edge_backlog.max(pass.max_edge_backlog);
    total.max_edge_load = total.max_edge_load.max(pass.max_edge_load);
    total.max_edge_words_per_round = total
        .max_edge_words_per_round
        .max(pass.max_edge_words_per_round);
    if total.edge_load_histogram.len() < pass.edge_load_histogram.len() {
        total
            .edge_load_histogram
            .resize(pass.edge_load_histogram.len(), 0);
    }
    for (slot, v) in total
        .edge_load_histogram
        .iter_mut()
        .zip(&pass.edge_load_histogram)
    {
        *slot += v;
    }
    total.faults.accumulate(&pass.faults);
    total.wire.merge(&pass.wire);
    total.memory = pass.memory;
    total.balance = pass.balance;
}

/// The batched Phase-2 scheduler: stitches `k` walks over a shared
/// Phase-1 store in **one** multiplexed CONGEST run.
///
/// # Example
///
/// ```
/// use drw_congest::{EngineConfig, Runner};
/// use drw_core::{ShortWalksProtocol, StitchScheduler, StitchSetup, WalkState};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_core::WalkError> {
/// let g = generators::torus2d(5, 5);
/// let mut runner = Runner::new(&g, EngineConfig::default(), 7);
/// let mut state = WalkState::new(g.n());
/// // Phase 1: a shared store of short walks.
/// let mut p1 = ShortWalksProtocol::new(&mut state, vec![4; g.n()], 8, true);
/// runner.run_local(&mut p1)?;
/// // Phase 2: three walks, batched.
/// let setup = StitchSetup {
///     lambda: 8,
///     randomize_len: true,
///     aggregated_gmw: true,
///     gmw_count: 16,
///     record: false,
/// };
/// let mut sched = StitchScheduler::new(&setup);
/// for source in [0, 7, 7] {
///     sched.add_walk(source, 128);
/// }
/// let out = sched.run(&mut runner, &mut state)?;
/// assert_eq!(out.walks.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StitchScheduler {
    setup: StitchSetup,
    specs: Vec<StitchSpec>,
}

/// Upper bound on self-healing re-issue passes in
/// [`StitchScheduler::run`]. Each pass restarts only the walks that
/// stalled, so under any sub-partition fault rate the expected number of
/// passes is O(1); hitting this bound means the plan is pathological
/// (e.g. dropping essentially every message).
pub const MAX_REISSUE_PASSES: usize = 16;

/// The most walks one multiplexed run can host: the [`Mux2`] lane tag is
/// 16 bits wide. Requests are held to it where they enter
/// ([`WalkError::TooManyLanes`]); [`StitchScheduler::add_spec`] asserts
/// it.
pub const MAX_WAVE_LANES: usize = u16::MAX as usize;

impl StitchScheduler {
    /// Creates an empty scheduler for the given stitching parameters.
    ///
    /// With `setup.record` set, every hop of a walk records its visit
    /// (position + predecessor) into the shared state — naive-tail hops
    /// as they happen, stitched segments as their replay tokens pass
    /// (module docs) — so queueing a walk then requires the per-token
    /// (replayable) `GET-MORE-WALKS` ([`StitchScheduler::add_spec`]).
    pub fn new(setup: &StitchSetup) -> Self {
        StitchScheduler {
            setup: *setup,
            specs: Vec::new(),
        }
    }

    /// Queues a `len`-step walk from `source`.
    pub fn add_walk(&mut self, source: NodeId, len: u64) -> &mut Self {
        self.add_walk_at(source, len, 0)
    }

    /// Queues a `len`-step walk from `source` whose start sits at global
    /// position `pos_offset` of a larger recorded walk (a session
    /// extension): in record mode, tail visits are recorded at
    /// `pos_offset + local position`.
    pub fn add_walk_at(&mut self, source: NodeId, len: u64, pos_offset: u64) -> &mut Self {
        self.add_spec(StitchSpec {
            pos_offset,
            record: self.setup.record,
            ..StitchSpec::plain(source, len)
        })
    }

    /// Queues an explicit [`StitchSpec`] — the request-scheduler entry
    /// point, where specs of *different requests* (tagged by
    /// [`StitchSpec::req`]) with per-spec record/naive flags share one
    /// multiplexed run.
    ///
    /// # Panics
    ///
    /// Panics if a recorded spec is combined with aggregated
    /// `GET-MORE-WALKS` (whose stored walks are not replayable — any
    /// lane could consume them, leaving recorded positions silently
    /// missing), or if the scheduler already holds 2^16 walks (the
    /// [`Mux2`] lane width).
    pub fn add_spec(&mut self, spec: StitchSpec) -> &mut Self {
        assert!(
            !(spec.record && self.setup.aggregated_gmw),
            "recorded specs require per-token (replayable) GET-MORE-WALKS"
        );
        assert!(
            self.specs.len() < MAX_WAVE_LANES,
            "a multiplexed run is limited to 2^16 walk lanes"
        );
        self.specs.push(spec);
        self
    }

    /// Runs Phase 2 for every queued walk in one multiplexed engine run
    /// over `state`'s shared short-walk store (which must have been
    /// prepared by Phase 1 on the same `state`, or be deliberately empty
    /// to exercise pure `GET-MORE-WALKS` stitching).
    ///
    /// # Self-healing under message loss
    ///
    /// On a fail-silent network (an active unhealed
    /// [`drw_congest::FaultPlan`] on the runner's engine), a walk's
    /// token or one of its epoch handshakes can be lost outright, in
    /// which case the multiplexed run goes quiescent with the walk
    /// unfinished. Quiescence *is* the timeout — nothing is in flight,
    /// so no retransmission can arrive — and the scheduler then
    /// re-issues every unfinished walk from its last stitched
    /// checkpoint in a follow-up pass (walks are memoryless, so
    /// re-drawing the lost suffix with fresh randomness leaves the
    /// endpoint distribution exact). Passes repeat until every walk
    /// lands; the count is surfaced as
    /// [`BatchedStitchOutcome::reissues`] and the summed engine bill as
    /// its `report`.
    ///
    /// # Errors
    ///
    /// Propagates engine errors; either way no node of `state` is left
    /// holding wave scratch.
    ///
    /// # Panics
    ///
    /// Panics if a queued source is out of range, if a run on a
    /// *perfect or ARQ-healed* network ends with an unfinished walk (a
    /// protocol invariant violation — loss-free runs may not stall), if
    /// a *recorded* walk needs re-issue (recording requires the healed
    /// transport: partially recorded visits cannot be rolled back), or
    /// if walks still stall after [`MAX_REISSUE_PASSES`] passes (the
    /// fault rate is above the partition threshold).
    pub fn run(
        self,
        runner: &mut Runner,
        state: &mut WalkState,
    ) -> Result<BatchedStitchOutcome, WalkError> {
        let n = runner.graph().n();
        assert_eq!(state.nodes.len(), n, "state must match the graph");
        for spec in &self.specs {
            assert!(spec.source < n, "source {} out of range", spec.source);
        }
        let setup = self.setup;
        let lambda = setup.lambda.max(1);
        let can_reissue = runner
            .config()
            .faults
            .is_some_and(|p| p.is_active() && !p.heal);
        let total = self.specs.len();
        let specs = self.specs;

        // Accumulators in original walk coordinates, folded over passes.
        let mut destinations: Vec<Option<NodeId>> = vec![None; total];
        let mut segments: Vec<Vec<Segment>> = vec![Vec::new(); total];
        let mut connector_visits = std::collections::BTreeMap::new();
        let mut gmw_by_walk = vec![0u64; total];
        let mut report = RunReport::default();
        let (mut rounds_tail, mut rounds_replay) = (0u64, 0u64);
        let mut reissues = 0u64;
        // The walks this pass runs: (original index, spec, steps already
        // banked by earlier passes). Pass 0 is the full batch.
        let mut pending: Vec<(usize, StitchSpec, u64)> =
            specs.iter().enumerate().map(|(w, &s)| (w, s, 0)).collect();

        for pass in 0.. {
            let shared = SharedCfg {
                lambda,
                randomize_len: setup.randomize_len,
                aggregated_gmw: setup.aggregated_gmw,
                gmw_count: setup.gmw_count.max(1),
                walks: pending.iter().map(|&(_, s, _)| s).collect(),
            };
            let mut protocol = BatchedStitchProtocol {
                shared,
                nodes: &mut state.nodes,
                touched: Vec::new(),
                done: 0,
                replaying: 0,
                walking_until: 0,
            };
            let result = runner.run_local(&mut protocol);

            // Collect — and drop — the scratch of exactly the nodes the
            // pass touched, engine error or not; merge this pass's
            // results into original walk coordinates (segment positions
            // shift by the banked steps).
            let mut finished_here: Vec<bool> = vec![false; pending.len()];
            let mut landed = 0;
            let mut last_stitch = 0;
            for v in protocol.touched {
                let wave = protocol.nodes[v].wave.take();
                let wave = wave.expect("listed nodes hold scratch");
                last_stitch = last_stitch.max(wave.tally.last_stitch_round);
                if wave.tally.connector_visits > 0 {
                    *connector_visits.entry(v).or_insert(0) += wave.tally.connector_visits;
                }
                for (j, lane) in wave.lanes.iter().enumerate() {
                    gmw_by_walk[pending[j].0] += lane.gmw_events;
                }
                for &j in &wave.tally.finished {
                    let (w, _, _) = pending[j as usize];
                    assert!(!finished_here[j as usize], "walk {w} finished twice");
                    finished_here[j as usize] = true;
                    assert!(
                        destinations[w].replace(v).is_none(),
                        "walk {w} finished twice"
                    );
                    landed += 1;
                }
                for (j, mut seg) in wave.tally.segments {
                    let (w, _, banked) = pending[j as usize];
                    seg.start_pos += banked;
                    segments[w].push(seg);
                }
            }
            assert_eq!(protocol.done, landed, "completion count out of step");
            let pass_report = result?;
            assert_eq!(
                protocol.replaying, 0,
                "recorded segments never replayed (recording needs a loss-free or healed transport)"
            );
            // A run outlives its last landing only to wait for replay
            // tokens (a pass that stalls unfinished never outlives it).
            let replay = pass_report.rounds - protocol.walking_until;
            rounds_replay += replay;
            rounds_tail += pass_report.rounds - last_stitch - replay;
            merge_report(&mut report, pass_report);

            let unfinished: Vec<(usize, StitchSpec, u64)> = pending
                .iter()
                .zip(&finished_here)
                .filter(|&(_, &f)| !f)
                .map(|(&p, _)| p)
                .collect();
            if unfinished.is_empty() {
                break;
            }
            assert!(
                can_reissue,
                "walk {} never completed (loss-free runs may not stall)",
                unfinished[0].0
            );
            assert!(
                pass + 1 < MAX_REISSUE_PASSES,
                "{} walks still unfinished after {MAX_REISSUE_PASSES} re-issue passes \
                 (fault rate above the partition threshold?)",
                unfinished.len()
            );
            // Relaunch each lost walk from its last stitched checkpoint
            // with fresh randomness (the next engine run derives a new
            // seed). Naive walks carry no trace, so they restart whole.
            pending = unfinished
                .into_iter()
                .map(|(w, spec, _)| {
                    assert!(
                        !spec.record,
                        "walk {w}: recorded walks cannot be re-issued (use a healed fault plan)"
                    );
                    reissues += 1;
                    if spec.naive {
                        (w, specs[w], 0)
                    } else {
                        let mut segs = segments[w].clone();
                        segs.sort_unstable_by_key(|s| s.start_pos);
                        let mut driver = WalkDriver::new(specs[w].source, specs[w].len);
                        for &seg in &segs {
                            driver.apply_segment(seg);
                        }
                        let respec = StitchSpec {
                            source: driver.current,
                            len: specs[w].len - driver.completed,
                            pos_offset: specs[w].pos_offset + driver.completed,
                            ..specs[w]
                        };
                        (w, respec, driver.completed)
                    }
                })
                .collect();
        }

        let mut stitches = 0u64;
        let mut out = Vec::with_capacity(total);
        for (w, spec) in specs.iter().enumerate() {
            let mut segs = std::mem::take(&mut segments[w]);
            segs.sort_unstable_by_key(|s| s.start_pos);
            if spec.naive {
                assert!(segs.is_empty(), "naive walk {w} must never stitch");
            } else {
                // Replay the trace through the walk's state machine:
                // panics on any gap, overlap or broken connector chain
                // (re-issued suffixes chain onto their checkpoint).
                let mut driver = WalkDriver::new(spec.source, spec.len);
                for &seg in &segs {
                    driver.apply_segment(seg);
                }
                assert!(
                    !matches!(driver.next_action(lambda), WalkAction::Stitch),
                    "walk {w} stopped stitching early"
                );
                stitches += driver.stitches();
            }
            out.push(BatchedWalk {
                destination: destinations[w].unwrap_or_else(|| panic!("walk {w} never completed")),
                segments: segs,
            });
        }
        Ok(BatchedStitchOutcome {
            walks: out,
            stitches,
            gmw_invocations: gmw_by_walk.iter().sum(),
            gmw_by_walk,
            connector_visits: connector_visits.into_iter().collect(),
            rounds_tail,
            rounds_replay,
            reissues,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::short_walks::ShortWalksProtocol;
    use crate::state::Visit;
    use std::cell::Cell;

    thread_local! {
        /// Planted bug: a recorded lane's `Taken` is dropped where it
        /// lands, so the connector never learns what to replay.
        pub(super) static DROP_TAKEN: Cell<bool> = const { Cell::new(false) };
        /// Planted bug: a connector honours a wave's `prev` on every
        /// arrival of the epoch, not just the one that resets its lane.
        static STALE_PREV: Cell<bool> = const { Cell::new(false) };
    }

    /// The `STALE_PREV` bug, if planted: the lane keeps what it hosted
    /// and treats every arrival as the fresh one.
    pub(super) fn stale_prev_planted(lane: &mut LaneState, hosted: Option<u64>) -> bool {
        let planted = STALE_PREV.get();
        if planted {
            lane.hosted = hosted;
        }
        planted
    }

    use drw_congest::{EngineConfig, Runner};
    use drw_graph::generators;

    fn phase1(runner: &mut Runner, state: &mut WalkState, per_node: usize, lambda: u32) {
        let counts = vec![per_node; runner.graph().n()];
        let mut p1 = ShortWalksProtocol::new(state, counts, lambda, true);
        runner.run_local(&mut p1).expect("phase 1");
    }

    fn setup(lambda: u32, aggregated: bool) -> StitchSetup {
        StitchSetup {
            lambda,
            randomize_len: true,
            aggregated_gmw: aggregated,
            gmw_count: 8,
            record: false,
        }
    }

    /// One walk of `2 * lambda` steps from `source` over whatever
    /// `state` holds — exactly one stitch (after a `GET-MORE-WALKS` if
    /// the connector has no token), then a tail: the one-lane run that
    /// exercises a single `SAMPLE-DESTINATION` / `GET-MORE-WALKS`.
    fn one_stitch(
        g: &drw_graph::Graph,
        state: &mut WalkState,
        source: NodeId,
        su: &StitchSetup,
        seed: u64,
    ) -> BatchedStitchOutcome {
        let mut runner = Runner::new(g, EngineConfig::default(), seed);
        let mut sched = StitchScheduler::new(su);
        sched.add_walk(source, 2 * u64::from(su.lambda));
        let out = sched.run(&mut runner, state).expect("one-stitch run");
        assert_eq!(out.stitches, 1, "a 2*lambda-step walk stitches once");
        out
    }

    /// `one_stitch` over an empty store with `count` walks per
    /// `GET-MORE-WALKS`: the invocation's `count` new walks minus the
    /// one the stitch consumed are left in `state` to inspect.
    fn starved_stitch(
        g: &drw_graph::Graph,
        source: NodeId,
        count: u64,
        lambda: u32,
        randomize_len: bool,
        seed: u64,
    ) -> (WalkState, BatchedStitchOutcome) {
        let mut state = WalkState::new(g.n());
        let su = StitchSetup {
            randomize_len,
            gmw_count: count,
            ..setup(lambda, true)
        };
        let out = one_stitch(g, &mut state, source, &su, seed);
        assert_eq!(out.gmw_invocations, 1, "an empty store replenishes once");
        (state, out)
    }

    fn stored(state: &WalkState) -> impl Iterator<Item = &StoredWalk> {
        state.nodes.iter().flat_map(|ns| &ns.store)
    }

    #[test]
    fn sampling_is_uniform_over_tokens() {
        // 6 tokens spread over the graph; sample repeatedly (a fresh
        // store each time) and chi-square the selection counts.
        let g = generators::torus2d(3, 3);
        let placements = [(0usize, 0u32), (2, 1), (4, 2), (4, 3), (7, 4), (8, 5)];
        let mut counts = vec![0u64; placements.len()];
        for trial in 0..1200u64 {
            let mut state = WalkState::new(g.n());
            for &(owner, seq) in &placements {
                state.store_walk(owner, WalkId { source: 0, seq }, 4, true);
            }
            let out = one_stitch(&g, &mut state, 0, &setup(4, true), 1000 + trial);
            let seg = out.walks[0].segments[0];
            let idx = placements
                .iter()
                .position(|&(o, s)| o == seg.owner && s == seg.id.seq)
                .expect("chosen token is one of the placements");
            counts[idx] += 1;
            assert_eq!(state.total_stored(), 5, "the chosen token is deleted");
        }
        let test = drw_stats::chi_square_uniform(&counts);
        assert!(test.passes(0.001), "{test:?} counts={counts:?}");
    }

    #[test]
    fn tokens_of_other_sources_are_ignored() {
        let g = generators::cycle(8);
        let mut state = WalkState::new(g.n());
        state.store_walk(4, WalkId { source: 1, seq: 0 }, 5, true);
        state.store_walk(5, WalkId { source: 2, seq: 0 }, 5, true);
        let out = one_stitch(&g, &mut state, 2, &setup(5, true), 9);
        let seg = out.walks[0].segments[0];
        assert_eq!((seg.connector, seg.owner, seg.id.source), (2, 5, 2));
        assert_eq!(out.gmw_invocations, 0);
        assert_eq!(state.total_stored(), 1, "source-1 token untouched");
        assert_eq!(state.stored_from(4, 1), 1);
    }

    #[test]
    fn root_owned_token_works() {
        let g = generators::path(5);
        let mut state = WalkState::new(g.n());
        state.store_walk(2, WalkId { source: 2, seq: 0 }, 3, true);
        let out = one_stitch(&g, &mut state, 2, &setup(3, true), 4);
        assert_eq!(out.walks[0].segments[0].owner, 2);
        assert_eq!(out.connector_visits, vec![(2, 1)]);
        assert_eq!(state.total_stored(), 0);
    }

    /// `tokens` stored walks of `root`, `lambda` steps each, spread over
    /// the graph (one of them at `root` itself).
    fn spread_tokens(n: usize, root: NodeId, tokens: u32, lambda: u32) -> WalkState {
        let mut state = WalkState::new(n);
        for seq in 0..tokens {
            let id = WalkId {
                source: root as u32,
                seq,
            };
            state.store_walk((root + seq as usize * 7) % n, id, lambda, true);
        }
        state
    }

    #[test]
    fn a_stitch_is_one_message_per_directed_edge_plus_the_owners_depth() {
        use rand::SeedableRng;
        // One lane, capacity-1 edges: nothing queues, so the flood tree
        // is a BFS tree and the owner's depth in it its distance from
        // the root. The echo puts exactly one `Wave` or `Agg` on every
        // directed edge; `Chosen` is the only other sampling message,
        // and it reaches the owner in `depth` hops only along the tree
        // path (it is only ever sent to a child).
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let graphs = [
            ("torus", generators::torus2d(6, 7)),
            ("4-regular", generators::random_regular(48, 4, &mut rng)),
        ];
        let lambda = 5u32;
        for (name, g) in &graphs {
            assert!(drw_graph::traversal::is_connected(g), "{name}");
            let root = 11;
            let depth = drw_graph::traversal::bfs_distances(g, root);
            let mut depths_seen = std::collections::BTreeSet::new();
            for trial in 0..24 {
                let mut state = spread_tokens(g.n(), root, 12, lambda);
                let out = one_stitch(g, &mut state, root, &setup(lambda, true), 300 + trial);
                let seg = out.walks[0].segments[0];
                let tail = 2 * u64::from(lambda) - u64::from(seg.len);
                let owner_depth = u64::from(depth[seg.owner]);
                assert_eq!(
                    out.report.messages,
                    g.dir_edge_count() as u64 + owner_depth + tail,
                    "{name}, trial {trial}: owner {} at depth {owner_depth}",
                    seg.owner
                );
                assert_eq!(out.gmw_invocations, 0);
                depths_seen.insert(owner_depth);
            }
            assert!(depths_seen.contains(&0), "{name}: the root's own token");
            assert!(depths_seen.len() >= 3, "{name}: {depths_seen:?}");
        }
    }

    #[test]
    fn eight_lanes_sharing_a_connector_each_consume_a_token_of_their_own() {
        let g = generators::torus2d(5, 5);
        let (root, lambda) = (12, 4u32);
        let mut state = spread_tokens(g.n(), root, 12, lambda);
        let mut runner = Runner::new(&g, EngineConfig::default(), 41);
        let mut sched = StitchScheduler::new(&setup(lambda, true));
        for _ in 0..8 {
            sched.add_walk(root, 2 * u64::from(lambda));
        }
        let out = sched
            .run(&mut runner, &mut state)
            .expect("shared connector");
        let mut taken = std::collections::BTreeSet::new();
        for walk in &out.walks {
            assert_eq!(walk.segments.len(), 1, "one stitch, then the tail");
            let seg = walk.segments[0];
            assert!(
                taken.insert((seg.owner, seg.id.seq)),
                "token {:?} at {} consumed twice",
                seg.id,
                seg.owner
            );
        }
        assert_eq!((out.stitches, out.gmw_invocations), (8, 0));
        assert_eq!(state.total_stored(), 4, "twelve tokens, eight consumed");
    }

    #[test]
    #[should_panic(expected = "came from a child")]
    fn a_slot_that_forgets_where_its_candidate_came_from_misroutes_the_choice() {
        // Planted bug: the reservoir replaces its candidate without
        // updating `cand_from`. The root holds no token of its own, so
        // its candidate is a child's and the choice has nowhere to go.
        // The sequential backend runs the handlers on this thread, which
        // is the only one to see the flag.
        let g = generators::torus2d(4, 4);
        let mut state = WalkState::new(g.n());
        state.store_walk(9, WalkId { source: 0, seq: 0 }, 4, true);
        crate::sample_destination::FORGET_CAND_FROM.set(true);
        one_stitch(&g, &mut state, 0, &setup(4, true), 3);
    }

    #[test]
    fn sampling_rounds_scale_with_eccentricity_not_walk_count() {
        // `report.rounds - rounds_tail` is the one stitch: wave out, echo
        // back and the routed choice, each at most the connector's
        // eccentricity, however many tokens it holds.
        let g = generators::path(32);
        let mut state = WalkState::new(g.n());
        for seq in 0..20 {
            state.store_walk((seq as usize * 7) % 32, WalkId { source: 0, seq }, 4, true);
        }
        let out = one_stitch(&g, &mut state, 0, &setup(4, true), 2);
        let rounds = out.report.rounds - out.rounds_tail;
        // Eccentricity of node 0 is 31; three passes plus constant.
        assert!((31..=3 * 31 + 10).contains(&rounds), "rounds = {rounds}");
        assert_eq!(out.rounds_tail, 4, "the tail is the 8 - 4 remaining steps");
    }

    #[test]
    fn gmw_creates_exactly_count_walks_in_the_reservoir_range() {
        let g = generators::torus2d(4, 4);
        let lambda = 6;
        let (state, out) = starved_stitch(&g, 3, 25, lambda, true, 1);
        assert_eq!(state.total_stored(), 24, "25 created, one stitched");
        let seg = out.walks[0].segments[0];
        for (id, len, replayable) in stored(&state).map(|w| (w.id, w.len, w.replayable)).chain([(
            seg.id,
            seg.len,
            seg.replayable,
        )]) {
            assert_eq!(
                id,
                WalkId {
                    source: 3,
                    seq: AGGREGATED_SEQ
                }
            );
            assert!(!replayable, "aggregated walks erase their trajectories");
            assert!(len >= lambda && len < 2 * lambda, "len = {len}");
        }
    }

    #[test]
    fn gmw_reservoir_lengths_are_uniform() {
        // Lemma 2.4: on-the-fly stopping makes every length in
        // [lambda, 2*lambda - 1] equally likely. One big invocation
        // suffices: lengths of distinct tokens are i.i.d. (the stitched
        // one included — it was drawn uniformly among them).
        let g = generators::complete(12);
        let lambda = 6u32;
        let (state, out) = starved_stitch(&g, 0, 6000, lambda, true, 3);
        let mut counts = vec![0u64; lambda as usize];
        counts[(out.walks[0].segments[0].len - lambda) as usize] += 1;
        for w in stored(&state) {
            counts[(w.len - lambda) as usize] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), 6000);
        let test = drw_stats::chi_square_uniform(&counts);
        assert!(test.passes(0.001), "{test:?} counts={counts:?}");
    }

    #[test]
    fn gmw_fixed_length_and_unit_lambda_modes() {
        // Fixed-length mode stops everything at lambda...
        let (state, _) = starved_stitch(&generators::cycle(10), 0, 30, 5, false, 4);
        assert_eq!(state.total_stored(), 29);
        assert!(stored(&state).all(|w| w.len == 5));
        // ...lambda = 1 yields unit walks...
        let (state, _) = starved_stitch(&generators::cycle(5), 2, 10, 1, true, 7);
        assert_eq!(state.total_stored(), 9);
        assert!(stored(&state).all(|w| w.len == 1));
        // ...and a zero count is clamped to the one walk the waiting
        // stitch needs (a replenishment of nothing would never resolve).
        let (state, _) = starved_stitch(&generators::path(4), 0, 0, 4, true, 8);
        assert_eq!(state.total_stored(), 0);
    }

    #[test]
    fn gmw_rounds_and_traffic_do_not_scale_with_count() {
        // Lemma 2.2: aggregation means no per-token congestion — a `Gmw`
        // arm is 2 words (3 with the lane tag) and stands for however
        // many tokens cross the edge at that step. On the lanes the
        // diffusion shares its edges with the acknowledgements that tell
        // the waiting root when to resample, so tokens fall a step apart
        // and an edge can queue one count per *distinct step* — a
        // backlog bounded by lambda, not by the count: 1000x the walks
        // cost about 2x the rounds, where per-token replenishment would
        // need count / deg = 1250 rounds for the first hop alone.
        let gmw = StitchMsg::Gmw {
            step: 1,
            count: 5000,
        };
        assert_eq!(gmw.size_words(), 2);
        assert_eq!(Mux2::new(0, 0, gmw).size_words(), 3);
        let g = generators::torus2d(4, 4);
        let lambda = 10u32;
        // Two sampling epochs of three passes each (diameter 4) plus the
        // acks' way up ride on top of the diffusion's 2*lambda - 1 hops.
        for (count, seed, hops) in [(5, 5, 2 * lambda), (5000, 6, 8 * lambda)] {
            let (_, out) = starved_stitch(&g, 0, count, lambda, true, seed);
            let rounds = out.report.rounds - out.rounds_tail;
            assert!(rounds <= u64::from(hops) + 32, "count {count}: {rounds}");
            assert!(
                out.report.messages < 2500,
                "count {count}: {} messages",
                out.report.messages
            );
            assert_eq!(
                out.report.max_edge_words_per_round, 4,
                "lane tag + widest arm"
            );
        }
    }

    #[test]
    fn walks_complete_with_chained_segments_and_store_conservation() {
        let g = generators::torus2d(4, 4);
        let mut runner = Runner::new(&g, EngineConfig::default(), 5);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 4, 8);
        let before = state.total_stored();

        let mut sched = StitchScheduler::new(&setup(8, true));
        let len = 256u64;
        for source in [0usize, 0, 5, 10] {
            sched.add_walk(source, len);
        }
        let out = sched.run(&mut runner, &mut state).expect("batched phase 2");

        assert_eq!(out.walks.len(), 4);
        let mut consumed = 0u64;
        for (walk, &source) in out.walks.iter().zip(&[0usize, 0, 5, 10]) {
            assert!(walk.destination < g.n());
            // Even-length walk on a bipartite torus: parity preserved —
            // the stitched trajectory really has `len` edges.
            let ps = (source / 4 + source % 4) % 2;
            let pd = (walk.destination / 4 + walk.destination % 4) % 2;
            assert_eq!(ps, pd, "parity broken for source {source}");
            assert!(!walk.segments.is_empty(), "length-256 walks must stitch");
            consumed += walk.segments.len() as u64;
        }
        // Every segment consumed exactly one stored token; GET-MORE-WALKS
        // is the only other store mutation.
        assert_eq!(
            state.total_stored() as u64,
            before as u64 + out.gmw_invocations * 8 - consumed,
        );
        assert_eq!(out.stitches, consumed);
        assert!(out.report.rounds > 0);
    }

    #[test]
    fn contended_source_replenishes_and_still_completes() {
        // Eight walks from the same source over a nearly-empty store:
        // the pool (one token per node) drains instantly, forcing
        // GET-MORE-WALKS and the optimistic-conflict retry path.
        let g = generators::torus2d(3, 3);
        let mut runner = Runner::new(&g, EngineConfig::default(), 11);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 1, 6);

        let mut sched = StitchScheduler::new(&setup(6, true));
        for _ in 0..8 {
            sched.add_walk(0, 120);
        }
        let out = sched.run(&mut runner, &mut state).expect("contended run");
        assert_eq!(out.walks.len(), 8);
        assert!(
            out.gmw_invocations > 0,
            "a starved shared pool must trigger GET-MORE-WALKS"
        );
        for walk in &out.walks {
            assert!(!walk.segments.is_empty());
        }
    }

    #[test]
    fn per_token_gmw_yields_replayable_segments() {
        // No Phase 1 at all: every stitch replenishes via the per-token
        // GET-MORE-WALKS variant, which logs forwarding decisions.
        let g = generators::torus2d(4, 4);
        let mut runner = Runner::new(&g, EngineConfig::default(), 3);
        let mut state = WalkState::new(g.n());
        let mut sched = StitchScheduler::new(&setup(6, false));
        sched.add_walk(2, 100).add_walk(9, 100);
        let out = sched.run(&mut runner, &mut state).expect("per-token run");
        assert!(out.gmw_invocations >= 2, "empty store forces GMW per walk");
        for walk in &out.walks {
            assert!(!walk.segments.is_empty());
            for seg in &walk.segments {
                assert!(seg.replayable, "per-token GMW segments are replayable");
            }
        }
        // The forwarding logs really cover the stitched segments.
        let logged: usize = state.nodes.iter().map(|ns| ns.forward.len()).sum();
        assert!(logged > 0);
    }

    #[test]
    fn wave_scratch_is_gone_after_a_run_and_after_an_engine_error() {
        let g = generators::torus2d(4, 4);
        let mut state = WalkState::new(g.n());
        let mut runner = Runner::new(&g, EngineConfig::default(), 5);
        phase1(&mut runner, &mut state, 4, 8);
        let queue = |sched: &mut StitchScheduler| {
            sched.add_walk(0, 200).add_walk(9, 5).add_walk(3, 0);
        };

        let mut sched = StitchScheduler::new(&setup(8, true));
        queue(&mut sched);
        let out = sched.run(&mut runner, &mut state).expect("loss-free run");
        assert!(!out.connector_visits.is_empty());
        assert!(out.connector_visits.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(state.nodes.iter().all(|ns| ns.wave.is_none()));

        // The same walks under a round cap they cannot meet: the engine
        // error comes back, and so does every node's scratch.
        let capped = EngineConfig {
            max_rounds: 12,
            ..EngineConfig::default()
        };
        let mut runner = Runner::new(&g, capped, 5);
        let mut sched = StitchScheduler::new(&setup(8, true));
        queue(&mut sched);
        let err = sched.run(&mut runner, &mut state).expect_err("capped");
        let cap = drw_congest::RunError::MaxRoundsExceeded(12);
        assert_eq!(err, WalkError::Engine(cap));
        assert!(state.nodes.iter().all(|ns| ns.wave.is_none()));
    }

    #[test]
    fn zero_and_tail_only_walks() {
        let g = generators::path(6);
        let mut runner = Runner::new(&g, EngineConfig::default(), 9);
        let mut state = WalkState::new(g.n());
        let mut sched = StitchScheduler::new(&setup(16, true));
        sched.add_walk(3, 0); // Done immediately
        sched.add_walk(2, 5); // < 2*lambda: pure tail
        let out = sched.run(&mut runner, &mut state).expect("short walks");
        assert_eq!(out.walks[0].destination, 3);
        assert!(out.walks[0].segments.is_empty());
        assert!(out.walks[1].segments.is_empty());
        assert_eq!(out.stitches, 0);
        // Parity of the 5-step tail on a path.
        assert_eq!((out.walks[1].destination + 2) % 2, 1);
    }

    #[test]
    fn record_mode_records_tail_visits_at_offset() {
        // A pure-tail walk (len < 2*lambda) in record mode: every hop is
        // recorded at pos_offset + local position with its predecessor;
        // the hand-off position (pos_offset itself) is never recorded.
        let g = generators::path(8);
        let mut runner = Runner::new(&g, EngineConfig::default(), 13);
        let mut state = WalkState::new(g.n());
        let mut su = setup(16, false);
        su.record = true;
        let mut sched = StitchScheduler::new(&su);
        sched.add_walk_at(3, 5, 100);
        let out = sched.run(&mut runner, &mut state).expect("tail walk");
        let visits = state.drain_visits();
        assert_eq!(visits.len(), 5);
        let mut poss: Vec<u64> = visits.iter().map(|(_, v)| v.pos).collect();
        poss.sort_unstable();
        assert_eq!(poss, vec![101, 102, 103, 104, 105]);
        let (last_node, _) = *visits.iter().find(|(_, v)| v.pos == 105).unwrap();
        assert_eq!(last_node, out.walks[0].destination);
        for (node, v) in &visits {
            assert!(g.has_edge(v.pred().expect("tail visits carry preds"), *node));
        }
    }

    #[test]
    fn heterogeneous_specs_mix_record_naive_and_plain() {
        // One multiplexed run hosting three *requests*: a plain stitched
        // walk (req 0), a recorded extension at a position offset
        // (req 1), and a forced-naive fallback walk longer than
        // 2*lambda (req 2). Per-spec flags must not bleed across lanes.
        let g = generators::torus2d(4, 4);
        let mut runner = Runner::new(&g, EngineConfig::default(), 17);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 3, 8);
        let mut su = setup(8, false); // per-token GMW (a spec records)
        su.record = false;
        let mut sched = StitchScheduler::new(&su);
        sched
            .add_spec(StitchSpec::plain(0, 200))
            .add_spec(StitchSpec {
                pos_offset: 40,
                req: 1,
                record: true,
                ..StitchSpec::plain(5, 150)
            })
            .add_spec(StitchSpec {
                req: 2,
                naive: true,
                ..StitchSpec::plain(10, 64)
            });
        let out = sched.run(&mut runner, &mut state).expect("mixed batch");
        assert_eq!(out.walks.len(), 3);
        // The naive lane walked all 64 steps as a tail: no segments,
        // parity preserved on the bipartite torus.
        assert!(out.walks[2].segments.is_empty());
        let parity = |v: usize| (v / 4 + v % 4) % 2;
        assert_eq!(parity(10), parity(out.walks[2].destination));
        assert_eq!(parity(0), parity(out.walks[0].destination));
        // Only the recorded lane's visits landed in the state — tail
        // hops and replayed segments alike — at every global position
        // above its offset, once.
        let mut visits = state.drain_visits();
        visits.sort_unstable_by_key(|(_, v)| v.pos);
        let positions: Vec<u64> = visits.iter().map(|(_, v)| v.pos).collect();
        assert_eq!(positions, (41..=190).collect::<Vec<u64>>());
        assert!(visits.iter().all(|(_, v)| v.pred().is_some()));
        // The recorded lane's segments are replayable (per-token GMW).
        for seg in &out.walks[1].segments {
            assert!(seg.replayable);
        }
    }

    /// One recorded `len`-step walk from node 0 of the 6x6 torus over a
    /// Phase-1 store at `lambda = 6`; returns the outcome and the
    /// visits it left.
    fn recorded_walk(len: u64, seed: u64) -> (BatchedStitchOutcome, Vec<(NodeId, Visit)>) {
        let g = generators::torus2d(6, 6);
        let mut runner = Runner::new(&g, EngineConfig::default(), seed);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 4, 6);
        let mut su = setup(6, false);
        su.record = true;
        let mut sched = StitchScheduler::new(&su);
        sched.add_walk(0, len);
        let out = sched.run(&mut runner, &mut state).expect("recorded run");
        (out, state.drain_visits())
    }

    #[test]
    fn a_recorded_run_regenerates_every_position_while_it_stitches() {
        let (out, mut visits) = recorded_walk(120, 7);
        assert!(out.stitches >= 3);
        visits.sort_unstable_by_key(|(_, v)| v.pos);
        let positions: Vec<u64> = visits.iter().map(|(_, v)| v.pos).collect();
        assert_eq!(positions, (1..=120).collect::<Vec<u64>>());
        assert_eq!(visits.last().unwrap().0, out.walks[0].destination);
        // Replay rode the wave: what is left of it after the walk landed
        // is at most the last segment plus the way to its connector.
        assert!(out.rounds_replay < 12 + 6, "{}", out.rounds_replay);
        assert!(out.rounds_tail + out.rounds_replay < out.report.rounds);
    }

    #[test]
    #[should_panic(expected = "never replayed")]
    fn a_dropped_taken_loses_the_last_segments_visits() {
        // Planted bug: the last stitch's `Taken` is dropped on its way
        // up. The connector learns the taken `seq` from nowhere else —
        // not from the host, not from a later wave — so the segment is
        // never replayed and the run must say so.
        let (out, _) = recorded_walk(120, 7);
        let last = out.walks[0].segments.last().expect("stitched");
        assert_ne!(
            last.owner, last.connector,
            "pick a seed whose last owner is remote"
        );
        DROP_TAKEN.set(true);
        let _ = recorded_walk(120, 7);
    }

    #[test]
    #[should_panic(expected = "no stitch owed")]
    fn a_prev_honoured_on_every_wave_arrival_replays_twice() {
        // Planted bug: the old connector acts on `prev` at every arrival
        // of the next epoch's wave (it has two neighbours closer to the
        // new root, so two arrive), and a second token walks the segment.
        STALE_PREV.set(true);
        let _ = recorded_walk(120, 7);
    }

    #[test]
    fn the_widest_message_did_not_grow() {
        // `Chosen` set the size before `Wave` gained `prev` and `Replay`
        // joined; queue entries copy this many bytes per message.
        assert_eq!(std::mem::size_of::<StitchMsg>(), 24);
        assert_eq!(std::mem::size_of::<BatchMsg>(), 32);
        let wave = StitchMsg::Wave {
            epoch: 1,
            root: 0,
            prev: NO_PREV,
        };
        assert_eq!(Mux2::new(0, 0, wave).size_words(), 4, "at the budget");
        let id = WalkId {
            source: (1 << 26) - 1,
            seq: 1 << 12,
        };
        assert_eq!(unpack_walk(pack_walk(id)), id);
        assert_ne!(pack_walk(id), NO_PREV);
    }

    #[test]
    #[should_panic(expected = "replayable")]
    fn recorded_spec_rejects_aggregated_gmw() {
        let mut sched = StitchScheduler::new(&setup(8, true));
        sched.add_spec(StitchSpec {
            record: true,
            ..StitchSpec::plain(0, 100)
        });
    }

    #[test]
    fn batched_shares_rounds_across_walks() {
        // The whole point: k batched walks must cost far less than k
        // times one walk. Compare against running k one-walk schedulers
        // back to back over identical stores.
        let g = generators::torus2d(6, 6);
        let len = 512u64;
        let k = 8usize;
        let su = setup(12, true);

        let mut runner_b = Runner::new(&g, EngineConfig::default(), 21);
        let mut state_b = WalkState::new(g.n());
        phase1(&mut runner_b, &mut state_b, 4, 12);
        let mut sched = StitchScheduler::new(&su);
        for i in 0..k {
            sched.add_walk((i * 5) % g.n(), len);
        }
        let batched = sched.run(&mut runner_b, &mut state_b).expect("batched");

        let mut runner_s = Runner::new(&g, EngineConfig::default(), 21);
        let mut state_s = WalkState::new(g.n());
        phase1(&mut runner_s, &mut state_s, 4, 12);
        let mut sequential_rounds = 0u64;
        for i in 0..k {
            let mut one = StitchScheduler::new(&su);
            one.add_walk((i * 5) % g.n(), len);
            let out = one.run(&mut runner_s, &mut state_s).expect("sequential");
            sequential_rounds += out.report.rounds;
        }
        assert!(
            batched.report.rounds * 2 < sequential_rounds,
            "batched {} vs sequential {}",
            batched.report.rounds,
            sequential_rounds
        );
    }

    #[test]
    fn lossy_links_trigger_reissue_and_walks_still_land() {
        use drw_congest::FaultPlan;
        // Fail-silent 0.5% drop — below the unhealed partition
        // threshold (every epoch handshake must cross the whole graph
        // losslessly, so high rates deadlock every pass; see DESIGN.md).
        // The scheduler must notice quiescent stalls and relaunch lost
        // walks from their checkpoints. Scan fault seeds for a schedule
        // that actually stalls something, so the test pins the re-issue
        // path and not just lucky delivery.
        let g = generators::torus2d(4, 4);
        let sources = [0usize, 10];
        let mut exercised = false;
        for fault_seed in 0..64 {
            let cfg = EngineConfig::default().with_faults(FaultPlan::drops(fault_seed, 5).lossy());
            let mut runner = Runner::new(&g, cfg, 5);
            let mut state = WalkState::new(g.n());
            phase1(&mut runner, &mut state, 4, 8);
            let mut sched = StitchScheduler::new(&setup(8, true));
            for &source in &sources {
                sched.add_walk(source, 64);
            }
            let out = sched.run(&mut runner, &mut state).expect("lossy run");
            assert_eq!(out.walks.len(), sources.len());
            let parity = |v: usize| (v / 4 + v % 4) % 2;
            for (walk, &source) in out.walks.iter().zip(&sources) {
                // Re-drawn suffixes still make exact 64-step walks:
                // even length preserves parity on the bipartite torus.
                assert_eq!(parity(source), parity(walk.destination));
            }
            assert_eq!(
                out.report.faults.retransmitted, 0,
                "fail-silent links must not ARQ"
            );
            if out.reissues > 0 {
                assert!(out.report.faults.dropped > 0, "re-issue without a drop");
                exercised = true;
                break;
            }
        }
        assert!(exercised, "no fault seed in 0..64 stalled a walk");
    }

    #[test]
    fn naive_lane_reissues_from_scratch_on_lossy_links() {
        use drw_congest::FaultPlan;
        // A forced-naive walk has no checkpoints: losing its tail token
        // restarts the whole walk (memoryless, so still unbiased). 5%
        // drop over a 16-hop token loses one run in two, while a fresh
        // pass completes just as often — stall and recovery are both
        // likely within the seed scan.
        let g = generators::path(4);
        let mut exercised = false;
        for fault_seed in 0..64 {
            let cfg = EngineConfig::default().with_faults(FaultPlan::drops(fault_seed, 50).lossy());
            let mut runner = Runner::new(&g, cfg, 7);
            let mut state = WalkState::new(g.n());
            let mut sched = StitchScheduler::new(&setup(8, true));
            sched.add_spec(StitchSpec {
                naive: true,
                ..StitchSpec::plain(1, 16)
            });
            let out = sched.run(&mut runner, &mut state).expect("naive lossy");
            assert!(out.walks[0].segments.is_empty());
            assert_eq!(out.walks[0].destination % 2, 1, "16-step parity on a path");
            if out.reissues > 0 {
                exercised = true;
                break;
            }
        }
        assert!(exercised, "no fault seed in 0..64 lost the naive token");
    }

    #[test]
    fn healed_faults_never_reissue() {
        use drw_congest::FaultPlan;
        // ARQ-healed drops are the transport's problem: the scheduler
        // must see a loss-free protocol and take the single-pass path.
        let g = generators::torus2d(4, 4);
        let cfg = EngineConfig::default().with_faults(FaultPlan::drops(3, 100));
        let mut runner = Runner::new(&g, cfg, 5);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 4, 8);
        let mut sched = StitchScheduler::new(&setup(8, true));
        sched.add_walk(0, 192).add_walk(9, 192);
        let out = sched.run(&mut runner, &mut state).expect("healed run");
        assert_eq!(out.reissues, 0);
        assert!(out.report.faults.dropped > 0);
        assert_eq!(out.report.faults.dropped, out.report.faults.retransmitted);
    }

    #[test]
    #[should_panic(expected = "recorded walks cannot be re-issued")]
    fn recorded_walks_refuse_lossy_reissue() {
        use drw_congest::FaultPlan;
        // Drop *everything*, fail-silent: the recorded walk stalls on
        // its first message and the re-issue pass must refuse it
        // (partially recorded visits cannot be rolled back).
        let g = generators::path(6);
        let cfg = EngineConfig::default().with_faults(FaultPlan::drops(1, 1000).lossy());
        let mut runner = Runner::new(&g, cfg, 9);
        let mut state = WalkState::new(g.n());
        let mut su = setup(4, false);
        su.record = true;
        let mut sched = StitchScheduler::new(&su);
        sched.add_walk(2, 32);
        let _ = sched.run(&mut runner, &mut state);
    }

    #[test]
    #[should_panic(expected = "re-issue passes")]
    fn total_loss_exhausts_reissue_budget() {
        use drw_congest::FaultPlan;
        // A plan above the partition threshold (100% drop) can never
        // finish: the bounded retry loop must give up loudly instead of
        // spinning forever.
        let g = generators::path(6);
        let cfg = EngineConfig::default().with_faults(FaultPlan::drops(1, 1000).lossy());
        let mut runner = Runner::new(&g, cfg, 9);
        let mut state = WalkState::new(g.n());
        let mut sched = StitchScheduler::new(&setup(4, true));
        sched.add_walk(2, 32);
        let _ = sched.run(&mut runner, &mut state);
    }
}
