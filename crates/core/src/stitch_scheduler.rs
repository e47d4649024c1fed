//! Phase 2 of the paper's algorithms: every walk of a wave — the `k`
//! tokens of `MANY-RANDOM-WALKS`, or the single token of Algorithm 1,
//! which is the `k = 1` wave — advances concurrently in **one**
//! multiplexed CONGEST run.
//!
//! Stitching walks one after another would cost the *sum* of `k` full
//! `SAMPLE-DESTINATION` / `GET-MORE-WALKS` / naive-tail compositions,
//! though each leaves almost every edge idle (EXPERIMENTS.md E3b). The
//! follow-up works (the JACM version of "Distributed Random Walks",
//! arXiv:1302.4544, and "Near-Optimal Random Walk Sampling in
//! Distributed Networks", arXiv:1201.1363) interleave the token
//! movements instead: concurrent stitches share rounds, and congestion
//! for an edge surfaces as queueing — which is exactly what
//! Theorem 2.8's `sqrt(k l D) + k` term prices in.
//!
//! [`StitchScheduler`] realizes that interleaving. Every message is
//! tagged with its owning request and walk id ([`drw_congest::Mux2`] —
//! one packed word on the wire), each node keeps one lane state per
//! walk, and one engine run hosts, asynchronously per walk, three roles
//! behind this module's dispatcher, each in its own module:
//!
//! | role | module | messages |
//! |---|---|---|
//! | one sampling echo per stitch | [`crate::sample_destination`] | `Wave`, `Agg`, `Chosen`, `Retry` |
//! | replenishing a drained connector | [`crate::get_more_walks`] | `Gmw`, `GmwAck` |
//! | naive tail and regeneration | `tail` (crate-private) | `Tail`, `Replay` |
//!
//! The run ends when every walk has landed and every replay token is home.
//!
//! A walk stitches while `StitchSpec::action_at` says so: while at
//! least `2 * lambda` steps remain (Algorithm 1), and, for an unrecorded
//! walk of at least `2 * lambda` steps, on while `lambda` or more do.
//! Such a *fitted* epoch's `Wave` carries a cap, the steps left: its
//! echo counts, and its owner takes, only stored walks no longer than
//! that, and if none fits the root sends the walk down its naive tail
//! rather than replenishing. Every epoch's cap is a pure function of
//! where the walk stands, so each node reads it off the wave.
//!
//! Per-walk epochs need no global coordination. A sampling epoch's root
//! finalizes only after it heard from every neighbour, a child's
//! aggregate says the child heard from all of its own, and so on down
//! the tree — so by the time a new epoch for the same walk can exist,
//! every `Wave` and `Agg` of the old one (one per directed edge) has
//! been delivered. `Chosen` is a single message on a single path, and
//! the next epoch starts *at* the node that consumes it. What is left
//! are `Retry`/ack messages, which only exist while the walk's root is
//! blocked waiting for them; the epoch guards drop any that a re-issued
//! walk leaves behind.

use crate::get_more_walks::GmwLane;
use crate::sample_destination::SdLaneSlot;
use crate::single_walk::{Segment, StitchSetup, WalkAction, WalkDriver, WalkError};
use crate::state::{NodeWalkState, WalkId, WalkState};
use crate::tail::{self, pack_walk, unpack_walk};
use drw_congest::{
    Ctx, Envelope, Message, Mux2, NodeCtx, Protocol, RunError, RunReport, Runner, WireReader,
    WireSink,
};
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
    /// a standalone walk). Only consulted in record mode: visits are
    /// recorded at `pos_offset + local position`, which is how a session
    /// extends an already-recorded walk without re-entering setup.
    pub pos_offset: u64,
    /// The request this walk belongs to within a heterogeneous batch
    /// (0 for standalone schedulers). Rides every message as the outer
    /// [`Mux2`] tag; the facade's request scheduler uses it to group
    /// work items back into responses.
    pub req: u16,
    /// Record this walk's visits (position + predecessor) into the
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

    /// What this walk does when it stands at `completed` steps: the rule
    /// of [`WalkDriver::action_at`], except that an unrecorded walk of at
    /// least `2 * lambda` steps goes on stitching while `lambda` or more
    /// remain — a *fitted* stitch, over the stored walks no longer than
    /// what is left ([`StitchSpec::cap_at`]). If none fits, the echo's
    /// root sends the walk down its naive tail, as below `lambda`.
    ///
    /// A recorded walk keeps the `2 * lambda` rule: its replay walks a
    /// fitted segment again, so the segment saves no rounds. A walk
    /// shorter than `2 * lambda` never stitches: no store is built for it.
    pub(crate) fn action_at(&self, completed: u64, lambda: u32) -> WalkAction {
        let lambda64 = u64::from(lambda);
        match self.len - completed {
            0 if self.naive => WalkAction::Done,
            left if self.naive => WalkAction::Tail(left),
            left if !self.record && self.len >= 2 * lambda64 && left >= lambda64 => {
                WalkAction::Stitch
            }
            _ => WalkDriver::action_at(self.len, completed, lambda),
        }
    }

    /// The longest stored walk a stitch at `completed` steps may take:
    /// any ([`NO_CAP`]) while at least `2 * lambda` steps remain, else
    /// what remains.
    pub(crate) fn cap_at(&self, completed: u64, lambda: u32) -> u32 {
        match self.len - completed {
            left if left >= 2 * u64::from(lambda) => NO_CAP,
            left => u32::try_from(left).unwrap_or(NO_CAP),
        }
    }

    /// Replays the stitch trace `segs` (sorted here by position) through
    /// this walk's state machine: panics on any gap, overlap or broken
    /// connector chain.
    fn replay(&self, segs: &mut [Segment]) -> WalkDriver {
        segs.sort_unstable_by_key(|s| s.start_pos);
        let mut driver = WalkDriver::new(self.source, self.len);
        for &seg in segs.iter() {
            driver.apply_segment(seg);
        }
        driver
    }
}

/// `StitchMsg::Wave::cap` of an epoch that may take a stored walk of any
/// length.
pub(crate) const NO_CAP: u32 = u32::MAX;

/// One walk's message within the multiplexed Phase-2 run. The walk id
/// travels as the [`Mux2`] lane (one extra word); every variant fits the
/// default 4-word CONGEST budget with it. Each variant has one handler,
/// in the module of its role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StitchMsg {
    /// The epoch's wave, flooding from the root: a node adopts its
    /// first sender as parent and forwards the wave to everyone else.
    /// `cap` is the longest stored walk the epoch may take
    /// ([`StitchSpec::cap_at`]; [`NO_CAP`]: any), packed with the epoch
    /// into one word `epoch:32 | cap:32` when there is one.
    Wave { epoch: u32, cap: u32, root: u32 },
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
    /// One `GET-MORE-WALKS` walk in flight; the receiver is its
    /// `step`-th node.
    Gmw { seq: u32, step: u32, total: u32 },
    /// `GET-MORE-WALKS` completion acknowledgements, routed and merged
    /// up the epoch's tree toward the waiting root.
    GmwAck { count: u64 },
    /// The naive tail token: `left` steps remain after this hop.
    Tail { left: u64 },
    /// A replay token regenerating the short walk `walk`
    /// ([`pack_walk`]) backwards from the node that took it: the
    /// receiver is the walk's `step`-th node and sits at global position
    /// `pos` of the recorded walk.
    Replay { walk: u64, step: u32, pos: u64 },
}

impl Message for StitchMsg {
    /// Every variant leads with its tag. A walk id is one packed word
    /// ([`pack_walk`]).
    fn encode(&self, w: &mut impl WireSink) {
        match *self {
            StitchMsg::Wave { epoch, cap, root } => {
                w.tag(0);
                w.tag((cap != NO_CAP).into());
                if cap == NO_CAP {
                    w.word("Wave.epoch", epoch.into());
                } else {
                    w.packed(&[("Wave.epoch", epoch.into()), ("Wave.cap", cap.into())]);
                }
                w.word("Wave.root", root.into());
            }
            StitchMsg::Agg { owner, count } => {
                w.tag(1);
                w.word("Agg.owner", owner.into());
                w.word("Agg.count", count);
            }
            StitchMsg::Chosen {
                epoch,
                owner,
                completed,
            } => {
                w.tag(2);
                w.word("Chosen.epoch", epoch.into());
                w.word("Chosen.owner", owner.into());
                w.word("Chosen.completed", completed);
            }
            StitchMsg::Retry { epoch } => {
                w.tag(3);
                w.word("Retry.epoch", epoch.into());
            }
            StitchMsg::Gmw { seq, step, total } => {
                w.tag(4);
                w.word("Gmw.seq", seq.into());
                w.word("Gmw.step", step.into());
                w.word("Gmw.total", total.into());
            }
            StitchMsg::GmwAck { count } => {
                w.tag(5);
                w.word("GmwAck.count", count);
            }
            StitchMsg::Tail { left } => {
                w.tag(6);
                w.word("Tail.left", left);
            }
            StitchMsg::Replay { walk, step, pos } => {
                w.tag(7);
                let id = unpack_walk(walk);
                w.packed(&[
                    ("Replay.source", id.source.into()),
                    ("Replay.seq", id.seq.into()),
                ]);
                w.word("Replay.step", step.into());
                w.word("Replay.pos", pos);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(match r.read::<u8>()? {
            0 => {
                let capped = r.flag()?;
                StitchMsg::Wave {
                    epoch: r.read()?,
                    cap: if capped { r.read()? } else { NO_CAP },
                    root: r.read()?,
                }
            }
            1 => StitchMsg::Agg {
                owner: r.read()?,
                count: r.read()?,
            },
            2 => StitchMsg::Chosen {
                epoch: r.read()?,
                owner: r.read()?,
                completed: r.read()?,
            },
            3 => StitchMsg::Retry { epoch: r.read()? },
            4 => StitchMsg::Gmw {
                seq: r.read()?,
                step: r.read()?,
                total: r.read()?,
            },
            5 => StitchMsg::GmwAck { count: r.read()? },
            6 => StitchMsg::Tail { left: r.read()? },
            7 => StitchMsg::Replay {
                walk: pack_walk(WalkId {
                    source: r.read()?,
                    seq: r.read()?,
                }),
                step: r.read()?,
                pos: r.read()?,
            },
            _ => return None,
        })
    }
}

pub(crate) type BatchMsg = Mux2<StitchMsg>;

/// Immutable per-run configuration, readable by every node handler:
/// the setup (`lambda` and `gmw_count` at least 1) and the walks.
#[derive(Debug)]
pub(crate) struct SharedCfg {
    pub(crate) setup: StitchSetup,
    pub(crate) walks: Vec<StitchSpec>,
}

impl SharedCfg {
    /// Wraps lane `w`'s message with its `(req, lane)` [`Mux2`] tags.
    #[inline]
    pub(crate) fn mux(&self, w: u32, msg: StitchMsg) -> BatchMsg {
        Mux2::new(self.walks[w as usize].req, w as u16, msg)
    }
}

/// One node's view of one walk ("lane"): the lane's current sampling
/// epoch, the hosted token at the connector, and the replenishment
/// bookkeeping.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneState {
    /// Current epoch at this node (0 = never participated).
    pub(crate) epoch: u32,
    /// The epoch's root (the walk's connector).
    pub(crate) root: u32,
    /// The longest stored walk the epoch may take ([`NO_CAP`]: any).
    pub(crate) cap: u32,
    /// This node's sampling slot for the epoch.
    pub(crate) slot: SdLaneSlot,
    /// `Some(completed)` while this node hosts the walk token as the
    /// epoch's root.
    pub(crate) hosted: Option<u64>,
    /// Root-side `GET-MORE-WALKS` state.
    pub(crate) gmw: GmwLane,
}

impl LaneState {
    /// Resets the lane for (this node's view of) a new epoch.
    pub(crate) fn enter(&mut self, epoch: u32, root: u32, cap: u32) {
        self.epoch = epoch;
        self.root = root;
        self.cap = cap;
        self.hosted = None;
        self.gmw.acked = None;
        self.slot = SdLaneSlot::default();
    }
}

/// What a node accumulates for the post-run result assembly.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    /// Walks whose final step landed here (destination = this node).
    pub(crate) finished: Vec<u32>,
    /// Segments resolved here (this node was the segment's endpoint).
    pub(crate) segments: Vec<(u32, Segment)>,
    /// Times this node served as a connector (Lemma 2.7's quantity).
    pub(crate) connector_visits: u32,
    /// The last round in which a segment resolved here (0 = none did).
    pub(crate) last_stitch_round: u64,
    /// Replay tokens owed here: `+1` per recorded segment this node took,
    /// `-1` per replay token that stopped here; drained into the run's
    /// count by [`BatchedStitchProtocol::note`].
    pub(crate) replays_open: i32,
}

/// One node's scratch for the wave in flight, in [`NodeWalkState::wave`]:
/// boxed by the node's first handler call, dropped by
/// [`StitchScheduler::run`]. A wave costs the nodes it touches.
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

/// A call's merge buffers, cleared first and flushed last. One set per
/// run rather than per call or per node: a call allocates nothing, and
/// the buffers stay hot in cache (kept in each node's [`WaveScratch`]
/// they cost 6 % of `warm_stitch`'s wall time in cache misses).
#[derive(Debug, Default)]
pub(crate) struct Merge {
    /// Wave adoptions per `(lane, epoch)`: the parent is the minimum
    /// sender among the round's arrivals.
    pub(crate) adopt: Vec<((u32, u32), Adoption)>,
    /// Lanes whose echo may have completed.
    pub(crate) ready: Vec<u32>,
    /// `GET-MORE-WALKS` acknowledgements per lane.
    pub(crate) acks: Vec<(u32, u64)>,
}

/// A wave adoption waiting for the round's flush: `(root, from)`.
pub(crate) type Adoption = (u32, NodeId);

/// Folds `value` into the entry for `key`, or appends one: how a round's
/// wave adoptions and `GET-MORE-WALKS` acknowledgements merge.
pub(crate) fn merge_by_key<K: PartialEq, V>(
    buf: &mut Vec<(K, V)>,
    key: K,
    value: V,
    fold: impl FnOnce(&mut V, V),
) {
    match buf.iter_mut().find(|e| e.0 == key) {
        Some(e) => fold(&mut e.1, value),
        None => buf.push((key, value)),
    }
}

/// One node's handler call, the receiver of every role's handlers: the
/// node's store and tally, the run's setup and merge buffers, and the
/// node-scoped context (`ctx.node()` is the node).
pub(crate) struct NodeCall<'a> {
    pub(crate) shared: &'a SharedCfg,
    pub(crate) ws: &'a mut NodeWalkState,
    pub(crate) tally: &'a mut Tally,
    pub(crate) merge: &'a mut Merge,
    pub(crate) ctx: NodeCtx<'a, BatchMsg>,
}

impl NodeCall<'_> {
    /// Sends lane `w`'s `msg` to the neighbour `to`.
    #[inline]
    pub(crate) fn send(&mut self, to: NodeId, w: u32, msg: StitchMsg) {
        let msg = self.shared.mux(w, msg);
        self.ctx.send(to, msg);
    }

    /// The lane of walk `w`, sizing the table for every walk first if
    /// this is the node's first use of any lane.
    pub(crate) fn lane<'l>(&self, lanes: &'l mut Vec<LaneState>, w: u32) -> &'l mut LaneState {
        if lanes.is_empty() {
            lanes.resize_with(self.shared.walks.len(), LaneState::default);
        }
        &mut lanes[w as usize]
    }

    /// One hop of `msg` (`Retry`, `GmwAck`) toward `lane`'s epoch root:
    /// elsewhere it goes to the parent; the root gets `hosted`.
    pub(crate) fn climb(&mut self, w: u32, lane: &LaneState, msg: StitchMsg) -> Option<u64> {
        if let (None, Some(p)) = (lane.hosted, lane.slot.parent) {
            self.send(p, w, msg);
        }
        lane.hosted
    }

    /// Moves walk `w`, standing here at `completed` steps, on: an epoch
    /// rooted here, the tail, or completion.
    pub(crate) fn proceed(&mut self, w: u32, lane: &mut LaneState, completed: u64) {
        match self.shared.walks[w as usize].action_at(completed, self.shared.setup.lambda) {
            WalkAction::Stitch => {
                self.tally.connector_visits += 1;
                self.restart_epoch(w, lane, completed);
            }
            WalkAction::Tail(steps) => {
                lane.hosted = None;
                tail::hop(self.shared, &mut self.ctx, w, steps);
            }
            WalkAction::Done => self.tally.finished.push(w),
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
    /// The handlers' merge buffers.
    merge: Merge,
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

    /// Runs `f` as `node`'s handler call. The node's scratch leaves the
    /// state for the call, so the roles can hold the store and the lanes
    /// side by side; the run's facts catch up afterwards.
    fn call_at(
        &mut self,
        node: NodeId,
        ctx: &mut Ctx<'_, BatchMsg>,
        f: impl FnOnce(&mut NodeCall<'_>, &mut Vec<LaneState>),
    ) {
        let ws = &mut self.nodes[node];
        let mut wave = ws.wave.take().unwrap_or_default();
        let WaveScratch { lanes, tally, .. } = &mut *wave;
        let merge = &mut self.merge;
        merge.adopt.clear();
        merge.ready.clear();
        merge.acks.clear();
        let call = &mut NodeCall {
            shared: &self.shared,
            ws: &mut *ws,
            tally,
            merge,
            ctx: ctx.at(node),
        };
        f(call, lanes);
        self.nodes[node].wave = Some(wave);
        self.note(node);
    }
}

impl Protocol for BatchedStitchProtocol<'_> {
    type Msg = BatchMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, BatchMsg>) {
        for w in 0..self.shared.walks.len() as u32 {
            let spec = self.shared.walks[w as usize];
            match spec.action_at(0, self.shared.setup.lambda) {
                // A tail needs no scratch at its source.
                WalkAction::Tail(steps) => {
                    tail::hop(&self.shared, &mut ctx.at(spec.source), w, steps)
                }
                _ => self.call_at(spec.source, ctx, |call, lanes| {
                    call.proceed(w, call.lane(lanes, w), 0)
                }),
            }
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

    /// Routes every envelope to its role's handler, then flushes the
    /// round's merges in a fixed order: `GET-MORE-WALKS`
    /// acknowledgements, wave adoptions, then the echoes they completed.
    fn on_receive(&mut self, v: NodeId, inbox: &[Envelope<BatchMsg>], ctx: &mut Ctx<'_, BatchMsg>) {
        self.call_at(v, ctx, |call, lanes| {
            for env in inbox {
                let (w, from) = (u32::from(env.msg.lane), env.from);
                let req = call.shared.walks[w as usize].req;
                debug_assert_eq!(env.msg.req, req, "request tag must match the lane's owner");
                match env.msg.msg {
                    StitchMsg::Wave { epoch, cap, root } => {
                        call.on_wave(call.lane(lanes, w), w, (epoch, cap, root), from)
                    }
                    StitchMsg::Agg { owner, count } => {
                        call.on_agg(call.lane(lanes, w), w, (owner, count), from)
                    }
                    StitchMsg::Chosen {
                        epoch,
                        owner,
                        completed,
                    } => call.on_chosen(call.lane(lanes, w), w, (epoch, owner, completed)),
                    StitchMsg::Retry { epoch } => call.on_retry(call.lane(lanes, w), w, epoch),
                    StitchMsg::Gmw { seq, step, total } => {
                        call.on_gmw(call.lane(lanes, w), w, (seq, step, total), from)
                    }
                    StitchMsg::GmwAck { count } => call.on_gmw_ack(w, count),
                    StitchMsg::Tail { left } => call.on_tail(w, left, from),
                    StitchMsg::Replay { walk, step, pos } => call.on_replay(w, (walk, step, pos)),
                }
            }
            call.flush_acks(lanes);
            call.flush_adoptions(lanes);
            call.flush_echoes(lanes);
        });
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
/// counters and a merged wire census.
fn merge_report(total: &mut RunReport, pass: RunReport) {
    total.rounds += pass.rounds;
    total.messages += pass.messages;
    total.words += pass.words;
    total.max_edge_backlog = total.max_edge_backlog.max(pass.max_edge_backlog);
    total.max_edge_load = total.max_edge_load.max(pass.max_edge_load);
    total.max_edge_words_per_round = total
        .max_edge_words_per_round
        .max(pass.max_edge_words_per_round);
    total.faults.accumulate(&pass.faults);
    total.wire.merge(&pass.wire);
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
/// runner.run(&mut p1)?;
/// // Phase 2: three walks, batched.
/// let setup = StitchSetup {
///     lambda: 8,
///     randomize_len: true,
///     gmw_count: 16,
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
/// stalled; a run that still stalls after this many passes returns
/// [`WalkError::MessagesLost`].
pub const MAX_REISSUE_PASSES: usize = 16;

/// The most walks one multiplexed run can host: the [`Mux2`] lane tag is
/// 16 bits wide. Requests are held to it where they enter
/// ([`WalkError::TooManyLanes`]); [`StitchScheduler::add_spec`] asserts
/// it.
pub const MAX_WAVE_LANES: usize = u16::MAX as usize;

impl StitchScheduler {
    /// Creates an empty scheduler for the given stitching parameters.
    pub fn new(setup: &StitchSetup) -> Self {
        StitchScheduler {
            setup: *setup,
            specs: Vec::new(),
        }
    }

    /// Queues an unrecorded `len`-step walk from `source`
    /// ([`StitchSpec::plain`]).
    pub fn add_walk(&mut self, source: NodeId, len: u64) -> &mut Self {
        self.add_spec(StitchSpec::plain(source, len))
    }

    /// Queues an explicit [`StitchSpec`] — the request-scheduler entry
    /// point, where specs of *different requests* (tagged by
    /// [`StitchSpec::req`]) with per-spec record/naive flags share one
    /// multiplexed run.
    ///
    /// A recorded spec ([`StitchSpec::record`]) records every visit of
    /// its walk (position + predecessor) into the shared state —
    /// naive-tail hops as they happen, stitched segments as their replay
    /// tokens pass (module docs).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler already holds 2^16 walks (the [`Mux2`]
    /// lane width).
    pub fn add_spec(&mut self, spec: StitchSpec) -> &mut Self {
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
    /// [`drw_congest::FaultPlan`] on the runner's engine), a lost token
    /// or echo message leaves the run quiescent with the walk
    /// unfinished. Quiescence *is* the timeout, and the scheduler then
    /// re-issues every unfinished walk from its last stitched checkpoint
    /// in a follow-up pass (walks are memoryless, so re-drawing the lost
    /// suffix with fresh randomness leaves the law exact), counted in
    /// [`BatchedStitchOutcome::reissues`]. An echo needs all of its `2m`
    /// messages, so it survives a drop rate `p` with probability
    /// `(1 - p)^(2m)`: 5 % at 2 % drops on the 6×6 torus, where a stitch
    /// then needs about twenty passes.
    ///
    /// # Errors
    ///
    /// Propagates engine errors, and returns [`WalkError::MessagesLost`]
    /// if a *recorded* walk lost a message (partially recorded visits
    /// cannot be rolled back, so it needs the healed transport) or walks
    /// still stall after [`MAX_REISSUE_PASSES`] passes. Either way no
    /// node of `state` is left holding wave scratch.
    ///
    /// # Panics
    ///
    /// Panics if a queued source is out of range, or if a run on a
    /// *perfect or ARQ-healed* network ends with an unfinished walk or
    /// an unreplayed segment (a protocol invariant violation — loss-free
    /// runs may not stall).
    pub fn run(
        self,
        runner: &mut Runner,
        state: &mut WalkState,
    ) -> Result<BatchedStitchOutcome, WalkError> {
        let n = runner.graph().n();
        let faults = runner.config().faults;
        let can_reissue = faults.is_some_and(|p| p.is_active() && !p.heal);
        self.run_on(n, can_reissue, state, |p| runner.run(p))
    }

    /// [`StitchScheduler::run`] over any engine entry point: `engine`
    /// runs one pass's protocol to completion on an `n`-node graph.
    fn run_on(
        self,
        n: usize,
        can_reissue: bool,
        state: &mut WalkState,
        mut engine: impl FnMut(&mut BatchedStitchProtocol<'_>) -> Result<RunReport, RunError>,
    ) -> Result<BatchedStitchOutcome, WalkError> {
        assert_eq!(state.nodes.len(), n, "state must match the graph");
        for spec in &self.specs {
            assert!(spec.source < n, "source {} out of range", spec.source);
        }
        let setup = StitchSetup {
            lambda: self.setup.lambda.max(1),
            gmw_count: self.setup.gmw_count.max(1),
            ..self.setup
        };
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
            let walks = pending.iter().map(|&(_, s, _)| s).collect();
            let mut protocol = BatchedStitchProtocol {
                shared: SharedCfg { setup, walks },
                nodes: &mut state.nodes,
                touched: Vec::new(),
                done: 0,
                replaying: 0,
                walking_until: 0,
                merge: Merge::default(),
            };
            let result = engine(&mut protocol);

            // Collect — and drop — the scratch of exactly the nodes the
            // pass touched, engine error or not; merge this pass's
            // results into original walk coordinates (segment positions
            // shift by the banked steps).
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
                    gmw_by_walk[pending[j].0] += lane.gmw.events;
                }
                for &j in &wave.tally.finished {
                    let w = pending[j as usize].0;
                    let twice = destinations[w].replace(v).is_some();
                    assert!(!twice, "walk {w} finished twice");
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
            if protocol.replaying > 0 && can_reissue {
                return Err(WalkError::MessagesLost);
            }
            assert_eq!(protocol.replaying, 0, "recorded segments never replayed");
            // A run outlives its last landing only to wait for replay
            // tokens (a pass that stalls unfinished never outlives it).
            let replay = pass_report.rounds - protocol.walking_until;
            rounds_replay += replay;
            rounds_tail += pass_report.rounds - last_stitch - replay;
            merge_report(&mut report, pass_report);

            let unfinished: Vec<(usize, StitchSpec, u64)> = pending
                .into_iter()
                .filter(|p| destinations[p.0].is_none())
                .collect();
            if unfinished.is_empty() {
                break;
            }
            assert!(
                can_reissue,
                "walk {} never completed (loss-free runs may not stall)",
                unfinished[0].0
            );
            if pass + 1 == MAX_REISSUE_PASSES || unfinished.iter().any(|u| u.1.record) {
                return Err(WalkError::MessagesLost);
            }
            // Relaunch each lost walk from its last stitched checkpoint
            // with fresh randomness (the next engine run derives a new
            // seed). Naive walks carry no trace, so they restart whole.
            reissues += unfinished.len() as u64;
            pending = unfinished
                .into_iter()
                .map(|(w, _, _)| {
                    let driver = specs[w].replay(&mut segments[w]);
                    let respec = StitchSpec {
                        source: driver.current,
                        len: specs[w].len - driver.completed,
                        pos_offset: specs[w].pos_offset + driver.completed,
                        ..specs[w]
                    };
                    (w, respec, driver.completed)
                })
                .collect();
        }

        let mut stitches = 0u64;
        let mut out = Vec::with_capacity(total);
        for (w, spec) in specs.iter().enumerate() {
            let mut segs = std::mem::take(&mut segments[w]);
            if spec.naive {
                assert!(segs.is_empty(), "naive walk {w} must never stitch");
            } else {
                // Re-issued suffixes chain onto their checkpoint.
                let driver = spec.replay(&mut segs);
                assert!(
                    !matches!(driver.next_action(setup.lambda), WalkAction::Stitch),
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
pub(crate) mod tests {
    use super::*;
    use crate::short_walks::ShortWalksProtocol;
    use crate::state::{StoredWalk, Visit};

    use drw_congest::{EngineConfig, Runner};
    use drw_graph::generators;

    fn phase1(runner: &mut Runner, state: &mut WalkState, per_node: usize, lambda: u32) {
        let counts = vec![per_node; runner.graph().n()];
        let mut p1 = ShortWalksProtocol::new(state, counts, lambda, true);
        runner.run(&mut p1).expect("phase 1");
    }

    fn setup(lambda: u32) -> StitchSetup {
        StitchSetup {
            lambda,
            randomize_len: true,
            gmw_count: 8,
        }
    }

    /// One walk of `2 * lambda` steps from `source` over whatever
    /// `state` holds — exactly one stitch (after a `GET-MORE-WALKS` if
    /// the connector has no token), then a tail: the one-lane run that
    /// exercises a single `SAMPLE-DESTINATION` / `GET-MORE-WALKS`. A
    /// segment of exactly `lambda` steps leaves `lambda` to go, and with
    /// them a fitted attempt — one more echo — at its endpoint; fixtures
    /// that count messages or rounds store longer walks.
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
            ..setup(lambda)
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
                state.store_walk(owner, WalkId { source: 0, seq }, 5);
            }
            let out = one_stitch(&g, &mut state, 0, &setup(4), 1000 + trial);
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
        state.store_walk(4, WalkId { source: 1, seq: 0 }, 5);
        state.store_walk(5, WalkId { source: 2, seq: 0 }, 5);
        let out = one_stitch(&g, &mut state, 2, &setup(5), 9);
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
        state.store_walk(2, WalkId { source: 2, seq: 0 }, 3);
        let out = one_stitch(&g, &mut state, 2, &setup(3), 4);
        assert_eq!(out.walks[0].segments[0].owner, 2);
        assert_eq!(out.connector_visits, vec![(2, 1)]);
        assert_eq!(state.total_stored(), 0);
    }

    /// `tokens` stored walks of `root`, `len` steps each, spread over
    /// the graph (one of them at `root` itself).
    fn spread_tokens(n: usize, root: NodeId, tokens: u32, len: u32) -> WalkState {
        let mut state = WalkState::new(n);
        for seq in 0..tokens {
            let id = WalkId {
                source: root as u32,
                seq,
            };
            state.store_walk((root + seq as usize * 7) % n, id, len);
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
                let mut state = spread_tokens(g.n(), root, 12, lambda + 1);
                let out = one_stitch(g, &mut state, root, &setup(lambda), 300 + trial);
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
        let mut sched = StitchScheduler::new(&setup(lambda));
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
        // The engine runs the handlers on this thread, which is the
        // only one to see the flag.
        let g = generators::torus2d(4, 4);
        let mut state = WalkState::new(g.n());
        state.store_walk(9, WalkId { source: 0, seq: 0 }, 4);
        crate::sample_destination::FORGET_CAND_FROM.set(true);
        one_stitch(&g, &mut state, 0, &setup(4), 3);
    }

    #[test]
    fn sampling_rounds_scale_with_eccentricity_not_walk_count() {
        // `report.rounds - rounds_tail` is the one stitch: wave out, echo
        // back and the routed choice, each at most the connector's
        // eccentricity, however many tokens it holds.
        let g = generators::path(32);
        let mut state = WalkState::new(g.n());
        for seq in 0..20 {
            state.store_walk((seq as usize * 7) % 32, WalkId { source: 0, seq }, 5);
        }
        let out = one_stitch(&g, &mut state, 0, &setup(4), 2);
        let rounds = out.report.rounds - out.rounds_tail;
        // Eccentricity of node 0 is 31; three passes plus constant.
        assert!((31..=3 * 31 + 10).contains(&rounds), "rounds = {rounds}");
        assert_eq!(out.rounds_tail, 3, "the tail is the 8 - 5 remaining steps");
    }

    #[test]
    fn gmw_creates_exactly_count_walks_each_with_its_own_id() {
        let g = generators::torus2d(4, 4);
        let lambda = 6;
        let (state, out) = starved_stitch(&g, 3, 25, lambda, true, 1);
        assert_eq!(state.total_stored(), 24, "25 created, one stitched");
        let seg = out.walks[0].segments[0];
        let walks = stored(&state).map(|w| (w.id, w.len));
        let mut ids = std::collections::BTreeSet::new();
        for (id, len) in walks.chain([(seg.id, seg.len)]) {
            assert_eq!(id.source, 3, "the drained connector launched it");
            assert!(ids.insert(id), "{id:?} stored twice");
            assert!(len >= lambda && len < 2 * lambda, "len = {len}");
        }
        assert_eq!(ids.len(), 25);
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
    fn walks_complete_with_chained_segments_and_store_conservation() {
        let g = generators::torus2d(4, 4);
        let mut runner = Runner::new(&g, EngineConfig::default(), 5);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 4, 8);
        let before = state.total_stored();

        let mut sched = StitchScheduler::new(&setup(8));
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

        let mut sched = StitchScheduler::new(&setup(6));
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
    fn gmw_segments_are_logged_up_to_their_owner() {
        // No Phase 1 at all: every stitch takes a GET-MORE-WALKS walk,
        // and every node after its source logged its arrival.
        let g = generators::torus2d(4, 4);
        let mut runner = Runner::new(&g, EngineConfig::default(), 3);
        let mut state = WalkState::new(g.n());
        let mut sched = StitchScheduler::new(&setup(6));
        sched.add_walk(2, 100).add_walk(9, 100);
        let out = sched.run(&mut runner, &mut state).expect("starved run");
        assert!(out.gmw_invocations >= 2, "empty store forces GMW per walk");
        for walk in &out.walks {
            assert!(!walk.segments.is_empty());
            for seg in &walk.segments {
                let log = &state.nodes[seg.owner].forward;
                let arrival = log.arrival(seg.id.source, seg.id.seq, seg.len);
                assert!(arrival.is_some(), "{seg:?} left no arrival at its owner");
            }
        }
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

        let mut sched = StitchScheduler::new(&setup(8));
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
        let mut sched = StitchScheduler::new(&setup(8));
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
        let mut sched = StitchScheduler::new(&setup(16));
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
        let mut sched = StitchScheduler::new(&setup(16));
        sched.add_spec(StitchSpec {
            pos_offset: 100,
            record: true,
            ..StitchSpec::plain(3, 5)
        });
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
        let mut sched = StitchScheduler::new(&setup(8));
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
    }

    /// One recorded `len`-step walk from node 0 of the 6x6 torus over a
    /// Phase-1 store at `lambda = 6`; returns the outcome and the
    /// visits it left.
    fn recorded_walk(len: u64, seed: u64) -> (BatchedStitchOutcome, Vec<(NodeId, Visit)>) {
        let g = generators::torus2d(6, 6);
        let mut runner = Runner::new(&g, EngineConfig::default(), seed);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 4, 6);
        let mut sched = StitchScheduler::new(&setup(6));
        sched.add_spec(StitchSpec {
            record: true,
            ..StitchSpec::plain(0, len)
        });
        let out = sched.run(&mut runner, &mut state).expect("recorded run");
        (out, state.drain_visits())
    }

    #[test]
    fn fitted_stitches_belong_to_unrecorded_walks_of_at_least_two_lambda() {
        let lambda = 8;
        let plain = StitchSpec::plain(0, 40);
        let at = |spec: StitchSpec, done| (spec.action_at(done, lambda), spec.cap_at(done, lambda));
        // 2λ or more to go: uncapped; λ up to 2λ: fitted, capped at what
        // is left; below λ: the tail.
        assert_eq!(at(plain, 24), (WalkAction::Stitch, NO_CAP));
        assert_eq!(at(plain, 25), (WalkAction::Stitch, 15));
        assert_eq!(at(plain, 32), (WalkAction::Stitch, 8));
        assert_eq!(plain.action_at(33, lambda), WalkAction::Tail(7));
        assert_eq!(plain.action_at(40, lambda), WalkAction::Done);
        // A recorded walk keeps the 2λ rule.
        let recorded = StitchSpec {
            record: true,
            ..plain
        };
        assert_eq!(recorded.action_at(24, lambda), WalkAction::Stitch);
        assert_eq!(recorded.action_at(25, lambda), WalkAction::Tail(15));
        // A walk shorter than 2λ never stitches, though λ or more remain.
        let short = StitchSpec::plain(0, 15);
        assert_eq!(short.action_at(0, lambda), WalkAction::Tail(15));
        let naive = StitchSpec {
            naive: true,
            ..plain
        };
        assert_eq!(naive.action_at(32, lambda), WalkAction::Tail(8));
    }

    #[test]
    fn a_fitted_stitch_leaves_a_tail_below_lambda_whenever_a_walk_fits() {
        // Plain 120-step walks over a 6x6 torus store at lambda = 6: a
        // segment that starts with fewer than 2λ to go is fitted and fits
        // what is left; a tail of λ or more means the last connector held
        // no walk that fits it (one lane: nothing else took one).
        let (g, lambda, len) = (generators::torus2d(6, 6), 6u32, 120u64);
        let mut fitted = 0;
        for seed in 0..16 {
            let mut runner = Runner::new(&g, EngineConfig::default(), 70 + seed);
            let mut state = WalkState::new(g.n());
            phase1(&mut runner, &mut state, 4, lambda);
            let mut sched = StitchScheduler::new(&setup(lambda));
            sched.add_walk(0, len);
            let out = sched.run(&mut runner, &mut state).expect("plain run");
            let segs = &out.walks[0].segments;
            for seg in segs {
                let left = len - seg.start_pos;
                assert!(
                    u64::from(seg.len) <= left,
                    "seed {seed}: {seg:?} overshoots"
                );
                fitted += u32::from(left < 2 * u64::from(lambda));
            }
            let last = segs.last().expect("a 120-step walk stitches");
            let tail = len - last.start_pos - u64::from(last.len);
            let fits: usize = (state.nodes.iter())
                .map(|ns| ns.count_from(last.owner, tail as u32))
                .sum();
            assert!(tail < 2 * u64::from(lambda), "seed {seed}");
            assert!(
                tail < u64::from(lambda) || fits == 0,
                "seed {seed}: tail {tail}"
            );
        }
        assert!(fitted > 0, "no walk ever stitched a fitted segment");
        // A walk shorter than 2λ walks naively over the same store.
        let mut runner = Runner::new(&g, EngineConfig::default(), 5);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 4, lambda);
        let mut sched = StitchScheduler::new(&setup(lambda));
        sched.add_walk(0, 2 * u64::from(lambda) - 1);
        let out = sched.run(&mut runner, &mut state).expect("short run");
        assert_eq!((out.stitches, out.report.messages), (0, 11));
        // A recorded walk keeps stitching only while 2λ or more remain.
        for seed in 0..6 {
            let (out, _) = recorded_walk(len, seed);
            for seg in &out.walks[0].segments {
                assert!(len - seg.start_pos >= 2 * u64::from(lambda), "{seg:?}");
            }
        }
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
    fn the_widest_message_did_not_grow() {
        // `Chosen` set the size before `Replay` joined; queue entries
        // copy this many bytes per message.
        assert_eq!(std::mem::size_of::<StitchMsg>(), 24);
        assert_eq!(std::mem::size_of::<BatchMsg>(), 32);
        for cap in [NO_CAP, 7] {
            let wave = StitchMsg::Wave {
                epoch: 1,
                cap,
                root: 0,
            };
            assert_eq!(Mux2::new(0, 0, wave).size_words(), 3);
        }
        let replay = StitchMsg::Replay {
            walk: pack_walk(WalkId { source: 3, seq: 1 }),
            step: 2,
            pos: 9,
        };
        assert_eq!(Mux2::new(0, 0, replay).size_words(), 4, "at the budget");
    }

    #[test]
    fn every_production_message_round_trips_at_its_field_limits() {
        use crate::short_walks::ShortWalkMsg;
        use drw_congest::primitives::{
            BfsMsg, BroadcastMsg, ConvergecastMsg, UpcastMsg, VecSumMsg,
        };
        use drw_congest::{round_trips, FracBits};
        fn limits<M: Message>(msgs: &[M]) {
            for m in msgs {
                assert!(round_trips(m), "{m:?} lost a field at its limits");
            }
        }
        // `i`: the largest id, seq or step; `c`: the largest counter.
        let (i, c) = (u32::MAX, u64::MAX);
        let stitch = [
            StitchMsg::Wave {
                epoch: i,
                cap: NO_CAP,
                root: i,
            },
            StitchMsg::Wave {
                epoch: i,
                cap: i - 1,
                root: i,
            },
            StitchMsg::Agg { owner: i, count: c },
            StitchMsg::Chosen {
                epoch: i,
                owner: i,
                completed: c,
            },
            StitchMsg::Retry { epoch: i },
            StitchMsg::Gmw {
                seq: i,
                step: i,
                total: i,
            },
            StitchMsg::GmwAck { count: c },
            StitchMsg::Tail { left: c },
            StitchMsg::Replay {
                walk: c,
                step: i,
                pos: c,
            },
        ];
        limits(&stitch.map(|m| Mux2::new(u16::MAX, u16::MAX, m)));
        limits(&[ShortWalkMsg {
            source: i,
            seq: i,
            step: i,
            total: i,
        }]);
        limits(&[None, Some(false), Some(true)].map(|child_status| BfsMsg {
            level: child_status.map(|_| i),
            child_status,
        }));
        limits(&[BroadcastMsg(vec![c; 4]), BroadcastMsg(Vec::new())]);
        limits(&[ConvergecastMsg {
            value: c,
            frac: FracBits(40),
        }]);
        limits(&[UpcastMsg((c, c))]);
        limits(&[VecSumMsg { bucket: c, sum: c }]);
    }

    #[test]
    fn batched_shares_rounds_across_walks() {
        // The whole point: k batched walks must cost far less than k
        // times one walk. Compare against running k one-walk schedulers
        // back to back over identical stores.
        let g = generators::torus2d(6, 6);
        let len = 512u64;
        let k = 8usize;
        let su = setup(12);

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
            let mut sched = StitchScheduler::new(&setup(8));
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
            let mut sched = StitchScheduler::new(&setup(8));
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
        let mut sched = StitchScheduler::new(&setup(8));
        sched.add_walk(0, 192).add_walk(9, 192);
        let out = sched.run(&mut runner, &mut state).expect("healed run");
        assert_eq!(out.reissues, 0);
        assert!(out.report.faults.dropped > 0);
        assert_eq!(out.report.faults.dropped, out.report.faults.retransmitted);
    }

    #[test]
    fn recorded_walks_refuse_lossy_reissue() {
        use drw_congest::FaultPlan;
        // Drop *everything*, fail-silent: the recorded walk stalls on
        // its first message and the re-issue pass must refuse it
        // (partially recorded visits cannot be rolled back).
        let g = generators::path(6);
        let cfg = EngineConfig::default().with_faults(FaultPlan::drops(1, 1000).lossy());
        let mut runner = Runner::new(&g, cfg, 9);
        let mut state = WalkState::new(g.n());
        let mut sched = StitchScheduler::new(&setup(4));
        sched.add_spec(StitchSpec {
            record: true,
            ..StitchSpec::plain(2, 32)
        });
        let err = sched
            .run(&mut runner, &mut state)
            .expect_err("lossy record");
        assert_eq!(err, WalkError::MessagesLost);
        assert!(state.nodes.iter().all(|ns| ns.wave.is_none()));
    }

    /// What a scripted-schedule run of [`small_wave`] must reproduce:
    /// the report, every walk's destination and stitch trace, the
    /// replenishment bill, the store left behind and the recorded visits.
    type WaveObserved = (
        RunReport,
        Vec<(NodeId, Vec<Segment>)>,
        Vec<u64>,
        Vec<Vec<StoredWalk>>,
        Vec<(NodeId, Visit)>,
    );

    /// One small wave on the 4x4 torus, each engine run going through
    /// `engine`: two lanes share connector 0, which holds one stored walk,
    /// so one of them runs `GET-MORE-WALKS`; a third lane stitches node
    /// 5's walk and records, replaying what it stitched; a fourth is a
    /// tail, a fifth forced naive.
    fn small_wave(
        mut engine: impl FnMut(&drw_graph::Graph, &mut BatchedStitchProtocol<'_>) -> RunReport,
    ) -> WaveObserved {
        let g = generators::torus2d(4, 4);
        let lambda = 4u32;
        let mut state = WalkState::new(g.n());
        let mut counts = vec![0; g.n()];
        counts[0] = 1;
        counts[5] = 1;
        let mut p1 = ShortWalksProtocol::new(&mut state, counts, lambda, true);
        drw_congest::run_protocol(&g, &EngineConfig::default(), 3, &mut p1).expect("phase 1");
        let mut sched = StitchScheduler::new(&StitchSetup {
            gmw_count: 4,
            ..setup(lambda)
        });
        let stitched = 2 * u64::from(lambda);
        sched
            .add_spec(StitchSpec::plain(0, stitched))
            .add_spec(StitchSpec::plain(0, stitched))
            .add_spec(StitchSpec {
                record: true,
                ..StitchSpec::plain(5, stitched)
            })
            .add_spec(StitchSpec::plain(10, 5))
            .add_spec(StitchSpec {
                naive: true,
                ..StitchSpec::plain(15, stitched)
            });
        let out = sched
            .run_on(g.n(), false, &mut state, |p| Ok(engine(&g, p)))
            .expect("scripted wave");
        let walks = out.walks.iter();
        (
            out.report,
            walks.map(|w| (w.destination, w.segments.clone())).collect(),
            out.gmw_by_walk,
            state.nodes.iter().map(|ns| ns.store.clone()).collect(),
            state.drain_visits(),
        )
    }

    #[test]
    fn phase_two_is_identical_under_scripted_receive_orders() {
        use drw_congest::{receive_order, run_scripted, ScriptedSchedule};
        let cfg = EngineConfig::default();
        let seed = 8;
        let want = small_wave(|g, p| drw_congest::run_protocol(g, &cfg, seed, p).unwrap());
        let (report, walks, gmw, _, visits) = &want;
        assert_eq!(gmw.iter().sum::<u64>(), 1, "one GET-MORE-WALKS");
        assert_eq!(
            walks.iter().map(|w| w.1.len()).sum::<usize>(),
            3,
            "three stitches"
        );
        assert_eq!(visits.len(), 8, "the recorded lane, every position once");
        assert!(report.rounds > 0);

        // Schedule `i` permutes every round's receivers by a seeded
        // shuffle (`receive_order`).
        let scripted = |i: u64, planted: bool| {
            let (mut rounds, mut permuted) = (0usize, 0usize);
            let order = &mut |round: u64, len: usize| {
                let perm = receive_order(i, round, len);
                rounds += 1;
                permuted += usize::from(perm.iter().enumerate().any(|(k, &j)| k != j));
                perm
            };
            let got = small_wave(|g, p| {
                let schedule = ScriptedSchedule {
                    merge_in_run_order: planted,
                    ..ScriptedSchedule::new(&mut *order)
                };
                run_scripted(g, &cfg, seed, p, schedule).unwrap()
            });
            (got, rounds, permuted)
        };
        for i in 1..64 {
            let (got, rounds, permuted) = scripted(i, false);
            assert!(
                rounds >= 4 && 2 * permuted >= rounds,
                "schedule {i}: {permuted} of {rounds} rounds permuted"
            );
            assert!(got == want, "schedule {i} diverged");
        }
        // The planted merge race shows under some receive order.
        let diverged = (1..64).find(|&i| scripted(i, true).0 != want);
        assert!(diverged.is_some(), "the planted merge race went unseen");
    }

    #[test]
    fn total_loss_exhausts_reissue_budget() {
        use drw_congest::FaultPlan;
        // 100% fail-silent drop can never finish: the bounded retry loop
        // must give up with a typed error instead of spinning forever.
        let g = generators::path(6);
        let cfg = EngineConfig::default().with_faults(FaultPlan::drops(1, 1000).lossy());
        let mut runner = Runner::new(&g, cfg, 9);
        let mut state = WalkState::new(g.n());
        let mut sched = StitchScheduler::new(&setup(4));
        sched.add_walk(2, 32);
        let err = sched.run(&mut runner, &mut state).expect_err("total loss");
        assert_eq!(err, WalkError::MessagesLost);
        assert!(state.nodes.iter().all(|ns| ns.wave.is_none()));
    }
}
