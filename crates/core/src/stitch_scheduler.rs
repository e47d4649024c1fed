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
//! one packed word on the wire), and one engine run hosts,
//! asynchronously per walk, three roles behind this module's
//! dispatcher, each in its own module:
//!
//! | role | module | messages |
//! |---|---|---|
//! | the connector's choice and its claim flood | [`crate::sample_destination`] | `Claim` |
//! | replenishing a drained connector | [`crate::get_more_walks`] | `Gmw`, `Ride`, `Stored` |
//! | naive tail and regeneration | `tail` (crate-private) | `Tail`, `Replay` |
//!
//! The run ends when every walk has landed, every replay token is home
//! and every `GET-MORE-WALKS` invocation is acknowledged.
//!
//! A walk stitches while `StitchSpec::action_at` says so: while at
//! least `2 * lambda` steps remain (Algorithm 1), and, for an unrecorded
//! walk of at least `2 * lambda` steps, on while `lambda` or more do.
//! Such a *fitted* stitch draws only among the connector's walks no
//! longer than the steps left, and if none fits the walk goes down its
//! naive tail rather than replenishing. The cap is a pure function of
//! where the walk stands, so the connector reads it off the walk.
//!
//! A claim needs no epoch counter: a walk's claims leave its successive
//! connectors at strictly growing positions, so the position it carries
//! orders them. Each node keeps, per lane, the newest position it
//! forwarded, and drops a claim that is not newer — the copies of its
//! own flood and the stragglers of an older one.

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
    /// what is left ([`StitchSpec::cap_at`]). If none fits, the
    /// connector sends the walk down its naive tail, as below `lambda`.
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

    /// The steps left to a recorded walk in its last stitch zone
    /// (`2 * lambda` to `4 * lambda` left), where its stitch takes a
    /// stored walk of a length `s` that minimises `max(s, left - s)`:
    /// the segment's replay walks back one hop a round while the rest of
    /// the walk goes on, and the wave waits for the later of the two.
    /// The choice reads lengths, never trajectories: exact.
    pub(crate) fn replay_zone(&self, completed: u64, lambda: u32) -> Option<u64> {
        let left = self.len - completed;
        (self.record && left < 4 * u64::from(lambda)).then_some(left)
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

/// The cap of a stitch that may take a stored walk of any length.
pub(crate) const NO_CAP: u32 = u32::MAX;

/// One walk's message within the multiplexed Phase-2 run. The walk id
/// travels as the [`Mux2`] lane (one extra word); every variant fits the
/// default 4-word CONGEST budget with it. A short walk's id is one
/// packed word ([`pack_walk`]). Each variant has one handler, in the
/// module of its role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StitchMsg {
    /// The connector's claim on its stored walk `walk`, flooding out:
    /// the walk's owner takes it and moves the walk on, which stands at
    /// `completed` steps; every other node forwards the first copy of a
    /// newer claim to everyone but its sender.
    Claim { walk: u64, completed: u64 },
    /// One stored `GET-MORE-WALKS` walk in flight; the receiver is its
    /// `step`-th node.
    Gmw { walk: u64, step: u32, total: u32 },
    /// The `GET-MORE-WALKS` walk the token rides, which started where
    /// the walk stood at `completed` steps; the receiver is its
    /// `step`-th node.
    Ride {
        walk: u64,
        completed: u64,
        step: u32,
    },
    /// `count` stored `GET-MORE-WALKS` walks' acknowledgements, going
    /// home to their source backwards along the arrival log of one of
    /// them, `walk`; the receiver is that walk's `step`-th node.
    Stored { walk: u64, step: u32, count: u32 },
    /// The naive tail token: `left` steps remain after this hop.
    Tail { left: u64 },
    /// A replay token regenerating the short walk `walk` backwards from
    /// the node that took it: the receiver is the walk's `step`-th node
    /// and sits at global position `pos` of the recorded walk.
    Replay { walk: u64, step: u32, pos: u64 },
}

/// Writes a short walk's id as one packed word, `source:32 | seq:32`,
/// under the field names `names`.
fn walk_word(w: &mut impl WireSink, names: (&'static str, &'static str), walk: u64) {
    let id = unpack_walk(walk);
    w.packed(&[(names.0, id.source.into()), (names.1, id.seq.into())]);
}

/// Reads a short walk's id written by [`walk_word`].
fn read_walk(r: &mut WireReader<'_>) -> Option<u64> {
    Some(pack_walk(WalkId {
        source: r.read()?,
        seq: r.read()?,
    }))
}

impl Message for StitchMsg {
    /// Every variant leads with its tag.
    fn encode(&self, w: &mut impl WireSink) {
        match *self {
            StitchMsg::Claim { walk, completed } => {
                w.tag(0);
                walk_word(w, ("Claim.source", "Claim.seq"), walk);
                w.word("Claim.completed", completed);
            }
            StitchMsg::Gmw { walk, step, total } => {
                w.tag(1);
                walk_word(w, ("Gmw.source", "Gmw.seq"), walk);
                w.word("Gmw.step", step.into());
                w.word("Gmw.total", total.into());
            }
            StitchMsg::Ride {
                walk,
                completed,
                step,
            } => {
                w.tag(2);
                walk_word(w, ("Ride.source", "Ride.seq"), walk);
                w.word("Ride.completed", completed);
                w.word("Ride.step", step.into());
            }
            StitchMsg::Stored { walk, step, count } => {
                w.tag(3);
                walk_word(w, ("Stored.source", "Stored.seq"), walk);
                w.word("Stored.step", step.into());
                w.word("Stored.count", count.into());
            }
            StitchMsg::Tail { left } => {
                w.tag(4);
                w.word("Tail.left", left);
            }
            StitchMsg::Replay { walk, step, pos } => {
                w.tag(5);
                walk_word(w, ("Replay.source", "Replay.seq"), walk);
                w.word("Replay.step", step.into());
                w.word("Replay.pos", pos);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(match r.read::<u8>()? {
            0 => StitchMsg::Claim {
                walk: read_walk(r)?,
                completed: r.read()?,
            },
            1 => StitchMsg::Gmw {
                walk: read_walk(r)?,
                step: r.read()?,
                total: r.read()?,
            },
            2 => StitchMsg::Ride {
                walk: read_walk(r)?,
                completed: r.read()?,
                step: r.read()?,
            },
            3 => StitchMsg::Stored {
                walk: read_walk(r)?,
                step: r.read()?,
                count: r.read()?,
            },
            4 => StitchMsg::Tail { left: r.read()? },
            5 => StitchMsg::Replay {
                walk: read_walk(r)?,
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

/// What a node accumulates for the post-run result assembly.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    /// Walks whose final step landed here (destination = this node).
    pub(crate) finished: Vec<u32>,
    /// Segments resolved here (this node was the segment's endpoint).
    pub(crate) segments: Vec<(u32, Segment)>,
    /// Times this node served as a connector (Lemma 2.7's quantity).
    pub(crate) connector_visits: u32,
    /// The lane of each `GET-MORE-WALKS` invocation launched here.
    pub(crate) launches: Vec<u32>,
    /// The last round in which a segment resolved here (0 = none did).
    pub(crate) last_stitch_round: u64,
    /// Replay tokens owed here: `+1` per recorded segment this node took,
    /// `-1` per replay token that stopped here; drained into the run's
    /// count by [`BatchedStitchProtocol::note`].
    pub(crate) replays_open: i32,
    /// `GET-MORE-WALKS` launches awaiting acknowledgements: `+1` when an
    /// invocation with walks to store finds none of this node's in
    /// flight, `-1` when the last acknowledgement of those in flight
    /// came home; drained like `replays_open`.
    pub(crate) launches_open: i32,
}

/// One node's scratch for the wave in flight, in [`NodeWalkState::wave`]:
/// boxed by the node's first handler call, dropped by
/// [`StitchScheduler::run`]. A wave costs the nodes it touches.
#[derive(Debug, Clone, Default)]
pub(crate) struct WaveScratch {
    /// Per lane, one past the position of the newest claim this node
    /// forwarded (0: none), sized by the first claim (a tail hop needs
    /// no lane).
    pub(crate) claimed: Vec<u64>,
    /// This node's `GET-MORE-WALKS` invocations in flight, if any (boxed:
    /// a tail hop's scratch stays small).
    pub(crate) launch: Option<Box<crate::get_more_walks::Launch>>,
    pub(crate) tally: Tally,
    /// `tally.finished` entries already in the run's completion count.
    counted: usize,
    /// Whether the run's touched list names this node.
    listed: bool,
}

/// One node's handler call, the receiver of every role's handlers: the
/// node's store, its wave scratch, the run's setup, the run's merge
/// buffer and the node-scoped context (`ctx.node()` is the node).
pub(crate) struct NodeCall<'a> {
    pub(crate) shared: &'a SharedCfg,
    pub(crate) ws: &'a mut NodeWalkState,
    pub(crate) wave: &'a mut WaveScratch,
    /// The call's acknowledgements to pass on, merged per source
    /// ([`crate::get_more_walks::Acks`]): cleared first, flushed last.
    pub(crate) acks: &'a mut crate::get_more_walks::Acks,
    pub(crate) ctx: NodeCtx<'a, BatchMsg>,
}

impl NodeCall<'_> {
    /// Sends lane `w`'s `msg` to the neighbour `to`.
    #[inline]
    pub(crate) fn send(&mut self, to: NodeId, w: u32, msg: StitchMsg) {
        let msg = self.shared.mux(w, msg);
        self.ctx.send(to, msg);
    }

    /// Moves walk `w`, standing here at `completed` steps, on: a stitch
    /// from here, the tail, or completion.
    pub(crate) fn proceed(&mut self, w: u32, completed: u64) {
        match self.shared.walks[w as usize].action_at(completed, self.shared.setup.lambda) {
            WalkAction::Stitch => self.stitch(w, completed),
            WalkAction::Tail(steps) => tail::hop(self.shared, &mut self.ctx, w, steps),
            WalkAction::Done => self.wave.tally.finished.push(w),
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
    /// `GET-MORE-WALKS` invocations not yet fully acknowledged.
    launching: usize,
    /// The last round that began with a walk still under way: the round
    /// the last walk landed in, or the run's last if one never did.
    walking_until: u64,
    /// The handlers' acknowledgement merge buffer, one per run rather
    /// than per call or per node: a call allocates nothing.
    acks: crate::get_more_walks::Acks,
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
        let tally = &mut w.tally;
        if (tally.replays_open, tally.launches_open) == (0, 0) {
            return;
        }
        for (open, run) in [
            (&mut tally.replays_open, &mut self.replaying),
            (&mut tally.launches_open, &mut self.launching),
        ] {
            let delta = std::mem::take(open) as isize;
            *run = run
                .checked_add_signed(delta)
                .expect("a token came home that nothing owed");
        }
    }

    /// Runs `f` as `node`'s handler call. The node's scratch leaves the
    /// state for the call, so the roles can hold the store and the
    /// scratch side by side; the run's facts catch up afterwards.
    fn call_at(
        &mut self,
        node: NodeId,
        ctx: &mut Ctx<'_, BatchMsg>,
        f: impl FnOnce(&mut NodeCall<'_>),
    ) {
        let ws = &mut self.nodes[node];
        let mut wave = ws.wave.take().unwrap_or_default();
        self.acks.clear();
        f(&mut NodeCall {
            shared: &self.shared,
            ws: &mut *ws,
            wave: &mut wave,
            acks: &mut self.acks,
            ctx: ctx.at(node),
        });
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
                _ => self.call_at(spec.source, ctx, |call| call.proceed(w, 0)),
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done == self.shared.walks.len() && self.replaying == 0 && self.launching == 0
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, BatchMsg>) {
        if self.done < self.shared.walks.len() {
            self.walking_until = ctx.round();
        }
    }

    /// Routes every envelope, in inbox order, to its role's handler,
    /// then sends the round's merged acknowledgements on.
    fn on_receive(&mut self, v: NodeId, inbox: &[Envelope<BatchMsg>], ctx: &mut Ctx<'_, BatchMsg>) {
        self.call_at(v, ctx, |call| {
            for env in inbox {
                let (w, from) = (u32::from(env.msg.lane), env.from);
                let req = call.shared.walks[w as usize].req;
                debug_assert_eq!(env.msg.req, req, "request tag must match the lane's owner");
                match env.msg.msg {
                    StitchMsg::Claim { walk, completed } => call.on_claim(w, walk, completed, from),
                    StitchMsg::Gmw { walk, step, total } => {
                        call.on_gmw(w, (walk, step, total), from)
                    }
                    StitchMsg::Ride {
                        walk,
                        completed,
                        step,
                    } => call.on_ride(w, (walk, completed, step), from),
                    StitchMsg::Stored { walk, step, count } => {
                        call.on_stored(w, (walk, step, count))
                    }
                    StitchMsg::Tail { left } => call.on_tail(w, left, from),
                    StitchMsg::Replay { walk, step, pos } => call.on_replay(w, (walk, step, pos)),
                }
            }
            call.flush_acks();
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
    /// last recorded segment's replay token and the last
    /// `GET-MORE-WALKS` acknowledgement were home: what regeneration and
    /// the ledger add to the walks' own critical path. 0 on every run
    /// without a recorded spec whose acknowledgements beat its last
    /// walk home.
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
    /// or claim leaves the run quiescent with the walk unfinished.
    /// Quiescence *is* the timeout, and the scheduler then re-issues
    /// every unfinished walk from its last stitched checkpoint in a
    /// follow-up pass (walks are memoryless, so re-drawing the lost
    /// suffix with fresh randomness leaves the law exact), counted in
    /// [`BatchedStitchOutcome::reissues`]. A claim is lost only when no
    /// copy reaches the owner, which its flood's redundant paths make
    /// rare; the tokens that walk (tail, ride, `GET-MORE-WALKS`) have
    /// one path each, so a walk survives a drop rate `p` about as a
    /// token of its tail and ride steps does. The walk a lost claim
    /// drew stays stored outside its connector's ledger until a reclaim
    /// drops it, as do the walks of an invocation that lost an
    /// acknowledgement.
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
                launching: 0,
                walking_until: 0,
                acks: Vec::new(),
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
                for &j in &wave.tally.launches {
                    gmw_by_walk[pending[j as usize].0] += 1;
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
            // A lost acknowledgement strands its invocation's walks
            // outside the ledger, where the next reclaim drops them.
            assert!(
                can_reissue || protocol.launching == 0,
                "acknowledgements never came home"
            );
            // A run outlives its last landing only to wait for replay
            // tokens and acknowledgements (a pass that stalls unfinished
            // never outlives it).
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
            // First the ledgers forget walks lost before they were
            // stored, so no claim floods for them again.
            state.drop_unstored_ledger_entries();
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
    //! The dispatcher's tests, and the fixtures the role modules' tests
    //! share.
    use super::*;
    use crate::short_walks::ShortWalksProtocol;
    use crate::state::{StoredWalk, Visit};

    use drw_congest::{EngineConfig, Runner};
    use drw_graph::generators;

    pub(crate) fn phase1(runner: &mut Runner, state: &mut WalkState, per_node: usize, lambda: u32) {
        let counts = vec![per_node; runner.graph().n()];
        let mut p1 = ShortWalksProtocol::new(state, counts, lambda, true);
        runner.run(&mut p1).expect("phase 1");
    }

    pub(crate) fn setup(lambda: u32) -> StitchSetup {
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
    /// them a fitted attempt at its endpoint; fixtures that count
    /// messages or rounds store longer walks.
    pub(crate) fn one_stitch(
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
    pub(crate) fn starved_stitch(
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

    pub(crate) fn stored(state: &WalkState) -> impl Iterator<Item = &StoredWalk> {
        state.nodes.iter().flat_map(|ns| &ns.store)
    }

    /// `tokens` stored walks of `root`, `len` steps each, spread over
    /// the graph (one of them at `root` itself).
    pub(crate) fn spread_tokens(n: usize, root: NodeId, tokens: u32, len: u32) -> WalkState {
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

    /// One recorded `len`-step walk from node 0 of the 6x6 torus over a
    /// Phase-1 store at `lambda = 6`; returns the outcome and the
    /// visits it left.
    pub(crate) fn recorded_walk(
        len: u64,
        seed: u64,
    ) -> (BatchedStitchOutcome, Vec<(NodeId, Visit)>) {
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
    fn the_widest_message_did_not_grow() {
        // `Ride` and `Replay` set the size; queue entries copy this many
        // bytes per message.
        assert_eq!(std::mem::size_of::<StitchMsg>(), 24);
        assert_eq!(std::mem::size_of::<BatchMsg>(), 32);
        let walk = pack_walk(WalkId { source: 3, seq: 1 });
        let words = |msg| Mux2::new(0, 0, msg).size_words();
        assert_eq!(words(StitchMsg::Claim { walk, completed: 9 }), 3);
        let acks = StitchMsg::Stored {
            walk,
            step: 2,
            count: 5,
        };
        assert_eq!(words(acks), 4, "at the budget");
        let ride = StitchMsg::Ride {
            walk,
            completed: 9,
            step: 2,
        };
        assert_eq!(words(ride), 4, "at the budget");
        let replay = StitchMsg::Replay {
            walk,
            step: 2,
            pos: 9,
        };
        assert_eq!(words(replay), 4, "at the budget");
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
            StitchMsg::Claim {
                walk: c,
                completed: c,
            },
            StitchMsg::Gmw {
                walk: c,
                step: i,
                total: i,
            },
            StitchMsg::Ride {
                walk: c,
                completed: c,
                step: i,
            },
            StitchMsg::Stored {
                walk: c,
                step: i,
                count: i,
            },
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
