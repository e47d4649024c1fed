//! The node-local receive phase and its sharded backend.
//!
//! A [`NodeLocalProtocol`]'s handlers can reach only their own node's
//! state, RNG stream and inbox, so a round's receive phase may be cut
//! into *load-balanced shards* — contiguous runs of receiving nodes
//! sized by their actual inbox message counts — each staging its sends
//! into a private buffer. Under [`crate::ExecutorKind::Sharded`] a round
//! heavy enough to yield two shards runs them one after another on the
//! calling thread, in shard order; lighter rounds, and every round under
//! [`crate::ExecutorKind::Sequential`], run inline. The interleaving
//! checker ([`run_node_local_scripted`]) runs the same partition and
//! merge with the shards in a scripted order.
//!
//! Two properties make every shard order give the same result:
//!
//! 1. The shard *partition* depends only on the round's deliveries
//!    (which are deterministic).
//! 2. The staging buffers are concatenated in shard order — ascending
//!    node order, exactly the order the inline path stages in — whatever
//!    order the shards ran in.
//!
//! The per-shard message loads are recorded in
//! [`crate::RunReport`]'s [`crate::WorkBalance`] telemetry.
//!
//! Everything a sharded round needs beyond the round loop's own buffers
//! — the partition and one staging buffer per shard — is scratch owned
//! by the run and recycled, so a steady-state round allocates nothing on
//! either backend (`tests/alloc_steady_state.rs`).

use super::round::{run_rounds, ReceivePhase, Scratch};
use super::ExecutorKind;
use crate::engine::{EngineConfig, RunError, RunReport, WorkBalance};
use crate::message::Envelope;
use crate::node_local::{NodeCtx, NodeLocalProtocol};
use crate::protocol::Ctx;
use crate::rng::{RunKey, Slot};
use drw_graph::Graph;

/// Target messages of receive work per shard under
/// [`crate::ExecutorKind::Sharded`]; a round shards when it delivered at
/// least two shards' worth (512 messages). It sets only the shard
/// granularity: what the balance telemetry measures, and the production
/// sizing the interleaving checker scales down from.
const MSGS_PER_SHARD: u64 = 256;

/// Upper bound on shards per round; beyond this the per-shard bookkeeping
/// would outweigh the balance gain.
const MAX_SHARDS: usize = 64;

/// Scripted-mode parameters for the interleaving checker (the
/// [`run_node_local_scripted`] entry point).
///
/// A schedule has two nested degrees of freedom, the two orders the
/// merge contract must make unobservable: the order in which shards run
/// (`order`) and the order in which a shard's work items run
/// (`item_order`). Production runs both in node order; the contract says
/// neither may affect results. The two bug knobs re-introduce exactly
/// the race class each rule exists to prevent, so the checker can prove
/// it would detect them.
pub struct ScriptedSchedule<'a> {
    /// Overrides the production shard sizing (`MSGS_PER_SHARD`) so
    /// small checker graphs still fan out into several shards per
    /// round.
    pub msgs_per_shard: u64,
    /// Bug injection for harness self-validation: concatenate the
    /// staging buffers in *claim* order instead of shard order — the
    /// classic merge race a correct executor must not have.
    pub merge_in_claim_order: bool,
    /// Bug injection at item granularity: any work item processed out
    /// of its node-order position lands with its staged batch reversed
    /// in the shard's out buffer — an *arrival-order* item merge, as if
    /// per-item sends were drained off an unordered channel. Only
    /// schedules whose `item_order` departs from the identity can
    /// trigger it.
    pub scramble_item_order: bool,
    /// Yields the claim order for `(round, shard_count)`; must return a
    /// permutation of `0..shard_count`.
    pub order: &'a mut dyn FnMut(u64, usize) -> Vec<usize>,
    /// Optional within-shard processing order for `(round, shard_index,
    /// item_count)`; must return a permutation of `0..item_count`.
    /// `None` processes items in node order, exactly like production.
    pub item_order: Option<&'a mut dyn FnMut(u64, usize, usize) -> Vec<usize>>,
}

impl<'a> ScriptedSchedule<'a> {
    /// A scripted schedule with the given shard sizing and claim order,
    /// production-faithful otherwise (node-order items, no bug knobs).
    pub fn new(msgs_per_shard: u64, order: &'a mut dyn FnMut(u64, usize) -> Vec<usize>) -> Self {
        ScriptedSchedule {
            msgs_per_shard,
            merge_in_claim_order: false,
            scramble_item_order: false,
            order,
            item_order: None,
        }
    }
}

/// How a round's receive work is cut into shards and ordered.
enum ClaimMode<'s> {
    /// [`crate::ExecutorKind::Sequential`]: never shard — every round
    /// runs inline, and no balance telemetry is reported.
    Inline,
    /// [`crate::ExecutorKind::Sharded`]: production shard sizing, each
    /// shard run as the carver yields it.
    InOrder,
    /// Interleaving-checker mode: shards run in a scripted order (see
    /// [`run_node_local_scripted`]).
    Scripted(ScriptedSchedule<'s>),
}

impl ClaimMode<'_> {
    fn msgs_per_shard(&self) -> u64 {
        match self {
            ClaimMode::Inline => u64::MAX,
            ClaimMode::InOrder => MSGS_PER_SHARD,
            ClaimMode::Scripted(s) => s.msgs_per_shard.max(1),
        }
    }
}

/// One unit of receive work: a contiguous run of receiving nodes,
/// exclusive access to that node range's states, RNG streams and
/// inboxes, and a private staging buffer.
struct ShardTask<'r, P: NodeLocalProtocol> {
    /// The shard's receiving nodes, ascending.
    nodes: &'r [usize],
    /// Node id of slot 0 of the three slices below.
    first: usize,
    states: &'r mut [P::NodeState],
    rng_key: RunKey,
    rngs: &'r mut [Slot],
    inbox: &'r mut [Vec<Envelope<P::Msg>>],
    out: &'r mut Vec<(usize, P::Msg)>,
}

/// Splits `rest[skip..skip + len]` off as an exclusive borrow and
/// advances `rest` past it.
fn split_off<'a, T>(rest: &mut &'a mut [T], skip: usize, len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(skip + len);
    *rest = tail;
    &mut head[skip..]
}

/// Yields a round's shards in shard order, carving each one's node
/// range off the front of the state, RNG and inbox slices. Shards are
/// contiguous runs of the sorted, deduplicated `active` list, so their
/// node ranges are disjoint and ascending — which `split_at_mut` checks
/// rather than assumes.
struct Carver<'r, P: NodeLocalProtocol> {
    /// Remaining shard sizes, in nodes.
    sizes: std::slice::Iter<'r, usize>,
    /// Remaining receiving nodes.
    nodes: &'r [usize],
    /// Node id of slot 0 of the three slices below.
    next_node: usize,
    states: &'r mut [P::NodeState],
    rng_key: RunKey,
    rngs: &'r mut [Slot],
    inbox: &'r mut [Vec<Envelope<P::Msg>>],
    /// One (empty) staging buffer per remaining shard.
    outs: &'r mut [Vec<(usize, P::Msg)>],
}

impl<'r, P: NodeLocalProtocol> Iterator for Carver<'r, P> {
    type Item = ShardTask<'r, P>;

    fn next(&mut self) -> Option<ShardTask<'r, P>> {
        let &size = self.sizes.next()?;
        let (nodes, rest) = self.nodes.split_at(size);
        self.nodes = rest;
        let (first, last) = (nodes[0], nodes[size - 1]);
        let (skip, len) = (first - self.next_node, last - first + 1);
        self.next_node = last + 1;
        let (out, outs) = std::mem::take(&mut self.outs)
            .split_first_mut()
            .expect("one staging buffer per shard");
        self.outs = outs;
        Some(ShardTask {
            nodes,
            first,
            states: split_off(&mut self.states, skip, len),
            rng_key: self.rng_key,
            rngs: split_off(&mut self.rngs, skip, len),
            inbox: split_off(&mut self.inbox, skip, len),
            out,
        })
    }
}

/// Runs the receive handlers of one shard. `item_perm` and `scramble`
/// are the checker's within-shard knobs; production passes `None` and
/// `false` (node order, no injected race).
fn run_shard<P: NodeLocalProtocol>(
    graph: &Graph,
    round: u64,
    shared: &P::Shared,
    task: &mut ShardTask<'_, P>,
    item_perm: Option<&[usize]>,
    scramble: bool,
) {
    let len = task.nodes.len();
    let out = &mut *task.out;
    let mut run_item = |j: usize, reversed: bool| {
        let node = task.nodes[j];
        let slot = node - task.first;
        let start = out.len();
        let rng = task.rngs[slot].stream(task.rng_key, node);
        let mut nctx = NodeCtx::new(graph, round, node, rng, out);
        P::on_receive_local(
            shared,
            &mut task.states[slot],
            node,
            &task.inbox[slot],
            &mut nctx,
        );
        task.inbox[slot].clear(); // keep the allocation
        if reversed {
            // Injected race (`scramble_item_order`): an out-of-position
            // item's batch lands reversed, losing per-edge FIFO the way
            // an unordered per-item result channel would.
            out[start..].reverse();
        }
    };
    match item_perm {
        None => {
            for j in 0..len {
                run_item(j, false);
            }
        }
        Some(perm) => {
            assert_eq!(perm.len(), len, "item order must cover every item");
            let mut seen = vec![false; len];
            for (pos, &j) in perm.iter().enumerate() {
                assert!(
                    j < len && !std::mem::replace(&mut seen[j], true),
                    "item order must be a permutation of 0..{len}",
                );
                run_item(j, scramble && j != pos);
            }
        }
    }
}

/// Greedy contiguous partition of per-node loads (`counts`, summing to
/// `total`) into at most `max_shards` shards of roughly `ceil(total /
/// max_shards)` messages each. Overwrites `sizes` (shard sizes in
/// nodes) and `loads` (shard loads in messages) and returns the shard
/// count.
fn partition_by_load(
    counts: impl Iterator<Item = usize>,
    total: usize,
    max_shards: usize,
    sizes: &mut Vec<usize>,
    loads: &mut Vec<u64>,
) -> usize {
    sizes.clear();
    loads.clear();
    sizes.reserve(max_shards);
    loads.reserve(max_shards);
    let target = total.div_ceil(max_shards);
    let (mut load, mut size) = (0usize, 0usize);
    for c in counts {
        load += c;
        size += 1;
        if load >= target && sizes.len() + 1 < max_shards {
            sizes.push(size);
            loads.push(load as u64);
            load = 0;
            size = 0;
        }
    }
    if size > 0 {
        sizes.push(size);
        loads.push(load as u64);
    }
    sizes.len()
}

/// Runs a node-local protocol through the sharded receive path with a
/// **scripted** shard order — the hook behind `drw-analyze`'s exhaustive
/// interleaving checker.
///
/// [`crate::ExecutorKind::Sharded`] runs each round's shards in shard
/// order. This entry point runs the *same* shard construction and merge
/// code, but executes the shards of every round in the order
/// `order(round, shard_count)` dictates (any permutation of
/// `0..shard_count`). Enumerating those permutations and asserting
/// bit-identical results against the [`crate::ExecutorKind::Sequential`]
/// reference turns the merge contract into a bounded check at shard
/// granularity.
///
/// The schedule's `item_order` extends the scripting *inside* each
/// shard: items (receiving nodes) execute in the scripted within-shard
/// order. Per-edge FIFO order cannot depend on it — each item sends only
/// from its own node, so no two items share a directed edge, and the
/// staging sort is stable per edge — but that is exactly the kind of
/// argument the checker exists to turn into a measurement.
///
/// `merge_in_claim_order` injects the classic staging-merge race — an
/// *arrival-order* merge, as if shard outputs were drained off an
/// unordered channel: outputs are concatenated in run order, and any
/// shard run out of its staging position lands with its FIFO batch
/// scrambled. `scramble_item_order` is the same race one level down, for
/// items within a shard. The identity schedule is unaffected by either,
/// so the bugs manifest only under specific orders — exactly the race
/// classes the merge contracts exist to prevent. The knobs let the
/// checker prove it detects those classes; both must be `false` for any
/// conformance run.
///
/// # Panics
///
/// Panics if `order` (or `item_order`) returns anything other than a
/// permutation of `0..shard_count` (resp. `0..item_count`).
///
/// # Errors
///
/// Same as [`crate::run_node_local`].
pub fn run_node_local_scripted<P: NodeLocalProtocol>(
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    protocol: &mut P,
    schedule: ScriptedSchedule<'_>,
) -> Result<RunReport, RunError> {
    let scratch = &mut Scratch::default();
    let mode = ClaimMode::Scripted(schedule);
    run(scratch, graph, cfg, seed, protocol, mode)
}

/// Runs a node-local protocol over a caller-kept scratch, under the
/// backend `cfg.executor` names.
pub(crate) fn run_node_local_in<P: NodeLocalProtocol>(
    scratch: &mut Scratch,
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    protocol: &mut P,
) -> Result<RunReport, RunError> {
    let mode = match cfg.executor {
        ExecutorKind::Sequential => ClaimMode::Inline,
        ExecutorKind::Sharded => ClaimMode::InOrder,
    };
    run(scratch, graph, cfg, seed, protocol, mode)
}

fn run<P: NodeLocalProtocol>(
    scratch: &mut Scratch,
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    protocol: &mut P,
    mode: ClaimMode<'_>,
) -> Result<RunReport, RunError> {
    let mut phase = NodeLocalReceive {
        protocol,
        mode,
        balance: WorkBalance::default(),
        sizes: Vec::new(),
        loads: Vec::new(),
        outs: Vec::new(),
    };
    let mut report = run_rounds(graph, cfg, seed, scratch, &mut phase)?;
    report.memory.staging_bytes += phase.scratch_bytes();
    if !matches!(phase.mode, ClaimMode::Inline) {
        report.balance = Some(phase.balance);
    }
    Ok(report)
}

/// The receive phase of a [`NodeLocalProtocol`] under one [`ClaimMode`].
struct NodeLocalReceive<'p, 's, P: NodeLocalProtocol> {
    protocol: &'p mut P,
    mode: ClaimMode<'s>,
    balance: WorkBalance,
    // Shard scratch, recycled by every sharded round: the current
    // partition (sizes in nodes, loads in messages) and one staging
    // buffer per shard slot, drained by the merge with capacity kept.
    sizes: Vec<usize>,
    loads: Vec<u64>,
    outs: Vec<Vec<(usize, P::Msg)>>,
}

impl<P: NodeLocalProtocol> NodeLocalReceive<'_, '_, P> {
    /// Backing bytes of the shard scratch. Capacities never shrink, so
    /// the end-of-run value is the run's high-water mark.
    fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sizes.capacity() * size_of::<usize>()
            + self.loads.capacity() * size_of::<u64>()
            + self.outs.capacity() * size_of::<Vec<(usize, P::Msg)>>()
            + self
                .outs
                .iter()
                .map(|out| out.capacity() * size_of::<(usize, P::Msg)>())
                .sum::<usize>()
    }
}

impl<P: NodeLocalProtocol> ReceivePhase for NodeLocalReceive<'_, '_, P> {
    type Msg = P::Msg;

    fn start(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        self.protocol.start(ctx);
    }

    fn is_done(&self) -> bool {
        self.protocol.is_done()
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        self.protocol.on_round(ctx);
    }

    fn receive(
        &mut self,
        ctx: &mut Ctx<'_, P::Msg>,
        active: &[usize],
        inbox: &mut [Vec<Envelope<P::Msg>>],
        delivered: u64,
    ) {
        let (graph, round) = (ctx.graph, ctx.round);
        let staged = &mut *ctx.staged;
        let (shared, states) = self.protocol.parts();
        debug_assert_eq!(states.len(), graph.n(), "one NodeState per node required");

        // The shard count is a deterministic function of the round's
        // deliveries. A skewed round (one node holding most of the mail)
        // can want two shards and still partition into one; it is as
        // inline as a light one.
        let want_shards = ((delivered / self.mode.msgs_per_shard()) as usize)
            .clamp(1, MAX_SHARDS)
            .min(active.len().max(1));
        let shards = if want_shards < 2 {
            1
        } else {
            partition_by_load(
                active.iter().map(|&v| inbox[v].len()),
                delivered as usize,
                want_shards,
                &mut self.sizes,
                &mut self.loads,
            )
        };
        if shards < 2 {
            self.balance.rounds_inline += u64::from(delivered > 0);
            for &node in active {
                let mut nctx = NodeCtx::new(graph, round, node, ctx.rngs.node(node), staged);
                P::on_receive_local(shared, &mut states[node], node, &inbox[node], &mut nctx);
                inbox[node].clear(); // keep the allocation for next round
            }
            return self.protocol.after_receive(active);
        }

        self.balance.rounds_measured += 1;
        let max = *self.loads.iter().max().expect("at least two shards") as f64;
        let mean = delivered as f64 / shards as f64;
        self.balance.worst_max_over_mean = self.balance.worst_max_over_mean.max(max / mean);
        if self.balance.shard_messages.len() < shards {
            self.balance.shard_messages.resize(shards, 0);
        }
        for (slot, &l) in self.balance.shard_messages.iter_mut().zip(&self.loads) {
            *slot += l;
        }

        if self.outs.len() < shards {
            self.outs.resize_with(shards, Vec::new);
        }
        let (rng_key, rngs) = ctx.rngs.parts();
        let carver: Carver<'_, P> = Carver {
            sizes: self.sizes.iter(),
            nodes: active,
            next_node: 0,
            states,
            rng_key,
            rngs,
            inbox,
            outs: &mut self.outs[..shards],
        };

        // Shard order is the one degree of freedom the merge must hide:
        // production runs shards in shard order, the checker in any.
        let mut claim_order: Option<Vec<usize>> = None;
        match &mut self.mode {
            ClaimMode::Inline => unreachable!("inline mode never yields two shards"),
            ClaimMode::InOrder => {
                for mut task in carver {
                    run_shard::<P>(graph, round, shared, &mut task, None, false);
                }
            }
            ClaimMode::Scripted(sched) => {
                let mut tasks: Vec<ShardTask<'_, P>> = carver.collect();
                let perm = (sched.order)(round, shards);
                let mut seen = vec![false; shards];
                assert_eq!(perm.len(), shards, "claim order must cover every shard");
                for &i in &perm {
                    assert!(
                        i < shards && !std::mem::replace(&mut seen[i], true),
                        "claim order must be a permutation of 0..{shards}",
                    );
                    let task = &mut tasks[i];
                    let item_perm = sched
                        .item_order
                        .as_mut()
                        .map(|f| f(round, i, task.nodes.len()));
                    run_shard::<P>(
                        graph,
                        round,
                        shared,
                        task,
                        item_perm.as_deref(),
                        sched.scramble_item_order,
                    );
                }
                claim_order = Some(perm);
            }
        }
        // Concatenate in shard order — the inline staging order,
        // whatever order the shards ran in. (The checker's
        // bug-injection knob merges in run order instead,
        // reintroducing the race this merge rule exists to prevent.)
        let outs = &mut self.outs[..shards];
        let buggy_merge = matches!(&self.mode, ClaimMode::Scripted(s) if s.merge_in_claim_order);
        if let (true, Some(perm)) = (buggy_merge, &claim_order) {
            // Injected race: arrival-order merge. A shard claimed
            // at its own staging position appends intact; one
            // claimed out of position lands with its batch
            // reversed, losing per-edge FIFO order the way an
            // unordered result channel would. Schedule-dependent
            // by construction: the identity schedule is benign.
            for (pos, &i) in perm.iter().enumerate() {
                if i == pos {
                    staged.append(&mut outs[i]);
                } else {
                    staged.extend(outs[i].drain(..).rev());
                }
            }
        } else {
            for out in outs {
                staged.append(out);
            }
        }
        self.protocol.after_receive(active);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::ExecutorKind;
    use drw_graph::generators;
    use rand::Rng;
    use std::thread::{self, ThreadId};

    /// A message-dense node-local gossip: for `ttl` rounds every node
    /// draws from its private RNG and sends the draw to every neighbor;
    /// nodes fold received values into a running digest. On
    /// `complete(48)` every round delivers 2256 messages — enough for
    /// several shards per round. With `beacon` set, the global hook also
    /// has node 0 send the round number to node 1: same edge, one stage
    /// ahead of node 0's own send, so node 1's (order-sensitive) fold
    /// sees the hook-before-node staging order.
    #[derive(Clone, Debug)]
    struct Gossip(u64);
    impl Message for Gossip {}

    #[derive(Default, Clone, PartialEq, Eq, Debug)]
    struct Digest {
        folded: u64,
        received: u64,
        /// Rounds in which this node got mail.
        rounds: Vec<u64>,
        /// The thread each of those rounds' handler ran on.
        threads: Vec<ThreadId>,
    }

    struct DenseGossip {
        ttl: u64,
        beacon: bool,
        nodes: Vec<Digest>,
    }

    impl NodeLocalProtocol for DenseGossip {
        type Msg = Gossip;
        type Shared = u64;
        type NodeState = Digest;

        fn start(&mut self, ctx: &mut Ctx<'_, Gossip>) {
            let n = ctx.graph().n();
            for v in 0..n {
                let x: u64 = ctx.rng(v).random();
                for u in ctx.graph().neighbors(v).collect::<Vec<_>>() {
                    ctx.send(v, u, Gossip(x));
                }
            }
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, Gossip>) {
            if self.beacon && ctx.round() <= self.ttl {
                ctx.send(0, 1, Gossip(ctx.round()));
            }
        }

        fn parts(&mut self) -> (&u64, &mut [Digest]) {
            (&self.ttl, &mut self.nodes)
        }

        fn on_receive_local(
            ttl: &u64,
            state: &mut Digest,
            _node: usize,
            inbox: &[Envelope<Gossip>],
            ctx: &mut NodeCtx<'_, Gossip>,
        ) {
            state.rounds.push(ctx.round());
            state.threads.push(thread::current().id());
            for env in inbox {
                state.received += 1;
                state.folded = state.folded.rotate_left(7) ^ env.msg.0;
            }
            if ctx.round() < *ttl {
                let x: u64 = ctx.rng().random();
                let neighbors: Vec<usize> = ctx.graph().neighbors(ctx.node()).collect();
                for u in neighbors {
                    ctx.send(u, Gossip(x));
                }
            }
        }
    }

    /// The same gossip through the plain-protocol receive phase.
    impl crate::Protocol for DenseGossip {
        type Msg = Gossip;

        fn start(&mut self, ctx: &mut Ctx<'_, Gossip>) {
            NodeLocalProtocol::start(self, ctx);
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, Gossip>) {
            NodeLocalProtocol::on_round(self, ctx);
        }

        fn on_receive(&mut self, v: usize, inbox: &[Envelope<Gossip>], ctx: &mut Ctx<'_, Gossip>) {
            let mut nctx = NodeCtx::new(ctx.graph, ctx.round, v, ctx.rngs.node(v), ctx.staged);
            Self::on_receive_local(&self.ttl, &mut self.nodes[v], v, inbox, &mut nctx);
        }
    }

    fn mk(n: usize) -> DenseGossip {
        DenseGossip {
            ttl: 6,
            beacon: false,
            nodes: vec![Digest::default(); n],
        }
    }

    fn sharded() -> EngineConfig {
        EngineConfig::default().with_executor(ExecutorKind::Sharded)
    }

    #[test]
    fn both_receive_phases_agree_under_lossy_delays_with_a_staging_hook() {
        // Drops are permanent and delays park messages past the last
        // send, so the run ends only if parked messages keep the loop
        // alive — on the plain and the node-local receive phase alike.
        let g = generators::complete(48);
        let plan = crate::FaultPlan::new(7)
            .with_drops(30)
            .with_delays(60, 4)
            .lossy();
        let base = EngineConfig::default().with_faults(plan);
        let mk = || DenseGossip {
            beacon: true,
            ..mk(48)
        };
        let mut reference = mk();
        let want = crate::run_protocol(&g, &base, 21, &mut reference).unwrap();
        assert!(want.faults.dropped > 0 && want.faults.delayed > 0);
        for cfg in [
            base.clone(),
            base.clone().with_executor(ExecutorKind::Sharded),
        ] {
            let mut plain = mk();
            let got = crate::run_protocol(&g, &cfg, 21, &mut plain).unwrap();
            assert_eq!((&got, &plain.nodes), (&want, &reference.nodes), "{cfg:?}");
            let mut local = mk();
            let got = crate::run_node_local(&g, &cfg, 21, &mut local).unwrap();
            assert_eq!((&got, &local.nodes), (&want, &reference.nodes), "{cfg:?}");
            assert_eq!(got.rounds, want.rounds, "{cfg:?}");
            let sharded = got.balance.as_ref().is_some_and(|b| b.rounds_measured > 0);
            assert_eq!(sharded, cfg.executor == ExecutorKind::Sharded);
            if let Some(b) = &got.balance {
                assert_eq!(
                    b.rounds_inline + b.rounds_measured,
                    delivering_rounds(&local)
                );
            }
        }
    }

    /// Rounds of a finished run in which any node got mail.
    fn delivering_rounds(p: &DenseGossip) -> u64 {
        let rounds: std::collections::BTreeSet<u64> =
            p.nodes.iter().flat_map(|d| &d.rounds).copied().collect();
        rounds.len() as u64
    }

    #[test]
    fn rounds_that_deliver_nothing_are_neither_inline_nor_measured() {
        // Two nodes, one edge, most messages delayed four rounds: some
        // rounds pass with all mail parked in the fault layer.
        let g = generators::path(2);
        let plan = crate::FaultPlan::new(3).with_delays(700, 4).lossy();
        let cfg = sharded().with_faults(plan);
        let mut p = mk(2);
        let report = crate::run_node_local(&g, &cfg, 1, &mut p).unwrap();
        let delivering = delivering_rounds(&p);
        assert!(0 < delivering && delivering < report.rounds, "{report:?}");
        let balance = report.balance.unwrap();
        assert_eq!(balance.rounds_inline + balance.rounds_measured, delivering);
    }

    /// A star whose hub is the *last* node, every leaf sending the hub
    /// eight messages a round and the hub one to every leaf: 576
    /// deliveries over 65 receiving nodes want two shards, but the hub's
    /// 512 sit at the end of the node range, so the greedy partition
    /// closes its first shard on the last node and there is no second.
    struct Funnel {
        ttl: u64,
        nodes: Vec<Digest>,
    }

    const FUNNEL_LEAVES: usize = 64;

    impl NodeLocalProtocol for Funnel {
        type Msg = Gossip;
        type Shared = u64;
        type NodeState = Digest;

        fn start(&mut self, ctx: &mut Ctx<'_, Gossip>) {
            for leaf in 0..FUNNEL_LEAVES {
                ctx.send(FUNNEL_LEAVES, leaf, Gossip(0));
                for i in 0..8 {
                    ctx.send(leaf, FUNNEL_LEAVES, Gossip(i));
                }
            }
        }

        fn parts(&mut self) -> (&u64, &mut [Digest]) {
            (&self.ttl, &mut self.nodes)
        }

        fn on_receive_local(
            ttl: &u64,
            state: &mut Digest,
            node: usize,
            inbox: &[Envelope<Gossip>],
            ctx: &mut NodeCtx<'_, Gossip>,
        ) {
            for env in inbox {
                state.received += 1;
                state.folded = state.folded.rotate_left(7) ^ env.msg.0;
                if ctx.round() >= *ttl {
                    continue;
                }
                if node < FUNNEL_LEAVES {
                    for i in 0..8 {
                        ctx.send(FUNNEL_LEAVES, Gossip(i));
                    }
                } else if env.msg.0 == 0 {
                    ctx.send(env.from, Gossip(0));
                }
            }
        }
    }

    #[test]
    fn a_round_that_partitions_into_one_shard_is_inline() {
        let hub = FUNNEL_LEAVES;
        let g = drw_graph::Graph::from_edges(hub + 1, (0..hub).map(|leaf| (leaf, hub))).unwrap();
        let cfg = EngineConfig {
            edge_capacity: None,
            ..EngineConfig::default()
        };
        let mk = || Funnel {
            ttl: 5,
            nodes: vec![Digest::default(); hub + 1],
        };
        let mut seq = mk();
        let want = crate::run_node_local(&g, &cfg, 9, &mut seq).unwrap();
        assert_eq!((want.rounds, want.messages), (5, 5 * 576));
        let mut sha = mk();
        let cfg = cfg.with_executor(ExecutorKind::Sharded);
        let got = crate::run_node_local(&g, &cfg, 9, &mut sha).unwrap();
        assert_eq!((&got, &sha.nodes), (&want, &seq.nodes));
        let balance = got.balance.unwrap();
        assert_eq!((balance.rounds_measured, balance.rounds_inline), (0, 5));
    }

    #[test]
    fn sharded_runs_every_handler_on_the_calling_thread_whatever_the_worker_count() {
        let g = generators::complete(48);
        let caller = thread::current().id();
        let mut seq = mk(48);
        let want = crate::run_node_local(&g, &EngineConfig::default(), 11, &mut seq).unwrap();
        assert!(want.balance.is_none(), "sequential runs have no shards");
        let mut first_balance = None;
        for workers in [0, 1, 2, 16] {
            let cfg = EngineConfig {
                parallel_workers: workers,
                ..sharded()
            };
            let mut sha = mk(48);
            let got = crate::run_node_local(&g, &cfg, 11, &mut sha).unwrap();
            let mut handlers = sha.nodes.iter().flat_map(|d| &d.threads);
            assert!(handlers.all(|&t| t == caller), "{workers} workers");
            assert_eq!((&got, &sha.nodes), (&want, &seq.nodes), "{workers} workers");
            let balance = got.balance.expect("sharded runs record balance");
            assert_eq!(balance.rounds_measured, want.rounds, "every round shards");
            assert_eq!(
                first_balance.get_or_insert_with(|| balance.clone()),
                &balance
            );
        }
    }

    #[test]
    fn dense_rounds_are_balanced() {
        // Uniform inboxes (complete graph): the greedy partition must
        // come out nearly flat.
        let g = generators::complete(48);
        let mut p = mk(48);
        let report = crate::run_node_local(&g, &sharded(), 3, &mut p).unwrap();
        let balance = report.balance.expect("sharded runs record balance");
        assert!(balance.rounds_measured >= 1, "{balance:?}");
        assert!(
            balance.worst_max_over_mean <= 1.5,
            "max/mean {} exceeds the balance bound",
            balance.worst_max_over_mean
        );
        // Every round of the dense gossip delivers 2256 messages, so all
        // of them shard: the recorded loads account for every delivery.
        let total: u64 = balance.shard_messages.iter().sum();
        assert_eq!(total, report.messages);
    }

    #[test]
    fn shard_buffers_are_on_the_memory_report() {
        // Every staged message of a sharded round passes through a shard
        // buffer, and the buffers live as long as the run: the report
        // must own up to them, on top of what the round loop holds on
        // either backend.
        let g = generators::complete(48);
        let run = |cfg: &EngineConfig| crate::run_node_local(&g, cfg, 3, &mut mk(48)).unwrap();
        let seq = run(&EngineConfig::default()).memory;
        let sha = run(&sharded()).memory;
        // Both backends hold the round loop's two alternating buffers;
        // the sharded one also holds a round's worth of shard buffers.
        let per_round = 2256 * std::mem::size_of::<(usize, Gossip)>();
        assert!(seq.staging_bytes >= 2 * per_round, "{seq:?}");
        assert!(sha.staging_bytes >= 3 * per_round, "{sha:?}");
        assert_eq!(
            (sha.queue_bytes, sha.inbox_bytes, sha.rng_bytes),
            (seq.queue_bytes, seq.inbox_bytes, seq.rng_bytes),
        );
        assert!(sha.engine_total() > seq.engine_total());
    }

    #[test]
    fn light_rounds_run_inline() {
        // A path carries one message per round: never enough to shard.
        let g = generators::path(16);
        let mut p = DenseGossip { ttl: 3, ..mk(16) };
        let report = crate::run_node_local(&g, &sharded(), 1, &mut p).unwrap();
        let balance = report.balance.expect("sharded runs record balance");
        assert_eq!(balance.rounds_measured, 0);
        assert_eq!(balance.rounds_inline, report.rounds);
        assert_eq!(balance.worst_max_over_mean, 0.0);
    }

    #[test]
    fn partition_by_load_is_balanced_on_uniform_loads() {
        let counts = vec![4usize; 64];
        let (mut sizes, mut loads) = (Vec::new(), Vec::new());
        let shards = partition_by_load(counts.into_iter(), 256, 8, &mut sizes, &mut loads);
        assert_eq!(shards, sizes.len());
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        assert_eq!(loads.iter().sum::<u64>(), 256);
        let max = *loads.iter().max().unwrap() as f64;
        let mean = 256.0 / loads.len() as f64;
        assert!(max / mean <= 1.5, "{loads:?}");
    }

    #[test]
    fn partition_by_load_absorbs_skew() {
        // One heavy node: it gets its own shard, the rest spread out.
        let mut counts = vec![1usize; 40];
        counts[0] = 40;
        let total = 40 + 39;
        let (mut sizes, mut loads) = (Vec::new(), Vec::new());
        partition_by_load(counts.into_iter(), total, 8, &mut sizes, &mut loads);
        assert_eq!(sizes.iter().sum::<usize>(), 40);
        assert_eq!(loads.iter().sum::<u64>(), total as u64);
        assert_eq!(sizes[0], 1, "heavy node isolated in its own shard");
    }
}
