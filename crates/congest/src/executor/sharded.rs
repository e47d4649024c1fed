//! The node-local receive phase and its sharded work-stealing backend.
//!
//! A [`NodeLocalProtocol`]'s handlers can reach only their own node's
//! state, RNG stream and inbox, so a round's receive phase may be cut
//! into *load-balanced shards* — contiguous runs of receiving nodes
//! sized by their actual inbox message counts — that threads **claim**
//! from a shared atomic cursor as they go idle. A thread that finishes
//! a cheap shard immediately steals the next unclaimed one, so a
//! straggler shard never serializes the round behind it. A round too
//! light to yield two shards runs inline on the calling thread; under
//! [`crate::ExecutorKind::Sequential`] every round does.
//!
//! Two properties make this deterministic:
//!
//! 1. The shard *partition* depends only on the round's deliveries
//!    (which are deterministic), never on thread scheduling.
//! 2. Each shard stages its sends into a private buffer, and the buffers
//!    are concatenated in shard order — ascending node order, exactly
//!    the order the inline path stages in — regardless of which thread
//!    ran which shard, or in what real-time order shards finished.
//!
//! The per-shard message loads are recorded in
//! [`crate::RunReport`]'s [`crate::WorkBalance`] telemetry. Because the
//! accounting unit is the shard (deterministic), not the thread (a
//! scheduling accident), the balance of the work distribution is
//! measured — and testable — even on a single-CPU machine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use super::round::{run_rounds, ReceivePhase};
use crate::engine::{EngineConfig, RunError, RunReport, WorkBalance};
use crate::message::Envelope;
use crate::node_local::{NodeCtx, NodeLocalProtocol};
use crate::protocol::Ctx;
use drw_graph::Graph;
use rand::rngs::StdRng;

/// Target messages of receive work per shard. Shards are the stealing
/// granule: small enough that a round yields several per thread (so
/// stealing can equalize), large enough to amortize the claim.
const MSGS_PER_SHARD: u64 = 256;

/// Upper bound on shards per round; beyond this the per-shard bookkeeping
/// would outweigh the balance gain.
const MAX_SHARDS: usize = 64;

/// Executes the receive phase of node-local protocols as load-balanced
/// work-stealing shards.
#[derive(Debug, Clone, Copy)]
pub struct ShardedExecutor {
    threads: usize,
}

impl ShardedExecutor {
    /// An executor using `threads` worker threads (`0` = one per
    /// available CPU). The thread count never affects results or the
    /// recorded shard loads — only wall-clock time.
    pub fn new(threads: usize) -> Self {
        ShardedExecutor { threads }
    }

    /// The resolved worker count (at least 1).
    pub fn threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        }
    }
}

/// Scripted-mode parameters for the interleaving checker (the
/// [`ShardedExecutor::run_node_local_scripted`] entry point).
///
/// A schedule has two nested degrees of freedom, mirroring the two
/// scheduling accidents a production run is exposed to: the order in
/// which idle threads *claim* shards (`order`) and the order in which a
/// claimed shard's work items are *processed* (`item_order`). The
/// executor contract says neither may affect results; the two bug knobs
/// re-introduce exactly the race class each rule exists to prevent, so
/// the checker can prove it would detect them.
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

/// How a round's receive work is cut into shards and claimed.
enum ClaimMode<'a> {
    /// [`crate::ExecutorKind::Sequential`]: never shard — every round
    /// runs inline, and no balance telemetry is reported.
    Inline,
    /// Production: up to `n` OS threads race on an atomic cursor.
    Threads(usize),
    /// Interleaving-checker mode: shards execute one at a time in a
    /// scripted claim order (see
    /// [`ShardedExecutor::run_node_local_scripted`]).
    Scripted(ScriptedSchedule<'a>),
}

impl ClaimMode<'_> {
    fn msgs_per_shard(&self) -> u64 {
        match self {
            ClaimMode::Inline => u64::MAX,
            ClaimMode::Threads(_) => MSGS_PER_SHARD,
            ClaimMode::Scripted(s) => s.msgs_per_shard.max(1),
        }
    }
}

/// One receiving node's slice of the round: its state, RNG stream and
/// inbox, carved out for exclusive access by one worker.
struct WorkItem<'a, P: NodeLocalProtocol> {
    node: usize,
    state: &'a mut P::NodeState,
    rng: &'a mut StdRng,
    inbox: &'a mut Vec<Envelope<P::Msg>>,
}

/// Splits `rest[offset]` off as an exclusive borrow and advances `rest`
/// past it.
fn carve<'a, T>(rest: &mut &'a mut [T], offset: usize) -> &'a mut T {
    let (head, tail) = std::mem::take(rest).split_at_mut(offset + 1);
    *rest = tail;
    &mut head[offset]
}

/// A claimed unit of receive work: its nodes and its private staging
/// buffer. Wrapped in a `Mutex` purely to hand exclusive access to
/// whichever thread claims it — each shard is locked exactly once.
struct ShardTask<'a, P: NodeLocalProtocol> {
    items: Vec<WorkItem<'a, P>>,
    out: Vec<(usize, P::Msg)>,
}

/// Greedy contiguous partition of per-node loads into at most
/// `max_shards` shards of roughly `ceil(total / max_shards)` messages
/// each. Returns (shard sizes in nodes, shard loads in messages).
fn partition_by_load(counts: &[usize], total: usize, max_shards: usize) -> (Vec<usize>, Vec<u64>) {
    let target = total.div_ceil(max_shards);
    let mut sizes = Vec::with_capacity(max_shards);
    let mut loads = Vec::with_capacity(max_shards);
    let (mut load, mut size) = (0usize, 0usize);
    for &c in counts {
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
    (sizes, loads)
}

impl ShardedExecutor {
    /// Runs a [`NodeLocalProtocol`] to completion, sharding the receive
    /// phase of every round heavy enough to yield two shards.
    ///
    /// # Errors
    ///
    /// [`RunError::MaxRoundsExceeded`] or [`RunError::OversizedMessage`].
    pub fn run_node_local<P: NodeLocalProtocol>(
        &self,
        graph: &Graph,
        cfg: &EngineConfig,
        seed: u64,
        protocol: &mut P,
    ) -> Result<RunReport, RunError> {
        run(
            graph,
            cfg,
            seed,
            protocol,
            ClaimMode::Threads(self.threads()),
        )
    }

    /// Runs a node-local protocol through the sharded receive path with
    /// a **scripted** shard-claim order — the hook behind `drw-analyze`'s
    /// exhaustive interleaving checker.
    ///
    /// Production runs let idle threads claim shards off an atomic
    /// cursor, so the claim interleaving is a scheduling accident the
    /// executor must be insensitive to. This entry point replays the
    /// *same* shard construction and merge code single-threaded, but
    /// executes the shards of every round in the order `order(round,
    /// shard_count)` dictates (any permutation of `0..shard_count`).
    /// Enumerating those permutations and asserting bit-identical
    /// results against the [`crate::ExecutorKind::Sequential`] reference
    /// turns the executor contract into a bounded race check at shard
    /// granularity.
    ///
    /// The schedule's `item_order` extends the scripting *inside* each
    /// claimed shard: items (receiving nodes) execute in the scripted
    /// within-shard order. Per-edge FIFO order cannot depend on it —
    /// each item sends only from its own node, so no two items share a
    /// directed edge, and the staging sort is stable per edge — but
    /// that is exactly the kind of argument the checker exists to turn
    /// into a measurement.
    ///
    /// `merge_in_claim_order` injects the classic staging-merge race —
    /// an *arrival-order* merge, as if shard outputs were drained off
    /// an unordered channel: outputs are concatenated in claim order,
    /// and any shard claimed out of its staging position lands with its
    /// FIFO batch scrambled. `scramble_item_order` is the same race one
    /// level down, for items within a shard. The identity schedule is
    /// unaffected by either, so the bugs manifest only under specific
    /// interleavings — exactly the race classes the merge contracts
    /// exist to prevent. The knobs let the checker prove it detects
    /// those classes; both must be `false` for any conformance run.
    ///
    /// # Panics
    ///
    /// Panics if `order` (or `item_order`) returns anything other than
    /// a permutation of `0..shard_count` (resp. `0..item_count`).
    ///
    /// # Errors
    ///
    /// Same as [`ShardedExecutor::run_node_local`].
    pub fn run_node_local_scripted<P: NodeLocalProtocol>(
        graph: &Graph,
        cfg: &EngineConfig,
        seed: u64,
        protocol: &mut P,
        schedule: ScriptedSchedule<'_>,
    ) -> Result<RunReport, RunError> {
        run(graph, cfg, seed, protocol, ClaimMode::Scripted(schedule))
    }
}

/// [`crate::ExecutorKind::Sequential`] for a node-local protocol: the
/// same receive phase with every round inline.
pub(crate) fn run_node_local_inline<P: NodeLocalProtocol>(
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    protocol: &mut P,
) -> Result<RunReport, RunError> {
    run(graph, cfg, seed, protocol, ClaimMode::Inline)
}

fn run<P: NodeLocalProtocol>(
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
    };
    let mut report = run_rounds(graph, cfg, seed, &mut phase)?;
    if !matches!(phase.mode, ClaimMode::Inline) {
        report.balance = Some(phase.balance);
    }
    Ok(report)
}

/// The receive phase of a [`NodeLocalProtocol`] under one [`ClaimMode`].
struct NodeLocalReceive<'p, 's, P> {
    protocol: &'p mut P,
    mode: ClaimMode<'s>,
    balance: WorkBalance,
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
        let staged = &mut ctx.staged;
        let (shared, states) = self.protocol.parts();
        debug_assert_eq!(states.len(), graph.n(), "one NodeState per node required");

        // The shard count is a deterministic function of the round's
        // delivery volume — never of thread count or scheduling.
        let want_shards = ((delivered / self.mode.msgs_per_shard()) as usize)
            .clamp(1, MAX_SHARDS)
            .min(active.len().max(1));
        if want_shards < 2 {
            self.balance.rounds_inline += 1;
            for &node in active {
                let mut nctx = NodeCtx::new(graph, round, node, ctx.rngs.node(node), staged);
                P::on_receive_local(shared, &mut states[node], node, &inbox[node], &mut nctx);
                inbox[node].clear(); // keep the allocation for next round
            }
            return;
        }

        let counts: Vec<usize> = active.iter().map(|&v| inbox[v].len()).collect();
        let (sizes, loads) = partition_by_load(&counts, delivered as usize, want_shards);

        if sizes.len() >= 2 {
            self.balance.rounds_measured += 1;
            let max = *loads.iter().max().expect("at least two shards") as f64;
            let mean = delivered as f64 / loads.len() as f64;
            self.balance.worst_max_over_mean = self.balance.worst_max_over_mean.max(max / mean);
            if self.balance.shard_messages.len() < loads.len() {
                self.balance.shard_messages.resize(loads.len(), 0);
            }
            for (slot, &l) in self.balance.shard_messages.iter_mut().zip(&loads) {
                *slot += l;
            }
        } else {
            self.balance.rounds_inline += 1;
        }

        // Carve disjoint &mut views for each receiving node out of the
        // state, RNG and inbox slices (safe: `active` is sorted and
        // deduplicated, so the carves never overlap).
        let mut items: Vec<WorkItem<'_, P>> = Vec::with_capacity(active.len());
        let mut rest_states: &mut [P::NodeState] = states;
        let mut rest_rngs: &mut [StdRng] = ctx.rngs.as_mut_slice();
        let mut rest_inbox: &mut [Vec<Envelope<P::Msg>>] = inbox;
        let mut consumed = 0usize;
        for &node in active {
            let offset = node - consumed;
            consumed = node + 1;
            items.push(WorkItem {
                node,
                state: carve(&mut rest_states, offset),
                rng: carve(&mut rest_rngs, offset),
                inbox: carve(&mut rest_inbox, offset),
            });
        }

        // Group items into shard tasks (contiguous, so shard
        // order == ascending node order).
        let mut item_iter = items.into_iter();
        let tasks: Vec<Mutex<ShardTask<'_, P>>> = sizes
            .iter()
            .map(|&sz| {
                Mutex::new(ShardTask {
                    items: item_iter.by_ref().take(sz).collect(),
                    out: Vec::new(),
                })
            })
            .collect();
        debug_assert!(item_iter.next().is_none(), "partition covers all items");

        let run_shard =
            |task: &mut ShardTask<'_, P>, item_perm: Option<&[usize]>, scramble: bool| {
                let ShardTask { items, out } = task;
                let len = items.len();
                let mut run_item = |j: usize, reversed: bool| {
                    let item = &mut items[j];
                    let start = out.len();
                    let mut nctx = NodeCtx::new(graph, round, item.node, item.rng, out);
                    P::on_receive_local(shared, item.state, item.node, item.inbox, &mut nctx);
                    item.inbox.clear(); // keep the allocation
                    if reversed {
                        // Injected race (`scramble_item_order`): an
                        // out-of-position item's batch lands reversed,
                        // losing per-edge FIFO the way an unordered
                        // per-item result channel would.
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
            };

        // Claim order is the executor's one nondeterministic
        // degree of freedom; results must never depend on it.
        let mut claim_order: Option<Vec<usize>> = None;
        match &mut self.mode {
            ClaimMode::Inline => unreachable!("inline mode never yields two shards"),
            ClaimMode::Threads(max_threads) => {
                let threads = (*max_threads).min(tasks.len());
                if threads < 2 {
                    // One worker: claim shards in order on this
                    // thread. Loads were still recorded above —
                    // balance telemetry does not depend on real
                    // parallelism.
                    for task in &tasks {
                        run_shard(&mut task.lock().expect("shard lock"), None, false);
                    }
                } else {
                    let cursor = AtomicUsize::new(0);
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            scope.spawn(|| loop {
                                // Work stealing: each idle thread
                                // claims the next unclaimed shard.
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(task) = tasks.get(i) else { break };
                                run_shard(&mut task.lock().expect("shard lock"), None, false);
                            });
                        }
                    });
                }
            }
            ClaimMode::Scripted(sched) => {
                let perm = (sched.order)(round, tasks.len());
                let mut seen = vec![false; tasks.len()];
                assert_eq!(
                    perm.len(),
                    tasks.len(),
                    "claim order must cover every shard"
                );
                for &i in &perm {
                    assert!(
                        i < tasks.len() && !std::mem::replace(&mut seen[i], true),
                        "claim order must be a permutation of 0..{}",
                        tasks.len()
                    );
                    let mut task = tasks[i].lock().expect("shard lock");
                    let item_perm = sched
                        .item_order
                        .as_mut()
                        .map(|f| f(round, i, task.items.len()));
                    run_shard(&mut task, item_perm.as_deref(), sched.scramble_item_order);
                }
                claim_order = Some(perm);
            }
        }
        // Concatenate in shard order — the inline staging order,
        // whatever the claim interleaving was. (The checker's
        // bug-injection knob merges in claim order instead,
        // reintroducing the race this merge rule exists to prevent.)
        let mut outs: Vec<Vec<(usize, P::Msg)>> = tasks
            .into_iter()
            .map(|t| t.into_inner().expect("all shard workers joined").out)
            .collect();
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
            for out in &mut outs {
                staged.append(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use drw_graph::generators;
    use rand::Rng;

    /// A message-dense node-local gossip: for `ttl` rounds every node
    /// draws from its private RNG and sends the draw to every neighbor;
    /// nodes fold received values into a running digest. On
    /// `complete(48)` every round delivers 2256 messages — enough for
    /// several shards per round, so the threaded claim path genuinely
    /// runs even when `available_parallelism` is 1. With `beacon` set,
    /// the global hook also has node 0 send the round number to node 1:
    /// same edge, one stage ahead of node 0's own send, so node 1's
    /// (order-sensitive) fold sees the hook-before-node staging order.
    #[derive(Clone, Debug)]
    struct Gossip(u64);
    impl Message for Gossip {}

    #[derive(Default, Clone, PartialEq, Eq, Debug)]
    struct Digest {
        folded: u64,
        received: u64,
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
            let mut nctx = NodeCtx::new(ctx.graph, ctx.round, v, ctx.rngs.node(v), &mut ctx.staged);
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
            base.clone().with_workers(1),
            base.clone().with_workers(4),
        ] {
            let mut plain = mk();
            let got = crate::run_protocol(&g, &cfg, 21, &mut plain).unwrap();
            assert_eq!((&got, &plain.nodes), (&want, &reference.nodes), "{cfg:?}");
            let mut local = mk();
            let got = crate::run_node_local(&g, &cfg, 21, &mut local).unwrap();
            assert_eq!((&got, &local.nodes), (&want, &reference.nodes), "{cfg:?}");
            assert_eq!(got.rounds, want.rounds, "{cfg:?}");
            let sharded = got.balance.is_some_and(|b| b.rounds_measured > 0);
            assert_eq!(sharded, cfg.executor == crate::ExecutorKind::Sharded);
        }
    }

    #[test]
    fn sharded_run_matches_sequential_bitwise() {
        let g = generators::complete(48);
        let cfg = EngineConfig::default();
        let mut seq = mk(48);
        let r_seq = run_node_local_inline(&g, &cfg, 11, &mut seq).unwrap();
        assert!(r_seq.balance.is_none(), "sequential runs have no shards");
        for threads in [1, 2, 3, 4, 16] {
            let mut sha = mk(48);
            let r_sha = ShardedExecutor::new(threads)
                .run_node_local(&g, &cfg, 11, &mut sha)
                .unwrap();
            assert_eq!(r_seq, r_sha, "{threads} threads: report");
            assert_eq!(seq.nodes, sha.nodes, "{threads} threads: node digests");
        }
    }

    #[test]
    fn thread_counts_resolve() {
        assert_eq!(ShardedExecutor::new(3).threads(), 3);
        assert!(ShardedExecutor::new(0).threads() >= 1);
    }

    #[test]
    fn shard_loads_are_thread_independent() {
        // The recorded balance telemetry is a function of deliveries, not
        // of the worker count.
        let g = generators::complete(48);
        let cfg = EngineConfig::default();
        let mut p1 = mk(48);
        let b1 = ShardedExecutor::new(1)
            .run_node_local(&g, &cfg, 5, &mut p1)
            .unwrap()
            .balance
            .unwrap();
        let mut p4 = mk(48);
        let b4 = ShardedExecutor::new(4)
            .run_node_local(&g, &cfg, 5, &mut p4)
            .unwrap()
            .balance
            .unwrap();
        assert_eq!(b1, b4);
        assert!(b1.rounds_measured >= 1, "{b1:?}");
    }

    #[test]
    fn dense_rounds_are_balanced() {
        // Uniform inboxes (complete graph): the greedy partition must
        // come out nearly flat.
        let g = generators::complete(48);
        let mut p = mk(48);
        let report = ShardedExecutor::new(2)
            .run_node_local(&g, &EngineConfig::default(), 3, &mut p)
            .unwrap();
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
    fn light_rounds_run_inline() {
        // A path carries one message per round: never enough to shard.
        let g = generators::path(16);
        let mut p = DenseGossip { ttl: 3, ..mk(16) };
        let report = ShardedExecutor::new(0)
            .run_node_local(&g, &EngineConfig::default(), 1, &mut p)
            .unwrap();
        let balance = report.balance.expect("sharded runs record balance");
        assert_eq!(balance.rounds_measured, 0);
        assert!(balance.rounds_inline > 0);
        assert_eq!(balance.worst_max_over_mean, 0.0);
    }

    #[test]
    fn partition_by_load_is_balanced_on_uniform_loads() {
        let counts = vec![4usize; 64];
        let (sizes, loads) = partition_by_load(&counts, 256, 8);
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
        let (sizes, loads) = partition_by_load(&counts, total, 8);
        assert_eq!(sizes.iter().sum::<usize>(), 40);
        assert_eq!(loads.iter().sum::<u64>(), total as u64);
        assert_eq!(sizes[0], 1, "heavy node isolated in its own shard");
    }
}
