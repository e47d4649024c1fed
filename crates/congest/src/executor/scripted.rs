//! The interleaving checker's hook into the round loop.
//!
//! [`run_scripted`] runs a protocol through the same round loop as
//! every other run, with one change to the receive step: a round heavy
//! enough to yield two *shards* — contiguous runs of receiving nodes
//! sized by their inbox message counts — runs the shards' handlers in a
//! scripted order, each shard staging into its own buffer, and then
//! concatenates the buffers in shard order. Lighter rounds run in
//! ascending node order, as always.
//!
//! Two properties make every scripted order give the result of
//! ascending order, for any protocol whose handlers are node-local:
//!
//! 1. The shard *partition* depends only on the round's deliveries
//!    (which are deterministic).
//! 2. The staging buffers are concatenated in shard order — ascending
//!    node order, exactly the order the in-order receive stages in —
//!    whatever order the shards ran in.
//!
//! A handler that reaches past its own node (another node's state or
//! RNG stream, a run-level fact it depends on mid-round) breaks the
//! equality under some order, which is what `drw-analyze` sweeps for.

use super::round::{receive_in_order, run_rounds, Scratch};
use crate::engine::{EngineConfig, RunError, RunReport};
use crate::message::{Envelope, Message};
use crate::protocol::{Ctx, Protocol};
use drw_graph::Graph;

/// Upper bound on shards per round.
const MAX_SHARDS: usize = 64;

/// Scripted-mode parameters for the interleaving checker (the
/// [`run_scripted`] entry point).
///
/// A schedule has two nested degrees of freedom, the two orders the
/// merge contract must make unobservable: the order in which shards run
/// (`order`) and the order in which a shard's work items run
/// (`item_order`). The in-order receive runs both in node order; the
/// contract says neither may affect results. The two bug knobs
/// re-introduce exactly the race class each rule exists to prevent, so
/// the checker can prove it would detect them.
pub struct ScriptedSchedule<'a> {
    /// Target messages of receive work per shard: a round shards when it
    /// delivered at least two shards' worth. Small values make small
    /// checker graphs fan out into several shards per round.
    pub msgs_per_shard: u64,
    /// Bug injection for harness self-validation: concatenate the
    /// staging buffers in *claim* order instead of shard order — the
    /// classic merge race a correct merge must not have.
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
    /// `None` processes items in node order.
    pub item_order: Option<&'a mut dyn FnMut(u64, usize, usize) -> Vec<usize>>,
}

impl<'a> ScriptedSchedule<'a> {
    /// A scripted schedule with the given shard sizing and claim order,
    /// node-order items and no bug knobs.
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

/// Runs `protocol` on `graph` to completion with every sharded round's
/// receive handlers in the order `schedule` scripts — the hook behind
/// `drw-analyze`'s exhaustive interleaving checker.
///
/// Each round that delivered at least two shards' worth of messages is
/// cut into load-balanced shards; their handlers run in the order
/// `order(round, shard_count)` dictates (any permutation of
/// `0..shard_count`), each shard staging into its own buffer, and the
/// buffers are concatenated in shard order. Enumerating those
/// permutations and asserting bit-identical results against
/// [`crate::run_protocol`] turns the node-locality discipline into a
/// bounded check at shard granularity.
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
/// Same as [`crate::run_protocol`].
pub fn run_scripted<P: Protocol>(
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    protocol: &mut P,
    schedule: ScriptedSchedule<'_>,
) -> Result<RunReport, RunError> {
    let mut script = Scripted {
        schedule,
        sizes: Vec::new(),
        outs: Vec::new(),
    };
    let scratch = &mut Scratch::default();
    run_rounds(graph, cfg, seed, scratch, protocol, Some(&mut script))
}

/// The scripted receive step, with its scratch: the current partition
/// (shard sizes in nodes) and one staging buffer per shard slot, drained
/// by the merge with capacity kept.
pub(crate) struct Scripted<'s, M> {
    schedule: ScriptedSchedule<'s>,
    sizes: Vec<usize>,
    outs: Vec<Vec<(usize, M)>>,
}

impl<M: Message> Scripted<'_, M> {
    /// Runs the receive handlers of `active` (ascending; the round
    /// delivered `delivered` messages into their inboxes) under the
    /// schedule, appending their sends to `ctx`'s staging buffer in
    /// ascending node order.
    pub(crate) fn receive<P: Protocol<Msg = M>>(
        &mut self,
        protocol: &mut P,
        ctx: &mut Ctx<'_, M>,
        active: &[usize],
        inbox: &mut [Vec<Envelope<M>>],
        delivered: u64,
    ) {
        // The shard count is a deterministic function of the round's
        // deliveries. A skewed round (one node holding most of the mail)
        // can want two shards and still partition into one; it runs in
        // order like a light one.
        let want_shards = ((delivered / self.schedule.msgs_per_shard.max(1)) as usize)
            .clamp(1, MAX_SHARDS)
            .min(active.len().max(1));
        let shards = if want_shards < 2 {
            1
        } else {
            let counts = active.iter().map(|&v| inbox[v].len());
            partition_by_load(counts, delivered as usize, want_shards, &mut self.sizes)
        };
        if shards < 2 {
            return receive_in_order(protocol, ctx, active, inbox);
        }
        if self.outs.len() < shards {
            self.outs.resize_with(shards, Vec::new);
        }

        let round = ctx.round;
        let claim = (self.schedule.order)(round, shards);
        assert_permutation(&claim, shards, "claim order");
        for &i in &claim {
            let first: usize = self.sizes[..i].iter().sum();
            let nodes = &active[first..first + self.sizes[i]];
            let item_perm = self
                .schedule
                .item_order
                .as_mut()
                .map(|f| f(round, i, nodes.len()));
            let mut shard_ctx = Ctx::with_staged(ctx.graph, round, ctx.rngs, &mut self.outs[i]);
            let scramble = self.schedule.scramble_item_order;
            run_shard(protocol, &mut shard_ctx, nodes, inbox, item_perm, scramble);
        }

        // Concatenate in shard order — the in-order staging order,
        // whatever order the shards ran in. (The bug-injection knob
        // merges in run order instead, reintroducing the race this merge
        // rule exists to prevent.)
        let outs = &mut self.outs[..shards];
        if self.schedule.merge_in_claim_order {
            // Injected race: arrival-order merge. A shard claimed at its
            // own staging position appends intact; one claimed out of
            // position lands with its batch reversed, losing per-edge
            // FIFO order the way an unordered result channel would.
            // Schedule-dependent by construction: the identity schedule
            // is benign.
            for (pos, &i) in claim.iter().enumerate() {
                if i == pos {
                    ctx.staged.append(&mut outs[i]);
                } else {
                    ctx.staged.extend(outs[i].drain(..).rev());
                }
            }
        } else {
            for out in outs {
                ctx.staged.append(out);
            }
        }
    }
}

/// Runs the receive handlers of one shard's `nodes`, in node order or in
/// the order `item_perm` scripts. `scramble` is the item-level bug knob.
fn run_shard<P: Protocol>(
    protocol: &mut P,
    ctx: &mut Ctx<'_, P::Msg>,
    nodes: &[usize],
    inbox: &mut [Vec<Envelope<P::Msg>>],
    item_perm: Option<Vec<usize>>,
    scramble: bool,
) {
    let Some(perm) = item_perm else {
        return receive_in_order(protocol, ctx, nodes, inbox);
    };
    assert_permutation(&perm, nodes.len(), "item order");
    for (pos, &j) in perm.iter().enumerate() {
        let start = ctx.staged.len();
        receive_in_order(protocol, ctx, &nodes[j..=j], inbox);
        if scramble && j != pos {
            // Injected race (`scramble_item_order`): an out-of-position
            // item's batch lands reversed, losing per-edge FIFO the way
            // an unordered per-item result channel would.
            ctx.staged[start..].reverse();
        }
    }
}

/// Panics unless `perm` is a permutation of `0..len`.
fn assert_permutation(perm: &[usize], len: usize, what: &str) {
    let mut seen = vec![false; len];
    assert_eq!(perm.len(), len, "{what} must cover every entry");
    for &i in perm {
        assert!(
            i < len && !std::mem::replace(&mut seen[i], true),
            "{what} must be a permutation of 0..{len}",
        );
    }
}

/// Greedy contiguous partition of per-node loads (`counts`, summing to
/// `total`) into at most `max_shards` shards of roughly `ceil(total /
/// max_shards)` messages each. Overwrites `sizes` (shard sizes in
/// nodes) and returns the shard count.
fn partition_by_load(
    counts: impl Iterator<Item = usize>,
    total: usize,
    max_shards: usize,
    sizes: &mut Vec<usize>,
) -> usize {
    sizes.clear();
    let target = total.div_ceil(max_shards);
    let (mut load, mut size) = (0usize, 0usize);
    for c in counts {
        load += c;
        size += 1;
        if load >= target && sizes.len() + 1 < max_shards {
            sizes.push(size);
            load = 0;
            size = 0;
        }
    }
    if size > 0 {
        sizes.push(size);
    }
    sizes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::run_protocol;
    use drw_graph::generators;
    use rand::Rng;

    /// A message-dense gossip: for `ttl` rounds every node draws from
    /// its private RNG and sends the draw to every neighbor; nodes fold
    /// received values into a running digest. On `complete(48)` every
    /// round delivers 2256 messages — several shards per round. With
    /// `beacon` set, the global hook also has node 0 send the round
    /// number to node 1: same edge, one stage ahead of node 0's own
    /// send, so node 1's (order-sensitive) fold sees the
    /// hook-before-node staging order.
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

    impl Protocol for DenseGossip {
        type Msg = Gossip;

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

        fn on_receive(&mut self, v: usize, inbox: &[Envelope<Gossip>], ctx: &mut Ctx<'_, Gossip>) {
            let state = &mut self.nodes[v];
            let mut ctx = ctx.at(v);
            for env in inbox {
                state.received += 1;
                state.folded = state.folded.rotate_left(7) ^ env.msg.0;
            }
            if ctx.round() < self.ttl {
                let x: u64 = ctx.rng().random();
                let neighbors: Vec<usize> = ctx.graph().neighbors(v).collect();
                for u in neighbors {
                    ctx.send(u, Gossip(x));
                }
            }
        }
    }

    fn gossip(n: usize) -> DenseGossip {
        DenseGossip {
            ttl: 6,
            beacon: true,
            nodes: vec![Digest::default(); n],
        }
    }

    #[test]
    fn reversed_orders_match_the_in_order_run_under_lossy_delays_with_a_staging_hook() {
        // Drops are permanent and delays park messages past the last
        // send, so the run ends only if parked messages keep the loop
        // alive — scripted or not.
        let g = generators::complete(48);
        let plan = crate::FaultPlan::new(7)
            .with_drops(30)
            .with_delays(60, 4)
            .lossy();
        let cfg = EngineConfig::default().with_faults(plan);
        let mut reference = gossip(48);
        let want = run_protocol(&g, &cfg, 21, &mut reference).unwrap();
        assert!(want.faults.dropped > 0 && want.faults.delayed > 0);

        let mut sharded_rounds = 0;
        let order = &mut |_round, s: usize| {
            sharded_rounds += 1;
            (0..s).rev().collect()
        };
        let items = &mut |_round, _shard, c: usize| (0..c).rev().collect();
        let schedule = ScriptedSchedule {
            item_order: Some(items),
            ..ScriptedSchedule::new(64, order)
        };
        let mut scripted = gossip(48);
        let got = run_scripted(&g, &cfg, 21, &mut scripted, schedule).unwrap();
        assert_eq!((&got, &scripted.nodes), (&want, &reference.nodes));
        assert!(sharded_rounds >= 6, "{sharded_rounds} rounds sharded");
    }

    /// A star whose hub is the *last* node, every leaf sending the hub
    /// eight messages a round and the hub one to every leaf: 576
    /// deliveries over 65 receiving nodes want two shards of 256, but
    /// the hub's 512 sit at the end of the node range, so the greedy
    /// partition closes its first shard on the last node and there is no
    /// second.
    struct Funnel {
        ttl: u64,
        nodes: Vec<Digest>,
    }

    const FUNNEL_LEAVES: usize = 64;

    impl Protocol for Funnel {
        type Msg = Gossip;

        fn start(&mut self, ctx: &mut Ctx<'_, Gossip>) {
            for leaf in 0..FUNNEL_LEAVES {
                ctx.send(FUNNEL_LEAVES, leaf, Gossip(0));
                for i in 0..8 {
                    ctx.send(leaf, FUNNEL_LEAVES, Gossip(i));
                }
            }
        }

        fn on_receive(
            &mut self,
            node: usize,
            inbox: &[Envelope<Gossip>],
            ctx: &mut Ctx<'_, Gossip>,
        ) {
            let state = &mut self.nodes[node];
            let mut ctx = ctx.at(node);
            for env in inbox {
                state.received += 1;
                state.folded = state.folded.rotate_left(7) ^ env.msg.0;
                if ctx.round() >= self.ttl {
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
    fn a_round_that_partitions_into_one_shard_is_never_scripted() {
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
        let mut in_order = mk();
        let want = run_protocol(&g, &cfg, 9, &mut in_order).unwrap();
        assert_eq!((want.rounds, want.messages), (5, 5 * 576));
        let mut claims = 0;
        let order = &mut |_round, s: usize| {
            claims += 1;
            (0..s).collect()
        };
        let mut scripted = mk();
        let schedule = ScriptedSchedule::new(256, order);
        let got = run_scripted(&g, &cfg, 9, &mut scripted, schedule).unwrap();
        assert_eq!((&got, &scripted.nodes), (&want, &in_order.nodes));
        assert_eq!(claims, 0, "no round has a claim order to script");
    }

    fn loads(counts: &[usize], sizes: &[usize]) -> Vec<usize> {
        let mut rest = counts;
        sizes
            .iter()
            .map(|&s| {
                let (shard, tail) = rest.split_at(s);
                rest = tail;
                shard.iter().sum()
            })
            .collect()
    }

    #[test]
    fn partition_by_load_is_balanced_on_uniform_loads() {
        let counts = vec![4usize; 64];
        let mut sizes = Vec::new();
        let shards = partition_by_load(counts.iter().copied(), 256, 8, &mut sizes);
        assert_eq!(shards, sizes.len());
        assert_eq!(sizes.iter().sum::<usize>(), 64);
        let loads = loads(&counts, &sizes);
        let max = *loads.iter().max().unwrap() as f64;
        let mean = 256.0 / loads.len() as f64;
        assert!(max / mean <= 1.5, "{loads:?}");
    }

    #[test]
    fn partition_by_load_absorbs_skew() {
        // One heavy node: it gets its own shard, the rest spread out.
        let mut counts = vec![1usize; 40];
        counts[0] = 40;
        let mut sizes = Vec::new();
        partition_by_load(counts.iter().copied(), 40 + 39, 8, &mut sizes);
        assert_eq!(sizes.iter().sum::<usize>(), 40);
        assert_eq!(sizes[0], 1, "heavy node isolated in its own shard");
    }
}
