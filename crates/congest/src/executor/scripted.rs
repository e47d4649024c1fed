//! The interleaving checker's hook into the round loop.
//!
//! [`run_scripted`] runs a protocol through the same round loop as
//! every other run, with one change to the receive step: every round
//! with at least two receiving nodes runs their handlers in a scripted
//! permutation, each node staging into its own buffer, and then appends
//! the buffers in ascending node order — exactly the order the in-order
//! receive stages in. So for any protocol whose handlers are
//! node-local, every scripted order gives the result of ascending
//! order. A handler that reaches past its own node (another node's
//! state or RNG stream, a run-level fact it depends on mid-round)
//! breaks the equality under some order, which is what `drw-analyze`
//! sweeps for.

use super::round::{receive_in_order, run_rounds, Scratch};
use crate::engine::{EngineConfig, RunError, RunReport};
use crate::message::{Envelope, Message};
use crate::protocol::{Ctx, Protocol};
use crate::rng::{derive_seed, shuffled};
use drw_graph::Graph;

/// Scripted-mode parameters for the interleaving checker (the
/// [`run_scripted`] entry point): one receive order per round, and one
/// bug knob that re-introduces the race the merge rule exists to
/// prevent, so the checker can prove it would detect it.
pub struct ScriptedSchedule<'a> {
    /// Bug injection for harness self-validation: append the nodes'
    /// staged sends in *run* order instead of node order, each node run
    /// out of its position with its batch reversed — an arrival-order
    /// merge, as if per-node sends were drained off an unordered
    /// channel. The identity order is unaffected.
    pub merge_in_run_order: bool,
    /// Yields the order for `(round, receivers)`: a permutation of
    /// `0..receivers`, indexing the round's receiving nodes in
    /// ascending order.
    pub order: &'a mut dyn FnMut(u64, usize) -> Vec<usize>,
}

impl<'a> ScriptedSchedule<'a> {
    /// A scripted schedule with the given receive order and no bug knob.
    pub fn new(order: &'a mut dyn FnMut(u64, usize) -> Vec<usize>) -> Self {
        ScriptedSchedule {
            merge_in_run_order: false,
            order,
        }
    }
}

/// The receive order schedule `schedule` gives `round`'s `receivers`
/// nodes: the identity for schedule 0, otherwise a Fisher–Yates shuffle
/// seeded by `derive_seed(schedule, round)`, so every round with at
/// least two receivers is permuted independently.
pub fn receive_order(schedule: u64, round: u64, receivers: usize) -> Vec<usize> {
    if schedule == 0 {
        return (0..receivers).collect();
    }
    shuffled(derive_seed(schedule, round), receivers)
}

/// Runs `protocol` on `graph` to completion with every round's receive
/// handlers in the order `schedule` scripts — the hook behind
/// `drw-analyze`'s interleaving checker.
///
/// Each round with at least two receiving nodes runs their handlers in
/// the order `order(round, receivers)` dictates, each node staging into
/// its own buffer, and appends the buffers in ascending node order.
/// Sweeping those orders and asserting bit-identical results against
/// [`crate::run_protocol`] turns the node-locality discipline into a
/// bounded check.
///
/// # Panics
///
/// Panics if `order` returns anything other than a permutation of
/// `0..receivers`.
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
        outs: Vec::new(),
    };
    let scratch = &mut Scratch::default();
    run_rounds(graph, cfg, seed, scratch, protocol, Some(&mut script))
}

/// The scripted receive step, with one staging buffer per receiver
/// slot, drained by the merge with capacity kept.
pub(crate) struct Scripted<'s, M> {
    schedule: ScriptedSchedule<'s>,
    outs: Vec<Vec<(usize, M)>>,
}

impl<M: Message> Scripted<'_, M> {
    /// Runs the receive handlers of `active` (ascending) under the
    /// schedule, appending their sends to `ctx`'s staging buffer in
    /// ascending node order.
    pub(crate) fn receive<P: Protocol<Msg = M>>(
        &mut self,
        protocol: &mut P,
        ctx: &mut Ctx<'_, M>,
        active: &[usize],
        inbox: &mut [Vec<Envelope<M>>],
    ) {
        let len = active.len();
        if len < 2 {
            return receive_in_order(protocol, ctx, active, inbox);
        }
        if self.outs.len() < len {
            self.outs.resize_with(len, Vec::new);
        }
        let round = ctx.round;
        let perm = (self.schedule.order)(round, len);
        assert_permutation(&perm, len);
        for &j in &perm {
            let mut node_ctx = Ctx::with_staged(ctx.graph, round, ctx.rngs, &mut self.outs[j]);
            receive_in_order(protocol, &mut node_ctx, &active[j..=j], inbox);
        }

        let outs = &mut self.outs[..len];
        if self.schedule.merge_in_run_order {
            // Injected race: a node run at its own position appends
            // intact; one run out of position lands with its batch
            // reversed, losing per-edge FIFO order the way an unordered
            // result channel would.
            for (pos, &j) in perm.iter().enumerate() {
                if j == pos {
                    ctx.staged.append(&mut outs[j]);
                } else {
                    ctx.staged.extend(outs[j].drain(..).rev());
                }
            }
        } else {
            for out in outs {
                ctx.staged.append(out);
            }
        }
    }
}

/// Panics unless `perm` is a permutation of `0..len`.
fn assert_permutation(perm: &[usize], len: usize) {
    let mut seen = vec![false; len];
    assert_eq!(perm.len(), len, "receive order must cover every receiver");
    for &i in perm {
        assert!(
            i < len && !std::mem::replace(&mut seen[i], true),
            "receive order must be a permutation of 0..{len}",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, WireReader, WireSink};
    use crate::run_protocol;
    use drw_graph::generators;
    use rand::Rng;

    /// A message-dense gossip: for `ttl` rounds every node draws from
    /// its private RNG and sends the draw to every neighbor; nodes fold
    /// received values into a running digest. With `beacon` set, the
    /// global hook also has node 0 send the round number to node 1:
    /// same edge, one stage ahead of node 0's own send, so node 1's
    /// (order-sensitive) fold sees the hook-before-node staging order.
    #[derive(Clone, Debug, PartialEq)]
    struct Gossip(u64);
    impl Message for Gossip {
        fn encode(&self, w: &mut impl WireSink) {
            w.word("draw", self.0);
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            r.read().map(Gossip)
        }
    }

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

        let mut scripted_rounds = 0;
        let order = &mut |_round, len: usize| {
            scripted_rounds += 1;
            (0..len).rev().collect()
        };
        let mut scripted = gossip(48);
        let got = run_scripted(&g, &cfg, 21, &mut scripted, ScriptedSchedule::new(order)).unwrap();
        assert_eq!((&got, &scripted.nodes), (&want, &reference.nodes));
        assert!(scripted_rounds >= 6, "{scripted_rounds} rounds scripted");
    }

    #[test]
    fn receive_order_is_the_identity_at_schedule_zero_and_a_permutation_otherwise() {
        assert_eq!(receive_order(0, 3, 5), [0, 1, 2, 3, 4]);
        for schedule in 1..20 {
            let perm = receive_order(schedule, 7, 6);
            assert_permutation(&perm, 6);
            assert_eq!(perm, receive_order(schedule, 7, 6), "deterministic");
        }
        let moved = (1..20).filter(|&s| receive_order(s, 7, 6) != [0, 1, 2, 3, 4, 5]);
        assert!(moved.count() >= 18);
    }
}
