//! The round loop: what one synchronous CONGEST round *is*.
//!
//! Every run — any protocol trait, any backend — goes through
//! [`run_rounds`]: deliver at most `edge_capacity` messages per directed
//! edge, fire the global `on_round` hook, run the receive handlers of
//! the nodes that got mail, stage the resulting sends for the next
//! round. The loop is parameterised only by the [`ReceivePhase`], of
//! which there are two: [`PlainReceive`] (a [`Protocol`]'s `&mut self`
//! handler, ascending node order, on every backend) and the node-local
//! sharded receive in [`super::sharded`].

use super::queue::{FlatQueue, LOAD_HISTOGRAM_BUCKETS};
use crate::engine::{EngineConfig, MemoryReport, RunError, RunReport};
use crate::message::{Envelope, Message};
use crate::protocol::{Ctx, Protocol};
use crate::rng::NodeRngs;
use drw_graph::Graph;

/// A protocol as the round loop sees it: the three global hooks plus
/// the one step backends may organise differently.
pub(crate) trait ReceivePhase {
    /// The protocol's message type.
    type Msg: Message;

    fn start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);
    fn is_done(&self) -> bool;
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Runs the receive handler of every node in `active` (ascending,
    /// deduplicated; the round delivered `delivered` messages into their
    /// `inbox`es). Must leave those inboxes empty and append the
    /// handlers' sends to `ctx.staged` in ascending node order — behind
    /// whatever `on_round` staged.
    fn receive(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg>,
        active: &[usize],
        inbox: &mut [Vec<Envelope<Self::Msg>>],
        delivered: u64,
    );
}

/// Drives `phase` to quiescence, [`ReceivePhase::is_done`] or the round
/// cap.
pub(crate) fn run_rounds<R: ReceivePhase>(
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    phase: &mut R,
) -> Result<RunReport, RunError> {
    let n = graph.n();
    let mut rngs = NodeRngs::new(seed, n);
    let mut queue: FlatQueue<R::Msg> = FlatQueue::for_graph(graph);
    let mut inbox: Vec<Vec<Envelope<R::Msg>>> = vec![Vec::new(); n];
    let mut active: Vec<usize> = Vec::new();
    let mut report = RunReport::default();
    if cfg.record_edge_loads {
        report.edge_load_histogram = vec![0; LOAD_HISTOGRAM_BUCKETS];
    }

    // Round 0: free local computation and initial sends.
    let mut ctx = Ctx::with_staged(graph, 0, &mut rngs, Vec::new());
    phase.start(&mut ctx);
    let mut staged_buf = ctx.staged;
    queue.stage(&mut staged_buf, cfg, 1, &mut report)?;

    let mut round: u64 = 0;
    // Quiescence is `is_idle`, not queue emptiness: the fault layer
    // may hold delayed/retransmitted messages for future rounds
    // while the current queue is empty — such rounds deliver
    // nothing but still pass (and are billed).
    while !queue.is_idle() {
        if phase.is_done() {
            break;
        }
        round += 1;
        if round > cfg.max_rounds {
            return Err(RunError::MaxRoundsExceeded(cfg.max_rounds));
        }

        active.clear();
        let delivered = queue.deliver(graph, cfg, round, &mut report, &mut inbox, &mut active);
        active.sort_unstable();

        // One staging buffer, recycled across rounds: the hook's sends
        // first, then the nodes' in ascending node order.
        let mut ctx = Ctx::with_staged(graph, round, &mut rngs, staged_buf);
        phase.on_round(&mut ctx);
        phase.receive(&mut ctx, &active, &mut inbox, delivered);
        staged_buf = ctx.staged;
        queue.stage(&mut staged_buf, cfg, round + 1, &mut report)?;
    }

    report.rounds = round;
    // End-of-run capacity scan: `Vec` capacities never shrink, so this
    // is the run's true high-water mark.
    report.memory = MemoryReport {
        queue_bytes: queue.capacity_bytes(),
        inbox_bytes: inbox
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<Envelope<R::Msg>>())
            .sum::<usize>()
            + std::mem::size_of_val(inbox.as_slice()),
        rng_bytes: rngs.len() * std::mem::size_of::<rand::rngs::StdRng>(),
        staging_bytes: staged_buf.capacity() * std::mem::size_of::<(usize, R::Msg)>(),
    };
    Ok(report)
}

/// The receive phase of a plain [`Protocol`]: its `&mut self` handler
/// can couple nodes' states, so no backend may shard it — nodes are
/// visited in ascending order on the calling thread.
pub(crate) struct PlainReceive<'p, P>(pub(crate) &'p mut P);

impl<P: Protocol> ReceivePhase for PlainReceive<'_, P> {
    type Msg = P::Msg;

    fn start(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        self.0.start(ctx);
    }

    fn is_done(&self) -> bool {
        self.0.is_done()
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, P::Msg>) {
        self.0.on_round(ctx);
    }

    fn receive(
        &mut self,
        ctx: &mut Ctx<'_, P::Msg>,
        active: &[usize],
        inbox: &mut [Vec<Envelope<P::Msg>>],
        _delivered: u64,
    ) {
        for &node in active {
            self.0.on_receive(node, &inbox[node], ctx);
            inbox[node].clear(); // keep the allocation for next round
        }
    }
}
