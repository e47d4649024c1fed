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

use super::queue::{FlatQueue, Inboxes, LOAD_HISTOGRAM_BUCKETS};
use crate::engine::{EngineConfig, MemoryReport, RunError, RunReport};
use crate::message::{Envelope, Message};
use crate::protocol::{Ctx, Protocol};
use crate::rng::NodeRngs;
use drw_graph::Graph;
use std::any::Any;

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

/// What a run needs and the next run can use again: the per-node RNG
/// pool and the last run's queue, inboxes and staging buffer. A
/// [`crate::Runner`] owns one for its lifetime — across runs and across
/// [`crate::Runner::rebind`] — so a run starts by bumping a stamp and
/// clearing what the last one left, not by building `n` of anything;
/// the free `run_*` functions bring a fresh one.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    rngs: NodeRngs,
    /// The `Buffers<M>` of the last run's message type. A run of another
    /// type replaces them: a served walk is a chain of runs of one type,
    /// and a runner that kept every type's buffers would hold the *sum*
    /// of its runs' high-water marks where a fresh run holds one.
    typed: Option<Box<dyn Any + Send>>,
}

/// The typed part of a [`Scratch`].
struct Buffers<M> {
    queue: FlatQueue<M>,
    inbox: Inboxes<M>,
    staged: Vec<(usize, M)>,
}

impl Scratch {
    /// The RNG pool and `M`'s buffers, readied for a run on `graph`
    /// under `seed`.
    fn begin<M: Message>(&mut self, seed: u64, graph: &Graph) -> (&mut NodeRngs, &mut Buffers<M>) {
        let n = graph.n();
        self.rngs.rebind(seed, n);
        if !self.typed.as_ref().is_some_and(|b| b.is::<Buffers<M>>()) {
            self.typed = Some(Box::new(Buffers::<M> {
                queue: FlatQueue::default(),
                inbox: Inboxes::default(),
                staged: Vec::new(),
            }));
        }
        let buf = self.typed.as_mut().and_then(|b| b.downcast_mut());
        let buf: &mut Buffers<M> = buf.expect("ensured above");
        buf.queue.reset(graph.dir_edge_count());
        buf.inbox.reset(n);
        buf.staged.clear();
        (&mut self.rngs, buf)
    }
}

/// Drives `phase` to quiescence, [`ReceivePhase::is_done`] or the round
/// cap.
pub(crate) fn run_rounds<R: ReceivePhase>(
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    scratch: &mut Scratch,
    phase: &mut R,
) -> Result<RunReport, RunError> {
    let (rngs, buf) = scratch.begin::<R::Msg>(seed, graph);
    let Buffers {
        queue,
        inbox,
        staged,
    } = buf;
    let mut report = RunReport::default();
    if cfg.record_edge_loads {
        report.edge_load_histogram = vec![0; LOAD_HISTOGRAM_BUCKETS];
    }

    // Round 0: free local computation and initial sends.
    phase.start(&mut Ctx::with_staged(graph, 0, rngs, staged));
    queue.stage(staged, cfg, 1, &mut report)?;

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

        inbox.active.clear();
        let delivered = queue.deliver(graph, cfg, round, &mut report, inbox);
        inbox.active.sort_unstable();

        // One staging buffer, recycled across rounds: the hook's sends
        // first, then the nodes' in ascending node order.
        let mut ctx = Ctx::with_staged(graph, round, rngs, staged);
        phase.on_round(&mut ctx);
        phase.receive(&mut ctx, &inbox.active, &mut inbox.slots, delivered);
        queue.stage(staged, cfg, round + 1, &mut report)?;
    }

    report.rounds = round;
    // Capacities never shrink, so what the scratch holds now is its
    // high-water mark — over this run and the runner's earlier ones.
    report.memory = MemoryReport {
        queue_bytes: queue.capacity_bytes(),
        inbox_bytes: inbox.capacity_bytes(),
        rng_bytes: rngs.capacity_bytes(),
        staging_bytes: queue.run_capacity_bytes()
            + staged.capacity() * std::mem::size_of::<(usize, R::Msg)>(),
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
