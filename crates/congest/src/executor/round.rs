//! The round loop: what one synchronous CONGEST round *is*.
//!
//! Every run goes through [`run_rounds`]: deliver at most
//! `edge_capacity` messages per directed edge, fire the global
//! `on_round` hook, run the receive handlers of the nodes that got mail
//! in ascending node order, stage the resulting sends for the next
//! round. The interleaving checker is the one variation: it hands the
//! loop a [`Scripted`] receive, which runs the same handlers in a
//! scripted order and appends their sends in ascending node order.

use super::queue::{FlatQueue, Inboxes};
use super::scripted::Scripted;
use crate::engine::{EngineConfig, RunError, RunReport};
use crate::message::{Envelope, Message};
use crate::protocol::{Ctx, Protocol};
use crate::rng::NodeRngs;
use drw_graph::Graph;
use std::any::Any;

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

/// Drives `protocol` to quiescence, [`Protocol::is_done`] or the round
/// cap. `script`, the interleaving checker's hook, replaces the
/// ascending-order receive; every other run passes `None`.
pub(crate) fn run_rounds<P: Protocol>(
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    scratch: &mut Scratch,
    protocol: &mut P,
    mut script: Option<&mut Scripted<'_, P::Msg>>,
) -> Result<RunReport, RunError> {
    let (rngs, buf) = scratch.begin::<P::Msg>(seed, graph);
    let Buffers {
        queue,
        inbox,
        staged,
    } = buf;
    let mut report = RunReport::default();

    // Round 0: free local computation and initial sends.
    protocol.start(&mut Ctx::with_staged(graph, 0, rngs, staged));
    queue.stage(staged, cfg, 1, &mut report)?;

    let mut round: u64 = 0;
    // Quiescence is `is_idle`, not queue emptiness: the fault layer
    // may hold delayed/retransmitted messages for future rounds
    // while the current queue is empty — such rounds deliver
    // nothing but still pass (and are billed).
    while !queue.is_idle() {
        if protocol.is_done() {
            break;
        }
        round += 1;
        if round > cfg.max_rounds {
            return Err(RunError::MaxRoundsExceeded(cfg.max_rounds));
        }

        inbox.active.clear();
        queue.deliver(graph, cfg, round, &mut report, inbox);
        inbox.active.sort_unstable();

        // One staging buffer, recycled across rounds: the hook's sends
        // first, then the nodes' in ascending node order.
        let mut ctx = Ctx::with_staged(graph, round, rngs, staged);
        protocol.on_round(&mut ctx);
        let (active, slots) = (&inbox.active[..], &mut inbox.slots[..]);
        match script.as_deref_mut() {
            None => receive_in_order(protocol, &mut ctx, active, slots),
            Some(script) => script.receive(protocol, &mut ctx, active, slots),
        }
        queue.stage(staged, cfg, round + 1, &mut report)?;
    }

    report.rounds = round;
    Ok(report)
}

/// Runs the receive handler of every node in `nodes` (ascending,
/// deduplicated) against its inbox, leaving the inbox empty.
pub(crate) fn receive_in_order<P: Protocol>(
    protocol: &mut P,
    ctx: &mut Ctx<'_, P::Msg>,
    nodes: &[usize],
    inbox: &mut [Vec<Envelope<P::Msg>>],
) {
    for &node in nodes {
        protocol.on_receive(node, &inbox[node], ctx);
        inbox[node].clear(); // keep the allocation for next round
    }
}
