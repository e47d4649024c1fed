//! The protocol trait and the per-round context handed to protocols.

use crate::message::{Envelope, Message};
use crate::rng::NodeRngs;
use drw_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// Execution context available to a protocol during one round.
///
/// Sends are staged here and moved onto the per-edge queues by the engine
/// at the end of the round; messages staged in round `r` are delivered at
/// the earliest in round `r + 1`.
pub struct Ctx<'a, M: Message> {
    pub(crate) graph: &'a Graph,
    pub(crate) round: u64,
    pub(crate) staged: &'a mut Vec<(usize, M)>, // (directed edge id, message)
    pub(crate) rngs: &'a mut NodeRngs,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// A context staging into `staged`, a drained buffer whose
    /// allocation the round loop recycles across all rounds.
    pub(crate) fn with_staged(
        graph: &'a Graph,
        round: u64,
        rngs: &'a mut NodeRngs,
        staged: &'a mut Vec<(usize, M)>,
    ) -> Self {
        debug_assert!(staged.is_empty(), "staging buffer handed over non-empty");
        Ctx {
            graph,
            round,
            staged,
            rngs,
        }
    }

    /// The network graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Current round number (0 during [`Protocol::start`]).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Stages a message from `from` to its neighbor `to`.
    ///
    /// # Panics
    ///
    /// Panics if `{from, to}` is not an edge of the graph — a protocol
    /// bug, since CONGEST communication happens only along edges.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let eid = self
            .graph
            .edge_id(from, to)
            .unwrap_or_else(|| panic!("protocol sent along non-edge {from} -> {to}"));
        self.staged.push((eid, msg));
    }

    /// The private RNG stream of `node`.
    #[inline]
    pub fn rng(&mut self, node: NodeId) -> &mut StdRng {
        self.rngs.node(node)
    }

    /// Sends `msg` from `node` to a uniformly random neighbor and returns
    /// that neighbor — one step of the simple random walk.
    #[inline]
    pub fn send_random_neighbor(&mut self, node: NodeId, msg: M) -> NodeId {
        self.send_random_neighbor_hop(node, msg).1
    }

    /// Like [`Ctx::send_random_neighbor`], but also returns the drawn
    /// neighbor *index* (the walk's hop). The index is a by-product of
    /// the draw and fits in far fewer bits than a node id — it is what
    /// compact forwarding logs store.
    #[inline]
    pub fn send_random_neighbor_hop(&mut self, node: NodeId, msg: M) -> (u32, NodeId) {
        let deg = self.graph.degree(node);
        assert!(deg > 0, "node {node} has no neighbors");
        let idx = self.rngs.node(node).random_range(0..deg);
        let eid = self.graph.nth_edge_id(node, idx);
        let to = self.graph.edge_target(eid);
        self.staged.push((eid, msg));
        (idx as u32, to)
    }
}

/// A distributed protocol in the CONGEST model.
///
/// The engine drives the protocol as follows:
///
/// 1. [`Protocol::start`] runs once (round 0, no messages in flight);
/// 2. each round, queued messages are delivered (at most
///    `edge_capacity` per directed edge), then [`Protocol::on_round`]
///    fires once globally, then [`Protocol::on_receive`] fires for every
///    node with a nonempty inbox (in ascending node order);
/// 3. the run ends when [`Protocol::is_done`] returns `true`, or when no
///    messages are queued or staged (quiescence).
///
/// Discipline: implementations must act node-locally inside
/// `on_receive` — decisions for `node` may depend only on `node`'s own
/// state, its inbox, and `ctx.rng(node)`.
pub trait Protocol {
    /// The message type of this protocol.
    type Msg: Message;

    /// Seeds the initial messages (round 0).
    fn start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Handles the messages delivered to `node` this round.
    fn on_receive(
        &mut self,
        node: NodeId,
        inbox: &[Envelope<Self::Msg>],
        ctx: &mut Ctx<'_, Self::Msg>,
    );

    /// Optional global hook, called once per round before deliveries are
    /// handed to nodes. Useful for drivers and instrumentation; must not
    /// be used to leak non-local information into node decisions.
    fn on_round(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Early-termination signal checked at the end of every round.
    fn is_done(&self) -> bool {
        false
    }
}
