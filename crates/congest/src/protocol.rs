//! The protocol trait and the per-round contexts handed to protocols.

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
        // Not delegated to `NodeCtx`: a second caller of its copy keeps
        // the compiler from inlining it into the Phase-1 token step.
        let deg = self.graph.degree(node);
        assert!(deg > 0, "node {node} has no neighbors");
        let idx = self.rngs.node(node).random_range(0..deg);
        let eid = self.graph.nth_edge_id(node, idx);
        let to = self.graph.edge_target(eid);
        self.staged.push((eid, msg));
        (idx as u32, to)
    }

    /// The view of this context scoped to `node`: sends leave from
    /// `node`, and the only reachable RNG is `node`'s own stream.
    #[inline]
    pub fn at(&mut self, node: NodeId) -> NodeCtx<'_, M> {
        NodeCtx {
            graph: self.graph,
            round: self.round,
            node,
            rng: self.rngs.node(node),
            staged: self.staged,
        }
    }
}

/// A [`Ctx`] scoped to one node ([`Ctx::at`]).
///
/// Sends originate implicitly from the context's node, and the only
/// reachable RNG is the node's own stream — so a handler written against
/// it *cannot* consume another node's randomness or forge another node's
/// messages.
pub struct NodeCtx<'a, M: Message> {
    graph: &'a Graph,
    round: u64,
    node: NodeId,
    rng: &'a mut StdRng,
    staged: &'a mut Vec<(usize, M)>,
}

impl<M: Message> NodeCtx<'_, M> {
    /// The network graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The node this context acts for.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's private RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Stages a message from this node to its neighbor `to`.
    ///
    /// # Panics
    ///
    /// Panics if `{node, to}` is not an edge of the graph.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M) {
        let node = self.node;
        let eid = self
            .graph
            .edge_id(node, to)
            .unwrap_or_else(|| panic!("protocol sent along non-edge {node} -> {to}"));
        self.staged.push((eid, msg));
    }

    /// Sends `msg` to a uniformly random neighbor of this node and
    /// returns that neighbor — one step of the simple random walk.
    ///
    /// # Panics
    ///
    /// Panics if the node has no neighbors.
    #[inline]
    pub fn send_random_neighbor(&mut self, msg: M) -> NodeId {
        self.send_random_neighbor_hop(msg).1
    }

    /// Like [`NodeCtx::send_random_neighbor`], but also returns the drawn
    /// neighbor *index* (the walk's hop) — the compact token forwarding
    /// logs store instead of a full node id.
    ///
    /// # Panics
    ///
    /// Panics if the node has no neighbors.
    #[inline]
    pub fn send_random_neighbor_hop(&mut self, msg: M) -> (u32, NodeId) {
        let node = self.node;
        let deg = self.graph.degree(node);
        assert!(deg > 0, "node {node} has no neighbors");
        let idx = self.rng.random_range(0..deg);
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
/// state, its inbox, and `ctx.rng(node)`; handlers that take
/// [`Ctx::at`]`(node)` can reach nothing else of the context. The
/// interleaving checker ([`crate::run_scripted`]) measures the
/// discipline: it runs the handlers of a round in scripted orders and
/// demands the result of ascending order.
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

    /// Early-termination signal checked at the start of every round.
    fn is_done(&self) -> bool {
        false
    }
}
