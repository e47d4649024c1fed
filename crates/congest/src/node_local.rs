//! Node-sharded protocols: the opt-in API that unlocks the sharded
//! receive phase.
//!
//! A [`crate::Protocol`] receives `&mut self` in
//! [`crate::Protocol::on_receive`], so nothing stops an implementation
//! from coupling nodes' states — which is exactly why the engine cannot
//! shard it. A [`NodeLocalProtocol`] makes the CONGEST locality
//! discipline *structural*: per-node state lives in a `&mut [NodeState]`
//! slice, the per-node handler is an associated function that sees only
//! one node's state (plus immutable [`NodeLocalProtocol::Shared`] data
//! and a node-scoped [`NodeCtx`]), and the borrow checker now proves
//! what the docs used to merely request.
//!
//! Under [`crate::ExecutorKind::Sequential`] the same handlers run
//! inline in ascending node order, and both backends produce
//! **bit-identical** runs: per-node RNG streams are drawn in the same
//! per-node order, and staged sends are merged in (node, staging order)
//! — precisely the order the inline path produces naturally.

use crate::message::{Envelope, Message};
use crate::protocol::Ctx;
use drw_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// Execution context scoped to a single node during the receive phase.
///
/// The node-scoped analogue of [`Ctx`]: sends originate implicitly from
/// the context's node, and the only reachable RNG is the node's own
/// stream — so a handler *cannot* consume another node's randomness or
/// forge another node's messages.
pub struct NodeCtx<'a, M: Message> {
    pub(crate) graph: &'a Graph,
    pub(crate) round: u64,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) staged: &'a mut Vec<(usize, M)>,
}

impl<'a, M: Message> NodeCtx<'a, M> {
    pub(crate) fn new(
        graph: &'a Graph,
        round: u64,
        node: NodeId,
        rng: &'a mut StdRng,
        staged: &'a mut Vec<(usize, M)>,
    ) -> Self {
        NodeCtx {
            graph,
            round,
            node,
            rng,
            staged,
        }
    }

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

/// A CONGEST protocol whose receive phase is node-local *by
/// construction*, which is what lets [`crate::ExecutorKind::Sharded`]
/// cut it into shards.
///
/// Lifecycle (identical to [`crate::Protocol`], with the receive phase split
/// per node):
///
/// 1. [`NodeLocalProtocol::start`] runs once with the full [`Ctx`];
/// 2. each round, after delivery, [`NodeLocalProtocol::on_round`] runs
///    once globally, then [`NodeLocalProtocol::on_receive_local`] runs
///    for every node with a nonempty inbox — in any shard order, which
///    cannot change the result because the handler is an associated
///    function that can only reach one node's `NodeState`, the node's
///    own RNG stream, and the immutable `Shared` data — then
///    [`NodeLocalProtocol::after_receive`] runs once globally;
/// 3. quiescence and [`NodeLocalProtocol::is_done`] end the run.
pub trait NodeLocalProtocol {
    /// The message type.
    type Msg: Message;
    /// Immutable data every node handler may read during a round.
    type Shared;
    /// One node's private state.
    type NodeState;

    /// Seeds the initial messages (round 0, sequential).
    fn start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Optional global hook, once per round before the receive phase
    /// (sequential; must not leak non-local information into nodes).
    fn on_round(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Early-termination signal checked at the start of every round.
    fn is_done(&self) -> bool {
        false
    }

    /// Optional global hook, once per round after the receive phase
    /// (sequential, on every backend), with the nodes whose handlers
    /// just ran, ascending. It lets a protocol fold what those nodes
    /// recorded into run-level facts — a completion count, the set of
    /// nodes it has touched — at a cost of the round's receivers, not of
    /// `n`.
    fn after_receive(&mut self, _active: &[NodeId]) {}

    /// Splits the protocol into the round's immutable shared view and
    /// the per-node state slice (index = node id, length = `n`).
    fn parts(&mut self) -> (&Self::Shared, &mut [Self::NodeState]);

    /// Handles the messages delivered to `node` this round. Associated
    /// function (no `&self`): everything it may touch is in its
    /// arguments.
    fn on_receive_local(
        shared: &Self::Shared,
        state: &mut Self::NodeState,
        node: NodeId,
        inbox: &[Envelope<Self::Msg>],
        ctx: &mut NodeCtx<'_, Self::Msg>,
    );
}
