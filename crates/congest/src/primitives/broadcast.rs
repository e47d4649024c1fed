//! Tree broadcast: flood a small payload from the root to every node.

use super::bfs::BfsTree;
use crate::message::{Envelope, Message, WireReader, WireSink};
use crate::protocol::{Ctx, Protocol};
use drw_graph::NodeId;

/// A broadcast payload: a handful of `O(log n)`-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastMsg(pub Vec<u64>);

impl Message for BroadcastMsg {
    /// One word per item; the length is a tag, bounded by the word cap.
    fn encode(&self, w: &mut impl WireSink) {
        w.tag(self.0.len() as u64);
        self.0.iter().for_each(|&item| w.word("item", item));
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let len: usize = r.read()?;
        let items = (0..len).map(|_| r.read()).collect::<Option<_>>()?;
        Some(BroadcastMsg(items))
    }
}

/// Floods `payload` from the tree root down to every node in
/// `O(depth)` rounds. After the run, [`BroadcastProtocol::received`]
/// holds the payload for every node.
///
/// This is Sweep 3 of `SAMPLE-DESTINATION`: the root announces the chosen
/// (owner, walk) pair so the owner can delete the used token.
#[derive(Debug)]
pub struct BroadcastProtocol {
    tree: BfsTree,
    payload: Vec<u64>,
    /// Payload as received by each node (`None` until it arrives).
    pub received: Vec<Option<Vec<u64>>>,
}

impl BroadcastProtocol {
    /// Creates a broadcast of `payload` over `tree`.
    pub fn new(tree: BfsTree, payload: Vec<u64>) -> Self {
        BroadcastProtocol {
            tree,
            payload,
            received: Vec::new(),
        }
    }
}

impl Protocol for BroadcastProtocol {
    type Msg = BroadcastMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, BroadcastMsg>) {
        let n = ctx.graph().n();
        self.received = vec![None; n];
        let root = self.tree.root;
        self.received[root] = Some(self.payload.clone());
        for &c in &self.tree.children[root] {
            ctx.send(root, c, BroadcastMsg(self.payload.clone()));
        }
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        inbox: &[Envelope<BroadcastMsg>],
        ctx: &mut Ctx<'_, BroadcastMsg>,
    ) {
        let msg = &inbox[0].msg;
        if self.received[node].is_some() {
            return;
        }
        self.received[node] = Some(msg.0.clone());
        for &c in &self.tree.children[node] {
            ctx.send(node, c, msg.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_protocol, EngineConfig};
    use crate::primitives::BfsTreeProtocol;
    use drw_graph::generators;

    fn tree_of(g: &drw_graph::Graph, root: usize) -> BfsTree {
        let mut p = BfsTreeProtocol::new(root);
        run_protocol(g, &EngineConfig::default(), 0, &mut p).unwrap();
        p.into_tree()
    }

    #[test]
    fn everyone_receives_the_payload() {
        let g = generators::torus2d(4, 4);
        let tree = tree_of(&g, 5);
        let mut b = BroadcastProtocol::new(tree, vec![42, 7]);
        let report = run_protocol(&g, &EngineConfig::default(), 0, &mut b).unwrap();
        for v in 0..g.n() {
            assert_eq!(b.received[v].as_deref(), Some(&[42u64, 7][..]));
        }
        assert!(report.rounds <= 6, "rounds = {}", report.rounds);
    }

    #[test]
    fn rounds_equal_tree_depth() {
        let g = generators::path(20);
        let tree = tree_of(&g, 0);
        let depth = tree.depth() as u64;
        let mut b = BroadcastProtocol::new(tree, vec![1]);
        let report = run_protocol(&g, &EngineConfig::default(), 0, &mut b).unwrap();
        assert_eq!(report.rounds, depth);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let g = generators::path(3);
        let tree = tree_of(&g, 0);
        let mut b = BroadcastProtocol::new(tree, vec![0; 10]);
        let err = run_protocol(&g, &EngineConfig::default(), 0, &mut b).unwrap_err();
        assert!(matches!(err, crate::RunError::OversizedMessage { .. }));
    }
}
