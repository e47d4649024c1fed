//! Pipelined upcast: collect many small items at the root.
//!
//! The paper invokes "the standard upcast technique" (e.g. Peleg, 2000)
//! to ship `k` items to a root in `O(D + k)` rounds: items flow up the
//! BFS tree, one per edge per round, pipelined so the depth is paid only
//! once. Section 4.2 uses this to deliver walk samples and bucket counts
//! to the source.

use super::bfs::BfsTree;
use crate::message::{Envelope, Message, WireReader, WireSink};
use crate::protocol::{Ctx, Protocol};
use drw_graph::NodeId;

/// One collected item: a pair of `O(log n)`-bit words (e.g. a node id and
/// an associated count).
pub type UpcastItem = (u64, u64);

/// An item in flight toward the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpcastMsg(pub UpcastItem);

impl Message for UpcastMsg {
    fn encode(&self, w: &mut impl WireSink) {
        w.word("key", self.0 .0);
        w.word("value", self.0 .1);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(UpcastMsg((r.read()?, r.read()?)))
    }
}

/// Collects all items held by all nodes at the root of a BFS tree,
/// pipelined: `O(depth + total items)` rounds.
///
/// # Example
///
/// ```
/// use drw_congest::{primitives::{BfsTreeProtocol, UpcastProtocol}, run_protocol, EngineConfig};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_congest::RunError> {
/// let g = generators::path(4);
/// let mut bfs = BfsTreeProtocol::new(0);
/// run_protocol(&g, &EngineConfig::default(), 0, &mut bfs)?;
/// let items = vec![vec![], vec![(1, 10)], vec![], vec![(3, 30), (3, 31)]];
/// let mut up = UpcastProtocol::new(bfs.into_tree(), items);
/// run_protocol(&g, &EngineConfig::default(), 0, &mut up)?;
/// let mut got = up.collected().to_vec();
/// got.sort_unstable();
/// assert_eq!(got, vec![(1, 10), (3, 30), (3, 31)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct UpcastProtocol {
    tree: BfsTree,
    pending: Vec<std::collections::VecDeque<UpcastItem>>,
    last_sent_round: Vec<u64>,
    collected: Vec<UpcastItem>,
}

const NEVER: u64 = u64::MAX;

impl UpcastProtocol {
    /// Creates an upcast of `items` (a list per node).
    ///
    /// # Panics
    ///
    /// Panics if `items.len()` differs from the tree size.
    pub fn new(tree: BfsTree, items: Vec<Vec<UpcastItem>>) -> Self {
        assert_eq!(
            items.len(),
            tree.dist.len(),
            "one item list per node required"
        );
        let n = items.len();
        let pending = items.into_iter().map(Into::into).collect();
        UpcastProtocol {
            tree,
            pending,
            last_sent_round: vec![NEVER; n],
            collected: Vec::new(),
        }
    }

    /// Items gathered at the root (in arrival order; ties in node order).
    pub fn collected(&self) -> &[UpcastItem] {
        &self.collected
    }

    /// Forwards one pending item toward the root, at most once per node
    /// per round (the CONGEST budget for the parent edge).
    fn pump_node(&mut self, node: NodeId, ctx: &mut Ctx<'_, UpcastMsg>) {
        if self.pending[node].is_empty() {
            return;
        }
        match self.tree.parent[node] {
            Some(p) => {
                if self.last_sent_round[node] == ctx.round() {
                    return;
                }
                let item = self.pending[node].pop_front().expect("nonempty queue");
                ctx.send(node, p, UpcastMsg(item));
                self.last_sent_round[node] = ctx.round();
            }
            None => {
                // Root: everything pending is already collected.
                self.collected.extend(self.pending[node].drain(..));
            }
        }
    }

    fn pump_all(&mut self, ctx: &mut Ctx<'_, UpcastMsg>) {
        for node in 0..self.pending.len() {
            self.pump_node(node, ctx);
        }
    }
}

impl Protocol for UpcastProtocol {
    type Msg = UpcastMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, UpcastMsg>) {
        assert_eq!(
            self.tree.dist.len(),
            ctx.graph().n(),
            "tree does not match graph"
        );
        self.pump_all(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, UpcastMsg>) {
        self.pump_all(ctx);
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        inbox: &[Envelope<UpcastMsg>],
        ctx: &mut Ctx<'_, UpcastMsg>,
    ) {
        if self.tree.parent[node].is_none() {
            self.collected.extend(inbox.iter().map(|e| e.msg.0));
        } else {
            self.pending[node].extend(inbox.iter().map(|e| e.msg.0));
            // Forward immediately if this round's send budget is unused,
            // so a relay chain advances one hop per round.
            self.pump_node(node, ctx);
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
    fn collects_everything_exactly_once() {
        let g = generators::torus2d(4, 4);
        let items: Vec<Vec<UpcastItem>> = (0..g.n())
            .map(|v| (0..v % 3).map(|i| (v as u64, i as u64)).collect())
            .collect();
        let expected: usize = items.iter().map(|x| x.len()).sum();
        let mut up = UpcastProtocol::new(tree_of(&g, 0), items.clone());
        run_protocol(&g, &EngineConfig::default(), 0, &mut up).unwrap();
        let mut got = up.collected().to_vec();
        got.sort_unstable();
        let mut want: Vec<UpcastItem> = items.into_iter().flatten().collect();
        want.sort_unstable();
        assert_eq!(got.len(), expected);
        assert_eq!(got, want);
    }

    #[test]
    fn pipelining_pays_depth_once() {
        // k items at the far end of a path of depth d: ~ d + k rounds, not d*k.
        let d = 30usize;
        let k = 20usize;
        let g = generators::path(d + 1);
        let mut items = vec![Vec::new(); g.n()];
        items[d] = (0..k as u64).map(|i| (d as u64, i)).collect();
        let mut up = UpcastProtocol::new(tree_of(&g, 0), items);
        let report = run_protocol(&g, &EngineConfig::default(), 0, &mut up).unwrap();
        assert_eq!(up.collected().len(), k);
        let rounds = report.rounds as usize;
        assert!(
            rounds >= d + k - 1 && rounds <= d + k + 1,
            "rounds = {rounds}"
        );
    }

    #[test]
    fn root_items_need_no_rounds() {
        let g = generators::path(3);
        let mut items = vec![Vec::new(); 3];
        items[0] = vec![(0, 1), (0, 2)];
        let mut up = UpcastProtocol::new(tree_of(&g, 0), items);
        let report = run_protocol(&g, &EngineConfig::default(), 0, &mut up).unwrap();
        assert_eq!(up.collected().len(), 2);
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn empty_upcast_is_quiescent() {
        let g = generators::path(3);
        let mut up = UpcastProtocol::new(tree_of(&g, 0), vec![Vec::new(); 3]);
        let report = run_protocol(&g, &EngineConfig::default(), 0, &mut up).unwrap();
        assert!(up.collected().is_empty());
        assert_eq!(report.rounds, 0);
    }
}
