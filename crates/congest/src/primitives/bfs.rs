//! Distributed BFS-tree construction.
//!
//! This is Sweep 1 of the paper's `SAMPLE-DESTINATION` (Algorithm 3) and
//! the backbone of every tree-based primitive. Besides distances and
//! parents, every node learns its exact *children set* via a one-round
//! status handshake: upon fixing its parent, a node tells each neighbor
//! whether that neighbor is its parent. A node that has heard a status
//! from every neighbor knows its children conclusively — no global
//! knowledge of `D` required.

use crate::message::{Envelope, Message, WireReader, WireSink};
use crate::protocol::{Ctx, Protocol};
use drw_graph::NodeId;

/// BFS construction message: an optional wave level plus an optional
/// child-status bit, combined so each ordered pair of neighbors exchanges
/// exactly one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsMsg {
    /// BFS level of the sender (the receiver is at most `level + 1`).
    pub level: Option<u32>,
    /// `Some(true)` iff the receiver is the sender's parent.
    pub child_status: Option<bool>,
}

impl Message for BfsMsg {
    /// Each half is a presence tag and a word, absent or not: 2 words.
    fn encode(&self, w: &mut impl WireSink) {
        w.tag(self.level.is_some().into());
        w.word("level", self.level.map_or(0, u64::from));
        w.tag(self.child_status.is_some().into());
        w.word("child_status", self.child_status.map_or(0, u64::from));
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let level = r.flag()?.then_some(r.read()?);
        let child_status = r.flag()?.then_some(r.flag()?);
        Some(BfsMsg {
            level,
            child_status,
        })
    }
}

/// The result of a BFS-tree construction: the union of every node's local
/// knowledge (its own distance, parent and children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsTree {
    /// The root node.
    pub root: NodeId,
    /// BFS distance from the root.
    pub dist: Vec<u32>,
    /// Tree parent (`None` for the root).
    pub parent: Vec<Option<NodeId>>,
    /// Tree children, sorted ascending.
    pub children: Vec<Vec<NodeId>>,
}

impl BfsTree {
    /// Height of the tree (largest distance).
    pub fn depth(&self) -> u32 {
        self.dist.iter().copied().max().unwrap_or(0)
    }
}

/// Builds a BFS tree rooted at a given node. Finishes in `O(D)` rounds.
///
/// # Example
///
/// ```
/// use drw_congest::{primitives::BfsTreeProtocol, run_protocol, EngineConfig};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_congest::RunError> {
/// let g = generators::path(5);
/// let mut p = BfsTreeProtocol::new(2);
/// run_protocol(&g, &EngineConfig::default(), 0, &mut p)?;
/// let tree = p.into_tree();
/// assert_eq!(tree.dist, vec![2, 1, 0, 1, 2]);
/// assert_eq!(tree.children[2], vec![1, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BfsTreeProtocol {
    root: NodeId,
    dist: Vec<u32>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

const UNSET: u32 = u32::MAX;

impl BfsTreeProtocol {
    /// Creates the protocol for a given root.
    pub fn new(root: NodeId) -> Self {
        BfsTreeProtocol {
            root,
            dist: Vec::new(),
            parent: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Extracts the constructed tree.
    ///
    /// # Panics
    ///
    /// Panics if the protocol has not run, or if some node was never
    /// reached (disconnected graph).
    pub fn into_tree(mut self) -> BfsTree {
        assert!(!self.dist.is_empty(), "protocol has not run");
        assert!(
            self.dist.iter().all(|&d| d != UNSET),
            "BFS did not reach every node; is the graph connected?"
        );
        for c in &mut self.children {
            c.sort_unstable();
        }
        BfsTree {
            root: self.root,
            dist: self.dist,
            parent: self.parent,
            children: self.children,
        }
    }
}

impl Protocol for BfsTreeProtocol {
    type Msg = BfsMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, BfsMsg>) {
        let n = ctx.graph().n();
        assert!(self.root < n, "root out of range");
        self.dist = vec![UNSET; n];
        self.parent = vec![None; n];
        self.children = vec![Vec::new(); n];
        self.dist[self.root] = 0;
        // The root is nobody's child: level wave plus negative status.
        for v in ctx.graph().neighbors(self.root).collect::<Vec<_>>() {
            ctx.send(
                self.root,
                v,
                BfsMsg {
                    level: Some(0),
                    child_status: Some(false),
                },
            );
        }
    }

    fn on_receive(&mut self, node: NodeId, inbox: &[Envelope<BfsMsg>], ctx: &mut Ctx<'_, BfsMsg>) {
        // Record child statuses.
        for env in inbox {
            if env.msg.child_status == Some(true) {
                self.children[node].push(env.from);
            }
        }
        if self.dist[node] != UNSET {
            return; // level already fixed; statuses were all we needed
        }
        // Adopt the smallest advertised level; tie-break on sender id so
        // runs are deterministic.
        let best = inbox
            .iter()
            .filter_map(|env| env.msg.level.map(|l| (l, env.from)))
            .min();
        let Some((level, parent)) = best else {
            return; // stray statuses can arrive before the wave
        };
        self.dist[node] = level + 1;
        self.parent[node] = Some(parent);
        for v in ctx.graph().neighbors(node).collect::<Vec<_>>() {
            ctx.send(
                node,
                v,
                BfsMsg {
                    level: Some(level + 1),
                    child_status: Some(v == parent),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_protocol, EngineConfig};
    use drw_graph::{generators, traversal};

    fn build(g: &drw_graph::Graph, root: NodeId) -> (BfsTree, u64) {
        let mut p = BfsTreeProtocol::new(root);
        let report = run_protocol(g, &EngineConfig::default(), 0, &mut p).unwrap();
        (p.into_tree(), report.rounds)
    }

    #[test]
    fn distances_match_centralized_bfs() {
        for g in [
            generators::path(9),
            generators::torus2d(4, 5),
            generators::star(8),
            generators::binary_tree(15),
        ] {
            for root in [0, g.n() / 2, g.n() - 1] {
                let (tree, _) = build(&g, root);
                let expected = traversal::bfs_distances(&g, root);
                assert_eq!(tree.dist, expected);
            }
        }
    }

    #[test]
    fn parents_and_children_are_consistent() {
        let g = generators::torus2d(5, 5);
        let (tree, _) = build(&g, 7);
        assert_eq!(tree.parent[7], None);
        let mut child_count = 0;
        for v in 0..g.n() {
            if let Some(p) = tree.parent[v] {
                assert!(g.has_edge(p, v));
                assert_eq!(tree.dist[p] + 1, tree.dist[v]);
                assert!(
                    tree.children[p].contains(&v),
                    "parent {p} must list child {v}"
                );
                child_count += 1;
            }
        }
        // Every non-root has exactly one parent; children lists partition them.
        assert_eq!(child_count, g.n() - 1);
        let total_children: usize = tree.children.iter().map(|c| c.len()).sum();
        assert_eq!(total_children, g.n() - 1);
    }

    #[test]
    fn rounds_are_linear_in_depth() {
        let g = generators::path(64);
        let (tree, rounds) = build(&g, 0);
        assert_eq!(tree.depth(), 63);
        // depth + status settling, with a small constant.
        assert!((63..=66).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn depth_is_eccentricity() {
        let g = generators::torus2d(4, 7);
        let (tree, _) = build(&g, 3);
        assert_eq!(tree.depth() as usize, traversal::eccentricity(&g, 3));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_graph_panics_on_extract() {
        let g = drw_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut p = BfsTreeProtocol::new(0);
        run_protocol(&g, &EngineConfig::default(), 0, &mut p).unwrap();
        let _ = p.into_tree();
    }
}
