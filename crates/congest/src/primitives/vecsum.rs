//! Pipelined vector convergecast: sum a `B`-bucket vector of counters at
//! the root in `O(depth + B)` rounds.
//!
//! Used by the mixing-time estimator (Section 4.2) to collect exact
//! bucket masses of the stationary distribution: every node contributes
//! an indicator/count vector, and bucket `j`'s total can flow upward as
//! soon as all children have reported bucket `j` — buckets pipeline
//! behind each other, so the depth is paid once, not per bucket.

use super::bfs::BfsTree;
use crate::message::{Envelope, Message, WireReader, WireSink};
use crate::protocol::{Ctx, Protocol};
use drw_graph::NodeId;

/// One bucket's partial sum travelling up the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecSumMsg {
    /// Bucket index.
    pub bucket: u64,
    /// Partial sum of the sender's subtree for this bucket.
    pub sum: u64,
}

impl Message for VecSumMsg {
    fn encode(&self, w: &mut impl WireSink) {
        w.word("bucket", self.bucket);
        w.word("sum", self.sum);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(VecSumMsg {
            bucket: r.read()?,
            sum: r.read()?,
        })
    }
}

/// Sums per-node `B`-bucket vectors at the root of a BFS tree, pipelined.
///
/// # Example
///
/// ```
/// use drw_congest::{primitives::{BfsTreeProtocol, VectorSumProtocol}, run_protocol, EngineConfig};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_congest::RunError> {
/// let g = generators::path(4);
/// let mut bfs = BfsTreeProtocol::new(0);
/// run_protocol(&g, &EngineConfig::default(), 0, &mut bfs)?;
/// // Node v contributes 1 to bucket v % 2.
/// let values: Vec<Vec<u64>> = (0..4).map(|v| {
///     let mut row = vec![0u64; 2];
///     row[v % 2] = 1;
///     row
/// }).collect();
/// let mut vs = VectorSumProtocol::new(bfs.into_tree(), values);
/// run_protocol(&g, &EngineConfig::default(), 0, &mut vs)?;
/// assert_eq!(vs.result(), &[2, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct VectorSumProtocol {
    tree: BfsTree,
    buckets: usize,
    acc: Vec<Vec<u64>>,
    received: Vec<Vec<usize>>,
    next_send: Vec<usize>,
    last_sent_round: Vec<u64>,
}

const NEVER: u64 = u64::MAX;

impl VectorSumProtocol {
    /// Creates the protocol from one `B`-vector per node (all the same
    /// length).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the tree size or the rows
    /// have inconsistent lengths.
    pub fn new(tree: BfsTree, values: Vec<Vec<u64>>) -> Self {
        assert_eq!(
            values.len(),
            tree.dist.len(),
            "one vector per node required"
        );
        let buckets = values.first().map(|r| r.len()).unwrap_or(0);
        assert!(
            values.iter().all(|r| r.len() == buckets),
            "all vectors must have the same length"
        );
        let n = values.len();
        VectorSumProtocol {
            tree,
            buckets,
            acc: values,
            received: vec![vec![0; buckets]; n],
            next_send: vec![0; n],
            last_sent_round: vec![NEVER; n],
        }
    }

    /// The summed vector at the root.
    ///
    /// # Panics
    ///
    /// Panics if the protocol has not completed.
    pub fn result(&self) -> &[u64] {
        let root = self.tree.root;
        assert!(
            self.root_complete(),
            "vector convergecast has not completed"
        );
        &self.acc[root]
    }

    fn root_complete(&self) -> bool {
        let root = self.tree.root;
        let kids = self.tree.children[root].len();
        self.received[root].iter().all(|&r| r == kids)
    }

    /// A node may ship bucket `j` once all children have reported their
    /// bucket-`j` sums; at most one bucket per round (the parent-edge
    /// budget).
    fn pump_node(&mut self, node: NodeId, ctx: &mut Ctx<'_, VecSumMsg>) {
        let Some(parent) = self.tree.parent[node] else {
            return;
        };
        if self.last_sent_round[node] == ctx.round() {
            return;
        }
        let j = self.next_send[node];
        if j >= self.buckets || self.received[node][j] < self.tree.children[node].len() {
            return;
        }
        ctx.send(
            node,
            parent,
            VecSumMsg {
                bucket: j as u64,
                sum: self.acc[node][j],
            },
        );
        self.next_send[node] = j + 1;
        self.last_sent_round[node] = ctx.round();
    }

    fn pump_all(&mut self, ctx: &mut Ctx<'_, VecSumMsg>) {
        for node in 0..self.acc.len() {
            self.pump_node(node, ctx);
        }
    }
}

impl Protocol for VectorSumProtocol {
    type Msg = VecSumMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, VecSumMsg>) {
        assert_eq!(
            self.tree.dist.len(),
            ctx.graph().n(),
            "tree does not match graph"
        );
        self.pump_all(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, VecSumMsg>) {
        self.pump_all(ctx);
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        inbox: &[Envelope<VecSumMsg>],
        ctx: &mut Ctx<'_, VecSumMsg>,
    ) {
        for env in inbox {
            let j = env.msg.bucket as usize;
            self.acc[node][j] += env.msg.sum;
            self.received[node][j] += 1;
        }
        self.pump_node(node, ctx);
    }

    fn is_done(&self) -> bool {
        self.root_complete()
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
    fn sums_match_centralized() {
        let g = generators::torus2d(4, 5);
        let b = 7usize;
        let values: Vec<Vec<u64>> = (0..g.n())
            .map(|v| (0..b).map(|j| ((v * j) % 5) as u64).collect())
            .collect();
        let mut expected = vec![0u64; b];
        for row in &values {
            for (j, &x) in row.iter().enumerate() {
                expected[j] += x;
            }
        }
        let mut vs = VectorSumProtocol::new(tree_of(&g, 0), values);
        run_protocol(&g, &EngineConfig::default(), 0, &mut vs).unwrap();
        assert_eq!(vs.result(), &expected[..]);
    }

    #[test]
    fn rounds_are_depth_plus_buckets() {
        let d = 25usize;
        let b = 15usize;
        let g = generators::path(d + 1);
        let values: Vec<Vec<u64>> = (0..g.n()).map(|v| vec![v as u64; b]).collect();
        let mut vs = VectorSumProtocol::new(tree_of(&g, 0), values);
        let report = run_protocol(&g, &EngineConfig::default(), 0, &mut vs).unwrap();
        let rounds = report.rounds as usize;
        assert!(
            rounds >= d && rounds <= d + b + 2,
            "rounds = {rounds}, depth = {d}, buckets = {b}"
        );
    }

    #[test]
    fn zero_buckets_complete_immediately() {
        let g = generators::path(3);
        let mut vs = VectorSumProtocol::new(tree_of(&g, 0), vec![vec![]; 3]);
        let report = run_protocol(&g, &EngineConfig::default(), 0, &mut vs).unwrap();
        assert_eq!(report.rounds, 0);
        assert!(vs.result().is_empty());
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn inconsistent_rows_panic() {
        let g = generators::path(2);
        let _ = VectorSumProtocol::new(tree_of(&g, 0), vec![vec![1], vec![1, 2]]);
    }
}
