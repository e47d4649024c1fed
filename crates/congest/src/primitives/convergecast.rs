//! Tree convergecast: aggregate one `u64` per node at the root.

use super::bfs::BfsTree;
use crate::message::{Envelope, FracBits, Message};
use crate::protocol::{Ctx, Protocol};
use drw_graph::NodeId;

/// Aggregation operator for [`ConvergecastProtocol`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of all values (e.g. total token count, degree sum `2m`).
    Sum,
    /// Minimum (use with 0/1 values for a logical AND, e.g. "all covered").
    Min,
    /// Maximum (use with 0/1 values for a logical OR).
    Max,
}

impl AggOp {
    fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a + b,
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }
}

/// A partial aggregate travelling up the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergecastMsg {
    /// The partial aggregate (one word).
    pub value: u64,
    /// Fixed-point precision of `value`, when the instance aggregates
    /// scaled reals (see [`ConvergecastProtocol::fixed_point`]). A
    /// [`FracBits`] model annotation: statically known to every node,
    /// zero wire cost, consumed by the value census.
    pub frac: FracBits,
}

impl Message for ConvergecastMsg {
    fn census(&self, census: &mut crate::message::WireCensus) {
        let _ = census
            .record("ConvergecastMsg", self.size_words())
            .field_fixed("value", self.value, self.frac.0);
    }
}

/// Aggregates one `u64` per node at the root of a BFS tree in
/// `O(depth)` rounds: leaves send immediately; every internal node waits
/// for all of its children, folds their values into its own, and forwards
/// the result to its parent.
///
/// # Example
///
/// ```
/// use drw_congest::{primitives::{AggOp, BfsTreeProtocol, ConvergecastProtocol}, run_protocol, EngineConfig};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_congest::RunError> {
/// let g = generators::torus2d(4, 4);
/// let mut bfs = BfsTreeProtocol::new(0);
/// run_protocol(&g, &EngineConfig::default(), 0, &mut bfs)?;
/// // Sum of degrees = 2m.
/// let degrees: Vec<u64> = (0..g.n()).map(|v| g.degree(v) as u64).collect();
/// let tree = bfs.into_tree();
/// let mut cc = ConvergecastProtocol::new(&tree, AggOp::Sum, degrees);
/// run_protocol(&g, &EngineConfig::default(), 0, &mut cc)?;
/// assert_eq!(cc.result(), 2 * g.m() as u64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConvergecastProtocol<'t> {
    tree: &'t BfsTree,
    op: AggOp,
    acc: Vec<u64>,
    waiting: Vec<usize>,
    result: Option<u64>,
    frac: FracBits,
}

impl<'t> ConvergecastProtocol<'t> {
    /// Creates a convergecast of `values` (one per node) under `op`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the tree size.
    pub fn new(tree: &'t BfsTree, op: AggOp, values: Vec<u64>) -> Self {
        assert_eq!(values.len(), tree.dist.len(), "one value per node required");
        ConvergecastProtocol {
            tree,
            op,
            acc: values,
            waiting: Vec::new(),
            result: None,
            frac: FracBits(0),
        }
    }

    /// Declares the aggregated values as fixed-point reals whose low
    /// `frac_bits` bits are precision, not magnitude. This is a static
    /// model annotation (both endpoints know the scale; it costs no
    /// wire words) that the runtime value census uses to price the
    /// aggregate under the `O(log n)` wire-value law.
    #[must_use]
    pub fn fixed_point(mut self, frac_bits: u32) -> Self {
        self.frac = FracBits(frac_bits);
        self
    }

    /// The aggregate at the root.
    ///
    /// # Panics
    ///
    /// Panics if the protocol has not completed.
    pub fn result(&self) -> u64 {
        self.result.expect("convergecast has not completed")
    }

    fn send_if_ready(&mut self, node: NodeId, ctx: &mut Ctx<'_, ConvergecastMsg>) {
        if self.waiting[node] > 0 {
            return;
        }
        match self.tree.parent[node] {
            Some(p) => ctx.send(
                node,
                p,
                ConvergecastMsg {
                    value: self.acc[node],
                    frac: self.frac,
                },
            ),
            None => self.result = Some(self.acc[node]),
        }
    }
}

impl Protocol for ConvergecastProtocol<'_> {
    type Msg = ConvergecastMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, ConvergecastMsg>) {
        let n = ctx.graph().n();
        assert_eq!(self.tree.dist.len(), n, "tree does not match graph");
        self.waiting = (0..n).map(|v| self.tree.children[v].len()).collect();
        // Leaves fire immediately; a single-node tree resolves here too.
        for node in 0..n {
            self.send_if_ready(node, ctx);
        }
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        inbox: &[Envelope<ConvergecastMsg>],
        ctx: &mut Ctx<'_, ConvergecastMsg>,
    ) {
        for env in inbox {
            self.acc[node] = self.op.combine(self.acc[node], env.msg.value);
            self.waiting[node] -= 1;
        }
        self.send_if_ready(node, ctx);
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

    fn run_cc(g: &drw_graph::Graph, root: usize, op: AggOp, values: Vec<u64>) -> (u64, u64) {
        let tree = tree_of(g, root);
        let mut cc = ConvergecastProtocol::new(&tree, op, values);
        let report = run_protocol(g, &EngineConfig::default(), 0, &mut cc).unwrap();
        (cc.result(), report.rounds)
    }

    #[test]
    fn sum_counts_nodes() {
        for g in [
            generators::path(10),
            generators::torus2d(4, 6),
            generators::star(9),
        ] {
            let (sum, _) = run_cc(&g, 0, AggOp::Sum, vec![1; g.n()]);
            assert_eq!(sum, g.n() as u64);
        }
    }

    #[test]
    fn min_max() {
        let g = generators::path(6);
        let vals = vec![5, 3, 9, 1, 7, 4];
        assert_eq!(run_cc(&g, 2, AggOp::Min, vals.clone()).0, 1);
        assert_eq!(run_cc(&g, 2, AggOp::Max, vals).0, 9);
    }

    #[test]
    fn logical_and_via_min() {
        let g = generators::cycle(8);
        let mut covered = vec![1u64; g.n()];
        assert_eq!(run_cc(&g, 0, AggOp::Min, covered.clone()).0, 1);
        covered[5] = 0;
        assert_eq!(run_cc(&g, 0, AggOp::Min, covered).0, 0);
    }

    #[test]
    fn rounds_linear_in_depth() {
        let g = generators::path(40);
        let (_, rounds) = run_cc(&g, 0, AggOp::Sum, vec![1; g.n()]);
        // Depth 39; convergecast is depth + O(1).
        assert!((39..=41).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn single_node_graph_resolves_without_messages() {
        let g = drw_graph::Graph::from_edges(2, [(0, 1)]).unwrap();
        let tree = tree_of(&g, 0);
        let mut cc = ConvergecastProtocol::new(&tree, AggOp::Sum, vec![4, 5]);
        let report = run_protocol(&g, &EngineConfig::default(), 0, &mut cc).unwrap();
        assert_eq!(cc.result(), 9);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    #[should_panic(expected = "one value per node")]
    fn wrong_value_count_panics() {
        let g = generators::path(3);
        let tree = tree_of(&g, 0);
        let _ = ConvergecastProtocol::new(&tree, AggOp::Sum, vec![1]);
    }
}
