//! The hard instance `G_n` (Definition 3.3) and its breakpoints
//! (Lemma 3.4).
//!
//! `G_n` glues a path `P = v_1 ... v_{n'}` to a complete binary tree `T`
//! with `k'` leaves: leaf `u_i` connects to every path node `v_{j k' + i}`.
//! The tree gives diameter `O(log n)` while the path forces any
//! verification to move `Omega(n)` worth of "path distance" through the
//! tree's `O(k log k)`-per-round capacity — hence the
//! `Omega(sqrt(l / log l))` bound.

use drw_graph::{Graph, GraphBuilder, NodeId};

/// The constructed instance with its node-role bookkeeping.
#[derive(Debug, Clone)]
pub struct GnGraph {
    graph: Graph,
    n_prime: usize,
    k: usize,
    k_prime: usize,
}

impl GnGraph {
    /// Builds `G_n` for a path of (at least) `n` nodes and round
    /// parameter `k`: `k'` is the smallest power of two exceeding `4k`,
    /// and `n'` is `n` rounded up to a multiple of `k'`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    pub fn build(n: usize, k: usize) -> Self {
        assert!(n > 0 && k > 0, "n and k must be positive");
        let mut k_prime = 1usize;
        while k_prime <= 4 * k {
            k_prime *= 2;
        }
        let n_prime = n.div_ceil(k_prime) * k_prime;
        let tree_nodes = 2 * k_prime - 1;
        let total = n_prime + tree_nodes;
        let mut b = GraphBuilder::new(total);
        // The path P: nodes 0..n_prime.
        for p in 1..n_prime {
            b.add_edge(p - 1, p);
        }
        // The complete binary tree in heap order: tree index t (0-based,
        // root t = 0) is graph node n_prime + t; children 2t+1, 2t+2.
        for t in 1..tree_nodes {
            b.add_edge(n_prime + t, n_prime + (t - 1) / 2);
        }
        // Leaves are tree indices k'-1 .. 2k'-2, left to right; leaf i
        // (0-based) connects to every path node p with p % k' == i.
        for p in 0..n_prime {
            let leaf = k_prime - 1 + (p % k_prime);
            b.add_edge(p, n_prime + leaf);
        }
        GnGraph {
            graph: b.build().expect("G_n edges are valid"),
            n_prime,
            k,
            k_prime,
        }
    }

    /// The paper's round parameter for walk length `l`:
    /// `k = sqrt(l / log l)`.
    pub fn k_for_len(len: u64) -> usize {
        assert!(len >= 2, "length must be at least 2");
        ((len as f64) / (len as f64).log2()).sqrt().floor().max(1.0) as usize
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of path nodes `n'`.
    pub fn n_prime(&self) -> usize {
        self.n_prime
    }

    /// The round parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The leaf count `k'` (a power of two in `(4k, 8k]`).
    pub fn k_prime(&self) -> usize {
        self.k_prime
    }

    /// Path node `v_{j+1}` (0-based index `j`).
    pub fn path_node(&self, j: usize) -> NodeId {
        assert!(j < self.n_prime, "path index out of range");
        j
    }

    /// Whether `v` lies on the path `P`.
    pub fn is_path_node(&self, v: NodeId) -> bool {
        v < self.n_prime
    }

    /// The tree root `x`.
    pub fn root(&self) -> NodeId {
        self.n_prime
    }

    /// The left and right children of the root (`l` and `r`).
    pub fn root_children(&self) -> (NodeId, NodeId) {
        (self.n_prime + 1, self.n_prime + 2)
    }

    /// Leaf `u_{i+1}` (0-based `i`), left to right.
    pub fn leaf(&self, i: usize) -> NodeId {
        assert!(i < self.k_prime, "leaf index out of range");
        self.n_prime + self.k_prime - 1 + i
    }

    /// Breakpoints for the *left* subtree: path positions
    /// `j k' + k'/2 + k + 1` (1-based), i.e. unreachable from `sub(l)`'s
    /// path attachment within `k` path-only rounds.
    pub fn breakpoints_left(&self) -> Vec<NodeId> {
        self.breakpoints_at(self.k_prime / 2 + self.k)
    }

    /// Breakpoints for the *right* subtree: path positions `j k' + k + 1`
    /// (1-based).
    pub fn breakpoints_right(&self) -> Vec<NodeId> {
        self.breakpoints_at(self.k)
    }

    fn breakpoints_at(&self, offset: usize) -> Vec<NodeId> {
        (0..)
            .map(|j| j * self.k_prime + offset)
            .take_while(|&p| p < self.n_prime)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::traversal;

    #[test]
    fn construction_shapes() {
        let gn = GnGraph::build(100, 4);
        // k' = smallest power of two > 16 = 32.
        assert_eq!(gn.k_prime(), 32);
        // n' = 100 rounded up to a multiple of 32 = 128.
        assert_eq!(gn.n_prime(), 128);
        assert_eq!(gn.graph().n(), 128 + 2 * 32 - 1);
        assert!(traversal::is_connected(gn.graph()));
    }

    #[test]
    fn diameter_is_logarithmic() {
        for n in [128usize, 512, 2048] {
            let gn = GnGraph::build(n, 8);
            let d = traversal::diameter_exact(gn.graph());
            let log_bound = 2 * (gn.k_prime() as f64).log2() as usize + 4;
            assert!(d <= log_bound, "n={n}: diameter {d} > {log_bound}");
        }
    }

    #[test]
    fn every_path_node_touches_its_leaf() {
        let gn = GnGraph::build(64, 2);
        for p in 0..gn.n_prime() {
            let leaf = gn.leaf(p % gn.k_prime());
            assert!(gn.graph().has_edge(p, leaf));
        }
    }

    #[test]
    fn leaves_are_leaves_of_the_tree() {
        let gn = GnGraph::build(64, 2);
        let (l, r) = gn.root_children();
        assert!(gn.graph().has_edge(gn.root(), l));
        assert!(gn.graph().has_edge(gn.root(), r));
        // A leaf's only tree neighbor is its parent; the rest are path
        // nodes.
        let u0 = gn.leaf(0);
        let tree_neighbors = gn
            .graph()
            .neighbors(u0)
            .filter(|&w| !gn.is_path_node(w))
            .count();
        assert_eq!(tree_neighbors, 1);
    }

    #[test]
    fn breakpoint_counts_match_lemma_3_4() {
        // Lemma 3.4: at least n / 4k breakpoints per side.
        let gn = GnGraph::build(1024, 8);
        let bound = gn.n_prime() / (4 * gn.k());
        assert!(gn.breakpoints_left().len() >= bound.min(gn.n_prime() / gn.k_prime()));
        assert!(gn.breakpoints_right().len() >= gn.n_prime() / gn.k_prime() - 1);
        // Breakpoints are spaced exactly k' apart.
        let right = gn.breakpoints_right();
        for w in right.windows(2) {
            assert_eq!(w[1] - w[0], gn.k_prime());
        }
    }

    #[test]
    fn breakpoints_are_far_from_the_opposite_leaves() {
        // A right-subtree breakpoint at 1-based position j k' + k + 1 is
        // at path distance > k from any right-subtree attachment
        // (attachments at offsets k'/2..k').
        let gn = GnGraph::build(256, 4);
        for &p in &gn.breakpoints_right() {
            let offset = p % gn.k_prime();
            assert_eq!(offset, gn.k());
            // Nearest right-attachment offset is k'/2; path-only distance
            // from the breakpoint exceeds k.
            assert!(gn.k_prime() / 2 - offset > gn.k() || offset > gn.k());
        }
    }

    #[test]
    fn k_for_len_shape() {
        let k = GnGraph::k_for_len(1 << 14);
        let expect = ((16384.0f64) / 14.0).sqrt();
        assert!(
            (k as f64 - expect).abs() <= 1.0,
            "k = {k}, expect ~{expect}"
        );
    }
}
