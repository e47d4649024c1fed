//! The immutable CSR graph type and its builder.

use std::fmt;

/// Node identifier. Nodes are always `0..n`.
pub type NodeId = usize;

/// Errors produced while building a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: usize,
        /// Number of nodes in the graph under construction.
        n: usize,
    },
    /// An edge connected a node to itself.
    SelfLoop(
        /// The node with the self loop.
        usize,
    ),
    /// A graph with zero nodes was requested.
    Empty,
    /// A topology delta tried to add an edge that already exists.
    DuplicateEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A topology delta tried to remove an edge that does not exist.
    MissingEdge {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A topology delta tried to remove a node that still has edges.
    NodeNotIsolated(
        /// The non-isolated node.
        usize,
    ),
    /// A topology delta tried to remove a node other than the
    /// highest-numbered one (node ids stay dense `0..n`).
    NodeNotLast {
        /// The node whose removal was requested.
        node: usize,
        /// Node count at the time the op applied.
        n: usize,
    },
    /// A topology delta would leave the graph disconnected — rejected,
    /// because the walk stack's standing assumption is connectivity.
    Disconnects,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge endpoint {node} out of range for {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at node {v}"),
            GraphError::Empty => write!(f, "graph must have at least one node"),
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "edge {{{u}, {v}}} already exists")
            }
            GraphError::MissingEdge { u, v } => {
                write!(f, "edge {{{u}, {v}}} does not exist")
            }
            GraphError::NodeNotIsolated(v) => {
                write!(f, "node {v} still has edges and cannot be removed")
            }
            GraphError::NodeNotLast { node, n } => write!(
                f,
                "only the highest-numbered node ({}) can be removed, not {node}",
                n - 1
            ),
            GraphError::Disconnects => {
                write!(f, "delta would disconnect the graph")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`Graph`].
///
/// Duplicate edges are deduplicated; self loops and out-of-range endpoints
/// are rejected at [`GraphBuilder::build`] time.
///
/// # Example
///
/// ```
/// use drw_graph::GraphBuilder;
///
/// # fn main() -> Result<(), drw_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build()?;
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.degree(1), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge `{u, v}`. Order does not matter; duplicates
    /// are removed when building.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        self.edges.push((a as u32, b as u32));
        self
    }

    /// Adds every edge in the iterator.
    pub fn add_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) -> &mut Self {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Validates and builds the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `n == 0`, any endpoint is out of range, or
    /// any edge is a self loop.
    pub fn build(&self) -> Result<Graph, GraphError> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        let mut edges = self.edges.clone();
        for &(u, v) in &edges {
            let (u, v) = (u as usize, v as usize);
            if u >= self.n {
                return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
            }
            if v >= self.n {
                return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Ok(Graph::from_normalized_edges(self.n, &edges))
    }
}

/// An immutable undirected graph in compressed-sparse-row form.
///
/// Adjacency lists are sorted, which gives `O(log d)` edge queries and a
/// canonical directed-edge numbering: the directed edge `u -> adj(u)[i]`
/// has id `offsets[u] + i`, and ids cover `0..2m`. The reverse edge id
/// (`v -> u` for `u -> v`) is precomputed, because the CONGEST simulator
/// accounts bandwidth per directed edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj: Vec<u32>,
    src: Vec<u32>,
    rev: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an explicit edge list.
    ///
    /// Convenience wrapper around [`GraphBuilder`].
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::build`].
    pub fn from_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(
        n: usize,
        edges: I,
    ) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(n);
        b.add_edges(edges);
        b.build()
    }

    /// `edges` must be sorted, deduplicated, in-range, self-loop free, and
    /// normalized so `u <= v`.
    fn from_normalized_edges(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut deg = vec![0usize; n];
        for &(u, v) in edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let total = offsets[n];
        let mut adj = vec![0u32; total];
        let mut src = vec![0u32; total];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            adj[cursor[u as usize]] = v;
            src[cursor[u as usize]] = u;
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = u;
            src[cursor[v as usize]] = v;
            cursor[v as usize] += 1;
        }
        // Edges were added in sorted order per node, so each adjacency run
        // is already sorted. Compute reverse-edge ids by binary search.
        let mut g = Graph {
            offsets,
            adj,
            src,
            rev: Vec::new(),
        };
        g.fill_reverse_ids();
        g
    }

    /// Streaming CSR construction: calls `stream` twice with an `emit(u, v)`
    /// sink that must produce the same undirected edge sequence on both
    /// passes (each edge exactly once, either endpoint order). The first
    /// pass counts degrees, the second writes adjacency directly into the
    /// final `Vec`s — no intermediate edge list or adjacency map, so the
    /// transient memory is just the degree array. This is the constructor
    /// for `10^6+`-node generators.
    ///
    /// # Errors
    ///
    /// [`GraphError::Empty`] for `n == 0`, [`GraphError::NodeOutOfRange`] /
    /// [`GraphError::SelfLoop`] on a bad emission, and
    /// [`GraphError::DuplicateEdge`] when an edge is emitted twice.
    ///
    /// # Panics
    ///
    /// Panics if the two passes emit different edge sequences.
    pub fn from_stream<F>(n: usize, mut stream: F) -> Result<Graph, GraphError>
    where
        F: FnMut(&mut dyn FnMut(NodeId, NodeId)),
    {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        // Pass 1: count degrees, validating and latching the first error
        // (the sink cannot return one).
        let mut deg = vec![0u32; n];
        let mut err: Option<GraphError> = None;
        stream(&mut |u, v| {
            if err.is_some() {
                return;
            }
            if u >= n {
                err = Some(GraphError::NodeOutOfRange { node: u, n });
            } else if v >= n {
                err = Some(GraphError::NodeOutOfRange { node: v, n });
            } else if u == v {
                err = Some(GraphError::SelfLoop(u));
            } else {
                deg[u] += 1;
                deg[v] += 1;
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v] as usize;
        }
        drop(deg);
        // Pass 2: place both directions straight into the final arrays.
        let total = offsets[n];
        let mut adj = vec![0u32; total];
        let mut src = vec![0u32; total];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        stream(&mut |u, v| {
            let cu = cursor[u];
            let cv = cursor[v];
            assert!(
                cu < offsets[u + 1] && cv < offsets[v + 1],
                "from_stream: second pass emitted edges the first did not"
            );
            adj[cu] = v as u32;
            src[cu] = u as u32;
            cursor[u] = cu + 1;
            adj[cv] = u as u32;
            src[cv] = v as u32;
            cursor[v] = cv + 1;
        });
        assert!(
            cursor.iter().zip(&offsets[1..]).all(|(c, o)| c == o),
            "from_stream: second pass emitted fewer edges than the first"
        );
        drop(cursor);
        // Adjacency runs arrive in emission order; sort each run (src is
        // constant within a run) and reject duplicates.
        for v in 0..n {
            let run = &mut adj[offsets[v]..offsets[v + 1]];
            run.sort_unstable();
            if let Some(w) = run.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge {
                    u: v,
                    v: w[0] as usize,
                });
            }
        }
        let mut g = Graph {
            offsets,
            adj,
            src,
            rev: Vec::new(),
        };
        g.fill_reverse_ids();
        Ok(g)
    }

    /// Builds a graph from a slice of endpoint pairs via [`Graph::from_stream`].
    ///
    /// Unlike [`GraphBuilder`] this never clones or sorts the edge list, but
    /// the pairs must therefore already describe a simple graph.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::from_stream`]; duplicate pairs are an error here,
    /// not deduplicated.
    pub fn from_pairs(n: usize, pairs: &[(u32, u32)]) -> Result<Graph, GraphError> {
        Graph::from_stream(n, |emit| {
            for &(u, v) in pairs {
                emit(u as NodeId, v as NodeId);
            }
        })
    }

    /// Computes `rev` from `offsets`/`adj`/`src` by binary search. Runs
    /// must already be sorted.
    fn fill_reverse_ids(&mut self) {
        let total = self.adj.len();
        let mut rev = vec![0u32; total];
        #[allow(clippy::needless_range_loop)]
        for eid in 0..total {
            let u = self.src[eid] as usize;
            let v = self.adj[eid] as usize;
            let back = self
                .edge_id(v, u)
                .expect("reverse edge must exist in an undirected graph");
            rev[eid] = back as u32;
        }
        self.rev = rev;
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Number of directed edges (`2m`).
    pub fn dir_edge_count(&self) -> usize {
        self.adj.len()
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes.
    pub fn min_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Sorted neighbor slice of `v` (raw `u32` storage, for hot paths).
    #[inline]
    pub fn neighbor_slice(&self, v: NodeId) -> &[u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The `i`-th neighbor of `v` (ascending order) — the decode side of
    /// a stored neighbor index, pairing with [`Graph::nth_edge_id`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= degree(v)`.
    #[inline]
    pub fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        let slice = self.neighbor_slice(v);
        assert!(i < slice.len(), "neighbor index out of range");
        slice[i] as NodeId
    }

    /// Iterator over the neighbors of `v` in ascending order.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbor_slice(v).iter().map(|&u| u as NodeId)
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// Directed edge id of `u -> v`, if the edge exists.
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let slice = self.neighbor_slice(u);
        slice
            .binary_search(&(v as u32))
            .ok()
            .map(|i| self.offsets[u] + i)
    }

    /// Directed edge id of the `i`-th neighbor of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= degree(u)`.
    #[inline]
    pub fn nth_edge_id(&self, u: NodeId, i: usize) -> usize {
        assert!(i < self.degree(u), "neighbor index out of range");
        self.offsets[u] + i
    }

    /// Source node of a directed edge id.
    #[inline]
    pub fn edge_source(&self, eid: usize) -> NodeId {
        self.src[eid] as NodeId
    }

    /// Target node of a directed edge id.
    #[inline]
    pub fn edge_target(&self, eid: usize) -> NodeId {
        self.adj[eid] as NodeId
    }

    /// Directed edge id of the reverse edge (`v -> u` for `u -> v`).
    pub fn reverse_edge(&self, eid: usize) -> usize {
        self.rev[eid] as usize
    }

    /// Iterator over undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.dir_edge_count()).filter_map(move |eid| {
            let u = self.edge_source(eid);
            let v = self.edge_target(eid);
            if u < v {
                Some((u, v))
            } else {
                None
            }
        })
    }

    /// Uniformly random neighbor of `v` — one step of the simple random
    /// walk of Section 1.2.
    ///
    /// # Panics
    ///
    /// Panics if `v` is isolated (the paper assumes connected graphs).
    pub fn random_neighbor<R: rand::Rng + ?Sized>(&self, v: NodeId, rng: &mut R) -> NodeId {
        let slice = self.neighbor_slice(v);
        assert!(!slice.is_empty(), "node {v} has no neighbors");
        slice[rng.random_range(0..slice.len())] as NodeId
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.dir_edge_count(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn edge_queries() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 3));
        let e = g.edge_id(1, 2).unwrap();
        assert_eq!(g.edge_source(e), 1);
        assert_eq!(g.edge_target(e), 2);
    }

    #[test]
    fn reverse_edges_are_involutive() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 4)]).unwrap();
        for eid in 0..g.dir_edge_count() {
            let r = g.reverse_edge(eid);
            assert_eq!(g.reverse_edge(r), eid);
            assert_eq!(g.edge_source(eid), g.edge_target(r));
            assert_eq!(g.edge_target(eid), g.edge_source(r));
        }
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = Graph::from_edges(2, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let err = Graph::from_edges(2, [(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(1));
    }

    #[test]
    fn out_of_range_rejected() {
        let err = Graph::from_edges(2, [(0, 2)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { node: 2, n: 2 });
    }

    #[test]
    fn empty_graph_rejected() {
        let err = GraphBuilder::new(0).build().unwrap_err();
        assert_eq!(err, GraphError::Empty);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn random_neighbor_is_a_neighbor() {
        use rand::SeedableRng;
        let g = triangle();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let u = g.random_neighbor(0, &mut rng);
            assert!(g.has_edge(0, u));
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", triangle()), "Graph(n=3, m=3)");
    }

    #[test]
    fn from_stream_matches_builder() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4)];
        let legacy = Graph::from_edges(5, edges).unwrap();
        let streamed = Graph::from_stream(5, |emit| {
            // Reversed order and flipped endpoints: the CSR must come out
            // identical anyway.
            for &(u, v) in edges.iter().rev() {
                emit(v, u);
            }
        })
        .unwrap();
        assert_eq!(legacy, streamed);
    }

    #[test]
    fn from_pairs_matches_builder() {
        let pairs: [(u32, u32); 4] = [(3, 1), (0, 1), (2, 0), (3, 2)];
        let legacy =
            Graph::from_edges(4, pairs.iter().map(|&(u, v)| (u as usize, v as usize))).unwrap();
        let streamed = Graph::from_pairs(4, &pairs).unwrap();
        assert_eq!(legacy, streamed);
    }

    #[test]
    fn from_stream_rejects_bad_edges() {
        let self_loop = Graph::from_stream(3, |emit| emit(1, 1)).unwrap_err();
        assert_eq!(self_loop, GraphError::SelfLoop(1));
        let oob = Graph::from_stream(3, |emit| emit(0, 3)).unwrap_err();
        assert_eq!(oob, GraphError::NodeOutOfRange { node: 3, n: 3 });
        let dup = Graph::from_stream(3, |emit| {
            emit(0, 1);
            emit(1, 0);
        })
        .unwrap_err();
        assert!(matches!(dup, GraphError::DuplicateEdge { .. }));
        assert_eq!(
            Graph::from_stream(0, |_| {}).unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn from_stream_reverse_edges_are_involutive() {
        let g = Graph::from_stream(5, |emit| {
            for (u, v) in [(4, 0), (1, 2), (0, 2), (2, 3), (3, 4), (0, 1)] {
                emit(u, v);
            }
        })
        .unwrap();
        for eid in 0..g.dir_edge_count() {
            let r = g.reverse_edge(eid);
            assert_eq!(g.reverse_edge(r), eid);
            assert_eq!(g.edge_source(eid), g.edge_target(r));
        }
    }

    #[test]
    fn neighbor_at_matches_edge_decoding() {
        let g = Graph::from_edges(5, [(0, 1), (0, 3), (0, 4), (2, 0)]).unwrap();
        for i in 0..g.degree(0) {
            assert_eq!(g.neighbor_at(0, i), g.edge_target(g.nth_edge_id(0, i)));
        }
        assert_eq!(g.neighbor_at(0, 0), 1);
        assert_eq!(g.neighbor_at(0, 3), 4);
    }
}
