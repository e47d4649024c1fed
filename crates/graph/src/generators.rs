//! Graph family generators.
//!
//! These are the workloads of the reproduction experiments:
//!
//! - low-diameter expanders ([`random_regular`], [`hypercube`]) where the
//!   paper's `sqrt(l * D)` algorithm shines,
//! - high-diameter families ([`path`], [`cycle`], [`path_of_cliques`]) for
//!   the diameter sweeps,
//! - skewed-degree families ([`star`], [`lollipop`], [`barbell`]) that
//!   stress the degree-proportional short-walk allocation of Phase 1,
//! - [`random_geometric`], the ad-hoc wireless model the paper cites for
//!   the `tau_mix >> D` separation, and
//! - classical test graphs ([`complete`], [`grid2d`], [`torus2d`],
//!   [`binary_tree`]).

use crate::{Graph, GraphBuilder};
use rand::seq::SliceRandom;
use rand::Rng;

/// Path graph `0 - 1 - ... - (n-1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path needs at least one node");
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i))).expect("path edges are valid")
}

/// Cycle graph on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least three nodes");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).expect("cycle edges are valid")
}

/// Complete graph `K_n` for `n >= 2`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2, "complete graph needs at least two nodes");
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v);
        }
    }
    b.build().expect("complete-graph edges are valid")
}

/// Star graph: node `0` is the hub connected to `n - 1` leaves.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "star needs at least two nodes");
    Graph::from_edges(n, (1..n).map(|i| (0, i))).expect("star edges are valid")
}

/// Complete binary tree on `n` nodes (heap numbering: children of `i` are
/// `2i + 1` and `2i + 2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> Graph {
    assert!(n > 0, "binary tree needs at least one node");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(i, (i - 1) / 2);
    }
    b.build().expect("binary-tree edges are valid")
}

/// 2D grid with `rows * cols` nodes and 4-neighbor connectivity.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn grid2d(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let idx = |r: usize, c: usize| r * cols + c;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c));
            }
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1));
            }
        }
    }
    b.build().expect("grid edges are valid")
}

/// 2D torus (grid with wraparound). Requires `rows, cols >= 3` so the
/// wraparound does not create duplicate edges.
///
/// # Panics
///
/// Panics if either dimension is `< 3`.
pub fn torus2d(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "torus dimensions must be >= 3");
    let idx = |r: usize, c: usize| r * cols + c;
    // Streamed straight into the CSR arrays: a 1000x1000 torus never
    // materializes its 2M-entry edge list.
    Graph::from_stream(rows * cols, |emit| {
        for r in 0..rows {
            for c in 0..cols {
                emit(idx(r, c), idx((r + 1) % rows, c));
                emit(idx(r, c), idx(r, (c + 1) % cols));
            }
        }
    })
    .expect("torus edges are valid")
}

/// Hypercube on `2^dim` nodes.
///
/// # Panics
///
/// Panics if `dim == 0` or `dim > 24`.
pub fn hypercube(dim: u32) -> Graph {
    assert!(dim > 0 && dim <= 24, "dim must be in 1..=24");
    let n = 1usize << dim;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..dim {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v, u);
            }
        }
    }
    b.build().expect("hypercube edges are valid")
}

/// Erdős–Rényi `G(n, p)`.
///
/// The result may be disconnected; combine with
/// [`crate::traversal::largest_component`] if connectivity is required.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]` or `n == 0`.
pub fn er_gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "er_gnp needs at least one node");
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(p) {
                b.add_edge(u, v);
            }
        }
    }
    b.build().expect("er edges are valid")
}

/// Random `d`-regular graph via the configuration (pairing) model with
/// swap-based repair of self loops and parallel edges.
///
/// Wholesale rejection of non-simple pairings has success probability
/// `~exp(-(d^2-1)/4)` per attempt, which is impractical already at `d = 6`;
/// instead, conflicting pairs are repeatedly re-matched against random
/// partners until the multigraph is simple (the standard heuristic, whose
/// output is asymptotically uniform for constant `d`). For `d >= 3` the
/// pairing is additionally regenerated until connected (a random `d`-regular
/// graph is connected w.h.p.). These graphs are expanders w.h.p., the
/// paper's low-`tau_mix` family.
///
/// # Panics
///
/// Panics if `n * d` is odd, `d == 0`, `d >= n`, or if no acceptable
/// pairing is found after many attempts (astronomically unlikely).
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(d > 0 && d < n, "need 0 < d < n");
    assert!((n * d).is_multiple_of(2), "n * d must be even");
    for _ in 0..100 {
        let mut stubs: Vec<u32> = (0..n)
            .flat_map(|v| std::iter::repeat_n(v as u32, d))
            .collect();
        stubs.shuffle(rng);
        let mut pairs: Vec<(u32, u32)> = stubs
            .chunks_exact(2)
            .map(|pair| (pair[0], pair[1]))
            .collect();
        if !repair_pairing(&mut pairs, rng) {
            continue;
        }
        // The repaired pairing is simple, so the pairs can stream straight
        // into the CSR without the builder's sort-and-dedup copy.
        let g = Graph::from_pairs(n, &pairs).expect("repaired pairing produced valid edges");
        debug_assert_eq!(g.m(), n * d / 2);
        if d < 3 || crate::traversal::is_connected(&g) {
            return g;
        }
    }
    panic!("random_regular: no acceptable pairing found (n={n}, d={d})");
}

/// Re-matches conflicting pairs (self loops or duplicate edges) against
/// random partners until the pairing describes a simple graph. Returns
/// `false` if it fails to converge (triggering a fresh shuffle upstream).
fn repair_pairing<R: Rng + ?Sized>(pairs: &mut [(u32, u32)], rng: &mut R) -> bool {
    let mut keys: Vec<(u64, u32)> = Vec::with_capacity(pairs.len());
    let mut bad = Vec::new();
    for _ in 0..200 {
        // A pair is bad if it is a self loop or repeats the edge of an
        // earlier pair. Sorting `(edge, index)` puts each edge's first
        // pair first; the bad indices are then re-matched in ascending
        // order, which keeps the RNG draws, and so the graph, a pure
        // function of the shuffle.
        keys.clear();
        keys.extend(pairs.iter().enumerate().map(|(i, &(u, v))| {
            let (lo, hi) = if u < v { (u, v) } else { (v, u) };
            ((u64::from(lo) << 32) | u64::from(hi), i as u32)
        }));
        keys.sort_unstable();
        bad.clear();
        for (k, &(key, i)) in keys.iter().enumerate() {
            let self_loop = (key >> 32) as u32 == key as u32;
            if self_loop || (k > 0 && keys[k - 1].0 == key) {
                bad.push(i as usize);
            }
        }
        if bad.is_empty() {
            return true;
        }
        bad.sort_unstable();
        for &i in &bad {
            let j = rng.random_range(0..pairs.len());
            let (iv, jv) = (pairs[i].1, pairs[j].1);
            pairs[i].1 = jv;
            pairs[j].1 = iv;
        }
    }
    false
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs at Euclidean distance `<= radius`.
///
/// With `radius = c * sqrt(ln n / n)` for `c` above the connectivity
/// threshold, this is the ad-hoc wireless model of the paper's reference
/// \[27\], where the mixing time exceeds the diameter by `Omega(sqrt(n))`.
///
/// # Panics
///
/// Panics if `n == 0` or `radius <= 0`.
pub fn random_geometric<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Graph {
    assert!(n > 0, "random_geometric needs at least one node");
    assert!(radius > 0.0, "radius must be positive");
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
        .collect();
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(u, v);
            }
        }
    }
    b.build().expect("geometric edges are valid")
}

/// The standard connectivity-threshold radius for [`random_geometric`]:
/// `2 * sqrt(ln n / n)`.
pub fn geometric_connectivity_radius(n: usize) -> f64 {
    assert!(n > 1);
    2.0 * ((n as f64).ln() / n as f64).sqrt()
}

/// Barbell graph: two cliques `K_k` joined by a path with `bridge_len`
/// edges. A classical slow-mixing family.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn barbell(k: usize, bridge_len: usize) -> Graph {
    assert!(k >= 2, "barbell cliques need k >= 2");
    let path_nodes = bridge_len.saturating_sub(1);
    let n = 2 * k + path_nodes;
    let mut b = GraphBuilder::new(n);
    // Left clique: 0..k. Right clique: k + path_nodes .. n.
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u, v);
        }
    }
    let right0 = k + path_nodes;
    for u in right0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v);
        }
    }
    // Bridge from node k-1 (in left clique) through the path nodes to
    // node right0 (in right clique).
    let mut prev = k - 1;
    for i in 0..path_nodes {
        b.add_edge(prev, k + i);
        prev = k + i;
    }
    b.add_edge(prev, right0);
    b.build().expect("barbell edges are valid")
}

/// Lollipop graph: clique `K_k` with a path of `tail` extra nodes attached.
/// The textbook worst case for cover time (`Theta(n^3)` for `k = tail =
/// n/2`), exercising the paper's `O(m D)` cover-time bound.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn lollipop(k: usize, tail: usize) -> Graph {
    assert!(k >= 2, "lollipop clique needs k >= 2");
    let n = k + tail;
    let mut b = GraphBuilder::new(n);
    for u in 0..k {
        for v in (u + 1)..k {
            b.add_edge(u, v);
        }
    }
    let mut prev = k - 1;
    for i in 0..tail {
        b.add_edge(prev, k + i);
        prev = k + i;
    }
    b.build().expect("lollipop edges are valid")
}

/// A chain of `cliques` cliques of size `size`, consecutive cliques joined
/// by a single bridge edge. With `cliques * size ~ n` fixed and `cliques`
/// varying, this family sweeps the diameter at (roughly) constant `n` and
/// `m` — the workload of experiment E2.
///
/// # Panics
///
/// Panics if `cliques == 0` or `size < 2`.
pub fn path_of_cliques(cliques: usize, size: usize) -> Graph {
    assert!(cliques > 0, "need at least one clique");
    assert!(size >= 2, "cliques must have size >= 2");
    let n = cliques * size;
    let mut b = GraphBuilder::new(n);
    for c in 0..cliques {
        let base = c * size;
        for u in 0..size {
            for v in (u + 1)..size {
                b.add_edge(base + u, base + v);
            }
        }
        if c + 1 < cliques {
            // Bridge: last node of this clique to first node of the next.
            b.add_edge(base + size - 1, base + size);
        }
    }
    b.build().expect("path-of-cliques edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!((g.n(), g.m()), (5, 4));
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(7);
        assert_eq!((g.n(), g.m()), (7, 7));
        assert!((0..7).all(|v| g.degree(v) == 2));
    }

    #[test]
    fn complete_has_all_edges() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        assert!((0..6).all(|v| g.degree(v) == 5));
    }

    #[test]
    fn star_degrees() {
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        assert!((1..10).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 1);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn grid_and_torus() {
        let g = grid2d(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4); // horizontal + vertical
        let t = torus2d(4, 5);
        assert_eq!(t.n(), 20);
        assert_eq!(t.m(), 2 * 20);
        assert!((0..20).all(|v| t.degree(v) == 4));
    }

    #[test]
    fn hypercube_is_regular() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert!((0..16).all(|v| g.degree(v) == 4));
        assert_eq!(traversal::diameter_exact(&g), 4);
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = random_regular(64, 4, &mut rng);
        assert_eq!(g.n(), 64);
        assert!((0..64).all(|v| g.degree(v) == 4));
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn er_gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = er_gnp(10, 0.0, &mut rng);
        assert_eq!(empty.m(), 0);
        let full = er_gnp(10, 1.0, &mut rng);
        assert_eq!(full.m(), 45);
    }

    #[test]
    fn geometric_with_huge_radius_is_complete() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_geometric(12, 2.0, &mut rng);
        assert_eq!(g.m(), 12 * 11 / 2);
    }

    #[test]
    fn geometric_threshold_radius_connects() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_geometric(200, geometric_connectivity_radius(200), &mut rng);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(4, 3);
        // 2 cliques of 4 + 2 internal path nodes.
        assert_eq!(g.n(), 10);
        assert!(traversal::is_connected(&g));
        assert_eq!(g.m(), 6 + 6 + 3);
    }

    #[test]
    fn barbell_direct_bridge() {
        let g = barbell(3, 1);
        assert_eq!(g.n(), 6);
        assert!(g.has_edge(2, 3));
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(5, 4);
        assert_eq!(g.n(), 9);
        assert_eq!(g.m(), 10 + 4);
        assert_eq!(g.degree(8), 1);
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn torus_streaming_matches_legacy_builder() {
        let (rows, cols) = (5, 7);
        let idx = |r: usize, c: usize| r * cols + c;
        let mut b = GraphBuilder::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                b.add_edge(idx(r, c), idx((r + 1) % rows, c));
                b.add_edge(idx(r, c), idx(r, (c + 1) % cols));
            }
        }
        assert_eq!(torus2d(rows, cols), b.build().unwrap());
    }

    #[test]
    fn random_regular_adjacency_is_pinned() {
        // FNV-1a over every neighbour slice in node order: the repair's
        // bad-pair order sets the RNG draws, and the pairing order sets
        // neighbour indices, which seeded walks read.
        let pinned = [
            (1024, 1, 0x9387b3e40af70515),
            (1024, 2, 0x6e7870b2f74203ad),
            (6144, 11, 0xc7a5dfdd2ec6c5ad),
            (6144, 12, 0x4b0446a1053784d9),
            (131_072, 11, 0x67f09ca5e3d1c6a5),
        ];
        for (n, seed, digest) in pinned {
            let g = random_regular(n, 4, &mut StdRng::seed_from_u64(seed));
            let mut h: u64 = 0xcbf29ce484222325;
            for v in 0..g.n() {
                for b in g.neighbor_slice(v).iter().flat_map(|u| u.to_le_bytes()) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
                }
            }
            assert_eq!(h, digest, "random_regular({n}, 4) at seed {seed}");
        }
    }

    #[test]
    fn random_regular_exact_regularity_at_1e5() {
        let mut rng = StdRng::seed_from_u64(7);
        let (n, d) = (100_000, 4);
        let g = random_regular(n, d, &mut rng);
        assert_eq!(g.n(), n);
        assert_eq!(g.m(), n * d / 2);
        assert!((0..n).all(|v| g.degree(v) == d));
        assert!(traversal::is_connected(&g));
    }

    #[test]
    fn path_of_cliques_diameter_grows() {
        let g1 = path_of_cliques(2, 8);
        let g2 = path_of_cliques(8, 2);
        assert!(traversal::is_connected(&g1));
        assert!(traversal::is_connected(&g2));
        assert!(traversal::diameter_exact(&g2) > traversal::diameter_exact(&g1));
    }
}
