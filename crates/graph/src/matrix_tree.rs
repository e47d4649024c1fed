//! Kirchhoff's matrix-tree theorem and exhaustive spanning-tree
//! enumeration.
//!
//! The random-spanning-tree application (Theorem 4.1) claims the sampled
//! tree is uniform over *all* spanning trees. Experiment E9 validates this
//! by sampling many trees on small graphs and chi-square testing the
//! histogram against the uniform distribution on the enumerated tree set,
//! whose size is cross-checked against the Kirchhoff determinant.

use crate::dsu::DisjointSets;
use crate::{Graph, NodeId};

/// Exact number of spanning trees via fraction-free (Bareiss) elimination
/// on a Laplacian minor, in `i128` arithmetic.
///
/// # Panics
///
/// Panics if `g.n() > 16` (determinant magnitude could overflow `i128`
/// beyond that for dense graphs) or if the graph has fewer than 2 nodes.
pub fn spanning_tree_count(g: &Graph) -> u128 {
    let n = g.n();
    assert!(n >= 2, "spanning trees need at least two nodes");
    assert!(
        n <= 16,
        "exact count limited to n <= 16; use spanning_tree_count_f64"
    );
    let dim = n - 1;
    // Laplacian minor: delete last row/column.
    let mut a = vec![vec![0i128; dim]; dim];
    #[allow(clippy::needless_range_loop)]
    for v in 0..dim {
        a[v][v] = g.degree(v) as i128;
        for u in g.neighbors(v) {
            if u < dim {
                a[v][u] -= 1;
            }
        }
    }
    // Bareiss algorithm: integer-exact determinant.
    let mut sign = 1i128;
    let mut prev = 1i128;
    for k in 0..dim {
        if a[k][k] == 0 {
            // Find pivot row.
            let Some(p) = (k + 1..dim).find(|&r| a[r][k] != 0) else {
                return 0;
            };
            a.swap(k, p);
            sign = -sign;
        }
        for i in (k + 1)..dim {
            for j in (k + 1)..dim {
                let num = a[i][j]
                    .checked_mul(a[k][k])
                    .and_then(|x| x.checked_sub(a[i][k].checked_mul(a[k][j]).expect("overflow")))
                    .expect("overflow in Bareiss elimination");
                a[i][j] = num / prev;
            }
            a[i][k] = 0;
        }
        prev = a[k][k];
    }
    let det = sign * a[dim - 1][dim - 1];
    assert!(det >= 0, "tree count cannot be negative");
    det as u128
}

/// Canonical representation of a spanning tree: its edge list sorted, each
/// edge as `(min, max)`.
pub type TreeKey = Vec<(NodeId, NodeId)>;

/// Canonicalizes an edge set into a [`TreeKey`].
pub fn canonical_tree_key<I: IntoIterator<Item = (NodeId, NodeId)>>(edges: I) -> TreeKey {
    let mut key: TreeKey = edges
        .into_iter()
        .map(|(u, v)| if u <= v { (u, v) } else { (v, u) })
        .collect();
    key.sort_unstable();
    key
}

/// Whether an edge set is a spanning tree of `g` (n-1 edges of `g`,
/// acyclic, spanning).
pub fn is_spanning_tree(g: &Graph, edges: &[(NodeId, NodeId)]) -> bool {
    if edges.len() != g.n() - 1 {
        return false;
    }
    let mut dsu = DisjointSets::new(g.n());
    for &(u, v) in edges {
        if u >= g.n() || v >= g.n() || !g.has_edge(u, v) || !dsu.union(u, v) {
            return false;
        }
    }
    dsu.components() == 1
}

/// Enumerates all spanning trees of a small graph, returned as sorted
/// [`TreeKey`]s (so the index of a sampled tree can be found by binary
/// search).
///
/// Runs over all `C(m, n-1)` edge subsets.
///
/// # Panics
///
/// Panics if the number of subsets exceeds ~10 million.
pub fn enumerate_spanning_trees(g: &Graph) -> Vec<TreeKey> {
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let m = edges.len();
    let k = g.n() - 1;
    assert!(k <= m, "graph has too few edges to span");
    let combos = binomial(m, k);
    assert!(combos <= 10_000_000, "too many edge subsets ({combos})");
    let mut out = Vec::new();
    let mut choice: Vec<usize> = (0..k).collect();
    loop {
        let candidate: Vec<(NodeId, NodeId)> = choice.iter().map(|&i| edges[i]).collect();
        if is_spanning_tree(g, &candidate) {
            out.push(canonical_tree_key(candidate));
        }
        // Next combination in lexicographic order.
        let mut i = k;
        loop {
            if i == 0 {
                out.sort_unstable();
                return out;
            }
            i -= 1;
            if choice[i] != i + m - k {
                break;
            }
        }
        choice[i] += 1;
        for j in (i + 1)..k {
            choice[j] = choice[j - 1] + 1;
        }
    }
}

fn binomial(n: usize, k: usize) -> u128 {
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    acc
}

/// Index of `key` in the sorted output of [`enumerate_spanning_trees`].
pub fn tree_index(trees: &[TreeKey], key: &TreeKey) -> Option<usize> {
    trees.binary_search(key).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cayley_formula() {
        // K_n has n^{n-2} spanning trees.
        assert_eq!(spanning_tree_count(&generators::complete(3)), 3);
        assert_eq!(spanning_tree_count(&generators::complete(4)), 16);
        assert_eq!(spanning_tree_count(&generators::complete(5)), 125);
        assert_eq!(spanning_tree_count(&generators::complete(6)), 1296);
    }

    #[test]
    fn cycle_has_n_trees() {
        assert_eq!(spanning_tree_count(&generators::cycle(7)), 7);
    }

    #[test]
    fn tree_has_one_tree() {
        assert_eq!(spanning_tree_count(&generators::binary_tree(9)), 1);
        assert_eq!(spanning_tree_count(&generators::path(9)), 1);
    }

    #[test]
    fn disconnected_has_zero() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(spanning_tree_count(&g), 0);
    }

    #[test]
    fn enumeration_matches_kirchhoff() {
        for g in [
            generators::complete(4),
            generators::complete(5),
            generators::cycle(6),
            generators::grid2d(2, 3),
        ] {
            let trees = enumerate_spanning_trees(&g);
            assert_eq!(trees.len() as u128, spanning_tree_count(&g));
            // All enumerated trees really are spanning trees, and are unique.
            for t in &trees {
                assert!(is_spanning_tree(&g, t));
            }
            let mut dedup = trees.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), trees.len());
        }
    }

    #[test]
    fn spanning_tree_checks() {
        let g = generators::cycle(4);
        assert!(is_spanning_tree(&g, &[(0, 1), (1, 2), (2, 3)]));
        assert!(!is_spanning_tree(&g, &[(0, 1), (1, 2)])); // too few
        assert!(!is_spanning_tree(&g, &[(0, 1), (1, 2), (0, 2)])); // non-edge
        let k4 = generators::complete(4);
        assert!(!is_spanning_tree(&k4, &[(0, 1), (1, 2), (0, 2)])); // cycle
    }

    #[test]
    fn tree_key_canonicalization_and_lookup() {
        let g = generators::cycle(4);
        let trees = enumerate_spanning_trees(&g);
        let key = canonical_tree_key([(2, 1), (0, 1), (3, 2)]);
        assert_eq!(key, vec![(0, 1), (1, 2), (2, 3)]);
        assert!(tree_index(&trees, &key).is_some());
        let bogus = canonical_tree_key([(0, 1), (1, 2), (1, 3)]);
        assert_eq!(tree_index(&trees, &bogus), None);
    }
}
