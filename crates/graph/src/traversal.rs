//! Breadth-first traversal, connectivity and diameter computations.
//!
//! The paper's algorithms are parameterized by the network diameter `D`;
//! the experiments compute it exactly via all-pairs BFS for the graph
//! sizes we simulate.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `s`; unreachable nodes get [`UNREACHABLE`].
///
/// # Panics
///
/// Panics if `s >= g.n()`.
pub fn bfs_distances(g: &Graph, s: NodeId) -> Vec<u32> {
    assert!(s < g.n(), "source out of range");
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    dist[s] = 0;
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for v in g.neighbors(u) {
            if dist[v] == UNREACHABLE {
                dist[v] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS distances and parent pointers from `s`. The parent of `s` and of
/// unreachable nodes is `None`.
pub fn bfs_tree(g: &Graph, s: NodeId) -> (Vec<u32>, Vec<Option<NodeId>>) {
    assert!(s < g.n(), "source out of range");
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut parent = vec![None; g.n()];
    let mut queue = VecDeque::new();
    dist[s] = 0;
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        for v in g.neighbors(u) {
            if dist[v] == UNREACHABLE {
                dist[v] = du + 1;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Whether the graph is connected.
pub fn is_connected(g: &Graph) -> bool {
    bfs_distances(g, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Component label for every node (labels are `0..component_count`).
pub fn connected_components(g: &Graph) -> (usize, Vec<usize>) {
    let mut label = vec![usize::MAX; g.n()];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for s in 0..g.n() {
        if label[s] != usize::MAX {
            continue;
        }
        label[s] = next;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if label[v] == usize::MAX {
                    label[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (next, label)
}

/// Induced subgraph on the largest connected component. Returns the
/// subgraph and the mapping `new id -> old id`.
pub fn largest_component(g: &Graph) -> (Graph, Vec<NodeId>) {
    let (k, label) = connected_components(g);
    let mut sizes = vec![0usize; k];
    for &l in &label {
        sizes[l] += 1;
    }
    let best = (0..k)
        .max_by_key(|&i| sizes[i])
        .expect("at least one component");
    let mut old_of_new = Vec::with_capacity(sizes[best]);
    let mut new_of_old = vec![usize::MAX; g.n()];
    for v in 0..g.n() {
        if label[v] == best {
            new_of_old[v] = old_of_new.len();
            old_of_new.push(v);
        }
    }
    let edges = g
        .edges()
        .filter(|&(u, v)| label[u] == best && label[v] == best)
        .map(|(u, v)| (new_of_old[u], new_of_old[v]));
    let sub = Graph::from_edges(old_of_new.len(), edges).expect("component edges are valid");
    (sub, old_of_new)
}

/// Eccentricity of `s`: the largest BFS distance from `s`.
///
/// # Panics
///
/// Panics if the graph is disconnected.
pub fn eccentricity(g: &Graph, s: NodeId) -> usize {
    let dist = bfs_distances(g, s);
    let max = dist.iter().max().copied().unwrap_or(0);
    assert!(max != UNREACHABLE, "eccentricity of a disconnected graph");
    max as usize
}

/// Exact diameter by all-pairs BFS (`O(n m)`, fine for simulated sizes).
///
/// # Panics
///
/// Panics if the graph is disconnected.
pub fn diameter_exact(g: &Graph) -> usize {
    (0..g.n()).map(|s| eccentricity(g, s)).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_path() {
        let g = generators::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_tree_parents_are_closer() {
        let g = generators::torus2d(4, 4);
        let (dist, parent) = bfs_tree(&g, 0);
        for v in 1..g.n() {
            let p = parent[v].expect("connected graph");
            assert_eq!(dist[p] + 1, dist[v]);
            assert!(g.has_edge(p, v));
        }
    }

    #[test]
    fn connectivity() {
        assert!(is_connected(&generators::cycle(10)));
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&g));
        let (k, label) = connected_components(&g);
        assert_eq!(k, 2);
        assert_eq!(label[0], label[1]);
        assert_eq!(label[2], label[3]);
        assert_ne!(label[0], label[2]);
    }

    #[test]
    fn largest_component_extraction() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let (sub, map) = largest_component(&g);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 2);
        assert_eq!(map, vec![0, 1, 2]);
        assert!(is_connected(&sub));
    }

    #[test]
    fn diameters() {
        assert_eq!(diameter_exact(&generators::path(10)), 9);
        assert_eq!(diameter_exact(&generators::cycle(10)), 5);
        assert_eq!(diameter_exact(&generators::complete(10)), 1);
        assert_eq!(diameter_exact(&generators::star(10)), 2);
        assert_eq!(diameter_exact(&generators::grid2d(4, 4)), 6);
    }

    #[test]
    #[should_panic]
    fn eccentricity_disconnected_panics() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        eccentricity(&g, 0);
    }
}
