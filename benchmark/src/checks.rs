//! Correctness checks on the program's outputs, and the output digest.
//!
//! A failed check fails the run (non-zero exit); the digest is a field
//! of the record, not a metric — `compare` flags any change to it.

use drw_graph::dsu::DisjointSets;
use drw_graph::NodeId;

/// FNV-1a over 64-bit words: the hash of a workload's outputs
/// (destinations, tree edge sets, completion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Checks that `edges` is a spanning tree of the `n`-node graph whose
/// adjacency is `is_edge`: exactly `n - 1` edges, each an edge of the
/// graph, acyclic (hence connected).
///
/// # Errors
///
/// A description of the first violated property.
pub fn check_tree(
    n: usize,
    edges: &[(NodeId, NodeId)],
    is_edge: impl Fn(NodeId, NodeId) -> bool,
) -> Result<(), String> {
    if edges.len() + 1 != n {
        return Err(format!("tree has {} edges, want {}", edges.len(), n - 1));
    }
    let mut dsu = DisjointSets::new(n);
    for &(u, v) in edges {
        if u >= n || v >= n || !is_edge(u, v) {
            return Err(format!("tree edge ({u}, {v}) is not an edge of the graph"));
        }
        if !dsu.union(u, v) {
            return Err(format!("tree edge ({u}, {v}) closes a cycle"));
        }
    }
    Ok(())
}

/// Checks one served trace's bookkeeping: every submission was either
/// completed or rejected, every accepted ticket (ids are issued densely
/// from 0) resolved exactly once, and the round bills reconcile.
///
/// # Errors
///
/// A description of the first violated property.
pub fn check_service(
    events: usize,
    completed_tickets: &[u64],
    rejected: usize,
    reconciles: bool,
) -> Result<(), String> {
    if completed_tickets.len() + rejected != events {
        return Err(format!(
            "{} completions + {rejected} rejections != {events} events",
            completed_tickets.len()
        ));
    }
    let mut tickets = completed_tickets.to_vec();
    tickets.sort_unstable();
    if let Some((want, &got)) = (0u64..).zip(&tickets).find(|&(want, &got)| want != got) {
        return Err(format!(
            "ticket {want} unresolved or resolved twice (saw {got})"
        ));
    }
    if !reconciles {
        return Err("tenant bills + setup + churn != engine rounds".into());
    }
    Ok(())
}
