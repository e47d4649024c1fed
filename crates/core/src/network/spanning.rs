//! The arithmetic and node-local bookkeeping of the distributed
//! random-spanning-tree algorithm (Theorem 4.1): the doubling schedule,
//! the first-visit table and the tree assembled from it.
//!
//! The algorithm itself — Aldous-Broder simulated with the fast walk
//! machinery, doubling cover-time guesses as recorded walk extensions
//! over a session, `O(D)` convergecast cover checks — is driven in one
//! place, `drivers::TreeDriver`, whether the request arrives one-shot
//! ([`crate::Network::run`], a batch of one over a private session),
//! in a batch, or through the service. See `drw-spanning`'s module
//! docs for the reproduction finding on restart bias
//! ([`crate::TreeMode::RestartPhases`] conditions the walk law on fast
//! coverage and is measurably biased; the default
//! [`crate::TreeMode::ExtendWalk`] extends one continuous walk and is
//! exactly uniform) and for the segment-boundary accounting.

use drw_graph::matrix_tree::{canonical_tree_key, is_spanning_tree, TreeKey};
use drw_graph::{Graph, NodeId};

/// Cap on the cumulative walked length of the doubling schedule. Far
/// beyond any simulable cover time; exists so a runaway doubling
/// surfaces as [`crate::Error::LengthOverflow`] instead of `u64` wraparound
/// (which would silently reset segment lengths and break the doubling
/// invariant).
pub const MAX_TOTAL_WALK_LEN: u64 = 1 << 62;

/// The doubling schedule with overflow accounting: segment length
/// `initial_len * 2^(phase - 1)` for 1-based `phase`, and the cumulative
/// total after walking it from `walked`. `None` when the shift, the
/// multiply or the running total would overflow `u64`, or when the total
/// would pass [`MAX_TOTAL_WALK_LEN`].
pub(crate) fn doubling_step(initial_len: u64, phase: u32, walked: u64) -> Option<(u64, u64)> {
    let seg_len = 1u64
        .checked_shl(phase - 1)
        .and_then(|m| initial_len.checked_mul(m))?;
    let total = walked.checked_add(seg_len)?;
    (total <= MAX_TOTAL_WALK_LEN).then_some((seg_len, total))
}

/// Walks per phase in restart mode: `ceil(log2 n)` as in the paper when
/// unconfigured.
pub(crate) fn walks_per_phase(n: usize, configured: usize) -> usize {
    if configured == 0 {
        (n as f64).log2().ceil().max(1.0) as usize
    } else {
        configured
    }
}

/// Assembles the tree from per-node first visits (root excluded).
///
/// # Panics
///
/// Panics (via `expect`) if a non-root node's first visit carries no
/// predecessor — structurally impossible for session extensions (every
/// extension visit has a predecessor).
pub(crate) fn tree_from_first_visits(
    g: &Graph,
    root: NodeId,
    first: &[Option<(u64, Option<NodeId>)>],
) -> TreeKey {
    let edges = (0..g.n()).filter(|&v| v != root).map(|v| {
        let (_, pred) = first[v].expect("covered");
        (pred.expect("non-root first visits have predecessors"), v)
    });
    let key = canonical_tree_key(edges);
    debug_assert!(is_spanning_tree(g, &key));
    key
}

/// Merges one extension visit into the accumulated first-visit table.
/// Entries from earlier phases carry positions at or below the current
/// extension's offset while extension visits sit strictly above it, so
/// an overwrite (a smaller position for an already-seen node) can only
/// come from this very extension's unsorted visit list.
pub(crate) fn merge_first_visit(
    first: &mut [Option<(u64, Option<NodeId>)>],
    v: NodeId,
    pos: u64,
    pred: NodeId,
) {
    if first[v].is_none_or(|(p, _)| p > pos) {
        first[v] = Some((pos, Some(pred)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_step_arithmetic() {
        // Plain doubling.
        assert_eq!(doubling_step(16, 1, 0), Some((16, 16)));
        assert_eq!(doubling_step(16, 3, 48), Some((64, 112)));
        // Shift overflow (phase - 1 >= 64).
        assert_eq!(doubling_step(1, 70, 0), None);
        // Multiply overflow.
        assert_eq!(doubling_step(u64::MAX / 2, 3, 0), None);
        // Accumulation overflow.
        assert_eq!(doubling_step(u64::MAX / 2, 1, u64::MAX / 2 + 2), None);
        // Total-length cap.
        assert_eq!(doubling_step(MAX_TOTAL_WALK_LEN, 2, 0), None);
        assert_eq!(
            doubling_step(MAX_TOTAL_WALK_LEN, 1, 0),
            Some((MAX_TOTAL_WALK_LEN, MAX_TOTAL_WALK_LEN))
        );
    }

    #[test]
    fn merge_prefers_smaller_positions() {
        let mut first = vec![None; 3];
        merge_first_visit(&mut first, 1, 10, 0);
        assert_eq!(first[1], Some((10, Some(0))));
        merge_first_visit(&mut first, 1, 5, 2);
        assert_eq!(first[1], Some((5, Some(2))));
        merge_first_visit(&mut first, 1, 7, 0);
        assert_eq!(first[1], Some((5, Some(2))));
    }
}
