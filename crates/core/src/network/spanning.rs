//! The arithmetic and node-local bookkeeping of the distributed
//! random-spanning-tree algorithm (Theorem 4.1): the doubling schedule,
//! the first-visit table and the tree assembled from it.
//!
//! The algorithm itself — Aldous-Broder simulated with the fast walk
//! machinery, doubling cover-time guesses as recorded walk extensions
//! over a session, `O(D)` convergecast cover checks — is driven in one
//! place, `drivers::TreeDriver`, whether the request arrives one-shot
//! ([`crate::Network::run`], a batch of one over a private session),
//! in a batch, or through the service. See [`crate::TreeMode`] for the
//! reproduction finding on restart bias (the paper-literal
//! [`crate::TreeMode::RestartPhases`] conditions the walk law on fast
//! coverage and is measurably biased; the default
//! [`crate::TreeMode::ExtendWalk`] extends one continuous walk and is
//! exactly uniform); the tests below pin both halves of it.

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
    use crate::{Error, Network, Request, TreeMode, TreeRequest, TreeSample};
    use drw_graph::{generators, matrix_tree};

    /// One spanning-tree request on a fresh network.
    fn tree(g: &Graph, req: TreeRequest, seed: u64) -> Result<TreeSample, Error> {
        let mut net = Network::builder(g).seed(seed).build();
        net.run(Request::SpanningTree(req)).map(|r| r.into_tree())
    }

    /// Chi-square of 1600 sampled K4 trees against uniform over its 16.
    fn k4_uniformity(mode: TreeMode, seed_base: u64) -> drw_stats::ChiSquare {
        let g = generators::complete(4);
        let trees = matrix_tree::enumerate_spanning_trees(&g);
        assert_eq!(trees.len(), 16);
        let mut counts = vec![0u64; trees.len()];
        for seed in 0..1600u64 {
            let req = TreeRequest {
                mode,
                ..TreeRequest::new(0)
            };
            let t = tree(&g, req, seed_base + seed).unwrap();
            counts[matrix_tree::tree_index(&trees, &t.edges).expect("valid tree")] += 1;
        }
        drw_stats::chi_square_uniform(&counts)
    }

    #[test]
    fn extend_mode_is_uniform_on_a_small_graph() {
        // The test that *fails* in RestartPhases mode (see
        // restart_mode_is_biased below): the reproduction finding.
        let t = k4_uniformity(TreeMode::ExtendWalk, 7000);
        assert!(t.passes(0.001), "{t:?}");
    }

    #[test]
    fn restart_mode_is_biased() {
        // The paper-literal restart scheme conditions on fast coverage;
        // on K4 with initial length n the bias is large enough for
        // chi-square to reject uniformity decisively.
        let t = k4_uniformity(TreeMode::RestartPhases, 9000);
        assert!(!t.passes(0.001), "restart mode unexpectedly uniform: {t:?}");
    }

    #[test]
    fn session_pays_exactly_one_bfs_and_beats_per_phase_rebuilds() {
        // A multi-phase extend run performs one BFS for the whole
        // request and, at a size where per-phase setup is non-trivial,
        // costs fewer rounds than serving each phase's recorded walk
        // one-shot (its own BFS and full Phase 1 every time). (On toy
        // graphs the session can lose: its upgrade relaunches are priced
        // against setups that cost almost nothing.)
        let g = generators::torus2d(16, 16);
        let initial_len = 32;
        let req = TreeRequest {
            initial_len,
            ..TreeRequest::new(0)
        };
        let s = tree(&g, req, 21).unwrap();
        assert!(s.phases > 3, "initial_len 32 must take several phases");
        assert_eq!(s.bfs_runs, 1, "one BFS per tree request");
        assert!(matrix_tree::is_spanning_tree(&g, &s.edges));

        let mut one_shot = Network::builder(&g).seed(21).build();
        let rebuild: u64 = (0..s.phases)
            .map(|phase| {
                let walk = Request::Walk {
                    source: 0,
                    len: initial_len << phase,
                    record: true,
                };
                one_shot.run(walk).expect("one-shot phase walk").rounds()
            })
            .sum();
        assert!(
            s.rounds < rebuild,
            "session {} rounds vs per-phase rebuilds {rebuild}",
            s.rounds
        );
    }

    #[test]
    fn path_graph_with_unit_initial_len_regression() {
        // Initial length 1 maximizes phase count and hand-off positions;
        // the boundary visit must never surface as a predecessor-less
        // first visit (panic) or smuggle a non-edge into the tree. A path
        // has only one spanning tree, itself, so corruption is
        // unambiguous.
        let g = generators::path(8);
        let expected: TreeKey = canonical_tree_key(g.edges());
        let req = TreeRequest {
            initial_len: 1,
            max_phases: 60,
            ..TreeRequest::new(0)
        };
        for seed in 0..10u64 {
            let r = tree(&g, req.clone(), 3000 + seed).unwrap();
            assert_eq!(r.edges, expected, "seed={seed}");
            assert!(r.phases > 1, "unit initial length must take phases");
        }
    }

    #[test]
    fn doubling_overflow_is_a_capped_error() {
        // A first segment past the total-length cap errors out before
        // walking anything, in both modes.
        let g = generators::complete(4);
        for mode in [TreeMode::ExtendWalk, TreeMode::RestartPhases] {
            let req = TreeRequest {
                initial_len: MAX_TOTAL_WALK_LEN + 1,
                max_phases: 3,
                mode,
                ..TreeRequest::new(0)
            };
            let err = tree(&g, req, 1).unwrap_err();
            let expected = Error::LengthOverflow {
                phases: 0,
                walked: 0,
            };
            assert_eq!(err, expected, "{mode:?}");
        }
    }

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
