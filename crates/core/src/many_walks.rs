//! `MANY-RANDOM-WALKS` (Section 2.3): `k` walks of length `l` from
//! arbitrary (not necessarily distinct) sources in
//! `~O(min(sqrt(k l D) + k, k + l))` rounds (Theorem 2.8).
//!
//! The request's driver (`network/drivers.rs`) picks between two regimes
//! exactly as the paper does: if the scaled
//! `lambda = c (sqrt(k l D) + k)` reaches `l`, all `k` tokens simply
//! walk naively *simultaneously* (edge queues absorb the congestion,
//! giving the `k + l` branch); otherwise one Phase 1 prepares a shared
//! short-walk store — when `l >= 2 * lambda`, i.e. when a token can
//! stitch at all — and the [`crate::StitchScheduler`] multiplexes the
//! sampling, replenishment and tail sub-protocols of all `k` walks by
//! walk id into **one** engine run. Concurrent stitches share CONGEST
//! rounds, which is what keeps the bound at `sqrt(k l D) + k` instead
//! of `k * sqrt(l D)`.

use crate::single_walk::Segment;
use crate::state::WalkState;
use drw_graph::NodeId;

/// Answer to a [`crate::Request::ManyWalks`].
#[derive(Debug, Clone)]
#[must_use = "a many-walks result carries the sampled destinations and round bill"]
pub struct ManyWalksResult {
    /// Destination of each walk, in source order.
    pub destinations: Vec<NodeId>,
    /// Total CONGEST rounds.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// The `lambda` computed for the Theorem 2.8 regime decision. In
    /// the stitched regime this is the base length Phase 1 used; under
    /// the naive fallback it is the (clamped) `lambda_many` whose
    /// comparison against `l` *triggered* the fallback — no stitching
    /// consumed it, which [`ManyWalksResult::used_naive_fallback`]
    /// discriminates. Only the degenerate `k = 0` call reports 0 (no
    /// regime decision was made).
    pub lambda: u32,
    /// Whether the `k + l` naive branch was taken.
    pub used_naive_fallback: bool,
    /// Total stitches across all walks.
    pub stitches: u64,
    /// Total `GET-MORE-WALKS` invocations.
    pub gmw_invocations: u64,
    /// How many times each node served as a connector.
    pub connector_visits: Vec<u32>,
    /// Per-walk stitch traces, in source order (all empty in the
    /// naive-fallback regime).
    pub segments: Vec<Vec<Segment>>,
    /// Rounds spent estimating the diameter (initial BFS).
    pub rounds_bfs: u64,
    /// Rounds spent preparing the shared short-walk store (Phase 1).
    pub rounds_phase1: u64,
    /// Rounds spent in Phase 2 — stitching and tails (or, in the
    /// fallback regime, the simultaneous naive walks). The three phase
    /// counters always sum to `rounds`.
    pub rounds_phase2: u64,
    /// Final walk state: the leftover short-walk store and forwarding
    /// logs (empty in the naive-fallback regime).
    pub state: WalkState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error, Network, Request, WalkError};
    use drw_graph::{generators, Graph};

    /// One many-walks request on a fresh network.
    fn many(g: &Graph, sources: &[NodeId], len: u64, seed: u64) -> Result<ManyWalksResult, Error> {
        let mut net = Network::builder(g).seed(seed).build();
        net.run(Request::many_walks(sources.to_vec(), len))
            .map(|r| r.into_many_walks())
    }

    #[test]
    fn empty_sources_is_trivial() {
        let g = generators::path(4);
        let r = many(&g, &[], 100, 1).unwrap();
        assert!(r.destinations.is_empty());
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn naive_fallback_for_many_short_walks() {
        // Large k, small l: lambda_many > l, so the k + l branch runs.
        let g = generators::torus2d(4, 4);
        let sources: Vec<usize> = (0..16).collect();
        let r = many(&g, &sources, 8, 2).unwrap();
        assert!(r.used_naive_fallback);
        assert_eq!(r.stitches, 0);
        assert_eq!(r.destinations.len(), 16);
        // The regime decision's lambda is reported even though no
        // stitching used it (lambda_many clamps at l here).
        assert_eq!(r.lambda, 8);
        // The phase counters reconcile in the fallback too.
        assert_eq!(r.rounds_bfs + r.rounds_phase1 + r.rounds_phase2, r.rounds);
        assert_eq!(r.rounds_phase1, 0);
    }

    #[test]
    fn bad_source_rejected() {
        let g = generators::path(4);
        let err = many(&g, &[0, 7], 10, 1).unwrap_err();
        assert_eq!(err, Error::Walk(WalkError::SourceOutOfRange(7)));
    }
}
