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

use crate::single_walk::{Segment, SingleWalkConfig, WalkError};
use crate::state::WalkState;
use drw_graph::{Graph, NodeId};

/// Result of [`many_random_walks`].
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

/// Performs `k` random walks of `len` steps from `sources`.
///
/// Like [`crate::single_random_walk`], this is a thin shim over a
/// throwaway [`crate::Network`] (the [`crate::Request::ManyWalks`]
/// path).
///
/// # Errors
///
/// Same as [`crate::single_random_walk`], plus
/// [`WalkError::TooManyLanes`] for `k >= 2^16` sources: the walks of one
/// request ride one multiplexed wave, whose [`drw_congest::Mux2`] lane
/// tag is 16 bits wide (such a run would need `~n * k` lane states
/// anyway — far beyond what the simulator can host).
///
/// # Example
///
/// ```
/// use drw_core::{many_random_walks, SingleWalkConfig};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_core::WalkError> {
/// let g = generators::torus2d(6, 6);
/// let r = many_random_walks(&g, &[0, 0, 7, 20], 256, &SingleWalkConfig::default(), 5)?;
/// assert_eq!(r.destinations.len(), 4);
/// # Ok(())
/// # }
/// ```
pub fn many_random_walks(
    g: &Graph,
    sources: &[NodeId],
    len: u64,
    cfg: &SingleWalkConfig,
    seed: u64,
) -> Result<ManyWalksResult, WalkError> {
    let mut net = crate::network::Network::builder(g)
        .config(cfg.clone())
        .seed(seed)
        .build();
    net.run(crate::request::Request::many_walks(sources.to_vec(), len))
        .map(crate::request::Response::into_many_walks)
        .map_err(crate::error::Error::expect_walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::generators;

    #[test]
    fn returns_one_destination_per_source() {
        let g = generators::torus2d(5, 5);
        let sources = [0, 0, 12, 24, 7];
        let r = many_random_walks(&g, &sources, 200, &SingleWalkConfig::default(), 1).unwrap();
        assert_eq!(r.destinations.len(), 5);
        assert!(r.destinations.iter().all(|&d| d < g.n()));
        assert_eq!(r.segments.len(), 5);
    }

    #[test]
    fn empty_sources_is_trivial() {
        let g = generators::path(4);
        let r = many_random_walks(&g, &[], 100, &SingleWalkConfig::default(), 1).unwrap();
        assert!(r.destinations.is_empty());
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn naive_fallback_for_many_short_walks() {
        // Large k, small l: lambda_many > l, so the k + l branch runs.
        let g = generators::torus2d(4, 4);
        let sources: Vec<usize> = (0..16).collect();
        let r = many_random_walks(&g, &sources, 8, &SingleWalkConfig::default(), 2).unwrap();
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
    fn stitched_regime_for_long_walks() {
        let g = generators::torus2d(6, 6);
        let r = many_random_walks(&g, &[0, 18], 4096, &SingleWalkConfig::default(), 3).unwrap();
        assert!(!r.used_naive_fallback);
        assert!(r.stitches > 0);
        // Two stitched walks should still beat 2 * naive.
        assert!(r.rounds < 2 * 4096, "rounds = {}", r.rounds);
    }

    #[test]
    fn parity_preserved_for_every_walk() {
        let g = generators::torus2d(4, 4);
        let sources = [0usize, 5, 10];
        let r = many_random_walks(&g, &sources, 64, &SingleWalkConfig::default(), 4).unwrap();
        for (&s, &d) in sources.iter().zip(&r.destinations) {
            let ps = (s / 4 + s % 4) % 2;
            let pd = (d / 4 + d % 4) % 2;
            assert_eq!(ps, pd, "even-length walk from {s} to {d} broke parity");
        }
    }

    #[test]
    fn phase_round_counters_sum_to_total() {
        let g = generators::torus2d(6, 6);
        let cfg = SingleWalkConfig::default();
        let r = many_random_walks(&g, &[0, 9, 20], 1024, &cfg, 8).unwrap();
        assert!(!r.used_naive_fallback);
        assert!(r.stitches > 0 && r.rounds_phase1 > 0);
        assert_eq!(r.rounds_bfs + r.rounds_phase1 + r.rounds_phase2, r.rounds);
        for (w, segs) in r.segments.iter().enumerate() {
            assert!(r.stitches >= segs.len() as u64, "walk {w} segment count");
        }
    }

    #[test]
    fn bad_source_rejected() {
        let g = generators::path(4);
        let err = many_random_walks(&g, &[0, 7], 10, &SingleWalkConfig::default(), 1).unwrap_err();
        assert_eq!(err, WalkError::SourceOutOfRange(7));
    }
}
