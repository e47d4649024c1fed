//! `MANY-RANDOM-WALKS` (Section 2.3): `k` walks of length `l` from
//! arbitrary (not necessarily distinct) sources in
//! `~O(min(sqrt(k l D) + k, k + l))` rounds (Theorem 2.8).
//!
//! The driver picks between two regimes exactly as the paper does: if
//! the scaled `lambda = c (sqrt(k l D) + k)` exceeds `l`, all `k`
//! tokens simply walk naively *simultaneously* (edge queues absorb the
//! congestion, giving the `k + l` branch); otherwise one Phase 1
//! prepares a shared short-walk store and Phase 2 stitches the walks.
//!
//! Phase 2 itself comes in two strategies ([`StitchStrategy`]):
//!
//! - [`StitchStrategy::Batched`] (the default) hands all `k` walks to
//!   the [`crate::StitchScheduler`], which multiplexes their sampling,
//!   replenishment and tail sub-protocols by walk id into **one**
//!   engine run — concurrent stitches share CONGEST rounds, which is
//!   what keeps the bound at `sqrt(k l D) + k` instead of
//!   `k * sqrt(l D)`.
//! - [`StitchStrategy::SequentialLoop`] stitches the walks one at a
//!   time over the same shared store (the pre-batching driver), batching
//!   only the naive tails. Kept as the measurable baseline the batched
//!   scheduler is regression-tested against, and as the reference
//!   semantics of per-walk stitching.

use crate::naive::{NaiveWalkProtocol, NaiveWalkSpec};
use crate::short_walks::ShortWalksProtocol;
use crate::single_walk::{stitch_prefix, Segment, SingleWalkConfig, StitchSetup, WalkError};
use crate::state::WalkState;
use crate::stitch_scheduler::{StitchScheduler, MAX_WAVE_LANES};
use drw_congest::primitives::BfsTreeProtocol;
use drw_congest::Runner;
use drw_graph::{traversal, Graph, NodeId};
use std::sync::Arc;

/// How Phase 2 advances the `k` walk tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StitchStrategy {
    /// All walks concurrently, multiplexed into one engine run
    /// ([`crate::StitchScheduler`]).
    #[default]
    Batched,
    /// One walk at a time over the shared store (the pre-batching
    /// baseline; naive tails still run together).
    SequentialLoop,
}

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
    /// The Phase-2 strategy that actually ran: `None` when no stitching
    /// happened at all (the naive fallback, or an empty source list),
    /// `Some(..)` otherwise.
    pub strategy: Option<StitchStrategy>,
    /// Final walk state: the leftover short-walk store and forwarding
    /// logs (empty in the naive-fallback regime).
    pub state: WalkState,
}

impl ManyWalksResult {
    /// The Phase-2 strategy that actually ran.
    ///
    /// `None` means **no stitching happened at all** — either the
    /// Theorem 2.8 regime rule took the `k + l` simultaneous-naive
    /// branch (check [`ManyWalksResult::used_naive_fallback`]) or the
    /// source list was empty — so no strategy was ever exercised and
    /// `lambda` reports the regime-*decision* value rather than a
    /// stitching base length. `Some(strategy)` is the strategy whose
    /// stitching produced [`ManyWalksResult::segments`].
    pub fn strategy(&self) -> Option<StitchStrategy> {
        self.strategy
    }
}

/// Performs `k` random walks of `len` steps from `sources` with the
/// default (batched) Phase-2 strategy.
///
/// # Errors
///
/// Same as [`crate::single_random_walk`].
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
    many_random_walks_with(g, sources, len, cfg, seed, StitchStrategy::default())
}

/// [`many_random_walks`] with an explicit Phase-2 strategy.
///
/// Like [`crate::single_random_walk`], this is a thin shim over a
/// throwaway [`crate::Network`] (the [`crate::Request::ManyWalks`]
/// path), seed-for-seed identical to the pre-facade driver.
///
/// # Errors
///
/// Same as [`crate::single_random_walk`].
///
/// # Panics
///
/// The batched strategy multiplexes walks over [`drw_congest::Mux2`]'s
/// 16-bit lane ids, so a stitched-regime call with `k >= 2^16` sources
/// panics (such a run would need `~n * k` lane states anyway — far
/// beyond what the simulator can host).
pub fn many_random_walks_with(
    g: &Graph,
    sources: &[NodeId],
    len: u64,
    cfg: &SingleWalkConfig,
    seed: u64,
    strategy: StitchStrategy,
) -> Result<ManyWalksResult, WalkError> {
    let mut net = crate::network::Network::builder(g)
        .config(cfg.clone())
        .seed(seed)
        .build();
    net.run(crate::request::Request::ManyWalks {
        sources: sources.to_vec(),
        len,
        strategy,
    })
    .map(crate::request::Response::into_many_walks)
    .map_err(crate::error::Error::expect_walk)
}

/// The one-shot `MANY-RANDOM-WALKS` kernel behind
/// [`crate::Request::ManyWalks`] (and hence [`many_random_walks`]):
/// own runner, own BFS, one shared Phase 1 for the `k` walks.
pub(crate) fn many_walks_one_shot(
    g: &Arc<Graph>,
    sources: &[NodeId],
    len: u64,
    cfg: &SingleWalkConfig,
    seed: u64,
    strategy: StitchStrategy,
) -> Result<ManyWalksResult, WalkError> {
    for &s in sources {
        if s >= g.n() {
            return Err(WalkError::SourceOutOfRange(s));
        }
    }
    if !traversal::is_connected(g) {
        return Err(WalkError::Disconnected);
    }
    let k = sources.len() as u64;
    let mut runner = Runner::on(g.clone(), cfg.engine.clone(), seed);
    if sources.is_empty() {
        return Ok(ManyWalksResult {
            destinations: Vec::new(),
            rounds: 0,
            messages: 0,
            lambda: 0,
            used_naive_fallback: false,
            stitches: 0,
            gmw_invocations: 0,
            connector_visits: vec![0; g.n()],
            segments: Vec::new(),
            rounds_bfs: 0,
            rounds_phase1: 0,
            rounds_phase2: 0,
            strategy: None,
            state: WalkState::new(g.n()),
        });
    }

    // Diameter estimate from the first source.
    let mut bfs = BfsTreeProtocol::new(sources[0]);
    runner.run(&mut bfs)?;
    let d_est = bfs.into_tree().depth().max(1) as u64;
    let rounds_bfs = runner.total_rounds();

    let lambda = cfg.params.lambda_many(k, len, d_est);
    // Theorem 2.8: "If lambda > l then run the naive random walk
    // algorithm, i.e., the sources find walks of length l simultaneously
    // by sending tokens." (lambda_many clamps at l, so test >= l.)
    if u64::from(lambda) >= len.max(1) {
        let specs: Vec<NaiveWalkSpec> = sources
            .iter()
            .map(|&source| NaiveWalkSpec {
                source,
                len,
                start_pos: 0,
                record_start: false,
            })
            .collect();
        let mut naive = NaiveWalkProtocol::new(specs, None);
        runner.run(&mut naive)?;
        let result = ManyWalksResult {
            destinations: naive.destinations(),
            rounds: runner.total_rounds(),
            messages: runner.total_messages(),
            lambda,
            used_naive_fallback: true,
            stitches: 0,
            gmw_invocations: 0,
            connector_visits: vec![0; g.n()],
            segments: vec![Vec::new(); sources.len()],
            rounds_bfs,
            rounds_phase1: 0,
            rounds_phase2: runner.total_rounds() - rounds_bfs,
            strategy: None,
            state: WalkState::new(g.n()),
        };
        debug_assert_eq!(
            result.rounds_bfs + result.rounds_phase1 + result.rounds_phase2,
            result.rounds,
            "fallback phase counters must reconcile"
        );
        return Ok(result);
    }

    // Phase 1 once, shared by all k walks.
    let mut state = WalkState::new(g.n());
    let counts: Vec<usize> = (0..g.n())
        .map(|v| {
            if cfg.degree_proportional {
                cfg.params.walks_for_degree(g.degree(v))
            } else {
                cfg.params.walks_for_degree(1)
            }
        })
        .collect();
    let mut p1 = ShortWalksProtocol::new(&mut state, counts, lambda, cfg.randomize_len);
    runner.run_local(&mut p1)?;
    let rounds_phase1 = runner.total_rounds() - rounds_bfs;

    let setup = StitchSetup {
        lambda,
        randomize_len: cfg.randomize_len,
        aggregated_gmw: cfg.aggregated_gmw,
        gmw_count: (len / lambda as u64).max(1),
        record: false,
    };
    let phase2_start = runner.total_rounds();

    let (destinations, segments, stitches, gmw_invocations, connector_visits) = match strategy {
        StitchStrategy::Batched => {
            // Phase 2, multiplexed: one engine run advances every walk's
            // sampling, replenishment and tail concurrently.
            if sources.len() > MAX_WAVE_LANES {
                return Err(WalkError::TooManyLanes(sources.len()));
            }
            let mut sched = StitchScheduler::new(&setup);
            for &source in sources {
                sched.add_walk(source, len);
            }
            let out = sched.run(&mut runner, &mut state)?;
            let mut destinations = Vec::with_capacity(sources.len());
            let mut segments = Vec::with_capacity(sources.len());
            for walk in out.walks {
                destinations.push(walk.destination);
                segments.push(walk.segments);
            }
            let mut connector_visits = vec![0u32; g.n()];
            for (v, visits) in out.connector_visits {
                connector_visits[v] = visits;
            }
            (
                destinations,
                segments,
                out.stitches,
                out.gmw_invocations,
                connector_visits,
            )
        }
        StitchStrategy::SequentialLoop => {
            // Stitch prefixes one walk at a time (they contend for the
            // shared store), but batch all naive tails into ONE
            // concurrent run: tails never touch the store, and running
            // the k tails (each < 2*lambda steps) together costs
            // ~2*lambda rounds instead of k * 2*lambda.
            let mut connector_visits = vec![0u32; g.n()];
            let mut stitches = 0u64;
            let mut gmw_invocations = 0u64;
            let mut segments = Vec::with_capacity(sources.len());
            let mut tails = Vec::with_capacity(sources.len());
            for &source in sources {
                let prefix = stitch_prefix(
                    &mut runner,
                    &mut state,
                    source,
                    len,
                    &setup,
                    &mut connector_visits,
                )?;
                stitches += prefix.stitches;
                gmw_invocations += prefix.gmw_invocations;
                segments.push(prefix.segments);
                tails.push(NaiveWalkSpec {
                    source: prefix.current,
                    len: len - prefix.completed,
                    start_pos: prefix.completed,
                    record_start: false,
                });
            }
            let mut naive = NaiveWalkProtocol::new(tails, None);
            runner.run(&mut naive)?;
            (
                naive.destinations(),
                segments,
                stitches,
                gmw_invocations,
                connector_visits,
            )
        }
    };

    Ok(ManyWalksResult {
        destinations,
        rounds: runner.total_rounds(),
        messages: runner.total_messages(),
        lambda,
        used_naive_fallback: false,
        stitches,
        gmw_invocations,
        connector_visits,
        segments,
        rounds_bfs,
        rounds_phase1,
        rounds_phase2: runner.total_rounds() - phase2_start,
        strategy: Some(strategy),
        state,
    })
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
        // stitching used it (lambda_many clamps at l here), and no
        // strategy ran.
        assert_eq!(r.lambda, 8);
        assert_eq!(r.strategy, None);
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
        for strategy in [StitchStrategy::Batched, StitchStrategy::SequentialLoop] {
            let r = many_random_walks_with(
                &g,
                &[0, 9, 20],
                1024,
                &SingleWalkConfig::default(),
                8,
                strategy,
            )
            .unwrap();
            assert!(!r.used_naive_fallback);
            assert_eq!(
                r.rounds_bfs + r.rounds_phase1 + r.rounds_phase2,
                r.rounds,
                "{strategy:?}"
            );
            assert_eq!(r.strategy, Some(strategy));
        }
    }

    #[test]
    fn sequential_loop_strategy_matches_interface() {
        let g = generators::torus2d(5, 5);
        let r = many_random_walks_with(
            &g,
            &[0, 6, 13],
            512,
            &SingleWalkConfig::default(),
            5,
            StitchStrategy::SequentialLoop,
        )
        .unwrap();
        assert_eq!(r.destinations.len(), 3);
        assert!(r.stitches > 0);
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
