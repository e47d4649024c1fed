//! The distributed random-spanning-tree algorithm (Theorem 4.1), as a
//! client of the [`drw_core::Network`] facade.
//!
//! The execution engine — Aldous-Broder simulated with the fast walk
//! machinery, doubling cover-time guesses, regenerated walks, `O(D)`
//! convergecast cover checks, node-local first-visit-edge extraction —
//! lives in `drw-core` behind [`drw_core::Request::SpanningTree`]
//! (sampling a tree is just *serving a walk request*, which is the
//! whole point of the facade). This module keeps the familiar
//! [`distributed_rst`] entry point as a thin shim over a throwaway
//! [`Network`], seed-for-seed identical to the pre-facade driver, plus
//! the legacy configuration/error types.
//!
//! # A reproduction finding: restart bias
//!
//! The paper's phase structure *restarts*: "perform again log n walks of
//! length l ... until one walk of length l covers all nodes". Taking the
//! first *covering* fixed-length walk conditions the walk law on the
//! event `{cover time <= l}`, and first-entry trees are correlated with
//! cover speed — so the literal scheme is *measurably biased* at small
//! lengths (our experiment E9 detects it at p < 1e-9 on `K_4`; the
//! paper's w.h.p. guarantee hides the bias only because its constants
//! make non-coverage astronomically rare). The default mode instead
//! **extends one continuous walk** across phases: a prefix-covering walk
//! is unconditioned, so the tree is *exactly* uniform, with the same
//! asymptotic round bound. [`RstMode::RestartPhases`] keeps the literal
//! scheme for the bias-demonstration ablation.

use drw_core::{Error, Network, Request, SingleWalkConfig, TreeMode, TreeRequest, WalkError};
use drw_graph::{Graph, NodeId};
use std::fmt;

/// The total-length cap of the doubling schedule (re-exported from the
/// core engine): exceeding it surfaces as [`RstError::LengthOverflow`].
pub use drw_core::network::MAX_TOTAL_WALK_LEN;

/// Result of [`distributed_rst`] — the facade's tree-sample response
/// under its historical name.
pub use drw_core::TreeSample as RstResult;

/// Errors from [`distributed_rst`].
///
/// Kept as the legacy error surface; the facade's unified
/// [`drw_core::Error`] converts losslessly in both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RstError {
    /// The underlying walk failed.
    Walk(WalkError),
    /// No covering walk within the configured phase budget.
    NotCovered {
        /// Phases attempted.
        phases: u32,
        /// Final walk length tried.
        final_len: u64,
    },
    /// The doubling schedule hit the total-length cap (or would have
    /// overflowed `u64`) before coverage — detected *before* walking the
    /// offending segment.
    LengthOverflow {
        /// Phases completed before the overflow.
        phases: u32,
        /// Total length walked so far.
        walked: u64,
    },
}

impl fmt::Display for RstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RstError::Walk(e) => write!(f, "walk error: {e}"),
            RstError::NotCovered { phases, final_len } => write!(
                f,
                "no covering walk after {phases} phases (final length {final_len})"
            ),
            RstError::LengthOverflow { phases, walked } => write!(
                f,
                "doubling schedule overflowed the total-length cap after \
                 {phases} phases ({walked} steps walked)"
            ),
        }
    }
}

impl std::error::Error for RstError {}

impl From<WalkError> for RstError {
    fn from(e: WalkError) -> Self {
        RstError::Walk(e)
    }
}

/// Lossless mapping onto the facade's unified error (the satellite
/// direction: legacy enums remain as *sources* of [`drw_core::Error`]).
impl From<RstError> for Error {
    fn from(e: RstError) -> Self {
        match e {
            RstError::Walk(w) => Error::Walk(w),
            RstError::NotCovered { phases, final_len } => Error::NotCovered { phases, final_len },
            RstError::LengthOverflow { phases, walked } => Error::LengthOverflow { phases, walked },
        }
    }
}

impl From<Error> for RstError {
    fn from(e: Error) -> Self {
        match e {
            Error::Walk(w) => RstError::Walk(w),
            Error::NotCovered { phases, final_len } => RstError::NotCovered { phases, final_len },
            Error::LengthOverflow { phases, walked } => RstError::LengthOverflow { phases, walked },
            // Spanning-tree requests never mutate the topology, so a
            // delta rejection cannot reach this shim.
            Error::Graph(_) => unreachable!("tree requests apply no topology deltas"),
        }
    }
}

/// How phases relate to the walk (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RstMode {
    /// Extend one continuous walk until it covers — exactly uniform
    /// (the default).
    #[default]
    ExtendWalk,
    /// The paper's literal scheme: fresh fixed-length walks, accept the
    /// first that covers. Biased toward fast-covering trees; kept for the
    /// ablation that demonstrates the bias.
    RestartPhases,
}

impl From<RstMode> for TreeMode {
    fn from(mode: RstMode) -> Self {
        match mode {
            RstMode::ExtendWalk => TreeMode::ExtendWalk,
            RstMode::RestartPhases => TreeMode::RestartPhases,
        }
    }
}

/// Configuration of [`distributed_rst`].
#[derive(Debug, Clone)]
pub struct RstConfig {
    /// Walk configuration (`record_walk` is forced on internally, which
    /// also forces the replayable per-token `GET-MORE-WALKS`).
    pub walk: SingleWalkConfig,
    /// Phase/extension mode.
    pub mode: RstMode,
    /// Walks per phase in [`RstMode::RestartPhases`]; `0` means
    /// `ceil(log2 n)` as in the paper. Ignored by `ExtendWalk`.
    pub walks_per_phase: usize,
    /// Initial length guess; `0` means `n` as in the paper.
    pub initial_len: u64,
    /// Phase budget before giving up (lengths double each phase).
    pub max_phases: u32,
}

impl Default for RstConfig {
    fn default() -> Self {
        RstConfig {
            walk: SingleWalkConfig::default(),
            mode: RstMode::ExtendWalk,
            walks_per_phase: 0,
            initial_len: 0,
            max_phases: 40,
        }
    }
}

impl RstConfig {
    /// The facade request this configuration describes.
    pub fn to_request(&self, root: NodeId) -> TreeRequest {
        TreeRequest {
            root,
            mode: self.mode.into(),
            walks_per_phase: self.walks_per_phase,
            initial_len: self.initial_len,
            max_phases: self.max_phases,
        }
    }
}

/// Samples a random spanning tree of `g` with the distributed algorithm
/// of Section 4.1 (exactly uniform in the default [`RstMode::ExtendWalk`]).
///
/// A thin shim over a throwaway [`Network`] issuing one
/// [`Request::SpanningTree`]; regression-tested to stay seed-for-seed
/// identical to the pre-facade driver. Callers composing tree requests
/// with other traffic should hold a [`Network`] and batch them instead.
///
/// # Errors
///
/// [`RstError::Walk`] on walk failures, [`RstError::NotCovered`] if the
/// phase budget is exhausted (astronomically unlikely at the defaults on
/// a connected graph), [`RstError::LengthOverflow`] if the doubling
/// schedule runs past the total-length cap first.
pub fn distributed_rst(
    g: &Graph,
    root: NodeId,
    cfg: &RstConfig,
    seed: u64,
) -> Result<RstResult, RstError> {
    let mut net = Network::builder(g)
        .config(cfg.walk.clone())
        .seed(seed)
        .build();
    net.run(Request::SpanningTree(cfg.to_request(root)))
        .map(drw_core::Response::into_tree)
        .map_err(RstError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::matrix_tree::{canonical_tree_key, TreeKey};
    use drw_graph::{generators, matrix_tree};

    #[test]
    fn produces_a_spanning_tree_in_all_modes() {
        for mode in [RstMode::ExtendWalk, RstMode::RestartPhases] {
            for (i, g) in [
                generators::torus2d(4, 4),
                generators::complete(8),
                generators::lollipop(5, 5),
            ]
            .iter()
            .enumerate()
            {
                let cfg = RstConfig {
                    mode,
                    ..RstConfig::default()
                };
                let r = distributed_rst(g, 0, &cfg, 100 + i as u64).unwrap();
                assert!(matrix_tree::is_spanning_tree(g, &r.edges), "{mode:?}");
                assert!(r.attempts >= 1);
            }
        }
    }

    #[test]
    fn tree_graph_recovers_itself() {
        let g = generators::binary_tree(7);
        let r = distributed_rst(&g, 0, &RstConfig::default(), 5).unwrap();
        let expected: TreeKey = canonical_tree_key(g.edges());
        assert_eq!(r.edges, expected);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::torus2d(4, 4);
        let a = distributed_rst(&g, 0, &RstConfig::default(), 9).unwrap();
        let b = distributed_rst(&g, 0, &RstConfig::default(), 9).unwrap();
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn phase_budget_error_surfaces() {
        let g = generators::lollipop(6, 6);
        let cfg = RstConfig {
            initial_len: 1,
            max_phases: 1,
            walks_per_phase: 1,
            mode: RstMode::RestartPhases,
            ..RstConfig::default()
        };
        let err = distributed_rst(&g, 0, &cfg, 1).unwrap_err();
        assert!(
            matches!(err, RstError::NotCovered { phases: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn session_pays_exactly_one_bfs_and_beats_per_phase_rebuilds() {
        // The amortization claim of ISSUE 3, regression-tested: a
        // multi-phase extend run performs one BFS for the whole call
        // and, at a size where per-phase setup is non-trivial, costs
        // fewer rounds than serving each phase's recorded walk one-shot
        // (its own BFS and full Phase 1 every time). (On toy graphs the
        // session can lose — its upgrade relaunches are priced against
        // setups that cost almost nothing; this is E12's --quick
        // workload, full numbers in EXPERIMENTS.md.)
        let g = generators::torus2d(16, 16);
        let cfg = RstConfig {
            initial_len: 32,
            ..RstConfig::default()
        };
        let s = distributed_rst(&g, 0, &cfg, 21).unwrap();
        assert!(s.phases > 3, "initial_len 32 must take several phases");
        assert_eq!(s.bfs_runs, 1, "one BFS per RST call");
        assert!(matrix_tree::is_spanning_tree(&g, &s.edges));

        let mut one_shot = Network::builder(&g).seed(21).build();
        let rebuild: u64 = (0..s.phases)
            .map(|phase| {
                let walk = Request::Walk {
                    source: 0,
                    len: cfg.initial_len << phase,
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
        // The segment-boundary regression of ISSUE 3: initial_len 1
        // maximizes phase count and hand-off positions; the boundary
        // visit must never surface as a predecessor-less first visit
        // (panic) or smuggle a non-edge into the tree. A path has only
        // one spanning tree — itself — so corruption is unambiguous.
        let g = generators::path(8);
        let expected: TreeKey = canonical_tree_key(g.edges());
        let cfg = RstConfig {
            initial_len: 1,
            max_phases: 60,
            ..RstConfig::default()
        };
        for seed in 0..10u64 {
            let r = distributed_rst(&g, 0, &cfg, 3000 + seed).unwrap();
            assert_eq!(r.edges, expected, "seed={seed}");
            assert!(r.phases > 1, "unit initial length must take phases");
        }
    }

    #[test]
    fn doubling_overflow_is_a_capped_error() {
        // A first segment past the total-length cap errors out before
        // walking anything, in both modes.
        let g = generators::complete(4);
        for mode in [RstMode::ExtendWalk, RstMode::RestartPhases] {
            let cfg = RstConfig {
                initial_len: MAX_TOTAL_WALK_LEN + 1,
                max_phases: 3,
                mode,
                ..RstConfig::default()
            };
            let err = distributed_rst(&g, 0, &cfg, 1).unwrap_err();
            assert_eq!(
                err,
                RstError::LengthOverflow {
                    phases: 0,
                    walked: 0
                },
                "{mode:?}"
            );
        }
    }

    #[test]
    fn errors_convert_losslessly_between_surfaces() {
        let cases = [
            RstError::Walk(WalkError::Disconnected),
            RstError::NotCovered {
                phases: 4,
                final_len: 99,
            },
            RstError::LengthOverflow {
                phases: 2,
                walked: 7,
            },
        ];
        for e in cases {
            let unified: Error = e.clone().into();
            let back: RstError = unified.into();
            assert_eq!(back, e);
        }
    }

    #[test]
    fn extend_mode_is_uniform_on_a_small_graph() {
        // K4 has 16 spanning trees; chi-square the sampled histogram.
        // This is the test that *fails* in RestartPhases mode (see
        // restart_mode_is_biased below) — the reproduction finding.
        let g = generators::complete(4);
        let trees = matrix_tree::enumerate_spanning_trees(&g);
        assert_eq!(trees.len(), 16);
        let mut counts = vec![0u64; trees.len()];
        for seed in 0..800u64 {
            let r = distributed_rst(&g, 0, &RstConfig::default(), 7000 + seed).unwrap();
            let idx = matrix_tree::tree_index(&trees, &r.edges).expect("valid tree");
            counts[idx] += 1;
        }
        let t = drw_stats::chi_square_uniform(&counts);
        assert!(t.passes(0.001), "{t:?} counts={counts:?}");
    }

    #[test]
    fn restart_mode_is_biased() {
        // The paper-literal restart scheme conditions on fast coverage;
        // on K4 with initial length n the bias is large enough for
        // chi-square to reject uniformity decisively.
        let g = generators::complete(4);
        let trees = matrix_tree::enumerate_spanning_trees(&g);
        let cfg = RstConfig {
            mode: RstMode::RestartPhases,
            ..RstConfig::default()
        };
        let mut counts = vec![0u64; trees.len()];
        for seed in 0..800u64 {
            let r = distributed_rst(&g, 0, &cfg, 9000 + seed).unwrap();
            counts[matrix_tree::tree_index(&trees, &r.edges).expect("valid tree")] += 1;
        }
        let t = drw_stats::chi_square_uniform(&counts);
        assert!(!t.passes(0.001), "restart mode unexpectedly uniform: {t:?}");
    }
}
