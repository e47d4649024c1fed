//! Typed requests and responses of the [`crate::Network`] facade.
//!
//! The paper's headline primitive is a *service*: the network answers
//! walk-sample requests in `~O(sqrt(l * D))` rounds, and the
//! applications (random spanning trees, mixing-time estimation) are
//! just clients issuing many such requests. [`Request`] makes that
//! service surface explicit — one value per thing a client can ask for,
//! one [`Response`] per answer — so heterogeneous traffic can be
//! submitted uniformly ([`crate::Network::run`]) and, crucially,
//! *batched* ([`crate::Network::run_batch`]), where the request
//! scheduler lowers every request into walk/stitch work items that
//! share CONGEST rounds instead of summing them.
//!
//! A request says *what* is asked, never *how* it is executed: each
//! kind has one driver (`network/drivers.rs`), and one-shot, batched
//! and service execution differ only in whose session its waves run
//! on. No request carries an execution hint.

use crate::many_walks::ManyWalksResult;
use crate::single_walk::SingleWalkResult;
use drw_graph::matrix_tree::TreeKey;
use drw_graph::{EpochReport, NodeId, TopologyDelta};

/// How a spanning-tree request relates its phases to the walk (the
/// reproduction finding documented in `drw-spanning`: the paper-literal
/// restart scheme is measurably biased; extending one continuous walk
/// is exactly uniform).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeMode {
    /// Extend one continuous walk until it covers — exactly uniform
    /// (the default).
    #[default]
    ExtendWalk,
    /// The paper's literal scheme: fresh fixed-length walks, accept the
    /// first that covers. Biased toward fast-covering trees; kept for
    /// the bias-demonstration ablation.
    RestartPhases,
}

/// A random-spanning-tree request (the Section 4.1 application).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRequest {
    /// Tree root (and walk start).
    pub root: NodeId,
    /// Phase/extension mode.
    pub mode: TreeMode,
    /// Walks per phase in [`TreeMode::RestartPhases`]; `0` means
    /// `ceil(log2 n)` as in the paper. Ignored by `ExtendWalk`.
    pub walks_per_phase: usize,
    /// Initial length guess; `0` means `n` as in the paper.
    pub initial_len: u64,
    /// Phase budget before giving up (lengths double each phase).
    pub max_phases: u32,
}

impl TreeRequest {
    /// A spanning-tree request rooted at `root` with the paper's
    /// defaults.
    pub fn new(root: NodeId) -> Self {
        TreeRequest {
            root,
            mode: TreeMode::default(),
            walks_per_phase: 0,
            initial_len: 0,
            max_phases: 40,
        }
    }
}

/// A mixing-time-estimation request (the Section 4.2 application).
#[derive(Debug, Clone, PartialEq)]
pub struct MixingRequest {
    /// The source whose `tau_mix^x` is estimated.
    pub source: NodeId,
    /// PASS threshold on the bucketed total-variation discrepancy.
    pub threshold: f64,
    /// PASS threshold on the collision statistic
    /// `||p - pi||_2^2 / ||pi||_2^2`.
    pub l2_threshold: f64,
    /// Samples per probe: `K = ceil(samples_scale * sqrt(n))`.
    pub samples_scale: f64,
    /// Geometric base of the stationary-mass buckets.
    pub bucket_base: f64,
    /// First probe length of the doubling scan (default 1). Setting
    /// `start_len == max_len` with `refine: false` turns the request
    /// into a *single probe* at that length — the building block the
    /// batched experiments use.
    pub start_len: u64,
    /// Probe-length cap: estimation aborts (returning the cap) once the
    /// next probe length would exceed it. The first probe always runs,
    /// at `start_len`.
    pub max_len: u64,
    /// Refine with binary search after the first PASS.
    pub refine: bool,
}

impl MixingRequest {
    /// A mixing-time request from `source` with the estimator's
    /// defaults.
    pub fn new(source: NodeId) -> Self {
        MixingRequest {
            source,
            threshold: 0.20,
            l2_threshold: 0.5,
            samples_scale: 8.0,
            bucket_base: 1.5,
            start_len: 1,
            max_len: 1 << 20,
            refine: false,
        }
    }

    /// A *single probe* at length `len` (no scan, no refinement): PASS
    /// or FAIL stationarity at exactly this length.
    pub fn probe_at(source: NodeId, len: u64) -> Self {
        MixingRequest {
            start_len: len.max(1),
            max_len: len.max(1),
            refine: false,
            ..MixingRequest::new(source)
        }
    }

    /// The full estimator: doubling scan from `start_len` plus
    /// binary-search refinement.
    pub fn full_estimate(source: NodeId) -> Self {
        MixingRequest {
            refine: true,
            ..MixingRequest::new(source)
        }
    }
}

/// One thing a client can ask a [`crate::Network`] for.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One `len`-step random walk from `source` — an exact sample of
    /// the `l`-step walk distribution (`SINGLE-RANDOM-WALK`). With
    /// `record`, every node additionally learns its position(s) and
    /// first-visit predecessor.
    Walk {
        /// Starting node.
        source: NodeId,
        /// Number of steps.
        len: u64,
        /// Regenerate the walk so nodes know their positions.
        record: bool,
    },
    /// `k` walks of `len` steps from `sources` (`MANY-RANDOM-WALKS`).
    ManyWalks {
        /// Starting nodes (not necessarily distinct).
        sources: Vec<NodeId>,
        /// Number of steps for every walk.
        len: u64,
    },
    /// A uniformly random spanning tree (Section 4.1).
    SpanningTree(TreeRequest),
    /// A decentralized mixing-time estimate (Section 4.2).
    MixingTime(MixingRequest),
    /// A topology mutation (dynamic-network churn). In a batch it acts
    /// as a barrier: requests before it complete on the old epoch,
    /// requests after it are served on the mutated graph by the
    /// *incrementally repaired* session.
    Mutate(TopologyDelta),
}

impl Request {
    /// A plain (unrecorded) walk request.
    pub fn walk(source: NodeId, len: u64) -> Self {
        Request::Walk {
            source,
            len,
            record: false,
        }
    }

    /// A `MANY-RANDOM-WALKS` request.
    pub fn many_walks(sources: Vec<NodeId>, len: u64) -> Self {
        Request::ManyWalks { sources, len }
    }

    /// A spanning-tree request with the paper's defaults.
    pub fn spanning_tree(root: NodeId) -> Self {
        Request::SpanningTree(TreeRequest::new(root))
    }

    /// A single stationarity probe at `len` (see
    /// [`MixingRequest::probe_at`]).
    pub fn mixing_probe(source: NodeId, len: u64) -> Self {
        Request::MixingTime(MixingRequest::probe_at(source, len))
    }

    /// A topology-mutation request (see [`Request::Mutate`]).
    pub fn mutate(delta: TopologyDelta) -> Self {
        Request::Mutate(delta)
    }

    /// Short label for tables and progress output.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Walk { .. } => "walk",
            Request::ManyWalks { .. } => "many-walks",
            Request::SpanningTree(_) => "spanning-tree",
            Request::MixingTime(_) => "mixing-time",
            Request::Mutate(_) => "mutate",
        }
    }
}

/// Result of a [`Request::SpanningTree`] request.
#[derive(Debug, Clone)]
#[must_use = "a sampled spanning tree should be inspected or recorded"]
pub struct TreeSample {
    /// The sampled spanning tree.
    pub edges: TreeKey,
    /// Total CONGEST rounds across all phases.
    pub rounds: u64,
    /// Phases executed.
    pub phases: u32,
    /// Total walk invocations.
    pub attempts: u64,
    /// Total walked length until coverage.
    pub cover_len: u64,
    /// BFS constructions this request paid for: 1 one-shot (its private
    /// session's anchor BFS — the regression-tested amortization claim),
    /// 0 in a batch or service, where the session BFS is shared.
    pub bfs_runs: u64,
}

/// One probe's record within a [`MixingReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixingProbe {
    /// Probed walk length.
    pub len: u64,
    /// Bucketed TV discrepancy measured.
    pub discrepancy: f64,
    /// Collision `||p - pi||_2^2 / ||pi||_2^2` measured.
    pub l2_ratio: f64,
    /// PASS/FAIL.
    pub pass: bool,
}

/// Result of a [`Request::MixingTime`] request.
#[derive(Debug, Clone)]
#[must_use = "a mixing-time estimate should be inspected or recorded"]
pub struct MixingReport {
    /// Smallest probed length that PASSed (the `tau~_mix^x` estimate).
    /// Equal to `max_len` if nothing passed (e.g. bipartite graphs).
    pub tau_estimate: u64,
    /// Whether any probe passed at all.
    pub converged: bool,
    /// Total CONGEST rounds (setup + all probes).
    pub rounds: u64,
    /// Samples per probe (`K`).
    pub samples_per_probe: usize,
    /// Number of stationary-mass buckets (`B`).
    pub buckets: usize,
    /// All probes, in execution order.
    pub probes: Vec<MixingProbe>,
}

/// A [`crate::Network`]'s answer to one [`Request`], in the same
/// variant.
#[derive(Debug, Clone)]
#[must_use = "a response carries the request's result and round bill"]
pub enum Response {
    /// Answer to [`Request::Walk`].
    Walk(SingleWalkResult),
    /// Answer to [`Request::ManyWalks`].
    ManyWalks(ManyWalksResult),
    /// Answer to [`Request::SpanningTree`].
    SpanningTree(TreeSample),
    /// Answer to [`Request::MixingTime`].
    MixingTime(MixingReport),
    /// Answer to [`Request::Mutate`]: the new epoch and its touched
    /// nodes.
    Epoch(EpochReport),
}

impl Response {
    /// The rounds this request was billed. One-shot responses carry the
    /// request's full private bill; batched responses report the shared
    /// rounds of the waves the request rode (see
    /// [`crate::Network::run_batch`]).
    pub fn rounds(&self) -> u64 {
        match self {
            Response::Walk(r) => r.rounds,
            Response::ManyWalks(r) => r.rounds,
            Response::SpanningTree(r) => r.rounds,
            Response::MixingTime(r) => r.rounds,
            // Delta application itself is free in CONGEST terms; the
            // repair rounds are billed to the requests that ride the
            // repaired session.
            Response::Epoch(_) => 0,
        }
    }

    /// Short label for tables and progress output.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Walk(_) => "walk",
            Response::ManyWalks(_) => "many-walks",
            Response::SpanningTree(_) => "spanning-tree",
            Response::MixingTime(_) => "mixing-time",
            Response::Epoch(_) => "mutate",
        }
    }

    /// Unwraps a [`Response::Walk`].
    ///
    /// # Panics
    ///
    /// Panics on any other variant.
    pub fn into_walk(self) -> SingleWalkResult {
        match self {
            Response::Walk(r) => r,
            other => panic!("expected a walk response, got {}", other.kind()),
        }
    }

    /// Unwraps a [`Response::ManyWalks`].
    ///
    /// # Panics
    ///
    /// Panics on any other variant.
    pub fn into_many_walks(self) -> ManyWalksResult {
        match self {
            Response::ManyWalks(r) => r,
            other => panic!("expected a many-walks response, got {}", other.kind()),
        }
    }

    /// Unwraps a [`Response::SpanningTree`].
    ///
    /// # Panics
    ///
    /// Panics on any other variant.
    pub fn into_tree(self) -> TreeSample {
        match self {
            Response::SpanningTree(r) => r,
            other => panic!("expected a spanning-tree response, got {}", other.kind()),
        }
    }

    /// Unwraps a [`Response::MixingTime`].
    ///
    /// # Panics
    ///
    /// Panics on any other variant.
    pub fn into_mixing(self) -> MixingReport {
        match self {
            Response::MixingTime(r) => r,
            other => panic!("expected a mixing-time response, got {}", other.kind()),
        }
    }

    /// Unwraps a [`Response::Epoch`].
    ///
    /// # Panics
    ///
    /// Panics on any other variant.
    pub fn into_epoch(self) -> EpochReport {
        match self {
            Response::Epoch(r) => r,
            other => panic!("expected an epoch response, got {}", other.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_kinds() {
        assert_eq!(Request::walk(0, 10).kind(), "walk");
        assert_eq!(Request::many_walks(vec![0, 1], 10).kind(), "many-walks");
        assert_eq!(Request::spanning_tree(0).kind(), "spanning-tree");
        assert_eq!(Request::mixing_probe(0, 8).kind(), "mixing-time");
    }

    #[test]
    fn probe_at_pins_one_length() {
        let r = MixingRequest::probe_at(3, 64);
        assert_eq!((r.start_len, r.max_len, r.refine), (64, 64, false));
        let r = MixingRequest::probe_at(3, 0);
        assert_eq!((r.start_len, r.max_len), (1, 1), "length clamps to 1");
        assert!(MixingRequest::full_estimate(0).refine);
    }

    #[test]
    #[should_panic(expected = "expected a walk response")]
    fn mismatched_unwrap_panics() {
        let r = Response::SpanningTree(TreeSample {
            edges: Vec::new(),
            rounds: 0,
            phases: 0,
            attempts: 0,
            cover_len: 0,
            bfs_runs: 0,
        });
        let _ = r.into_walk();
    }
}
