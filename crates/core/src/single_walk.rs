//! `SINGLE-RANDOM-WALK` (Algorithm 1): the paper's main result, and the
//! vocabulary its phases share — configuration, result, stitch trace
//! and the Phase-2 decision rule.
//!
//! The algorithm is a sequential composition of CONGEST sub-protocols
//! (summed rounds, per Section 2), and `SINGLE-RANDOM-WALK` is the
//! `k = 1` case of `MANY-RANDOM-WALKS` (Section 2.3): a walk request is
//! a one-lane wave on a private [`crate::WalkSession`]
//! ([`crate::Network::run`]).
//!
//! 1. a BFS from the source estimates the diameter (needed only to *set*
//!    `lambda`; any estimate preserves correctness) — `O(D)` rounds;
//! 2. Phase 1 prepares `eta * deg(v)` short walks per node of length
//!    uniform in `[lambda, 2*lambda - 1]` — `~O(lambda * eta)` rounds
//!    ([`crate::short_walks`]; skipped when `l < 2*lambda`);
//! 3. Phase 2 stitches: while at least `2*lambda` steps remain, sample
//!    an unused short walk of the current connector (`O(D)` rounds),
//!    replenishing via `GET-MORE-WALKS` if it is drained, and jump to
//!    the sampled walk's endpoint ([`crate::stitch_scheduler`]);
//! 4. the final `< 2*lambda` steps are walked naively;
//! 5. optionally, the walk is regenerated *while it is stitched* — each
//!    taken short walk is replayed from its connector as soon as it is
//!    taken — so every node knows its position(s) and first-visit
//!    predecessor ([`crate::stitch_scheduler`]).
//!
//! Correctness is *exact* (Las Vegas): each stitched segment is an
//! independent random walk of uniformly random length from the current
//! endpoint, each used at most once, so the concatenation has precisely
//! the `l`-step walk distribution (Theorem 2.5, first part). Experiment
//! E6 verifies this empirically against the exact distribution.

use crate::params::WalkParams;
use crate::state::{WalkId, WalkState};
use drw_congest::{EngineConfig, RunError};
use drw_graph::{Graph, NodeId};
use std::fmt;

/// Errors from the walk drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkError {
    /// The underlying engine failed (round cap or bandwidth violation).
    Engine(RunError),
    /// The graph is not connected — the paper's model assumes it is.
    Disconnected,
    /// A source node id was out of range.
    SourceOutOfRange(
        /// The offending source.
        NodeId,
    ),
    /// A mixing request asked for fewer than two samples per probe
    /// (`ceil(samples_scale * sqrt(n)) < 2`): the collision estimator
    /// needs pairs.
    TooFewSamples(
        /// The samples per probe the request works out to.
        usize,
    ),
    /// A request needs more concurrent walks than one multiplexed wave
    /// can tag ([`crate::stitch_scheduler::MAX_WAVE_LANES`]).
    TooManyLanes(
        /// The walks the request (or wave) works out to.
        usize,
    ),
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkError::Engine(e) => write!(f, "engine error: {e}"),
            WalkError::Disconnected => write!(f, "graph must be connected"),
            WalkError::SourceOutOfRange(s) => write!(f, "source {s} out of range"),
            WalkError::TooFewSamples(k) => write!(
                f,
                "mixing probes need samples_scale * sqrt(n) >= 2, got {k} samples"
            ),
            WalkError::TooManyLanes(k) => write!(
                f,
                "{k} concurrent walks exceed the {} lanes of one multiplexed wave",
                crate::stitch_scheduler::MAX_WAVE_LANES
            ),
        }
    }
}

impl std::error::Error for WalkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalkError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RunError> for WalkError {
    fn from(e: RunError) -> Self {
        WalkError::Engine(e)
    }
}

/// Configuration of [`single_random_walk`] (defaults reproduce the PODC
/// 2010 algorithm; the toggles are the ablation axes of experiments
/// A1-A3).
#[derive(Debug, Clone, PartialEq)]
pub struct SingleWalkConfig {
    /// `lambda` / `eta` selection.
    pub params: WalkParams,
    /// Randomize short-walk lengths over `[lambda, 2*lambda - 1]`
    /// (the 2010 paper's key idea; `false` reverts to 2009-style fixed
    /// lengths — ablation A1).
    pub randomize_len: bool,
    /// Allocate Phase-1 walks proportionally to degree (`eta * deg(v)`,
    /// matching Lemma 2.6; `false` gives every node the same count —
    /// ablation A3).
    pub degree_proportional: bool,
    /// Use the paper's aggregated `GET-MORE-WALKS` (`O(lambda)` rounds,
    /// not replayable). `false` uses per-token replenishment
    /// (replayable, congestion-priced). Automatically forced off when
    /// `record_walk` is set.
    pub aggregated_gmw: bool,
    /// Regenerate the walk as it is stitched so every node learns its
    /// position(s) and first-visit predecessor.
    pub record_walk: bool,
    /// Engine configuration (bandwidth, round caps).
    pub engine: EngineConfig,
}

impl Default for SingleWalkConfig {
    fn default() -> Self {
        SingleWalkConfig {
            params: WalkParams::default(),
            randomize_len: true,
            degree_proportional: true,
            aggregated_gmw: true,
            record_walk: false,
            engine: EngineConfig::default(),
        }
    }
}

/// One stitched segment (the trace behind the paper's Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Connector that supplied the short walk.
    pub connector: NodeId,
    /// Identity of the short walk used.
    pub id: WalkId,
    /// Segment length.
    pub len: u32,
    /// Global position of the connector (segment start).
    pub start_pos: u64,
    /// The segment's endpoint (the next connector).
    pub owner: NodeId,
    /// Whether the segment can be replayed for regeneration.
    pub replayable: bool,
}

/// Result of [`single_random_walk`].
#[derive(Debug, Clone)]
#[must_use = "a walk result carries the sampled destination and round bill"]
pub struct SingleWalkResult {
    /// The sampled destination — distributed exactly as the `l`-step walk
    /// from the source.
    pub destination: NodeId,
    /// Total CONGEST rounds (the paper's complexity measure).
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Rounds spent estimating the diameter (initial BFS).
    pub rounds_bfs: u64,
    /// Rounds spent in Phase 1.
    pub rounds_phase1: u64,
    /// Rounds spent stitching (all `SAMPLE-DESTINATION` +
    /// `GET-MORE-WALKS` invocations).
    pub rounds_stitch: u64,
    /// Rounds from the last stitch to the walk's landing: the final
    /// naive tail.
    pub rounds_tail: u64,
    /// Rounds the run continued after the walk landed, until the last
    /// replay token of its regeneration was home (0 unless
    /// `record_walk`; regeneration overlaps stitching, so this is only
    /// what it adds to the walk's critical path).
    pub rounds_replay: u64,
    /// Number of stitches performed.
    pub stitches: u64,
    /// Number of `GET-MORE-WALKS` invocations (w.h.p. zero at the
    /// paper's parameters; Theorem 2.5).
    pub gmw_invocations: u64,
    /// The `lambda` used.
    pub lambda: u32,
    /// Diameter estimate from the initial BFS (the source's
    /// eccentricity).
    pub diameter_estimate: u32,
    /// How many times each node served as a connector (Lemma 2.7's
    /// quantity).
    pub connector_visits: Vec<u32>,
    /// The stitch trace.
    pub segments: Vec<Segment>,
    /// Final per-node state; `state.visits` holds every node's
    /// position(s) when `record_walk` was set.
    pub state: WalkState,
}

/// Parameters of one [`crate::StitchScheduler`] run.
#[derive(Debug, Clone, Copy)]
pub struct StitchSetup {
    /// Short-walk base length.
    pub lambda: u32,
    /// Random lengths in `[lambda, 2*lambda - 1]`?
    pub randomize_len: bool,
    /// Aggregated (true) or per-token (false) `GET-MORE-WALKS`.
    pub aggregated_gmw: bool,
    /// Walks created per `GET-MORE-WALKS` invocation.
    pub gmw_count: u64,
    /// Record visits during the tail walk.
    pub record: bool,
}

/// What a walk token does next, given its position in the Phase-2
/// schedule (Algorithm 1, lines 4-14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkAction {
    /// At least `2*lambda` steps remain: stitch another short walk.
    Stitch,
    /// Fewer than `2*lambda` but more than zero steps remain: walk them
    /// naively.
    Tail(
        /// The number of remaining steps.
        u64,
    ),
    /// The walk is complete.
    Done,
}

/// The per-walk phase state machine of Phase 2: where the token stands,
/// how far it has come, and what it must do next.
///
/// The decision rule itself is [`WalkDriver::action_at`], a pure
/// function of `(len, completed, lambda)` — the scheduler's node-local
/// handlers call it directly, since there the "driver" state travels
/// with the token rather than living in one place; the scheduler
/// replays every finished walk's trace through a `WalkDriver` to check
/// that it chains.
#[derive(Debug, Clone)]
pub struct WalkDriver {
    /// The walk's source.
    pub source: NodeId,
    /// Requested walk length.
    pub len: u64,
    /// Where the token currently stands.
    pub current: NodeId,
    /// Steps completed so far.
    pub completed: u64,
    /// Stitch trace so far.
    pub segments: Vec<Segment>,
}

impl WalkDriver {
    /// A fresh driver for a `len`-step walk from `source`.
    pub fn new(source: NodeId, len: u64) -> Self {
        WalkDriver {
            source,
            len,
            current: source,
            completed: 0,
            segments: Vec::new(),
        }
    }

    /// The Phase-2 decision rule: what a token with `completed` of `len`
    /// steps behind it does under short-walk base length `lambda`.
    pub fn action_at(len: u64, completed: u64, lambda: u32) -> WalkAction {
        let remaining = len - completed;
        if remaining >= 2 * u64::from(lambda.max(1)) {
            WalkAction::Stitch
        } else if remaining > 0 {
            WalkAction::Tail(remaining)
        } else {
            WalkAction::Done
        }
    }

    /// What this walk does next.
    pub fn next_action(&self, lambda: u32) -> WalkAction {
        WalkDriver::action_at(self.len, self.completed, lambda)
    }

    /// Stitches performed so far.
    pub fn stitches(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Applies one stitched segment: records it, advances the token to
    /// the segment's endpoint and accounts its length.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not chain onto the walk's current
    /// position (a scheduler bug).
    pub fn apply_segment(&mut self, seg: Segment) {
        assert_eq!(seg.connector, self.current, "segment must start here");
        assert_eq!(seg.start_pos, self.completed, "segment position gap");
        self.completed += u64::from(seg.len);
        self.current = seg.owner;
        self.segments.push(seg);
    }
}

/// Performs a single random walk of `len` steps from `source`, returning
/// an exact sample of the destination in `~O(sqrt(len * D))` rounds
/// w.h.p. (Theorem 2.5).
///
/// This is a thin shim over a throwaway [`crate::Network`] — the
/// facade's [`crate::Request::Walk`] path — kept for the familiar
/// free-function surface. Long-lived callers should hold a
/// [`crate::Network`] (or a [`crate::WalkSession`]) instead.
///
/// # Errors
///
/// [`WalkError::Disconnected`] if the graph is not connected,
/// [`WalkError::SourceOutOfRange`] for a bad source, or an engine error.
///
/// # Example
///
/// ```
/// use drw_core::{single_random_walk, SingleWalkConfig};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_core::WalkError> {
/// let g = generators::torus2d(6, 6);
/// let r = single_random_walk(&g, 0, 512, &SingleWalkConfig::default(), 1)?;
/// assert!(r.rounds < 512, "sublinear in the walk length");
/// # Ok(())
/// # }
/// ```
pub fn single_random_walk(
    g: &Graph,
    source: NodeId,
    len: u64,
    cfg: &SingleWalkConfig,
    seed: u64,
) -> Result<SingleWalkResult, WalkError> {
    let mut net = crate::network::Network::builder(g)
        .config(cfg.clone())
        .seed(seed)
        .build();
    net.run(crate::request::Request::Walk {
        source,
        len,
        record: cfg.record_walk,
    })
    .map(crate::request::Response::into_walk)
    .map_err(crate::error::Error::expect_walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::generators;

    #[test]
    fn destination_is_in_range_and_parity_correct() {
        // On a bipartite torus with even side, even-length walks return to
        // the source's bipartition class.
        let g = generators::torus2d(4, 4);
        for seed in 0..10 {
            let r = single_random_walk(&g, 0, 64, &SingleWalkConfig::default(), seed).unwrap();
            let (row, col) = (r.destination / 4, r.destination % 4);
            assert_eq!((row + col) % 2, 0, "even walk must stay on even class");
        }
    }

    #[test]
    fn zero_length_walk_is_the_source() {
        let g = generators::path(5);
        let r = single_random_walk(&g, 3, 0, &SingleWalkConfig::default(), 1).unwrap();
        assert_eq!(r.destination, 3);
        assert_eq!(r.stitches, 0);
    }

    #[test]
    fn short_walk_degenerates_to_naive() {
        let g = generators::cycle(64);
        // len = 4 << 2*lambda: no phase 1, no stitches.
        let r = single_random_walk(&g, 0, 4, &SingleWalkConfig::default(), 2).unwrap();
        assert_eq!(r.stitches, 0);
        assert_eq!(r.rounds_phase1, 0);
        assert!(r.rounds_tail >= 4);
    }

    #[test]
    fn long_walk_is_sublinear_in_length() {
        let g = generators::torus2d(8, 8);
        let len = 4096u64;
        let r = single_random_walk(&g, 0, len, &SingleWalkConfig::default(), 3).unwrap();
        assert!(r.stitches > 0, "long walks must stitch");
        assert!(
            r.rounds < len,
            "rounds {} should beat the naive {len}",
            r.rounds
        );
    }

    #[test]
    fn segments_chain_and_cover_the_walk() {
        let g = generators::torus2d(6, 6);
        let len = 2048u64;
        let r = single_random_walk(&g, 5, len, &SingleWalkConfig::default(), 4).unwrap();
        let mut pos = 0u64;
        let mut at = 5usize;
        for seg in &r.segments {
            assert_eq!(seg.connector, at);
            assert_eq!(seg.start_pos, pos);
            assert!(seg.len >= r.lambda && seg.len < 2 * r.lambda);
            pos += seg.len as u64;
            at = seg.owner;
        }
        assert!(len - pos < 2 * r.lambda as u64, "tail must be short");
    }

    #[test]
    fn recorded_walk_is_a_valid_trajectory() {
        let g = generators::torus2d(5, 5);
        let len = 512u64;
        let cfg = SingleWalkConfig {
            record_walk: true,
            ..SingleWalkConfig::default()
        };
        let r = single_random_walk(&g, 0, len, &cfg, 5).unwrap();
        let walk = r.state.reconstruct_walk(len);
        assert_eq!(walk[0], 0);
        assert_eq!(*walk.last().unwrap(), r.destination);
        for w in walk.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "non-edge {}-{}", w[0], w[1]);
        }
    }

    #[test]
    fn fixed_length_ablation_still_exact_parity() {
        let g = generators::torus2d(4, 4);
        let cfg = SingleWalkConfig {
            randomize_len: false,
            ..SingleWalkConfig::default()
        };
        let r = single_random_walk(&g, 0, 128, &cfg, 6).unwrap();
        let (row, col) = (r.destination / 4, r.destination % 4);
        assert_eq!((row + col) % 2, 0);
        for seg in &r.segments {
            assert_eq!(seg.len, r.lambda, "fixed mode uses length-lambda walks");
        }
    }

    #[test]
    fn gmw_kicks_in_when_walks_are_scarce() {
        // Starve phase 1 (tiny eta on a star: the hub is visited
        // constantly) to force GET-MORE-WALKS.
        let g = generators::star(16);
        let cfg = SingleWalkConfig {
            params: WalkParams {
                lambda_scale: 0.05,
                eta: 0.01,
            },
            degree_proportional: false,
            ..SingleWalkConfig::default()
        };
        let r = single_random_walk(&g, 0, 4096, &cfg, 7).unwrap();
        assert!(r.gmw_invocations > 0, "starved store must trigger GMW");
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let g = drw_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let err = single_random_walk(&g, 0, 8, &SingleWalkConfig::default(), 1).unwrap_err();
        assert_eq!(err, WalkError::Disconnected);
    }

    #[test]
    fn bad_source_is_rejected() {
        let g = generators::path(4);
        let err = single_random_walk(&g, 9, 8, &SingleWalkConfig::default(), 1).unwrap_err();
        assert_eq!(err, WalkError::SourceOutOfRange(9));
    }

    #[test]
    fn deterministic_in_the_seed() {
        let g = generators::torus2d(5, 5);
        let a = single_random_walk(&g, 1, 777, &SingleWalkConfig::default(), 99).unwrap();
        let b = single_random_walk(&g, 1, 777, &SingleWalkConfig::default(), 99).unwrap();
        assert_eq!(a.destination, b.destination);
        assert_eq!(a.rounds, b.rounds);
        let c = single_random_walk(&g, 1, 777, &SingleWalkConfig::default(), 100).unwrap();
        // Overwhelmingly likely to differ somewhere.
        assert!(
            a.destination != c.destination || a.rounds != c.rounds || a.segments != c.segments,
            "different seeds should explore differently"
        );
    }
}
