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
//!    ([`crate::short_walks`]; skipped when `l < 2*lambda`, and capped
//!    by the walk's own stitch demand, see [`crate::params`]);
//! 3. Phase 2 stitches: while at least `2*lambda` steps remain, sample
//!    an unused short walk of the current connector (`O(D)` rounds),
//!    replenishing via `GET-MORE-WALKS` if it is drained, and jump to
//!    the sampled walk's endpoint ([`crate::stitch_scheduler`]); an
//!    unrecorded walk then goes on stitching while `lambda` or more
//!    remain, over the stored walks that fit;
//! 4. the final steps — fewer than `lambda` when a stored walk fitted,
//!    else fewer than `2*lambda` — are walked naively;
//! 5. optionally, the walk is regenerated *while it is stitched* — each
//!    taken short walk is replayed backwards from the node that took it,
//!    as soon as it is taken — so every node knows its position(s) and
//!    first-visit predecessor ([`crate::stitch_scheduler`]).
//!
//! Correctness is *exact* (Las Vegas): each stitched segment is an
//! independent random walk of uniformly random length from the current
//! endpoint, each used at most once, so the concatenation has precisely
//! the `l`-step walk distribution (Theorem 2.5, first part). Experiment
//! E6 verifies this empirically against the exact distribution.

use crate::params::WalkParams;
use crate::state::{WalkId, WalkState};
use drw_congest::{EngineConfig, RunError};
use drw_graph::NodeId;
use std::fmt;

/// Errors from the walk drivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkError {
    /// The underlying engine failed (round cap or bandwidth violation).
    Engine(RunError),
    /// The graph is not connected, or has no edge for a walk to step
    /// along (a lone node) — the paper's model assumes a connected
    /// graph with an edge.
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
    /// A mixing request's `bucket_base` is not a number above 1, or is
    /// so close to 1 that its test would have more degree buckets (the
    /// powers of the base between the minimum and maximum degree) than
    /// its probes have samples.
    BadBucketBase(
        /// The base, as [`f64::to_bits`] (so that the error stays `Eq`).
        u64,
    ),
    /// A fail-silent fault plan (unhealed drops) lost messages the
    /// request cannot recover: the session's BFS tree came out broken, a
    /// convergecast or upcast over its tree lost a message, a recorded
    /// walk lost part of its record, or walks still stalled after
    /// [`crate::MAX_REISSUE_PASSES`] re-issue passes.
    MessagesLost,
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkError::Engine(e) => write!(f, "engine error: {e}"),
            WalkError::Disconnected => write!(f, "graph must be connected, with an edge to walk"),
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
            WalkError::BadBucketBase(bits) => write!(
                f,
                "mixing probes need bucket_base > 1 and at most one degree bucket \
                 per sample, got {}",
                f64::from_bits(*bits)
            ),
            WalkError::MessagesLost => write!(
                f,
                "fail-silent links lost messages the request cannot recover \
                 (heal the fault plan or lower its drop rate)"
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

/// Configuration of a [`crate::Network`]'s walks (defaults reproduce the
/// PODC 2010 algorithm, with `GET-MORE-WALKS` replenishing per token —
/// DESIGN.md, "Algorithms"; the toggles are the ablation axes of
/// experiments A1-A3). Whether a walk records its visits is the
/// request's choice ([`crate::Request::Walk`]), not the configuration's.
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
    /// Engine configuration (bandwidth, round caps).
    pub engine: EngineConfig,
}

impl Default for SingleWalkConfig {
    fn default() -> Self {
        SingleWalkConfig {
            params: WalkParams::default(),
            randomize_len: true,
            degree_proportional: true,
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
}

/// Answer to a [`crate::Request::Walk`].
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
    /// replay token of its regeneration and the last `GET-MORE-WALKS`
    /// acknowledgement were home (0 unless the request recorded or
    /// replenished late; both overlap stitching, so this is only what
    /// they add to the walk's critical path).
    pub rounds_replay: u64,
    /// Number of stitches performed.
    pub stitches: u64,
    /// Number of `GET-MORE-WALKS` invocations. W.h.p. zero under the
    /// paper's full Phase 1 (Theorem 2.5); a one-shot walk provisions
    /// only its own stitch demand (see [`crate::params`]), so its
    /// connectors can run dry and this need not be zero.
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
    /// Final per-node state: the store and forwarding logs the walk left,
    /// and in `visits` every node's position(s) when the request
    /// recorded.
    pub state: WalkState,
}

/// Parameters of one [`crate::StitchScheduler`] run.
#[derive(Debug, Clone, Copy)]
pub struct StitchSetup {
    /// Short-walk base length.
    pub lambda: u32,
    /// Random lengths in `[lambda, 2*lambda - 1]`?
    pub randomize_len: bool,
    /// Walks created per `GET-MORE-WALKS` invocation.
    pub gmw_count: u64,
}

/// What a walk token does next, given its position in the Phase-2
/// schedule (Algorithm 1, lines 4-14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkAction {
    /// Stitch another short walk: at least `2*lambda` steps remain, or —
    /// in the scheduler's rule for an unrecorded walk of at least
    /// `2*lambda` steps — at least `lambda` do, and the stitch takes only
    /// a stored walk that fits.
    Stitch,
    /// Steps remain but no stitch is due: walk them naively.
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
/// handlers call it directly (through the spec's rule, which adds the
/// fitted stitch), since there the "driver" state travels with the
/// token rather than living in one place; the scheduler replays every
/// finished walk's trace through a `WalkDriver` to check that it chains
/// and that it stopped stitching no earlier than this rule allows.
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

    /// The paper's Phase-2 decision rule: what a token with `completed`
    /// of `len` steps behind it does under short-walk base length
    /// `lambda` — stitch while at least `2*lambda` steps remain, then
    /// walk the rest. The scheduler extends it with the fitted stitch
    /// (an unrecorded walk of at least `2*lambda` steps goes on while
    /// `lambda` or more remain, over stored walks that fit), which can
    /// only end a walk's stitching later, never earlier.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Error, Network, Request};
    use drw_graph::{generators, Graph};

    /// One walk request on a fresh network.
    fn walk(
        g: &Graph,
        source: NodeId,
        len: u64,
        cfg: SingleWalkConfig,
        seed: u64,
    ) -> Result<SingleWalkResult, Error> {
        let mut net = Network::builder(g).config(cfg).seed(seed).build();
        net.run(Request::walk(source, len)).map(|r| r.into_walk())
    }

    #[test]
    fn zero_length_walk_is_the_source() {
        let g = generators::path(5);
        let r = walk(&g, 3, 0, SingleWalkConfig::default(), 1).unwrap();
        assert_eq!(r.destination, 3);
        assert_eq!(r.stitches, 0);
    }

    #[test]
    fn short_walk_degenerates_to_naive() {
        let g = generators::cycle(64);
        // len = 4 << 2*lambda: no phase 1, no stitches.
        let r = walk(&g, 0, 4, SingleWalkConfig::default(), 2).unwrap();
        assert_eq!(r.stitches, 0);
        assert_eq!(r.rounds_phase1, 0);
        assert!(r.rounds_tail >= 4);
    }

    #[test]
    fn fixed_length_ablation_still_exact_parity() {
        let g = generators::torus2d(4, 4);
        let cfg = SingleWalkConfig {
            randomize_len: false,
            ..SingleWalkConfig::default()
        };
        let r = walk(&g, 0, 128, cfg, 6).unwrap();
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
        let r = walk(&g, 0, 4096, cfg, 7).unwrap();
        assert!(r.gmw_invocations > 0, "starved store must trigger GMW");
    }

    #[test]
    fn disconnected_graph_and_bad_source_are_rejected() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let err = walk(&g, 0, 8, SingleWalkConfig::default(), 1).unwrap_err();
        assert_eq!(err, Error::Walk(WalkError::Disconnected));
        let g = generators::path(4);
        let err = walk(&g, 9, 8, SingleWalkConfig::default(), 1).unwrap_err();
        assert_eq!(err, Error::Walk(WalkError::SourceOutOfRange(9)));
    }
}
