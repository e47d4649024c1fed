//! The PATH-VERIFICATION problem (Definition 3.1) and a distributed
//! interval-merging protocol in the paper's verification model.
//!
//! Input: each of `l` nodes initially knows only its order number; the
//! goal is for *some* node to verify that consecutive order numbers
//! always sit on graph edges, i.e. that the sequence is a path. Nodes
//! may store and selectively forward verified segments (two `O(log n)`
//! words each) but never compress them — exactly the algorithm class of
//! the paper's lower bound.
//!
//! The protocol: nodes announce their positions; an edge between
//! positions `i` and `i+1` lets its endpoints verify `[i, i+1]`;
//! received segments merge on overlap ([`crate::intervals`]); every
//! improvement is forwarded to all neighbors, one segment per edge per
//! round. The measured completion rounds on `G_n` are compared against
//! the `sqrt(l / log l)` bound in experiment E8.

use crate::intervals::IntervalSet;
use drw_congest::{
    run_protocol, Ctx, EngineConfig, Envelope, Message, Protocol, RunError, WireReader, WireSink,
};
use drw_graph::{Graph, NodeId};
use std::collections::VecDeque;

/// A verified segment in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMsg {
    /// Segment start position (1-based).
    pub lo: u64,
    /// Segment end position.
    pub hi: u64,
    /// True only for the *direct* position announcement sent by the
    /// position holder itself — the edge-evidence rule may fire only on
    /// these (a relayed singleton says nothing about the relay's own
    /// position).
    pub announce: bool,
}

impl Message for SegmentMsg {
    fn encode(&self, w: &mut impl WireSink) {
        w.word("lo", self.lo);
        w.word("hi", self.hi);
        w.tag(self.announce.into());
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(SegmentMsg {
            lo: r.read()?,
            hi: r.read()?,
            announce: r.flag()?,
        })
    }
}

/// The distributed PATH-VERIFICATION protocol.
#[derive(Debug)]
pub struct PathVerificationProtocol {
    positions: Vec<Option<u64>>,
    len: u64,
    verified: Vec<IntervalSet>,
    outbox: Vec<VecDeque<(u64, u64)>>,
    last_sent_round: Vec<u64>,
    winner: Option<NodeId>,
}

const NEVER: u64 = u64::MAX;

impl PathVerificationProtocol {
    /// Creates the protocol: `positions[v]` is the 1-based order number
    /// of `v` in the sequence (or `None` for nodes outside it); `len` is
    /// the sequence length.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(positions: Vec<Option<u64>>, len: u64) -> Self {
        assert!(len >= 1, "sequence must be nonempty");
        let n = positions.len();
        PathVerificationProtocol {
            positions,
            len,
            verified: vec![IntervalSet::new(); n],
            outbox: vec![VecDeque::new(); n],
            last_sent_round: vec![NEVER; n],
            winner: None,
        }
    }

    /// The node that verified the full `[1, len]` segment, if any.
    pub fn winner(&self) -> Option<NodeId> {
        self.winner
    }

    fn learn(&mut self, node: NodeId, lo: u64, hi: u64) {
        if let Some(grown) = self.verified[node].insert(lo, hi) {
            // Forward only multi-position segments: a singleton can never
            // merge with anything except via the edge rule, which needs a
            // direct announcement anyway.
            if grown.1 > grown.0 {
                self.outbox[node].push_back(grown);
            }
            if grown == (1, self.len) && self.winner.is_none() {
                self.winner = Some(node);
            }
        }
    }

    /// Sends one queued segment on every edge whose budget is unused.
    fn pump_node(&mut self, node: NodeId, ctx: &mut Ctx<'_, SegmentMsg>) {
        if self.outbox[node].is_empty() || self.last_sent_round[node] == ctx.round() {
            return;
        }
        let (lo, hi) = self.outbox[node].pop_front().expect("nonempty outbox");
        for w in ctx.graph().neighbors(node).collect::<Vec<_>>() {
            ctx.send(
                node,
                w,
                SegmentMsg {
                    lo,
                    hi,
                    announce: false,
                },
            );
        }
        self.last_sent_round[node] = ctx.round();
    }

    fn pump_all(&mut self, ctx: &mut Ctx<'_, SegmentMsg>) {
        for node in 0..self.outbox.len() {
            self.pump_node(node, ctx);
        }
    }
}

impl Protocol for PathVerificationProtocol {
    type Msg = SegmentMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, SegmentMsg>) {
        assert_eq!(
            self.positions.len(),
            ctx.graph().n(),
            "one position slot per node"
        );
        // Trivial segments + direct position announcements (sent once,
        // from the holder, to all neighbors — the only messages the edge
        // rule accepts).
        for node in 0..self.positions.len() {
            if let Some(i) = self.positions[node] {
                self.verified[node].insert(i, i);
                for w in ctx.graph().neighbors(node).collect::<Vec<_>>() {
                    ctx.send(
                        node,
                        w,
                        SegmentMsg {
                            lo: i,
                            hi: i,
                            announce: true,
                        },
                    );
                }
            }
        }
        if self.len == 1 {
            self.winner = (0..self.positions.len()).find(|&v| self.positions[v] == Some(1));
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, SegmentMsg>) {
        self.pump_all(ctx);
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        inbox: &[Envelope<SegmentMsg>],
        ctx: &mut Ctx<'_, SegmentMsg>,
    ) {
        for env in inbox {
            let SegmentMsg { lo, hi, announce } = env.msg;
            // Edge evidence: a direct announcement from a graph-neighbor
            // holding the adjacent order number verifies the connecting
            // 2-segment.
            if announce {
                if let Some(mine) = self.positions[node] {
                    if mine.abs_diff(lo) == 1 {
                        self.learn(node, mine.min(lo), mine.max(lo));
                    }
                }
            } else {
                // Relayed segments are verified knowledge; merge on
                // overlap.
                self.learn(node, lo, hi);
            }
        }
        self.pump_node(node, ctx);
    }

    fn is_done(&self) -> bool {
        self.winner.is_some()
    }
}

/// Result of [`verify_path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerificationResult {
    /// Node that completed the verification.
    pub winner: NodeId,
    /// CONGEST rounds to completion.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
}

/// Runs PATH-VERIFICATION for the sequence `path` (node ids in order) on
/// `g` and returns who verified it and in how many rounds.
///
/// # Errors
///
/// Engine errors, or `Ok(None)`-like behaviour is impossible: if the
/// sequence is a real path some node always completes; a non-path
/// quiesces unverified and this returns `None` via the winner option in
/// the protocol — here surfaced as an engine-quiescence with no winner.
pub fn verify_path(
    g: &Graph,
    path: &[NodeId],
    cfg: &EngineConfig,
    seed: u64,
) -> Result<Option<VerificationResult>, RunError> {
    assert!(!path.is_empty(), "path must be nonempty");
    let mut positions = vec![None; g.n()];
    for (idx, &v) in path.iter().enumerate() {
        assert!(v < g.n(), "path node out of range");
        positions[v] = Some(idx as u64 + 1);
    }
    let mut p = PathVerificationProtocol::new(positions, path.len() as u64);
    let report = run_protocol(g, cfg, seed, &mut p)?;
    Ok(p.winner().map(|winner| VerificationResult {
        winner,
        rounds: report.rounds,
        messages: report.messages,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gn::GnGraph;
    use drw_graph::generators;

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    #[test]
    fn segments_round_trip_at_their_limits() {
        for announce in [false, true] {
            let (lo, hi) = (u64::MAX, u64::MAX);
            assert!(drw_congest::round_trips(&SegmentMsg { lo, hi, announce }));
        }
    }

    #[test]
    fn verifies_a_plain_path_graph() {
        let g = generators::path(16);
        let path: Vec<usize> = (0..16).collect();
        let r = verify_path(&g, &path, &cfg(), 1)
            .unwrap()
            .expect("verifiable");
        assert!(r.rounds >= 1);
        assert!(r.rounds <= 64, "rounds = {}", r.rounds);
    }

    #[test]
    fn single_node_sequence_is_trivial() {
        let g = generators::path(4);
        let r = verify_path(&g, &[2], &cfg(), 1).unwrap().expect("trivial");
        assert_eq!(r.winner, 2);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn non_path_sequence_is_never_verified() {
        // 0 and 3 are not adjacent in a path graph: sequence 0,3 cannot
        // verify.
        let g = generators::path(4);
        let r = verify_path(&g, &[0, 3], &cfg(), 1).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn gap_in_the_middle_blocks_full_verification() {
        // Sequence 0,1,3: [1,2] verifies but [2,3] never does.
        let g = generators::complete(5);
        let bad = verify_path(&g, &[0, 1, 3], &cfg(), 1).unwrap();
        assert!(bad.is_some(), "complete graph: 0-1-3 IS a path");
        let g = generators::path(5);
        let bad = verify_path(&g, &[0, 1, 3], &cfg(), 1).unwrap();
        assert!(bad.is_none(), "path graph: 1-3 is not an edge");
    }

    #[test]
    fn verification_on_gn_respects_the_lower_bound() {
        // Theorem 3.2: verifying the embedded path P on G_n needs more
        // than k = sqrt(l / log l) rounds.
        let gn = GnGraph::build(256, GnGraph::k_for_len(256));
        let l = gn.n_prime() as u64;
        let path: Vec<usize> = (0..gn.n_prime()).collect();
        let r = verify_path(gn.graph(), &path, &cfg(), 3)
            .unwrap()
            .expect("P is a real path");
        let k = GnGraph::k_for_len(l) as u64;
        assert!(
            r.rounds > k,
            "measured {} rounds must exceed the bound k = {k}",
            r.rounds
        );
    }

    #[test]
    fn shuffled_labels_still_verify() {
        // The sequence need not be geometrically monotone: label a cycle
        // in walk order starting from 5.
        let g = generators::cycle(8);
        let path: Vec<usize> = (0..8).map(|i| (5 + i) % 8).collect();
        let r = verify_path(&g, &path, &cfg(), 2)
            .unwrap()
            .expect("verifiable");
        assert!(r.rounds >= 1);
    }
}
