//! The naive tail and regeneration, a role of the one Phase-2 protocol
//! ([`crate::StitchScheduler`]). Once no stitch is due — fewer than
//! `2*lambda` steps remain, or on an unrecorded walk fewer than `lambda`
//! or no stored walk fits (every step, on a forced-naive lane) — a walk
//! moves as a `Tail` token, one random hop per round (Algorithm 1,
//! line 14). A recorded lane records every tail hop, and replays each
//! stitched segment while the walk goes on stitching (end of Section
//! 2.2): the segment's connector sends a `Replay` token along its
//! forwarding log, and every node on the path records its position and
//! predecessor. The connector learns the taken walk from the next
//! epoch's wave (`prev`), or, after the last stitch, from `Taken`
//! climbing the finished epoch's tree.

#![deny(clippy::too_many_lines)]

use crate::single_walk::{Segment, WalkAction};
use crate::state::WalkId;
use crate::stitch_scheduler::{BatchMsg, LaneState, NodeCall, SharedCfg, StitchMsg};
use drw_congest::NodeCtx;
use drw_graph::NodeId;

/// `StitchMsg::Wave::prev` of a wave that announces no taken walk.
pub(crate) const NO_PREV: u64 = u64::MAX;

/// A short walk's identity as one wire word, `source:32 | seq:32`.
pub(crate) fn pack_walk(id: WalkId) -> u64 {
    (u64::from(id.source) << 32) | u64::from(id.seq)
}

pub(crate) fn unpack_walk(word: u64) -> WalkId {
    WalkId {
        source: (word >> 32) as u32,
        seq: word as u32,
    }
}

/// Moves lane `w`'s tail token one uniformly random hop on from the
/// context's node, `steps` steps (this hop included) before its end.
#[inline]
pub(crate) fn hop(shared: &SharedCfg, ctx: &mut NodeCtx<'_, BatchMsg>, w: u32, steps: u64) {
    ctx.send_random_neighbor(shared.mux(w, StitchMsg::Tail { left: steps - 1 }));
}

impl NodeCall<'_> {
    /// Lane `w`'s tail token arrives from `from`, `left` steps before
    /// the walk's end.
    pub(crate) fn on_tail(&mut self, w: u32, left: u64, from: NodeId) {
        let spec = self.shared.walks[w as usize];
        if spec.record {
            // The receiver is the `len - left`-th node of its walk, lifted
            // by `pos_offset` into a session-extended walk. The tail start
            // is on record already (a segment's end, or the hand-off).
            self.ws
                .record_visit(spec.pos_offset + spec.len - left, Some(from));
        }
        if left == 0 {
            self.tally.finished.push(w);
        } else {
            hop(self.shared, &mut self.ctx, w, left);
        }
    }

    /// A replay token arrives from `from`: this node records its
    /// position and passes the token on, or is the owner it stops at.
    pub(crate) fn on_replay(&mut self, w: u32, token: (u64, u32, u64), from: NodeId) {
        self.ws.record_visit(token.2, Some(from));
        if !self.forward_replay(w, token) {
            self.tally.replays_open -= 1; // home: at the node that took it
        }
    }

    /// The last stitch's `Taken`, climbing the finished epoch's tree to
    /// the connector, which replays the walk from where it stood.
    pub(crate) fn on_taken(&mut self, lane: &LaneState, w: u32, (epoch, seq): (u32, u32)) {
        #[cfg(test)]
        if crate::stitch_scheduler::tests::DROP_TAKEN.get() {
            return;
        }
        if epoch != lane.epoch {
            return;
        }
        if let Some(start) = self.climb(w, lane, StitchMsg::Taken { epoch, seq }) {
            self.inject_replay(w, seq, start);
        }
    }

    /// Regeneration's cue for the segment `seg` this node just took:
    /// on a recorded lane the connector replays it at once if it is this
    /// node; else it learns the walk from the next epoch's wave (the
    /// returned `prev`) or, after the last stitch, from `Taken`.
    /// [`NO_PREV`] when the wave announces nothing.
    pub(crate) fn announce(&mut self, lane: &LaneState, w: u32, seg: &Segment) -> u64 {
        let spec = self.shared.walks[w as usize];
        if !spec.record {
            return NO_PREV;
        }
        assert!(seg.replayable, "recorded lanes replay what they stitch");
        self.tally.replays_open += 1;
        let next = spec.action_at(seg.start_pos + u64::from(seg.len), self.shared.setup.lambda);
        if seg.connector == self.ctx.node() {
            self.inject_replay(w, seg.id.seq, seg.start_pos);
        } else if next == WalkAction::Stitch {
            return pack_walk(seg.id);
        } else {
            let (epoch, seq) = (lane.epoch, seg.id.seq);
            self.climb(w, lane, StitchMsg::Taken { epoch, seq });
        }
        NO_PREV
    }

    /// A wave's `prev`, at the arrival that reset the lane (`fresh`)
    /// only: the connector it names replays the walk from where it
    /// hosted the token (`hosted`, read before the reset).
    pub(crate) fn honour_prev(&mut self, w: u32, prev: u64, hosted: Option<u64>, fresh: bool) {
        let taken = unpack_walk(prev); // `NO_PREV` names no node
        if fresh && taken.source as usize == self.ctx.node() {
            let start = hosted.expect("the connector `prev` names hosts its epoch");
            self.inject_replay(w, taken.seq, start);
        }
    }

    /// Starts regenerating the short walk `(node, seq)` a recorded lane
    /// took, at its connector, this node, where the walk stood at
    /// `start` steps. The connector's own position is on record already
    /// (the previous segment's endpoint, or the caller's hand-off), so
    /// visits begin one step in.
    fn inject_replay(&mut self, w: u32, seq: u32, start: u64) {
        let source = self.ctx.node() as u32;
        let pos = self.shared.walks[w as usize].pos_offset + start;
        let logged = self.forward_replay(w, (pack_walk(WalkId { source, seq }), 0, pos));
        assert!(logged, "walk ({source}, {seq}) has no log at its source");
    }

    /// Moves a replay token of the short walk `walk` on from this node,
    /// its `step`-th, at global position `pos`: along the hop this node
    /// logged for that step. `false` if it logged none — the walk ended
    /// here.
    fn forward_replay(&mut self, w: u32, (walk, step, pos): (u64, u32, u64)) -> bool {
        let id = unpack_walk(walk);
        let Some(hop) = self.ws.forward.hop(id.source, id.seq, step) else {
            return false;
        };
        let next = self.ctx.graph().neighbor_at(self.ctx.node(), hop as usize);
        let replay = StitchMsg::Replay {
            walk,
            step: step + 1,
            pos: pos + 1,
        };
        self.send(next, w, replay);
        true
    }
}
