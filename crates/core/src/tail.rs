//! The naive tail and regeneration, a role of the one Phase-2 protocol
//! ([`crate::StitchScheduler`]). Once no stitch is due — fewer than
//! `2*lambda` steps remain, or on an unrecorded walk fewer than `lambda`
//! or no stored walk fits (every step, on a forced-naive lane) — a walk
//! moves as a `Tail` token, one random hop per round (Algorithm 1,
//! line 14). A recorded lane records every tail hop, and replays each
//! stitched segment while the walk goes on stitching (end of Section
//! 2.2): the segment's owner, which took the short walk and so knows
//! it, records its own position and sends a `Replay` token back along
//! the walk's arrival log. Every node on the way records its position
//! and the predecessor its log names, down to the walk's first step,
//! whose predecessor is the connector.

#![deny(clippy::too_many_lines)]

use crate::single_walk::Segment;
use crate::state::WalkId;
use crate::stitch_scheduler::{BatchMsg, NodeCall, SharedCfg, StitchMsg};
use drw_congest::NodeCtx;
use drw_graph::NodeId;

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

    /// Regenerates the segment `seg` this node just took, on a recorded
    /// lane: the owner is the walk's last node, so replay starts here.
    pub(crate) fn replay_taken(&mut self, w: u32, seg: &Segment) {
        let spec = self.shared.walks[w as usize];
        if spec.record {
            self.tally.replays_open += 1;
            let pos = spec.pos_offset + seg.start_pos + u64::from(seg.len);
            self.on_replay(w, (pack_walk(seg.id), seg.len, pos));
        }
    }

    /// The replay token of the short walk `walk` at this node, its
    /// `step`-th, at global position `pos`: records the visit with the
    /// predecessor this node's arrival log names and passes the token
    /// back to it — or, at step 1, whose predecessor is the connector
    /// (its position is on record already), is home.
    pub(crate) fn on_replay(&mut self, w: u32, (walk, step, pos): (u64, u32, u64)) {
        let id = unpack_walk(walk);
        let port = self.ws.forward.arrival(id.source, id.seq, step);
        let port = port.unwrap_or_else(|| panic!("walk {id:?} has no arrival at step {step}"));
        let pred = self.ctx.graph().neighbor_at(self.ctx.node(), port as usize);
        self.ws.record_visit(pos, Some(pred));
        if step == 1 {
            self.tally.replays_open -= 1;
        } else {
            let (step, pos) = (step - 1, pos - 1);
            self.send(pred, w, StitchMsg::Replay { walk, step, pos });
        }
    }
}
