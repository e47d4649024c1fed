//! The naive tail and regeneration, a role of the one Phase-2 protocol
//! ([`crate::StitchScheduler`]). Once no stitch is due — fewer than
//! `2*lambda` steps remain, or on an unrecorded walk fewer than `lambda`
//! or no stored walk fits (every step, on a forced-naive lane) — a walk
//! moves as a `Tail` token, one random hop per round (Algorithm 1,
//! line 14). A recorded lane records every tail hop, and replays each
//! segment taken from a store while the walk goes on stitching (end of
//! Section 2.2; a ridden `GET-MORE-WALKS` walk records itself as it
//! goes): the segment's owner, which took the short walk and so knows
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
    /// The node walk `id` came from when this node was its `step`-th,
    /// read off this node's arrival log.
    pub(crate) fn pred_on(&self, id: WalkId, step: u32) -> NodeId {
        let port = self.ws.forward.arrival(id.source, id.seq, step);
        let port = port.unwrap_or_else(|| panic!("walk {id:?} has no arrival at step {step}"));
        self.ctx.graph().neighbor_at(self.ctx.node(), port as usize)
    }

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
            self.wave.tally.finished.push(w);
        } else {
            hop(self.shared, &mut self.ctx, w, left);
        }
    }

    /// Regenerates the segment `seg` this node just took, on a recorded
    /// lane: the owner is the walk's last node, so replay starts here.
    pub(crate) fn replay_taken(&mut self, w: u32, seg: &Segment) {
        let spec = self.shared.walks[w as usize];
        if spec.record {
            self.wave.tally.replays_open += 1;
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
        let pred = self.pred_on(unpack_walk(walk), step);
        self.ws.record_visit(pos, Some(pred));
        if step == 1 {
            self.wave.tally.replays_open -= 1;
        } else {
            let (step, pos) = (step - 1, pos - 1);
            self.send(pred, w, StitchMsg::Replay { walk, step, pos });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::state::WalkState;
    use crate::stitch_scheduler::tests::{recorded_walk, setup};
    use crate::stitch_scheduler::{StitchScheduler, StitchSpec};
    use drw_congest::{EngineConfig, Runner};
    use drw_graph::generators;

    #[test]
    fn zero_and_tail_only_walks() {
        let g = generators::path(6);
        let mut runner = Runner::new(&g, EngineConfig::default(), 9);
        let mut state = WalkState::new(g.n());
        let mut sched = StitchScheduler::new(&setup(16));
        sched.add_walk(3, 0); // Done immediately
        sched.add_walk(2, 5); // < 2*lambda: pure tail
        let out = sched.run(&mut runner, &mut state).expect("short walks");
        assert_eq!(out.walks[0].destination, 3);
        assert!(out.walks[0].segments.is_empty());
        assert!(out.walks[1].segments.is_empty());
        assert_eq!(out.stitches, 0);
        // Parity of the 5-step tail on a path.
        assert_eq!((out.walks[1].destination + 2) % 2, 1);
    }

    #[test]
    fn record_mode_records_tail_visits_at_offset() {
        // A pure-tail walk (len < 2*lambda) in record mode: every hop is
        // recorded at pos_offset + local position with its predecessor;
        // the hand-off position (pos_offset itself) is never recorded.
        let g = generators::path(8);
        let mut runner = Runner::new(&g, EngineConfig::default(), 13);
        let mut state = WalkState::new(g.n());
        let mut sched = StitchScheduler::new(&setup(16));
        sched.add_spec(StitchSpec {
            pos_offset: 100,
            record: true,
            ..StitchSpec::plain(3, 5)
        });
        let out = sched.run(&mut runner, &mut state).expect("tail walk");
        let visits = state.drain_visits();
        assert_eq!(visits.len(), 5);
        let mut poss: Vec<u64> = visits.iter().map(|(_, v)| v.pos).collect();
        poss.sort_unstable();
        assert_eq!(poss, vec![101, 102, 103, 104, 105]);
        let (last_node, _) = *visits.iter().find(|(_, v)| v.pos == 105).unwrap();
        assert_eq!(last_node, out.walks[0].destination);
        for (node, v) in &visits {
            assert!(g.has_edge(v.pred().expect("tail visits carry preds"), *node));
        }
    }

    #[test]
    fn a_recorded_run_regenerates_every_position_while_it_stitches() {
        let (out, mut visits) = recorded_walk(120, 7);
        assert!(out.stitches >= 3);
        visits.sort_unstable_by_key(|(_, v)| v.pos);
        let positions: Vec<u64> = visits.iter().map(|(_, v)| v.pos).collect();
        assert_eq!(positions, (1..=120).collect::<Vec<u64>>());
        assert_eq!(visits.last().unwrap().0, out.walks[0].destination);
        // Replay rode the wave: what is left of it after the walk landed
        // is at most the last segment plus the way to its connector.
        assert!(out.rounds_replay < 12 + 6, "{}", out.rounds_replay);
        assert!(out.rounds_tail + out.rounds_replay < out.report.rounds);
    }

    #[test]
    fn naive_lane_reissues_from_scratch_on_lossy_links() {
        use drw_congest::FaultPlan;
        // A forced-naive walk has no checkpoints: losing its tail token
        // restarts the whole walk (memoryless, so still unbiased). 5%
        // drop over a 16-hop token loses one run in two, while a fresh
        // pass completes just as often — stall and recovery are both
        // likely within the seed scan.
        let g = generators::path(4);
        let mut exercised = false;
        for fault_seed in 0..64 {
            let cfg = EngineConfig::default().with_faults(FaultPlan::drops(fault_seed, 50).lossy());
            let mut runner = Runner::new(&g, cfg, 7);
            let mut state = WalkState::new(g.n());
            let mut sched = StitchScheduler::new(&setup(8));
            sched.add_spec(StitchSpec {
                naive: true,
                ..StitchSpec::plain(1, 16)
            });
            let out = sched.run(&mut runner, &mut state).expect("naive lossy");
            assert!(out.walks[0].segments.is_empty());
            assert_eq!(out.walks[0].destination % 2, 1, "16-step parity on a path");
            if out.reissues > 0 {
                exercised = true;
                break;
            }
        }
        assert!(exercised, "no fault seed in 0..64 lost the naive token");
    }
}
