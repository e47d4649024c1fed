//! `GET-MORE-WALKS` (Algorithm 2): replenish the short walks of a drained
//! connector.
//!
//! A drained connector launches `gmw_count` new walks of its own, each
//! as Phase 1's token ([`crate::short_walks`]): its length is drawn at
//! launch, uniform in `[lambda, 2*lambda - 1]` (Lemma 2.4), it draws a
//! fresh `seq` from its source, and every node after the source logs its
//! arrival. So a replenished walk is stored like any Phase-1 walk: it
//! has its own id and can be replayed and evicted by its trajectory.
//!
//! The paper aggregates the new walks into `(v, count)` pairs, one
//! message per edge per round, so an invocation costs `O(lambda)` rounds
//! however many walks it creates (Lemma 2.2). Per-token replenishment
//! gives that up: the tokens queue on the connector's edges. DESIGN.md
//! ("Algorithms") states the deviation and its measured price.
//!
//! This module is the replenishment role of the one Phase-2 protocol
//! ([`crate::StitchScheduler`]): launched by a lane whose sampling epoch
//! found its connector drained, it handles `Gmw` and `GmwAck`.

#![deny(clippy::too_many_lines)]

use crate::short_walks::{self, ShortWalkMsg};
use crate::stitch_scheduler::{merge_by_key, LaneState, NodeCall, StitchMsg};
use drw_graph::NodeId;

/// One lane's `GET-MORE-WALKS` state at the epoch root.
#[derive(Debug, Clone, Default)]
pub(crate) struct GmwLane {
    /// Tokens acknowledged so far, while an invocation is in flight.
    pub(crate) acked: Option<u64>,
    /// Invocations launched here over the whole run (a new epoch resets
    /// only `acked`), billed to the request that caused them.
    pub(crate) events: u64,
}

/// A replenishing walk on the wire, without its source: that is the
/// lane's root, which every node of the epoch knows.
fn gmw(t: ShortWalkMsg) -> StitchMsg {
    let (seq, step, total) = (t.seq, t.step, t.total);
    StitchMsg::Gmw { seq, step, total }
}

impl NodeCall<'_> {
    /// Replenishes lane `w`'s drained connector, this node (Algorithm 1,
    /// lines 7-10): `gmw_count` new walks from here. The root resamples
    /// once all are acknowledged.
    pub(crate) fn launch_gmw(&mut self, w: u32, lane: &mut LaneState) {
        lane.gmw.events += 1;
        lane.gmw.acked = Some(0);
        let shared = self.shared;
        let length = (shared.setup.lambda, shared.setup.randomize_len);
        let (count, wrap) = (shared.setup.gmw_count as usize, |t| shared.mux(w, gmw(t)));
        short_walks::launch(self.ws, &mut self.ctx, count, length, wrap);
    }

    /// A replenishing walk of lane `w`'s connector, arrived from `from`:
    /// stored here at its end (and acknowledged), else moved on.
    pub(crate) fn on_gmw(
        &mut self,
        lane: &LaneState,
        w: u32,
        (seq, step, total): (u32, u32, u32),
        from: NodeId,
    ) {
        let shared = self.shared;
        let token = ShortWalkMsg {
            source: lane.root,
            seq,
            step,
            total,
        };
        let wrap = |t| shared.mux(w, gmw(t));
        if short_walks::step(self.ws, &mut self.ctx, &token, from, wrap) {
            self.on_gmw_ack(w, 1);
        }
    }

    /// Acknowledgements for lane `w`, merged per lane until the round's
    /// flush.
    pub(crate) fn on_gmw_ack(&mut self, w: u32, count: u64) {
        merge_by_key(&mut self.merge.acks, w, count, |a, b| *a += b);
    }

    /// Flushes the round's merged acknowledgements: per lane, one tally
    /// at the waiting root — which resamples once all arrived — or one
    /// message up the epoch's tree.
    pub(crate) fn flush_acks(&mut self, lanes: &mut Vec<LaneState>) {
        for i in 0..self.merge.acks.len() {
            let (w, count) = self.merge.acks[i];
            let lane = self.lane(lanes, w);
            let Some(completed) = self.climb(w, lane, StitchMsg::GmwAck { count }) else {
                continue;
            };
            let Some(acked) = &mut lane.gmw.acked else {
                continue;
            };
            *acked += count;
            if *acked >= self.shared.setup.gmw_count {
                self.restart_epoch(w, lane, completed);
            }
        }
    }
}
