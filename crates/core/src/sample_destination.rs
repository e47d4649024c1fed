//! `SAMPLE-DESTINATION` (Algorithm 3 of the paper): sample, uniformly at
//! random, one *unused* short walk of a given root node, and move the walk
//! token to that walk's endpoint.
//!
//! One *echo* (propagation of information with feedback) from the
//! connector `v`, `O(D)` rounds and one message per directed edge, then
//! one routed message down a single tree path:
//!
//! 1. **Wave out** — a wave floods from `v`. A node adopts the first
//!    (minimum) sender as its tree parent and forwards the wave to
//!    every neighbour *except* that parent;
//! 2. **Echo back** — a node has *heard* from a neighbour once its wave
//!    (not my child) or aggregate (my child) arrived; every directed edge
//!    carries exactly one of the two. Having heard from all `degree`
//!    neighbours, a node sends its parent its aggregate: its own tokens
//!    of `v` folded with its children's candidates by a count-weighted
//!    streaming reservoir (Lemma A.2), remembering which child supplied
//!    its candidate;
//! 3. **Deletion** — the root's choice follows those memories down the
//!    tree to the chosen owner, which deletes one of its tokens of `v`
//!    (so no short walk is ever re-stitched) and becomes the new token
//!    holder.
//!
//! A loss-free, uncontended sampling therefore costs `2m +
//! depth(owner)` messages (DESIGN.md says why `2m` is the floor).
//!
//! A *fitted* epoch — a walk with fewer than `2 * lambda` but at least
//! `lambda` steps left ([`crate::stitch_scheduler`]) — samples only the
//! tokens that fit: its `Wave` carries the cap (the steps left) packed
//! with the epoch, every node counts only its tokens of the root no
//! longer than the cap, and the owner takes one of those. A fitted echo
//! that counts none ends in the walk's naive tail, not in
//! `GET-MORE-WALKS`. The choice reads lengths, never trajectories, so it
//! stays exact for the same reason contention does.
//!
//! This module is the echo role of the one Phase-2 protocol
//! ([`crate::StitchScheduler`]), one sampling instance per concurrent
//! walk: the per-walk slot (`SdLaneSlot`) and the handlers of `Wave`,
//! `Agg`, `Chosen` and `Retry`. Two choices keep every message within
//! the CONGEST word budget once the walk-id word is added:
//!
//! - waves carry the *root* instead of a BFS level, so the tree is the
//!   flood-arrival tree (any spanning tree works for the convergecast;
//!   under contention its depth is bounded by the rounds the flood
//!   takes, which is what the round accounting charges anyway);
//! - the reservoir aggregates candidate *owners* weighted by token
//!   count rather than `(owner, tag)` pairs. The owner then deletes a
//!   uniformly random *still-present* local token of the root, so the
//!   choice is exactly uniform over all tokens, as in Algorithm 3, and
//!   no token is consumed twice. Walks whose connectors coincide share
//!   the pool optimistically: if a rival took the last token first, the
//!   root resamples. Any unused token is an independent walk of
//!   uniformly random length, so contention leaves the law exact.

#![deny(clippy::too_many_lines)]

use crate::single_walk::Segment;
use crate::state::StoredWalk;
use crate::stitch_scheduler::{merge_by_key, LaneState, NodeCall, StitchMsg, NO_CAP};
use crate::tail;
use drw_graph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

/// Per-(node, walk) state of one *lane* of the multiplexed
/// `SAMPLE-DESTINATION`: the node's view of that walk's current
/// sampling epoch — its parent in the root's flood tree, how much of
/// the echo it has heard, and the streaming reservoir over subtree
/// token counts (Lemma A.2).
#[derive(Debug, Clone, Default)]
pub(crate) struct SdLaneSlot {
    /// Whether this node has joined the current epoch's tree.
    pub(crate) joined: bool,
    /// Tree parent (`None` at the root).
    pub(crate) parent: Option<NodeId>,
    /// Neighbours heard from: one wave or one aggregate each (the echo
    /// is complete at `degree`).
    pub(crate) heard: usize,
    /// Whether this node's aggregate has been sent up (or finalized).
    pub(crate) agg_sent: bool,
    /// Reservoir candidate: the owner of the sampled token, if the
    /// subtree holds any.
    pub(crate) cand_owner: Option<u32>,
    /// The child whose aggregate supplied `cand_owner` — the next hop
    /// of the root's choice on its way to that owner (`None`: the
    /// candidate is one of this node's own tokens).
    pub(crate) cand_from: Option<NodeId>,
    /// Total tokens in this node's subtree (so far).
    pub(crate) count: u64,
}

#[cfg(test)]
thread_local! {
    /// Planted bug: [`SdLaneSlot::absorb`] replaces the candidate but
    /// forgets which child it came from, misrouting the root's choice.
    pub(crate) static FORGET_CAND_FROM: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

impl SdLaneSlot {
    /// Joins a freshly reset slot to the epoch's tree — under `parent`
    /// on first wave arrival, with none as the root — and snapshots this
    /// node's own `local` token count.
    pub(crate) fn join(&mut self, node: u32, parent: Option<NodeId>, local: u64) {
        self.joined = true;
        self.parent = parent;
        self.count = local;
        if local > 0 {
            self.cand_owner = Some(node);
        }
    }

    /// Hears child `from`'s aggregate and reservoir-merges it: adopts
    /// its candidate owner with probability `count / total` (Lemma A.2).
    pub(crate) fn absorb(&mut self, from: NodeId, owner: u32, count: u64, rng: &mut StdRng) {
        self.heard += 1;
        if count == 0 {
            return;
        }
        self.count += count;
        if rng.random_range(0..self.count) < count {
            self.cand_owner = Some(owner);
            #[cfg(test)]
            if FORGET_CAND_FROM.get() {
                return;
            }
            self.cand_from = Some(from);
        }
    }

    /// Whether the echo is complete here — every neighbour's wave or
    /// aggregate has arrived — so the aggregate may go up (or, at the
    /// root, be finalized). One-shot: false again once `agg_sent` is
    /// set.
    pub(crate) fn ready_to_aggregate(&self, degree: usize) -> bool {
        self.joined && !self.agg_sent && self.heard == degree
    }
}

impl NodeCall<'_> {
    /// Starts lane `w`'s next sampling epoch here, at its connector, where
    /// the walk stands at `steps` steps: resets the lane and roots the
    /// epoch's tree. Every epoch starts here: a walk's first, each after
    /// a stitch, each resample.
    pub(crate) fn restart_epoch(&mut self, w: u32, lane: &mut LaneState, steps: u64) {
        let (root, epoch) = (self.ctx.node() as u32, lane.epoch + 1);
        let cap = self.shared.walks[w as usize].cap_at(steps, self.shared.setup.lambda);
        lane.enter(epoch, root, cap);
        lane.hosted = Some(steps);
        self.join(w, lane, None, (epoch, root));
    }

    /// Joins `lane` to the tree of the wave `(epoch, root)` under `up`
    /// (none at the root), snapshotting this node's tokens of the root
    /// that fit the lane's cap, and forwards the wave to every other
    /// neighbour, in order.
    fn join(&mut self, w: u32, lane: &mut LaneState, up: Option<NodeId>, wave: (u32, u32)) {
        let (node, (epoch, root), cap) = (self.ctx.node(), wave, lane.cap);
        let local = self.ws.count_from(root as usize, cap) as u64;
        lane.slot.join(node as u32, up, local);
        for i in 0..self.ctx.graph().degree(node) {
            let v = self.ctx.graph().neighbor_at(node, i);
            if Some(v) != up {
                self.send(v, w, StitchMsg::Wave { epoch, cap, root });
            }
        }
    }

    /// A wave `(epoch, cap, root)` of lane `w` from `from`: the first
    /// arrival of a newer epoch resets the lane to the epoch's cap; every
    /// arrival is one neighbour heard, and a node not yet in the tree
    /// queues its adoption.
    pub(crate) fn on_wave(
        &mut self,
        lane: &mut LaneState,
        w: u32,
        (epoch, cap, root): (u32, u32, u32),
        from: NodeId,
    ) {
        if epoch > lane.epoch {
            lane.enter(epoch, root, cap);
        } else if epoch < lane.epoch {
            return; // stale tail of an old epoch's flood
        }
        lane.slot.heard += 1;
        if !lane.slot.joined {
            let (adopt, key) = (&mut self.merge.adopt, (w, epoch));
            merge_by_key(adopt, key, (root, from), |a, b| a.1 = a.1.min(b.1));
        }
        self.merge.ready.push(w);
    }

    /// A child's aggregate `(owner, count)`, reservoir-merged into the
    /// slot. Aggregates never straddle epochs: a root finalizes only
    /// after every aggregate reached it.
    pub(crate) fn on_agg(&mut self, lane: &mut LaneState, w: u32, agg: (u32, u64), from: NodeId) {
        lane.slot.absorb(from, agg.0, agg.1, self.ctx.rng());
        self.merge.ready.push(w);
    }

    /// A take conflict of the current epoch, climbing to the root, which
    /// resamples with a fresh epoch.
    pub(crate) fn on_retry(&mut self, lane: &mut LaneState, w: u32, epoch: u32) {
        if epoch != lane.epoch {
            return;
        }
        if let Some(completed) = self.climb(w, lane, StitchMsg::Retry { epoch }) {
            self.restart_epoch(w, lane, completed);
        }
    }

    /// Deferred wave adoption: joins the tree under the round's minimum
    /// sender and forwards the wave to everyone else, once per lane and
    /// epoch (the parent hears from this node through its aggregate).
    /// The epoch's cap is the lane's: its first wave set it.
    pub(crate) fn flush_adoptions(&mut self, lanes: &mut [LaneState]) {
        for i in 0..self.merge.adopt.len() {
            let ((w, epoch), (root, from)) = self.merge.adopt[i];
            let lane = &mut lanes[w as usize];
            if lane.epoch != epoch || lane.slot.joined {
                continue; // a newer epoch arrived later in this inbox
            }
            self.join(w, lane, Some(from), (epoch, root));
            self.merge.ready.push(w);
        }
    }

    /// Lanes whose echo may just have completed: each sends its
    /// aggregate to its parent, or finalizes at the root.
    pub(crate) fn flush_echoes(&mut self, lanes: &mut [LaneState]) {
        self.merge.ready.sort_unstable();
        self.merge.ready.dedup();
        let degree = self.ctx.graph().degree(self.ctx.node());
        for i in 0..self.merge.ready.len() {
            let w = self.merge.ready[i];
            let lane = &mut lanes[w as usize];
            if !lane.slot.ready_to_aggregate(degree) {
                continue;
            }
            lane.slot.agg_sent = true;
            match lane.slot.parent {
                Some(p) => {
                    let (owner, count) = (lane.slot.cand_owner.unwrap_or(0), lane.slot.count);
                    self.send(p, w, StitchMsg::Agg { owner, count });
                }
                None => self.finalize_at_root(w, lane),
            }
        }
    }

    /// Root-side end of an echo: the choice; if no stored walk fits,
    /// `GET-MORE-WALKS` on an uncapped epoch, and on a fitted one the
    /// naive tail — no connector visit after all.
    fn finalize_at_root(&mut self, w: u32, lane: &mut LaneState) {
        let completed = lane.hosted.expect("the epoch root hosts the walk token");
        if lane.slot.count > 0 {
            let owner = lane.slot.cand_owner.expect("count > 0 implies a candidate");
            return self.on_chosen(lane, w, (lane.epoch, owner, completed));
        }
        if lane.cap == NO_CAP {
            return self.launch_gmw(w, lane);
        }
        self.tally.connector_visits -= 1;
        lane.hosted = None;
        let steps = self.shared.walks[w as usize].len - completed;
        tail::hop(self.shared, &mut self.ctx, w, steps);
    }

    /// The root's choice `owner` of the current epoch at this node —
    /// where the root made it, or on its way down the tree. The owner
    /// takes one token of the root and moves the walk on; any other node
    /// passes the choice to the child whose aggregate put `owner` in its
    /// reservoir.
    pub(crate) fn on_chosen(&mut self, lane: &mut LaneState, w: u32, choice: (u32, u32, u64)) {
        let (epoch, owner, completed) = choice;
        if epoch != lane.epoch {
            return;
        }
        if owner as usize != self.ctx.node() {
            let child = lane.slot.cand_from;
            let child = child.expect("a candidate that is not this node's came from a child");
            let chosen = StitchMsg::Chosen {
                epoch,
                owner,
                completed,
            };
            return self.send(child, w, chosen);
        }
        let root = lane.root as usize;
        match self.ws.take_uniform_from(root, lane.cap, self.ctx.rng()) {
            Some(walk) => self.advance_walk(w, lane, walk, completed),
            // A rival consumed the pool since the snapshot.
            None => self.on_retry(lane, w, epoch),
        }
    }

    /// The owner's side of a stitch: records the segment `walk` it just
    /// took (the walk stood at `completed` steps), replays it on a
    /// recorded lane, and moves the walk on from here.
    fn advance_walk(&mut self, w: u32, lane: &mut LaneState, walk: StoredWalk, completed: u64) {
        let seg = Segment {
            connector: lane.root as usize,
            id: walk.id,
            len: walk.len,
            start_pos: completed,
            owner: self.ctx.node(),
        };
        self.tally.segments.push((w, seg));
        self.tally.last_stitch_round = self.ctx.round();
        self.replay_taken(w, &seg);
        self.proceed(w, lane, completed + u64::from(walk.len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_slot_reservoir_weights_owners_by_count() {
        use rand::SeedableRng;
        // Merging subtree aggregates (3, 5, 2 tokens) into an empty local
        // slot must pick each owner with probability proportional to its
        // count — the streaming reservoir of Lemma A.2.
        let mut rng = StdRng::seed_from_u64(11);
        let mut hits = [0u64; 3];
        for _ in 0..5000 {
            let mut slot = SdLaneSlot::default();
            slot.join(9, None, 0);
            slot.absorb(20, 0, 3, &mut rng);
            slot.absorb(21, 1, 5, &mut rng);
            slot.absorb(22, 2, 2, &mut rng);
            assert_eq!(slot.count, 10);
            let owner = slot.cand_owner.expect("tokens exist");
            assert_eq!(
                slot.cand_from,
                Some(20 + owner as usize),
                "routed to its child"
            );
            hits[owner as usize] += 1;
        }
        let probs = [0.3, 0.5, 0.2];
        let test = drw_stats::chi2::chi_square_against_probs(&hits, &probs);
        assert!(test.passes(0.001), "{test:?} hits={hits:?}");
    }

    #[test]
    fn lane_slot_echo_gates_aggregation() {
        use rand::SeedableRng;
        // Ready if and only if joined and heard from every neighbour.
        let mut rng = StdRng::seed_from_u64(1);
        let mut slot = SdLaneSlot {
            heard: 3,
            ..SdLaneSlot::default()
        };
        assert!(
            !slot.ready_to_aggregate(3),
            "unjoined slot never aggregates"
        );
        slot = SdLaneSlot::default();
        slot.join(4, Some(7), 1);
        assert_eq!(slot.cand_owner, Some(4), "local tokens seed the candidate");
        assert_eq!(slot.cand_from, None, "and route nowhere");
        assert!(!slot.ready_to_aggregate(3), "nobody heard yet");
        slot.heard += 1; // the parent's wave
        slot.heard += 1; // a wave from a neighbour that is not a child
        assert!(!slot.ready_to_aggregate(3), "a child's echo outstanding");
        slot.absorb(3, 9, 0, &mut rng);
        assert!(slot.ready_to_aggregate(3));
        assert_eq!(
            (slot.cand_owner, slot.cand_from, slot.count),
            (Some(4), None, 1),
            "an empty subtree never displaces the candidate"
        );
        assert!(!slot.ready_to_aggregate(4), "exactly degree, not at least");
        slot.agg_sent = true;
        assert!(!slot.ready_to_aggregate(3), "one-shot");
        slot = SdLaneSlot::default();
        assert!(!slot.joined && slot.heard == 0 && slot.count == 0);
    }
}
