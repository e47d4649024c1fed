//! `GET-MORE-WALKS` (Algorithm 2): replenish the short walks of a drained
//! connector.
//!
//! The paper's version is *aggregated*: because all new walks share the
//! single source `v`, nodes forward only `(v, count)` pairs — one message
//! per edge per round, hence `O(lambda)` rounds regardless of how many
//! walks are created (Lemma 2.2). The random lengths in
//! `[lambda, 2*lambda - 1]` are realized *on the fly* by reservoir
//! sampling (Vitter \[32\]): after the `lambda`-th step, each surviving
//! token stops with probability `1 / (lambda - i)` at extension step `i`,
//! which makes every length in the range equally likely (Lemma 2.4) —
//! sampling the lengths upfront would require per-walk messages and
//! reintroduce congestion.
//!
//! Aggregation erases trajectories, so these walks cannot be replayed.
//! Callers that need replayability (e.g. random spanning trees) use the
//! *per-token* variant — Phase 1's own token ([`crate::short_walks`]) —
//! trading congestion for traceability.
//!
//! This module is the replenishment role of the one Phase-2 protocol
//! ([`crate::StitchScheduler`]): launched by a lane whose sampling epoch
//! found its connector drained, it handles `Gmw`, `Swk` and `GmwAck`.

#![deny(clippy::too_many_lines)]

use crate::short_walks::{self, ShortWalkMsg};
use crate::state::WalkId;
use crate::stitch_scheduler::{merge_by_key, LaneState, NodeCall, StitchMsg};
use drw_graph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

/// Sequence-number sentinel for aggregated (non-replayable) walks.
pub(crate) const AGGREGATED_SEQ: u32 = u32::MAX;

/// Draws one random-neighbor choice per token and returns how many of
/// `count` indistinguishable tokens leave over each of the node's `deg`
/// neighbor slots — the aggregated one-hop scatter of Algorithm 2.
pub(crate) fn scatter_counts(rng: &mut StdRng, deg: usize, count: u64) -> Vec<u64> {
    let mut per_neighbor = vec![0u64; deg];
    for _ in 0..count {
        per_neighbor[rng.random_range(0..deg)] += 1;
    }
    per_neighbor
}

/// The on-the-fly length rule of Lemma 2.4 for a batch of `arrived`
/// aggregated tokens whose current node is the `step`-th of their walk:
/// returns `(stopped, moving)`.
///
/// Before step `lambda` every token keeps moving; at extension step
/// `i = step - lambda` each survivor stops with probability
/// `1 / (lambda - i)` (everything stops at `2*lambda - 1`), which makes
/// every length in `[lambda, 2*lambda - 1]` equally likely. With
/// `randomize_len == false` all tokens stop exactly at `lambda`
/// (the 2009-style fixed-length ablation).
pub(crate) fn reservoir_split(
    rng: &mut StdRng,
    arrived: u64,
    step: u32,
    lambda: u32,
    randomize_len: bool,
) -> (u64, u64) {
    let last = if randomize_len {
        2 * lambda - 1
    } else {
        lambda
    };
    if step == last {
        (arrived, 0)
    } else if step < lambda || !randomize_len {
        (0, arrived)
    } else {
        // Extension step `i = step - lambda`: each token stops w.p.
        // 1 / (lambda - i), drawn one by one (free local computation).
        let p = 1.0 / f64::from(2 * lambda - step);
        let s = (0..arrived).filter(|_| rng.random_bool(p)).count() as u64;
        (s, arrived - s)
    }
}

/// One lane's `GET-MORE-WALKS` state at the epoch root.
#[derive(Debug, Clone, Default)]
pub(crate) struct GmwLane {
    /// Tokens acknowledged so far, while an invocation is in flight.
    pub(crate) acked: Option<u64>,
    /// Invocations launched here over the whole run (a new epoch resets
    /// only `acked`), billed to the request that caused them.
    pub(crate) events: u64,
}

/// A per-token walk on the wire, without its source: that is the lane's
/// root, which every node of the epoch knows.
fn swk(t: ShortWalkMsg) -> StitchMsg {
    let (seq, step, total) = (t.seq, t.step, t.total);
    StitchMsg::Swk { seq, step, total }
}

impl NodeCall<'_> {
    /// Replenishes lane `w`'s drained connector, this node (Algorithm 1,
    /// lines 7-10): `gmw_count` new walks from here, as counts or as
    /// per-token walks. The root resamples once all are acknowledged.
    pub(crate) fn launch_gmw(&mut self, w: u32, lane: &mut LaneState) {
        lane.gmw.events += 1;
        lane.gmw.acked = Some(0);
        let shared = self.shared;
        if shared.setup.aggregated_gmw {
            return self.scatter(w, 1, shared.setup.gmw_count);
        }
        let length = (shared.setup.lambda, shared.setup.randomize_len);
        let (count, wrap) = (shared.setup.gmw_count as usize, |t| shared.mux(w, swk(t)));
        short_walks::launch(self.ws, &mut self.ctx, count, length, wrap);
    }

    /// One aggregated hop: scatters `count` indistinguishable tokens of
    /// lane `w` to uniformly random neighbours, one count message per
    /// receiving edge, arriving at step `step` — the launch at the
    /// drained root and every later hop.
    fn scatter(&mut self, w: u32, step: u32, count: u64) {
        let node = self.ctx.node();
        let degree = self.ctx.graph().degree(node);
        let per_neighbor = scatter_counts(self.ctx.rng(), degree, count);
        for (idx, &c) in per_neighbor.iter().enumerate() {
            if c > 0 {
                let to = self.ctx.graph().neighbor_at(node, idx);
                self.send(to, w, StitchMsg::Gmw { step, count: c });
            }
        }
    }

    /// Aggregated tokens arriving at their `step`-th node, merged per
    /// `(lane, step)` until the round's flush.
    pub(crate) fn on_gmw(&mut self, w: u32, step: u32, count: u64) {
        merge_by_key(&mut self.merge.gmw_in, (w, step), count, |a, b| *a += b);
    }

    /// A per-token walk of lane `w`'s connector, arrived from `from`:
    /// stored here at its end (and acknowledged), else moved on.
    pub(crate) fn on_swk(
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
        let wrap = |t| shared.mux(w, swk(t));
        if short_walks::step(self.ws, &mut self.ctx, &token, from, wrap) {
            self.on_gmw_ack(w, 1);
        }
    }

    /// Acknowledgements for lane `w`, merged per lane until the round's
    /// flush.
    pub(crate) fn on_gmw_ack(&mut self, w: u32, count: u64) {
        merge_by_key(&mut self.merge.acks, w, count, |a, b| *a += b);
    }

    /// Flushes the round's merged arrivals: one reservoir split and one
    /// scatter per `(lane, step)`, so a lane's tokens reaching this node
    /// over several edges leave as one count per outgoing edge again.
    pub(crate) fn flush_gmw(&mut self, lanes: &mut Vec<LaneState>) {
        let (lambda, random) = (self.shared.setup.lambda, self.shared.setup.randomize_len);
        for i in 0..self.merge.gmw_in.len() {
            let ((w, step), arrived) = self.merge.gmw_in[i];
            let (stopped, moving) = reservoir_split(self.ctx.rng(), arrived, step, lambda, random);
            let id = WalkId {
                source: self.lane(lanes, w).root,
                seq: AGGREGATED_SEQ,
            };
            for _ in 0..stopped {
                self.ws.store_walk(id, step, false);
            }
            if stopped > 0 {
                self.on_gmw_ack(w, stopped);
            }
            if moving > 0 {
                self.scatter(w, step + 1, moving);
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_split_conserves_tokens() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let lambda = 6u32;
        for step in 1..2 * lambda {
            let (stopped, moving) = reservoir_split(&mut rng, 100, step, lambda, true);
            assert_eq!(stopped + moving, 100, "step {step}");
            if step < lambda {
                assert_eq!(stopped, 0, "no stop before lambda");
            }
            if step == 2 * lambda - 1 {
                assert_eq!(moving, 0, "everything stops at 2*lambda - 1");
            }
        }
        // Fixed-length mode: the only stop is exactly at lambda.
        assert_eq!(reservoir_split(&mut rng, 7, lambda, lambda, false), (7, 0));
        assert_eq!(
            reservoir_split(&mut rng, 7, lambda - 1, lambda, false),
            (0, 7)
        );
    }

    #[test]
    fn scatter_counts_conserve_tokens() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let per = scatter_counts(&mut rng, 5, 200);
        assert_eq!(per.len(), 5);
        assert_eq!(per.iter().sum::<u64>(), 200);
    }
}
