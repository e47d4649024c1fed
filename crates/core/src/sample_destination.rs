//! `SAMPLE-DESTINATION` (Algorithm 3 of the paper): sample, uniformly at
//! random, one *unused* short walk of a given root node, and move the walk
//! token to that walk's endpoint.
//!
//! Three sweeps over a tree rooted at the connector `v`, `O(D)` rounds
//! total:
//!
//! 1. **Tree construction** — a wave floods from `v`, combined with a
//!    child-status handshake so every node learns its exact children
//!    set without global knowledge of `D`;
//! 2. **Sampling convergecast** — every node counts its own tokens
//!    (stored walks launched by `v`), then folds in its children's
//!    candidates weighted by token counts (a streaming reservoir), so
//!    the root ends with a sample over all tokens (Lemma A.2);
//! 3. **Deletion broadcast** — the root announces the chosen owner,
//!    which deletes one of its tokens of `v` (so no short walk is ever
//!    re-stitched) and becomes the new token holder.
//!
//! The sweeps run inside the one Phase-2 protocol
//! ([`crate::StitchScheduler`]): one sampling instance per concurrent
//! walk in a *shared* execution, every message tagged with its walk id.
//! This module holds what a node keeps per walk, [`SdLaneSlot`]. Two
//! choices keep every multiplexed message within the CONGEST word
//! budget once the walk-id word is added:
//!
//! - waves carry the *root* instead of a BFS level, so the tree is the
//!   flood-arrival tree (any spanning tree works for the convergecast;
//!   under contention its depth is bounded by the rounds the flood
//!   takes, which is what the round accounting charges anyway);
//! - the reservoir aggregates candidate *owners* weighted by token
//!   count rather than `(owner, tag)` pairs. The owner then deletes a
//!   uniformly random local token of the root: owner chosen with
//!   probability proportional to its token count, token uniform within
//!   the owner — the product is exactly uniform over all tokens, as in
//!   Algorithm 3.

use drw_graph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

/// Per-(node, walk) state of one *lane* of the multiplexed
/// `SAMPLE-DESTINATION`: the node's view of that walk's current
/// sampling epoch — its position in the root's flood tree, the
/// child-status handshake, and the streaming reservoir over subtree
/// token counts (Lemma A.2).
#[derive(Debug, Clone, Default)]
pub struct SdLaneSlot {
    /// Whether this node has joined the current epoch's tree.
    pub joined: bool,
    /// Tree parent (`None` at the root).
    pub parent: Option<NodeId>,
    /// Tree children, in wave-arrival order.
    pub children: Vec<NodeId>,
    /// Waves received from neighbors (handshake complete at `degree`).
    pub statuses: usize,
    /// Aggregates received from children.
    pub aggs_received: usize,
    /// Whether this node's aggregate has been sent up (or finalized).
    pub agg_sent: bool,
    /// Reservoir candidate: the owner of the sampled token, if the
    /// subtree holds any.
    pub cand_owner: Option<u32>,
    /// Total tokens in this node's subtree (so far).
    pub count: u64,
}

impl SdLaneSlot {
    /// Clears the slot for a new epoch (keeps allocations).
    pub fn reset(&mut self) {
        self.joined = false;
        self.parent = None;
        self.children.clear();
        self.statuses = 0;
        self.aggs_received = 0;
        self.agg_sent = false;
        self.cand_owner = None;
        self.count = 0;
    }

    /// Root-side initialization: joins with no parent and snapshots the
    /// root's own `local` token count.
    pub fn init_root(&mut self, root: u32, local: u64) {
        self.reset();
        self.joined = true;
        self.count = local;
        if local > 0 {
            self.cand_owner = Some(root);
        }
    }

    /// Non-root initialization on first wave arrival: adopts `parent`
    /// and snapshots this node's own `local` token count.
    pub fn join(&mut self, node: u32, parent: NodeId, local: u64) {
        self.joined = true;
        self.parent = Some(parent);
        self.count = local;
        if local > 0 {
            self.cand_owner = Some(node);
        }
    }

    /// Reservoir-merges a child subtree's aggregate: adopts its
    /// candidate owner with probability `count / total` (Lemma A.2).
    pub fn absorb(&mut self, owner: u32, count: u64, rng: &mut StdRng) {
        self.aggs_received += 1;
        if count == 0 {
            return;
        }
        self.count += count;
        if rng.random_range(0..self.count) < count {
            self.cand_owner = Some(owner);
        }
    }

    /// Whether the handshake and child aggregation are complete, so the
    /// aggregate may go up (or, at the root, be finalized). One-shot:
    /// false again once `agg_sent` is set.
    pub fn ready_to_aggregate(&self, degree: usize) -> bool {
        self.joined
            && !self.agg_sent
            && self.statuses == degree
            && self.aggs_received == self.children.len()
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
            slot.init_root(9, 0);
            slot.absorb(0, 3, &mut rng);
            slot.absorb(1, 5, &mut rng);
            slot.absorb(2, 2, &mut rng);
            assert_eq!(slot.count, 10);
            hits[slot.cand_owner.expect("tokens exist") as usize] += 1;
        }
        let probs = [0.3, 0.5, 0.2];
        let test = drw_stats::chi2::chi_square_against_probs(&hits, &probs);
        assert!(test.passes(0.001), "{test:?} hits={hits:?}");
    }

    #[test]
    fn lane_slot_handshake_gates_aggregation() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let mut slot = SdLaneSlot::default();
        assert!(
            !slot.ready_to_aggregate(2),
            "unjoined slot never aggregates"
        );
        slot.join(4, 7, 1);
        assert_eq!(slot.cand_owner, Some(4), "local tokens seed the candidate");
        assert!(!slot.ready_to_aggregate(2), "handshake incomplete");
        slot.statuses = 2;
        slot.children.push(3);
        assert!(!slot.ready_to_aggregate(2), "child aggregate outstanding");
        slot.absorb(3, 0, &mut rng);
        assert!(slot.ready_to_aggregate(2));
        slot.agg_sent = true;
        assert!(!slot.ready_to_aggregate(2), "one-shot");
        slot.reset();
        assert!(!slot.joined && slot.children.is_empty() && slot.count == 0);
    }
}
