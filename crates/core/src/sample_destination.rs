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
//! 2. **Echo back** — a node has *heard* from a neighbour once that
//!    neighbour's wave (it is not my child) or aggregate (it is) has
//!    arrived, and every directed edge carries exactly one of the two.
//!    Having heard from all `degree` neighbours, a node sends its
//!    parent its aggregate: its own tokens (stored walks launched by
//!    `v`) folded with its children's candidates, weighted by token
//!    counts (a streaming reservoir), so the root ends with a sample
//!    over all tokens (Lemma A.2). Each node remembers which child's
//!    aggregate supplied its candidate;
//! 3. **Deletion** — the root's choice follows those memories down the
//!    tree to the chosen owner, which deletes one of its tokens of `v`
//!    (so no short walk is ever re-stitched) and becomes the new token
//!    holder.
//!
//! A loss-free, uncontended sampling therefore costs `2m +
//! depth(owner)` messages (DESIGN.md says why `2m` is the floor).
//!
//! The echo runs inside the one Phase-2 protocol
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
/// sampling epoch — its parent in the root's flood tree, how much of
/// the echo it has heard, and the streaming reservoir over subtree
/// token counts (Lemma A.2).
#[derive(Debug, Clone, Default)]
pub struct SdLaneSlot {
    /// Whether this node has joined the current epoch's tree.
    pub joined: bool,
    /// Tree parent (`None` at the root).
    pub parent: Option<NodeId>,
    /// Neighbours heard from: one wave or one aggregate each (the echo
    /// is complete at `degree`).
    pub heard: usize,
    /// Whether this node's aggregate has been sent up (or finalized).
    pub agg_sent: bool,
    /// Reservoir candidate: the owner of the sampled token, if the
    /// subtree holds any.
    pub cand_owner: Option<u32>,
    /// The child whose aggregate supplied `cand_owner` — the next hop
    /// of the root's choice on its way to that owner (`None`: the
    /// candidate is one of this node's own tokens).
    pub cand_from: Option<NodeId>,
    /// Total tokens in this node's subtree (so far).
    pub count: u64,
}

#[cfg(test)]
thread_local! {
    /// Planted bug: [`SdLaneSlot::absorb`] replaces the candidate but
    /// forgets which child it came from, misrouting the root's choice.
    pub(crate) static FORGET_CAND_FROM: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

impl SdLaneSlot {
    /// Clears the slot for a new epoch.
    pub fn reset(&mut self) {
        *self = SdLaneSlot::default();
    }

    /// Joins a freshly reset slot to the epoch's tree — under `parent`
    /// on first wave arrival, with none as the root — and snapshots this
    /// node's own `local` token count.
    pub fn join(&mut self, node: u32, parent: Option<NodeId>, local: u64) {
        self.joined = true;
        self.parent = parent;
        self.count = local;
        if local > 0 {
            self.cand_owner = Some(node);
        }
    }

    /// Hears child `from`'s aggregate and reservoir-merges it: adopts
    /// its candidate owner with probability `count / total` (Lemma A.2).
    pub fn absorb(&mut self, from: NodeId, owner: u32, count: u64, rng: &mut StdRng) {
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
    pub fn ready_to_aggregate(&self, degree: usize) -> bool {
        self.joined && !self.agg_sent && self.heard == degree
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
        slot.reset();
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
        slot.reset();
        assert!(!slot.joined && slot.heard == 0 && slot.count == 0);
    }
}
