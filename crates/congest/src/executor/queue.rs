//! The flat message queue backing the round executors.
//!
//! Everything in flight is one `Vec` of `(edge id, message)` pairs,
//! ascending by edge id and FIFO within an edge — a *run*. That is also
//! the shape of the round loop's staging buffer once it is sorted, and
//! senders run in ascending node order over edge ids that are CSR
//! offsets, so the buffer arrives sorted up to short disorder inside a
//! node's block of sends. Only busy edges appear in the run, so idle
//! protocols pay `O(busy)` per round, not `O(m)`.
//!
//! Per round the executor calls [`FlatQueue::deliver`] (hands up to
//! `edge_capacity` messages per edge to the inboxes and closes the run
//! up over the gaps, in place) and then [`FlatQueue::stage`] (sorts the
//! round's staged sends at a cost proportional to their disorder and
//! makes them the queue: by swapping buffers when nothing was left
//! over, by merging behind the leftovers otherwise). Both walks are in
//! ascending edge-id order, which is what makes runs deterministic
//! whatever order the receive handlers staged their sends in.

use crate::engine::{EngineConfig, RunError, RunReport};
use crate::fault::FaultDecision;
use crate::message::{Envelope, Message};
use drw_graph::Graph;

/// The per-node inboxes a round delivers into, with the round's
/// receivers.
#[derive(Debug)]
pub(crate) struct Inboxes<M> {
    /// One inbox per node (index = node id); empty between rounds.
    pub(crate) slots: Vec<Vec<Envelope<M>>>,
    /// Nodes that got mail this round, in first-delivery order.
    pub(crate) active: Vec<usize>,
}

impl<M> Default for Inboxes<M> {
    fn default() -> Self {
        Inboxes {
            slots: Vec::new(),
            active: Vec::new(),
        }
    }
}

impl<M> Inboxes<M> {
    /// Readies the inboxes for a run on `n` nodes. A run that stopped
    /// early — done, an error, a handler panic — can leave mail behind,
    /// but only at the last round's receivers.
    pub(crate) fn reset(&mut self, n: usize) {
        for v in self.active.drain(..) {
            self.slots[v].clear();
        }
        self.slots.truncate(n);
        self.slots.resize_with(n, Vec::new);
    }

    fn push(&mut self, env: Envelope<M>) {
        let slot = &mut self.slots[env.to];
        if slot.is_empty() {
            self.active.push(env.to);
        }
        slot.push(env);
    }
}

/// Average displacement, in buffer slots per staged message, that
/// [`FlatQueue::sort_staged`]'s insertion pass may spend before it
/// hands the buffer to the index sort. An insertion costs what it
/// moves, so the pass beats the `O(len log len)` sort exactly while the
/// disorder is local; sixteen slots is four nodes' worth of sends on a
/// 4-regular graph, well past what handlers produce inside a node.
const SHIFT_BUDGET_PER_MSG: usize = 16;

/// An edge id or staging index as the `u32` the index sort's keys carry.
///
/// # Panics
///
/// Panics if `x` exceeds `u32::MAX`. A run's edge ids are held to that
/// where it begins ([`FlatQueue::reset`]).
fn narrow(x: usize) -> u32 {
    u32::try_from(x).expect("edge ids and staging indices fit in u32")
}

/// A flat FIFO multi-queue keyed by directed edge id. Every buffer
/// grows on demand and keeps its capacity, across rounds and — held in
/// a [`crate::Runner`]'s scratch — across runs.
#[derive(Debug)]
pub(crate) struct FlatQueue<M> {
    /// The queued messages: ascending by edge id, FIFO within an edge.
    /// Between `deliver` and `stage`: the round's leftovers (messages
    /// past their edge's capacity).
    run: Vec<(usize, M)>,
    /// Scratch of `stage`, empty between calls: first the parked
    /// messages that came due, then the merge of leftovers and staged
    /// sends that becomes `run`.
    spare: Vec<(usize, M)>,
    /// Reusable `(eid, index)` key buffer of the index sort.
    sort_keys: Vec<(u32, u32)>,
    /// Messages parked by the fault layer as `(due round, eid, msg)`:
    /// delayed deliveries and ARQ retransmissions of healed drops. Due
    /// entries re-enter their edge queue during the `stage` call that
    /// feeds their due round, ahead of that round's fresh sends.
    /// Always empty on a perfect network.
    future: Vec<(u64, usize, M)>,
}

impl<M> Default for FlatQueue<M> {
    fn default() -> Self {
        FlatQueue {
            run: Vec::new(),
            spare: Vec::new(),
            sort_keys: Vec::new(),
            future: Vec::new(),
        }
    }
}

/// The buckets (messages of one edge) of an ascending run, in order.
fn buckets<M>(run: &[(usize, M)]) -> impl Iterator<Item = &[(usize, M)]> {
    run.chunk_by(|a, b| a.0 == b.0)
}

impl<M: Message> FlatQueue<M> {
    /// Empties the queue for a new run over `dir_edges` directed edges
    /// (a run that ended on `is_done` or an error can leave messages in
    /// flight), keeping every buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dir_edges` exceeds `u32::MAX`: the index sort's keys
    /// carry edge ids as `u32`.
    pub(crate) fn reset(&mut self, dir_edges: usize) {
        let _ = narrow(dir_edges);
        self.run.clear();
        self.spare.clear();
        self.future.clear();
    }

    /// Stable-sorts `staged` by edge id without allocating, at a cost
    /// proportional to its disorder: a stable insertion pass, given up
    /// for [`FlatQueue::index_sort`] once it has moved more than
    /// [`SHIFT_BUDGET_PER_MSG`] slots per message. Returns whether it
    /// fell back.
    fn sort_staged(&mut self, staged: &mut [(usize, M)]) -> bool {
        let mut budget = SHIFT_BUDGET_PER_MSG * staged.len();
        for i in 1..staged.len() {
            let eid = staged[i].0;
            let mut j = i;
            while j > 0 && staged[j - 1].0 > eid {
                j -= 1;
            }
            if j < i {
                if i - j > budget {
                    // The prefix is a stable sort of itself, so the
                    // index sort still sees every edge's messages in
                    // staging order.
                    self.index_sort(staged);
                    return true;
                }
                budget -= i - j;
                staged[j..=i].rotate_right(1);
            }
        }
        false
    }

    /// Stable-sorts `staged` by edge id without allocating, whatever its
    /// order (`Vec::sort` heap-allocates its merge scratch every call):
    /// sorts copyable `(eid, original index)` pairs with the in-place
    /// `sort_unstable` — the index makes that a stable sort by eid —
    /// then applies the permutation by cycle-chasing swaps.
    fn index_sort(&mut self, staged: &mut [(usize, M)]) {
        let len = narrow(staged.len());
        self.sort_keys.clear();
        self.sort_keys.extend(
            staged
                .iter()
                .zip(0..len)
                .map(|(&(eid, _), i)| (narrow(eid), i)),
        );
        self.sort_keys.sort_unstable();
        for i in 0..staged.len() {
            let mut j = self.sort_keys[i].1 as usize;
            while j < i {
                j = self.sort_keys[j].1 as usize;
            }
            staged.swap(i, j);
        }
    }

    /// Whether nothing remains in flight: no queued message *and* no
    /// delayed/retransmitted message parked for a future round. This —
    /// not mere queue emptiness — is the executors' quiescence test: a
    /// round may deliver nothing while the fault layer still holds
    /// messages that will come due later.
    pub(crate) fn is_idle(&self) -> bool {
        self.run.is_empty() && self.future.is_empty()
    }

    /// Delivers up to `edge_capacity` messages per busy edge into
    /// `inbox`, in ascending edge-id order, recording statistics. Nodes
    /// that received at least one message are appended to
    /// `inbox.active` (each node once, on its first delivery, so in
    /// edge order — callers sort).
    ///
    /// When the engine carries an active [`crate::FaultPlan`], each
    /// delivery attempt is first submitted to the plan, keyed by
    /// `(round, eid, in-bucket index)` — its logical identity, which is
    /// executor-independent because queue contents are. Faulted
    /// messages still consume their capacity slot (the bandwidth was
    /// spent) but only actual deliveries are billed to
    /// `report.messages`/`words`; dropped-and-healed or delayed
    /// messages are parked in `future`, reordered ones are appended
    /// behind every ordinary delivery of the round.
    pub(crate) fn deliver(
        &mut self,
        graph: &Graph,
        cfg: &EngineConfig,
        round: u64,
        report: &mut RunReport,
        inbox: &mut Inboxes<M>,
    ) {
        let plan = cfg.faults.filter(|p| p.is_active());
        let cap = cfg.edge_capacity.unwrap_or(usize::MAX);
        // Envelopes diverted by reorder faults; flushed after the main
        // scan (no allocation on the fault-free path: an empty `Vec`
        // holds no buffer).
        let mut reordered: Vec<(usize, usize, M)> = Vec::new();
        // What one edge did this round, booked when the scan moves on.
        let close_bucket = |report: &mut RunReport, take: usize, words: usize| {
            report.max_edge_load = report.max_edge_load.max(take);
            report.max_edge_words_per_round = report.max_edge_words_per_round.max(words);
        };
        // Take the first `cap` messages of every edge out of the run;
        // the rest close up in place and stay queued, in order.
        let (mut scan, mut seen) = (usize::MAX, 0usize);
        let taken = self.run.extract_if(.., |&mut (eid, _)| {
            if eid != scan {
                (scan, seen) = (eid, 0);
            }
            seen += 1;
            seen <= cap
        });
        // The open bucket: its edge (`usize::MAX`: none yet), endpoints,
        // capacity slots consumed and words carried.
        let (mut cur, mut from, mut to) = (usize::MAX, 0, 0);
        let (mut k, mut bucket_words) = (0usize, 0usize);
        for (eid, msg) in taken {
            if eid != cur {
                if cur != usize::MAX {
                    close_bucket(report, k, bucket_words);
                }
                (cur, k, bucket_words) = (eid, 0, 0);
                (from, to) = (graph.edge_source(eid), graph.edge_target(eid));
            }
            k += 1;
            // Bandwidth is spent the moment the slot is consumed:
            // faulted messages count toward the edge's word load even
            // though only actual deliveries are billed below. The
            // wire census follows the same rule — a dropped message
            // still put its bits on the edge.
            bucket_words += msg.size_words();
            if cfg.record_wire {
                msg.census(&mut report.wire);
            }
            if let Some(plan) = plan {
                match plan.decide(round, eid, k - 1) {
                    FaultDecision::Deliver => {}
                    FaultDecision::Drop => {
                        report.faults.dropped += 1;
                        if plan.heal {
                            // Stop-and-wait ARQ: the sender learns of
                            // the loss and retransmits `rto` rounds
                            // later.
                            report.faults.retransmitted += 1;
                            self.future
                                .push((round + u64::from(plan.rto.max(1)), eid, msg));
                        }
                        continue;
                    }
                    FaultDecision::Delay => {
                        report.faults.delayed += 1;
                        self.future
                            .push((round + u64::from(plan.delay_rounds.max(1)), eid, msg));
                        continue;
                    }
                    FaultDecision::Reorder => {
                        report.faults.reordered += 1;
                        reordered.push((from, to, msg));
                        continue;
                    }
                }
            }
            report.messages += 1;
            report.words += msg.size_words() as u64;
            inbox.push(Envelope { from, to, msg });
        }
        if cur != usize::MAX {
            close_bucket(report, k, bucket_words);
        }
        // Reordered envelopes land behind every ordinary delivery of
        // the round, in (edge, slot) scan order — a deterministic
        // cross-edge reordering of the receiver's inbox.
        for (from, to, msg) in reordered {
            report.messages += 1;
            report.words += msg.size_words() as u64;
            inbox.push(Envelope { from, to, msg });
        }
    }

    /// Enqueues the round's staged sends behind this round's leftovers,
    /// grouped by edge. `staged` comes back empty with a recycled
    /// buffer behind it (its own, or the one the queue held); within
    /// one edge, earlier stages keep their FIFO position (the sort below
    /// is stable), so queue contents are independent of how the
    /// executor gathered the stages — as long as it presents them in
    /// the agreed deterministic (node, stage order) sequence.
    ///
    /// `next_round` is the round whose `deliver` will consume what this
    /// call enqueues: fault-parked messages whose due round has arrived
    /// re-enter here, *ahead* of the round's fresh sends on the same
    /// edge (retransmissions don't queue-jump behind new traffic) but
    /// still behind this round's leftovers.
    ///
    /// # Errors
    ///
    /// [`RunError::OversizedMessage`] for the first staged message (in
    /// staging order) wider than `max_message_words`.
    pub(crate) fn stage(
        &mut self,
        staged: &mut Vec<(usize, M)>,
        cfg: &EngineConfig,
        next_round: u64,
        report: &mut RunReport,
    ) -> Result<(), RunError> {
        // Validate in staging order so the reported offender is
        // deterministic and independent of edge grouping. Fault-parked
        // messages were validated when first staged.
        for (_, msg) in staged.iter() {
            let words = msg.size_words();
            if words > cfg.max_message_words {
                return Err(RunError::OversizedMessage {
                    words,
                    cap: cfg.max_message_words,
                });
            }
        }
        if !self.future.is_empty() {
            // Stable partition, in place: due entries keep their park
            // order and are spliced in front of the fresh sends, so the
            // stable sort below puts them first within each edge.
            let due = self.future.extract_if(.., |parked| parked.0 <= next_round);
            self.spare.extend(due.map(|(_, eid, msg)| (eid, msg)));
            staged.splice(0..0, self.spare.drain(..));
        }
        if staged.is_empty() && self.run.is_empty() {
            return Ok(());
        }
        self.sort_staged(staged); // stable by eid: preserves FIFO within an edge
        if self.run.is_empty() {
            // The sorted staging buffer *is* the next round's queue.
            std::mem::swap(&mut self.run, staged);
        } else {
            // Merge the two ascending runs, leftovers first within an
            // edge.
            let mut old = self.run.drain(..);
            for (eid, msg) in staged.drain(..) {
                let ahead = old.as_slice().iter().take_while(|q| q.0 <= eid).count();
                self.spare.extend(old.by_ref().take(ahead));
                self.spare.push((eid, msg));
            }
            self.spare.extend(old);
            std::mem::swap(&mut self.run, &mut self.spare);
        }
        let longest = buckets(&self.run).map(<[_]>::len).max();
        report.max_edge_backlog = report.max_edge_backlog.max(longest.unwrap_or(0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{WireReader, WireSink};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A message that remembers where in the input it stood.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Tag(u32);
    impl Message for Tag {
        fn encode(&self, w: &mut impl WireSink) {
            w.word("tag", self.0.into());
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            r.read().map(Tag)
        }
    }

    type Run = Vec<(usize, Tag)>;

    /// `eids` as messages tagged `first_tag..` in order.
    fn tagged(eids: &[usize], first_tag: u32) -> Run {
        let tags = (first_tag..).map(Tag);
        eids.iter().copied().zip(tags).collect()
    }

    /// What any correct staging of `parts` (in that order) must queue:
    /// the standard library's stable sort of their concatenation.
    fn reference(parts: &[&Run]) -> Run {
        let mut all: Run = parts.iter().flat_map(|p| p.iter().cloned()).collect();
        all.sort_by_key(|e| e.0);
        all
    }

    /// The hostile and the friendly staging orders, 600 messages each,
    /// with whether they must exhaust the insertion pass's budget.
    fn inputs() -> Vec<(&'static str, Vec<usize>, bool)> {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 600usize;
        // Ascending node blocks of four out-edges, two lanes' sends
        // apiece, each block in a random order: what handlers produce.
        let mut blocks = Vec::new();
        for node in 0..n / 8 {
            let mut block: Vec<usize> = (0..8).map(|i| node * 4 + i % 4).collect();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.random_range(0..=i));
            }
            blocks.extend(block);
        }
        vec![
            ("reverse-sorted", (0..n).rev().collect(), true),
            (
                "reversed pairs",
                (0..n).rev().map(|e| e / 2).collect(),
                true,
            ),
            ("all one edge", vec![7; n], false),
            ("sorted", (0..n).map(|e| e / 3).collect(), false),
            (
                "random",
                (0..n).map(|_| rng.random_range(0..97)).collect(),
                true,
            ),
            ("block-shuffled", blocks, false),
        ]
    }

    #[test]
    fn sort_staged_is_a_stable_sort_and_falls_back_past_its_budget() {
        for (name, eids, must_fall_back) in inputs() {
            let input = tagged(&eids, 0);
            let want = reference(&[&input]);
            let mut q = FlatQueue::default();
            let mut got = input.clone();
            assert_eq!(q.sort_staged(&mut got), must_fall_back, "{name}");
            assert_eq!(got, want, "{name}");
            // The fallback alone agrees on every input too.
            let mut got = input.clone();
            q.index_sort(&mut got);
            assert_eq!(got, want, "{name}: index sort");
            // Planted bug: a sort that orders edges but not the messages
            // within one. The comparison above must be able to see it.
            let mut unstable = input.clone();
            unstable.sort_unstable_by_key(|e| (e.0, std::cmp::Reverse(e.1 .0)));
            let has_ties = want.windows(2).any(|w| w[0].0 == w[1].0);
            assert_eq!(unstable != want, has_ties, "{name}: planted instability");
        }
    }

    #[test]
    fn stage_queues_leftovers_then_due_then_fresh_within_every_edge() {
        let cfg = EngineConfig::default();
        for (name, eids, _) in inputs() {
            for with_left in [false, true] {
                let mut q = FlatQueue::default();
                // Leftovers: an ascending run sharing edges with the
                // staged sends.
                let left = if with_left {
                    tagged(&(0..40).map(|i| i / 2 * 5).collect::<Vec<_>>(), 10_000)
                } else {
                    Run::new()
                };
                q.run = left.clone();
                // Parked: every third entry is not due yet.
                let parked = tagged(&[9, 3, 3, 700, 0, 9, 3, 50, 0], 20_000);
                for (i, (eid, msg)) in parked.iter().cloned().enumerate() {
                    let when = if i % 3 == 1 { 8 } else { 6 + i as u64 % 2 };
                    q.future.push((when, eid, msg));
                }
                let (due, kept): (Vec<_>, Vec<_>) =
                    q.future.iter().cloned().partition(|p| p.0 <= 7);
                let due: Run = due.into_iter().map(|(_, eid, msg)| (eid, msg)).collect();
                let mut staged = tagged(&eids, 0);
                let fresh = staged.clone();
                let mut report = RunReport::default();
                q.stage(&mut staged, &cfg, 7, &mut report).unwrap();
                let want = reference(&[&left, &due, &fresh]);
                assert_eq!(q.run, want, "{name}, leftovers: {with_left}");
                assert_eq!(q.future, kept, "{name}: parked entries keep their order");
                assert!(staged.is_empty() && q.spare.is_empty());
                let longest = buckets(&want).map(<[_]>::len).max().unwrap_or(0);
                assert_eq!(report.max_edge_backlog, longest, "{name}");
            }
        }
        let lens = |eids: &[usize]| {
            buckets(&tagged(eids, 0))
                .map(<[_]>::len)
                .collect::<Vec<_>>()
        };
        assert_eq!(lens(&[1, 1, 4, 5, 5, 5]), [2, 1, 3]);
    }

    #[test]
    fn a_round_with_no_leftovers_and_nothing_parked_swaps_buffers() {
        let cfg = EngineConfig::default();
        let mut q = FlatQueue::default();
        let mut report = RunReport::default();
        let mut staged = tagged(&[0, 0, 1, 3, 2, 5], 0);
        let sends = staged.as_ptr();
        q.stage(&mut staged, &cfg, 1, &mut report).unwrap();
        assert_eq!(q.run.as_ptr(), sends, "the staging buffer became the queue");
        assert_eq!(q.run, reference(&[&tagged(&[0, 0, 1, 3, 2, 5], 0)]));
        assert_eq!((staged.len(), report.max_edge_backlog), (0, 2));
    }

    #[test]
    fn edge_ids_are_held_to_u32_where_a_run_begins() {
        assert_eq!(narrow(u32::MAX as usize), u32::MAX);
        FlatQueue::<Tag>::default().reset(u32::MAX as usize);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "fit in u32")]
    fn a_run_over_more_than_u32_max_directed_edges_is_refused() {
        FlatQueue::<Tag>::default().reset(u32::MAX as usize + 1);
    }
}
