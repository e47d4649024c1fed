//! The flat bucketed message queue backing the round executors.
//!
//! The seed engine kept one `VecDeque<Msg>` per directed edge — `2m`
//! heap-backed deques, each paying its own allocation the first time an
//! edge carries a message, plus a `busy_edges` side list that was sorted
//! and deduplicated every round. This structure replaces all of that
//! with CSR-style storage, mirroring how [`drw_graph::Graph`] stores
//! adjacency: one backing `Vec` of messages, grouped by edge, plus a
//! sorted bucket index `(edge id, range)`. Only *busy* edges appear in
//! the index, so idle protocols pay `O(busy)` per round, not `O(m)`.
//!
//! Per round the executor calls [`FlatQueue::deliver`] (drains up to
//! `edge_capacity` messages per bucket, compacting the leftovers) and
//! then [`FlatQueue::stage`] (merges the round's staged sends behind the
//! leftovers, bucket-by-bucket). Both walks are in ascending edge-id
//! order, which is what makes runs deterministic regardless of executor
//! backend.

use crate::engine::{EngineConfig, RunError, RunReport};
use crate::fault::FaultDecision;
use crate::message::{Envelope, Message};
use drw_graph::Graph;

pub(crate) const LOAD_HISTOGRAM_BUCKETS: usize = 64;

/// The per-node inboxes a round delivers into, with the round's
/// receivers and a running total of envelope capacity — the
/// [`crate::MemoryReport`] figure, kept as mail arrives so that no run
/// scans `n` inboxes to learn it.
#[derive(Debug)]
pub(crate) struct Inboxes<M> {
    /// One inbox per node (index = node id); empty between rounds.
    pub(crate) slots: Vec<Vec<Envelope<M>>>,
    /// Nodes that got mail this round, in first-delivery order.
    pub(crate) active: Vec<usize>,
    /// Envelopes of capacity across `slots`.
    envelope_cap: usize,
}

impl<M> Default for Inboxes<M> {
    fn default() -> Self {
        Inboxes {
            slots: Vec::new(),
            active: Vec::new(),
            envelope_cap: 0,
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
        for dropped in self.slots.drain(n.min(self.slots.len())..) {
            self.envelope_cap -= dropped.capacity();
        }
        self.slots.resize_with(n, Vec::new);
    }

    fn push(&mut self, env: Envelope<M>) {
        let slot = &mut self.slots[env.to];
        if slot.is_empty() {
            self.active.push(env.to);
        }
        let before = slot.capacity();
        slot.push(env);
        self.envelope_cap += slot.capacity() - before;
    }

    /// Bytes of backing capacity: the slot table plus every envelope
    /// buffer. Capacities never shrink, so this is the high-water mark.
    pub(crate) fn capacity_bytes(&self) -> usize {
        std::mem::size_of_val(self.slots.as_slice())
            + self.envelope_cap * std::mem::size_of::<Envelope<M>>()
    }
}

/// A flat, bucketed FIFO multi-queue keyed by directed edge id. Every
/// buffer grows on demand and keeps its capacity, across rounds and —
/// held in a [`crate::Runner`]'s scratch — across runs.
#[derive(Debug)]
pub(crate) struct FlatQueue<M> {
    /// Busy edge ids, ascending.
    eids: Vec<u32>,
    /// `starts[i]..starts[i + 1]` is the bucket of `eids[i]` in `msgs`.
    starts: Vec<u32>,
    /// Backing message storage, grouped by bucket, FIFO within a bucket.
    msgs: Vec<M>,
    /// Leftover buffers double-buffering `deliver` → `stage`.
    left_eids: Vec<u32>,
    left_starts: Vec<u32>,
    left_msgs: Vec<M>,
    /// Reusable `(eid, index)` buffer for the stage sort. `Vec::sort` is
    /// a stable merge sort that heap-allocates its scratch *every call*
    /// — one allocation per round, forever, as measured by the
    /// `alloc_counter` bench. Sorting copyable key pairs with the
    /// in-place `sort_unstable` instead (the index makes it equivalent
    /// to a stable sort by eid) keeps steady-state rounds
    /// allocation-free.
    sort_keys: Vec<(u32, u32)>,
    /// Messages parked by the fault layer as `(due round, eid, msg)`:
    /// delayed deliveries and ARQ retransmissions of healed drops. Due
    /// entries re-enter their edge queue during the `stage` call that
    /// feeds their due round, ahead of that round's fresh sends.
    /// Always empty on a perfect network.
    future: Vec<(u64, u32, M)>,
}

impl<M> Default for FlatQueue<M> {
    fn default() -> Self {
        FlatQueue {
            eids: Vec::new(),
            starts: vec![0],
            msgs: Vec::new(),
            left_eids: Vec::new(),
            left_starts: vec![0],
            left_msgs: Vec::new(),
            sort_keys: Vec::new(),
            future: Vec::new(),
        }
    }
}

impl<M: Message> FlatQueue<M> {
    /// Empties the queue for a new run (a run that ended on `is_done` or
    /// an error can leave messages in flight), keeping every buffer.
    pub(crate) fn reset(&mut self) {
        self.eids.clear();
        self.starts.truncate(1);
        self.msgs.clear();
        self.left_eids.clear();
        self.left_starts.truncate(1);
        self.left_msgs.clear();
        self.future.clear();
    }

    /// Stable-sorts `staged` by edge id without allocating: sorts
    /// `(eid, original index)` pairs in the reusable key buffer, then
    /// applies the permutation in place by cycle-chasing swaps.
    fn sort_staged(&mut self, staged: &mut [(usize, M)]) {
        self.sort_keys.clear();
        self.sort_keys.extend(
            staged
                .iter()
                .enumerate()
                .map(|(i, &(eid, _))| (eid as u32, i as u32)),
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

    /// Bytes of backing capacity across all buffers. Since `Vec` never
    /// shrinks its capacity, sampling this at the end of a run gives the
    /// run's true high-water mark.
    pub(crate) fn capacity_bytes(&self) -> usize {
        let msg = std::mem::size_of::<M>();
        (self.eids.capacity() + self.left_eids.capacity()) * std::mem::size_of::<u32>()
            + (self.starts.capacity() + self.left_starts.capacity()) * std::mem::size_of::<u32>()
            // Each product on its own: a zero-sized `M` reports capacity
            // `usize::MAX`, and two of those must not be added.
            + self.msgs.capacity() * msg
            + self.left_msgs.capacity() * msg
            + self.sort_keys.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.future.capacity() * std::mem::size_of::<(u64, u32, M)>()
    }

    /// Whether nothing remains in flight: no queued message *and* no
    /// delayed/retransmitted message parked for a future round. This —
    /// not mere queue emptiness — is the executors' quiescence test: a
    /// round may deliver nothing while the fault layer still holds
    /// messages that will come due later.
    pub(crate) fn is_idle(&self) -> bool {
        self.msgs.is_empty() && self.future.is_empty()
    }

    /// Delivers up to `edge_capacity` messages per busy edge into
    /// `inbox`, in ascending edge-id order, recording statistics.
    /// Returns the number of delivered messages. Nodes that received at
    /// least one message are appended to `inbox.active` (each node once,
    /// on its first delivery, so in edge order — callers sort).
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
    ) -> u64 {
        let plan = cfg.faults.filter(|p| p.is_active());
        let cap = cfg.edge_capacity.unwrap_or(usize::MAX);
        // Scripted fault timing (checker mode): precompute the round's
        // baseline fates in delivery-scan order, then reassign them
        // through the timing permutation. The multiset of fates — the
        // round's fault budget — is preserved; only *which* attempt
        // each fate hits moves. `None` on the production path.
        let timed_fates: Option<Vec<(FaultDecision, bool)>> = plan.and_then(|p| {
            p.timing.map(|t| {
                let mut fates = Vec::new();
                for i in 0..self.eids.len() {
                    let eid = self.eids[i] as usize;
                    let len = (self.starts[i + 1] - self.starts[i]) as usize;
                    for k in 0..len.min(cap) {
                        fates.push(p.decide(round, eid, k));
                    }
                }
                let perm = crate::fault::timing_permutation(t.index, round, fates.len());
                perm.iter()
                    .enumerate()
                    .map(|(g, &src)| (fates[src], src != g))
                    .collect()
            })
        });
        let mut slot = 0usize;
        let mut delivered_total = 0u64;
        // Envelopes diverted by reorder faults; flushed after the main
        // scan (no allocation on the fault-free path: an empty `Vec`
        // holds no buffer).
        let mut reordered: Vec<(usize, usize, M)> = Vec::new();
        self.left_eids.clear();
        self.left_starts.clear();
        self.left_starts.push(0);
        self.left_msgs.clear();
        // Drain-and-restore keeps the backing allocation hot across
        // rounds (the whole point of the flat queue).
        let mut storage = std::mem::take(&mut self.msgs);
        let mut stream = storage.drain(..);
        for i in 0..self.eids.len() {
            let eid = self.eids[i] as usize;
            let bucket_len = (self.starts[i + 1] - self.starts[i]) as usize;
            let take = bucket_len.min(cap);
            let from = graph.edge_source(eid);
            let to = graph.edge_target(eid);
            let mut bucket_words = 0usize;
            for k in 0..take {
                let msg = stream.next().expect("bucket index matches storage");
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
                    let (fate, moved) = match &timed_fates {
                        Some(fates) => fates[slot],
                        None => (plan.decide(round, eid, k), false),
                    };
                    slot += 1;
                    match fate {
                        FaultDecision::Deliver => {}
                        FaultDecision::Drop => {
                            report.faults.dropped += 1;
                            if plan.heal {
                                // Stop-and-wait ARQ: the sender learns of
                                // the loss and retransmits `rto` rounds
                                // later; the ack word rides the reverse
                                // edge and is billed separately. The
                                // injected ledger bug performs the moved
                                // retransmission but forgets to bill it.
                                let ledger_bug =
                                    moved && plan.timing.is_some_and(|t| t.ledger_misses_moved);
                                if !ledger_bug {
                                    report.faults.retransmitted += 1;
                                    report.faults.ack_words += 1;
                                }
                                self.future.push((
                                    round + u64::from(plan.rto.max(1)),
                                    eid as u32,
                                    msg,
                                ));
                            }
                            continue;
                        }
                        FaultDecision::Delay => {
                            report.faults.delayed += 1;
                            self.future.push((
                                round + u64::from(plan.delay_rounds.max(1)),
                                eid as u32,
                                msg,
                            ));
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
                delivered_total += 1;
            }
            report.max_edge_load = report.max_edge_load.max(take);
            report.max_edge_words_per_round = report.max_edge_words_per_round.max(bucket_words);
            if cfg.record_edge_loads && take > 0 {
                let bucket = take.min(LOAD_HISTOGRAM_BUCKETS - 1);
                report.edge_load_histogram[bucket] += 1;
            }
            if bucket_len > take {
                self.left_eids.push(eid as u32);
                for _ in take..bucket_len {
                    self.left_msgs
                        .push(stream.next().expect("bucket index matches storage"));
                }
                self.left_starts.push(self.left_msgs.len() as u32);
            }
        }
        debug_assert!(stream.next().is_none(), "all buckets drained");
        drop(stream);
        self.msgs = storage; // empty again, capacity retained
        self.eids.clear();
        self.starts.clear();
        self.starts.push(0);
        // Reordered envelopes land behind every ordinary delivery of
        // the round, in (edge, slot) scan order — a deterministic
        // cross-edge reordering of the receiver's inbox.
        for (from, to, msg) in reordered {
            report.messages += 1;
            report.words += msg.size_words() as u64;
            inbox.push(Envelope { from, to, msg });
            delivered_total += 1;
        }
        delivered_total
    }

    /// Enqueues the round's staged sends behind this round's leftovers,
    /// grouped by edge. `staged` is drained in order (the caller keeps
    /// the buffer's capacity for the next round); within one edge,
    /// earlier stages keep their FIFO position (the sort below is
    /// stable), so queue contents are independent of how the executor
    /// gathered the stages — as long as it presents them in the agreed
    /// deterministic (node, stage order) sequence.
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
            // Stable partition: due entries keep their park order and
            // are spliced in front of the fresh sends, so the stable
            // sort below puts them first within each edge bucket.
            let mut due: Vec<(usize, M)> = Vec::new();
            let mut kept: Vec<(u64, u32, M)> = Vec::with_capacity(self.future.len());
            for (when, eid, msg) in self.future.drain(..) {
                if when <= next_round {
                    due.push((eid as usize, msg));
                } else {
                    kept.push((when, eid, msg));
                }
            }
            self.future = kept;
            if !due.is_empty() {
                staged.splice(0..0, due);
            }
        }
        if staged.is_empty() && self.left_msgs.is_empty() {
            return Ok(());
        }
        self.sort_staged(staged); // stable by eid: preserves FIFO within an edge
        debug_assert!(self.eids.is_empty(), "stage follows deliver (or round 0)");
        // Merge the two ascending-by-eid runs (leftovers, then staged)
        // bucket by bucket into the main storage.
        let mut li = 0usize; // leftover bucket index
        let mut left_storage = std::mem::take(&mut self.left_msgs);
        let mut left_msgs = left_storage.drain(..);
        let mut staged_it = staged.drain(..).peekable();
        loop {
            let next_left = self.left_eids.get(li).map(|&e| e as usize);
            let next_staged = staged_it.peek().map(|&(e, _)| e);
            let eid = match (next_left, next_staged) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            let bucket_start = self.msgs.len();
            if next_left == Some(eid) {
                let count = (self.left_starts[li + 1] - self.left_starts[li]) as usize;
                for _ in 0..count {
                    self.msgs
                        .push(left_msgs.next().expect("leftover index matches storage"));
                }
                li += 1;
            }
            while staged_it.peek().is_some_and(|&(e, _)| e == eid) {
                let (_, msg) = staged_it.next().expect("peeked");
                self.msgs.push(msg);
            }
            self.eids.push(eid as u32);
            self.starts.push(self.msgs.len() as u32);
            let backlog = self.msgs.len() - bucket_start;
            report.max_edge_backlog = report.max_edge_backlog.max(backlog);
        }
        debug_assert!(left_msgs.next().is_none());
        drop(left_msgs);
        self.left_msgs = left_storage; // empty again, capacity retained
        self.left_eids.clear();
        self.left_starts.clear();
        self.left_starts.push(0);
        Ok(())
    }
}
