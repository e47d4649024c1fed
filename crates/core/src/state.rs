//! Per-node walk state shared across protocol phases.
//!
//! A distributed algorithm's state is the union of its nodes' local
//! states, and [`WalkState`] stores it that way: one [`NodeWalkState`]
//! per node, indexable as a slice. A walk protocol's receive handler
//! takes the receiving node's entry and nothing else, so the CONGEST
//! locality discipline is visible at the call site, and `drw-analyze`'s
//! interleaving checker measures it by running the handlers of a round
//! in scripted orders.

use drw_graph::NodeId;

/// Globally unique identity of a short walk: the node that launched it
/// and a per-source sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WalkId {
    /// Node that launched the walk (Phase 1 or `GET-MORE-WALKS`).
    pub source: u32,
    /// Sequence number, unique per source.
    pub seq: u32,
}

/// A completed short walk stored at its endpoint, available for
/// stitching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredWalk {
    /// Walk identity.
    pub id: WalkId,
    /// Walk length in steps (uniform in `[lambda, 2*lambda - 1]`).
    pub len: u32,
    /// Tag unique among the walks stored at the same endpoint, so a
    /// deletion broadcast can name exactly one token.
    pub tag: u32,
    /// Whether intermediate nodes logged forwarding decisions, enabling
    /// replay. True for Phase-1 and per-token `GET-MORE-WALKS` walks,
    /// false for aggregated-count `GET-MORE-WALKS` walks (the paper's
    /// congestion-free variant aggregates tokens into counts, which
    /// erases individual trajectories).
    pub replayable: bool,
}

/// One recorded visit of the length-`l` walk at a node.
///
/// 16 bytes: the predecessor is stored as a `u32` with a sentinel for
/// "none" instead of an `Option<usize>`, which alone cuts the visit
/// record from 24 to 16 bytes (visits are recorded once per walk step,
/// so this is a hot-path allocation at scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// Global position in `0..=l` (position 0 is the source).
    pub pos: u64,
    /// The node the walk arrived from, or [`NO_PRED`] at position 0.
    pred: u32,
}

/// Sentinel predecessor: "this visit has no predecessor" (position 0).
/// Reserves one node id; the engine's compact layout caps ids below
/// `2^26` anyway (see [`ForwardLog`]).
const NO_PRED: u32 = u32::MAX;

impl Visit {
    /// A visit at `pos` arrived-from `pred` (`None` only at position 0).
    #[inline]
    pub fn new(pos: u64, pred: Option<NodeId>) -> Self {
        let pred = match pred {
            Some(p) => {
                debug_assert!(
                    (p as u64) < NO_PRED as u64,
                    "node id collides with sentinel"
                );
                p as u32
            }
            None => NO_PRED,
        };
        Visit { pos, pred }
    }

    /// The node the walk arrived from (`None` only at position 0).
    #[inline]
    pub fn pred(&self) -> Option<NodeId> {
        if self.pred == NO_PRED {
            None
        } else {
            Some(self.pred as NodeId)
        }
    }
}

/// Bit budget of the packed forwarding-log entry
/// `[source:26 | seq:12 | step:14 | hop:12]`.
///
/// - `source < 2^26`: 67M nodes — the "million-node engine" with 64x
///   headroom;
/// - `seq < 2^12`: 4096 walks launched per source (Phase 1 launches
///   `eta = O(deg)` per node; `GET-MORE-WALKS` adds few);
/// - `step < 2^14`: short walks run `lambda..2*lambda` steps with
///   `lambda = O(sqrt(l log n))`, comfortably under 16384;
/// - `hop < 2^12`: the *neighbor index* drawn at this step fits 12 bits
///   for every node of degree <= 4096.
const SOURCE_BITS: u32 = 26;
const SEQ_BITS: u32 = 12;
const STEP_BITS: u32 = 14;
const HOP_BITS: u32 = 12;

#[inline]
fn pack_key(source: u32, seq: u32, step: u32) -> Option<u64> {
    if source < (1 << SOURCE_BITS) && seq < (1 << SEQ_BITS) && step < (1 << STEP_BITS) {
        Some(
            ((source as u64) << (SEQ_BITS + STEP_BITS)) | ((seq as u64) << STEP_BITS) | step as u64,
        )
    } else {
        None
    }
}

/// The walk identity `(source, seq)` of a packed entry.
#[inline]
fn unpack_walk(entry: u64) -> (u32, u32) {
    let key = entry >> HOP_BITS;
    (
        (key >> (SEQ_BITS + STEP_BITS)) as u32,
        ((key >> STEP_BITS) & ((1 << SEQ_BITS) - 1)) as u32,
    )
}

/// One node's forwarding log: `(source, seq, step) -> hop index`.
///
/// Phase 1 appends one entry per token step — tens of millions on long
/// walks — while replay reads back only the stitched segments
/// (thousands). The log is therefore an append-only `Vec` (one cache
/// line touched per insert) rather than a hash map (which measured ~20x
/// slower per insert at this scale, dominated by scattered rehashing
/// across thousands of per-node maps). Lookups scan linearly, cheap
/// because the log is bounded: a session drops dead walks' entries at
/// top-up and repair ([`WalkState::reclaim_forward_logs`]), keeping a
/// log near twice its share of the live store, `O(eta * deg * lambda)`
/// whatever `n` and the session's age — too short for a sort to pay.
///
/// Two compactions over the naive `Vec<(u32, u32, u32, u32)>`:
///
/// 1. the value is the drawn **neighbor index** (the walk's hop), not
///    the neighbor's node id — a free by-product of the random draw
///    that fits 12 bits and decodes via
///    [`drw_graph::Graph::neighbor_at`];
/// 2. `(source, seq, step, hop)` packs into one `u64`
///    (`[source:26 | seq:12 | step:14 | hop:12]`), halving the entry to
///    8 bytes. Entries whose fields exceed their budgets (hub nodes of
///    degree > 4096, pathological walk lengths) spill into a boxed
///    overflow vector — correctness never depends on the bit budget,
///    only compactness does. The box costs one pointer per node when
///    unused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForwardLog {
    packed: Vec<u64>,
    overflow: Option<Box<WideEntries>>,
}

/// Unpacked `(source, seq, step, hop)` entries — the overflow store for
/// the rare decision whose fields exceed the packed bit budgets.
type WideEntries = Vec<(u32, u32, u32, u32)>;

impl ForwardLog {
    /// Appends the decision: this node forwarded walk `(source, seq)`
    /// along its `hop`-th incident edge when holding it at `step`. Keys
    /// are never re-inserted (each node holds a given walk step exactly
    /// once).
    #[inline]
    pub fn log_hop(&mut self, source: u32, seq: u32, step: u32, hop: u32) {
        match pack_key(source, seq, step) {
            Some(key) if hop < (1 << HOP_BITS) => {
                self.packed.push((key << HOP_BITS) | hop as u64);
            }
            _ => self
                .overflow
                .get_or_insert_with(Default::default)
                .push((source, seq, step, hop)),
        }
    }

    /// The hop index (`0..degree`) this node forwarded walk
    /// `(source, seq)` along at `step`, if it ever held it. Decode with
    /// [`drw_graph::Graph::neighbor_at`] at the holding node.
    pub fn hop(&self, source: u32, seq: u32, step: u32) -> Option<u32> {
        // An entry lives in exactly one store, but a key whose fields
        // all fit may still sit in the overflow (its *hop* overflowed),
        // so both are consulted.
        if let Some(key) = pack_key(source, seq, step) {
            if let Some(&e) = self.packed.iter().find(|&&e| (e >> HOP_BITS) == key) {
                return Some((e & ((1 << HOP_BITS) - 1)) as u32);
            }
        }
        self.overflow.as_ref().and_then(|o| {
            o.iter()
                .find(|&&(s, q, t, _)| s == source && q == seq && t == step)
                .map(|&(_, _, _, hop)| hop)
        })
    }

    /// Iterator over the identities `(source, seq)` of every walk this
    /// node forwarded and still remembers — how topology repair
    /// discovers which stored walks' trajectories visited a touched node
    /// (duplicates possible: a walk may revisit).
    pub fn logged_walks(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.packed.iter().map(|&e| unpack_walk(e)).chain(
            self.overflow
                .iter()
                .flat_map(|o| o.iter().map(|&(s, q, _, _)| (s, q))),
        )
    }

    /// Keeps only the entries of walks `live((source, seq))` accepts and
    /// gives the freed capacity back (a launch pre-reserves its own).
    pub fn retain_walks(&mut self, live: impl Fn((u32, u32)) -> bool) {
        self.packed.retain(|&e| live(unpack_walk(e)));
        self.packed.shrink_to_fit();
        if let Some(o) = &mut self.overflow {
            o.retain(|&(s, q, _, _)| live((s, q)));
        }
        self.overflow.take_if(|o| o.is_empty());
    }

    /// Removes every entry logged for walks launched by sources with id
    /// `>= first_retired` — one pass for an entire block of retired
    /// nodes. Needed when node ids are retired and later reissued by
    /// the versioned topology: a reissued node restarts its sequence
    /// numbers at 0, and a stale `(source, seq, step)` entry from the
    /// retired node would otherwise shadow the new walk's during replay
    /// (lookups return the first match).
    pub fn purge_sources_at_or_above(&mut self, first_retired: u32) {
        let cut = (first_retired as u64) << (SEQ_BITS + STEP_BITS + HOP_BITS);
        self.packed.retain(|&e| e < cut);
        if let Some(o) = &mut self.overflow {
            o.retain(|&(s, _, _, _)| s < first_retired);
        }
    }

    /// Number of logged decisions.
    #[inline]
    pub fn len(&self) -> usize {
        self.packed.len() + self.overflow.as_ref().map_or(0, |o| o.len())
    }

    /// Whether the log is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-reserves room for `additional` packed entries beyond the
    /// current length — the runner's degree-proportional capacity hint,
    /// which replaces doubling growth (worst-case 2x slack) with a
    /// near-exact allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.packed.reserve(additional);
    }

    /// Heap bytes held by this log (capacities, not lengths: what the
    /// allocator holds now; only a reclaim gives capacity back).
    pub fn capacity_bytes(&self) -> usize {
        self.packed.capacity() * std::mem::size_of::<u64>()
            + self.overflow.as_ref().map_or(0, |o| {
                std::mem::size_of::<Vec<(u32, u32, u32, u32)>>()
                    + o.capacity() * std::mem::size_of::<(u32, u32, u32, u32)>()
            })
    }
}

/// One node's private walk state.
#[derive(Debug, Clone, Default)]
pub struct NodeWalkState {
    /// Unused short walks whose endpoint is this node.
    pub store: Vec<StoredWalk>,
    /// This node's forwarding log: written once per token step (the
    /// hottest write in the system), read back by replay and repair, cut
    /// back to live walks by [`WalkState::reclaim_forward_logs`].
    pub forward: ForwardLog,
    /// Positions at which the stitched walk visited this node (filled by
    /// the tail walk and by Phase 2's replay tokens).
    pub visits: Vec<Visit>,
    /// Next unused storage tag at this node.
    pub next_tag: u32,
    /// Next unused walk sequence number for walks launched by this node
    /// (so Phase-1 and `GET-MORE-WALKS` ids never clash).
    pub next_seq: u32,
    /// The batched stitch scheduler's scratch for the wave in flight:
    /// `None` between waves, boxed by the node's first handler call,
    /// collected and dropped when the scheduler's engine run returns —
    /// so idle nodes cost a wave one pointer each and nothing else.
    pub(crate) wave: Option<Box<crate::stitch_scheduler::WaveScratch>>,
}

// Phase 1 touches this struct every token step: a 97th byte (one more
// `usize`, 104 B) measured +6..17 % `wall_s` on the benchmark's `cold_dense`.
const _: () = assert!(std::mem::size_of::<NodeWalkState>() <= 96);

impl NodeWalkState {
    /// Allocates `count` fresh walk sequence numbers for walks launched
    /// by this node, returning the first.
    pub fn alloc_seqs(&mut self, count: usize) -> u32 {
        let first = self.next_seq;
        self.next_seq += count as u32;
        first
    }

    /// Stores a finished short walk at this node, assigning a fresh tag.
    pub fn store_walk(&mut self, id: WalkId, len: u32, replayable: bool) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.store.push(StoredWalk {
            id,
            len,
            tag,
            replayable,
        });
    }

    /// Number of stored walks at this node launched by `source`.
    pub fn count_from(&self, source: NodeId) -> usize {
        self.store
            .iter()
            .filter(|w| w.id.source as usize == source)
            .count()
    }

    /// Removes and returns a uniformly random stored walk launched by
    /// `source`, or `None` if this node holds none.
    ///
    /// This is the per-walk cursor over the shared short-walk store used
    /// by the batched Phase-2 scheduler: taking a walk *removes* it, so
    /// no segment can ever be consumed by two concurrent walks, and a
    /// `None` here is how a losing walk detects that a rival consumed
    /// the token it had sampled (triggering a resample).
    pub fn take_uniform_from<R: rand::Rng + ?Sized>(
        &mut self,
        source: NodeId,
        rng: &mut R,
    ) -> Option<StoredWalk> {
        // Count, draw, then walk to the r-th match: one RNG draw and no
        // allocation — this runs once per stitch on the contended path.
        let count = self.count_from(source);
        if count == 0 {
            return None;
        }
        let pick = rng.random_range(0..count);
        let idx = self
            .store
            .iter()
            .enumerate()
            .filter(|(_, w)| w.id.source as usize == source)
            .nth(pick)
            .map(|(i, _)| i)
            .expect("pick is within the counted matches");
        Some(self.store.swap_remove(idx))
    }

    /// Records one visit of the global walk at this node.
    #[inline]
    pub fn record_visit(&mut self, pos: u64, pred: Option<NodeId>) {
        self.visits.push(Visit::new(pos, pred));
    }

    /// Logs that this node forwarded walk `(source, seq)` along its
    /// `hop`-th incident edge when holding it at `step`.
    #[inline]
    pub fn log_forward_hop(&mut self, source: u32, seq: u32, step: u32, hop: u32) {
        self.forward.log_hop(source, seq, step, hop);
    }

    /// Pre-reserves forwarding-log capacity (see [`ForwardLog::reserve`]).
    pub fn reserve_forward(&mut self, additional: usize) {
        self.forward.reserve(additional);
    }
}

/// Byte census of a [`WalkState`], by subsystem.
///
/// Bytes are capacity-based (only a forwarding-log reclaim ever shrinks
/// a `Vec`, so elsewhere they are high-water marks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateMemory {
    /// Nodes in the census.
    pub nodes: usize,
    /// Bytes in the per-node `NodeWalkState` structs themselves.
    pub overhead_bytes: usize,
    /// Bytes in the stored-walk vectors.
    pub store_bytes: usize,
    /// Bytes in the forwarding logs (packed + overflow).
    pub forward_bytes: usize,
    /// Bytes in the visit records.
    pub visit_bytes: usize,
}

impl StateMemory {
    /// Total bytes of the state.
    pub fn total_bytes(&self) -> usize {
        self.overhead_bytes + self.store_bytes + self.forward_bytes + self.visit_bytes
    }

    /// Bytes per node.
    pub fn bytes_per_node(&self) -> f64 {
        self.total_bytes() as f64 / self.nodes.max(1) as f64
    }
}

/// The union of all nodes' local walk state.
#[derive(Debug, Clone, Default)]
pub struct WalkState {
    /// Per-node state, indexed by node id.
    pub nodes: Vec<NodeWalkState>,
}

impl WalkState {
    /// Empty state for an `n`-node network.
    pub fn new(n: usize) -> Self {
        WalkState {
            nodes: vec![NodeWalkState::default(); n],
        }
    }

    /// Allocates `count` fresh walk sequence numbers for `source`,
    /// returning the first.
    pub fn alloc_seqs(&mut self, source: NodeId, count: usize) -> u32 {
        self.nodes[source].alloc_seqs(count)
    }

    /// Stores a finished short walk at `endpoint`, assigning a fresh tag.
    pub fn store_walk(&mut self, endpoint: NodeId, id: WalkId, len: u32, replayable: bool) {
        self.nodes[endpoint].store_walk(id, len, replayable);
    }

    /// Total stored (unused) walks across all nodes.
    pub fn total_stored(&self) -> usize {
        self.nodes.iter().map(|s| s.store.len()).sum()
    }

    /// Number of stored walks at `v` launched by `source`.
    pub fn stored_from(&self, v: NodeId, source: NodeId) -> usize {
        self.nodes[v].count_from(source)
    }

    /// Records one visit of the global walk.
    pub fn record_visit(&mut self, v: NodeId, pos: u64, pred: Option<NodeId>) {
        self.nodes[v].record_visit(pos, pred);
    }

    /// Per-source census of the unused store: `out[v]` is the number of
    /// stored (unused) walks anywhere in the network that were launched
    /// by `v`. This is node-local knowledge in the distributed sense —
    /// `v` launched its walks and is the connector whenever one of them
    /// is consumed — collected here centrally for the session's
    /// deficit-only Phase-1 top-up.
    pub fn outstanding_by_source(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.nodes.len()];
        for ns in &self.nodes {
            for w in &ns.store {
                let s = w.id.source as usize;
                if s < out.len() {
                    out[s] += 1;
                }
            }
        }
        out
    }

    /// Discards every stored (unused) walk shorter than `min_len`
    /// steps, returning how many were dropped. Used by the session on a
    /// regime upgrade: stale short walks would pin stitching to the old
    /// `lambda` forever (the store never drains naturally), and
    /// forgetting *unused* walks is free and exact — the decision looks
    /// only at recorded lengths, never at trajectories, so the
    /// remaining walks stay fresh independent samples.
    pub fn discard_shorter_than(&mut self, min_len: u32) -> usize {
        let mut dropped = 0;
        for ns in &mut self.nodes {
            let before = ns.store.len();
            ns.store.retain(|w| w.len >= min_len);
            dropped += before - ns.store.len();
        }
        dropped
    }

    /// Resizes the per-node state to an `n`-node network after a
    /// topology delta: added nodes get fresh empty state (their RNG
    /// streams and sequence counters start untouched), removed nodes'
    /// state is dropped. Callers must evict touched walks *before*
    /// truncating (a removed node's forwarding log is the only record
    /// of which stored walks visited it) — see
    /// [`WalkState::evict_touched`].
    pub fn resize(&mut self, n: usize) {
        self.nodes.resize_with(n, NodeWalkState::default);
    }

    /// Evicts every stored (unused) walk whose recorded trajectory
    /// visits a node in `touched`, returning how many were dropped.
    ///
    /// This is the default store-repair rule for topology deltas: a
    /// walk's path probability factors over the nodes it visited, and
    /// transitions at untouched nodes are unchanged, so a surviving
    /// walk's path has the same probability under the new graph's law.
    /// Walks through touched nodes are unconditionally stale and must
    /// go. Note the statistical fine print, though: *selecting* on the
    /// trajectory conditions the pool — survivors are distributed as
    /// the new law **conditioned on avoiding the touched set**, so a
    /// uniform draw from a store mixing survivors with fresh
    /// (unconditioned) walks carries a per-segment bias of at most the
    /// law's touched-hit mass in total variation. The bias vanishes as
    /// the delta's footprint shrinks relative to the short-walk range
    /// and is diluted by every fresh top-up/`GET-MORE-WALKS` launch;
    /// callers that need measure-exact post-churn sampling use
    /// [`WalkState::evict_all_stored`] instead (the session's strict
    /// repair mode), paying a full relaunch.
    ///
    /// Trajectories are recovered locally: a touched node's forwarding
    /// log names every walk that passed through it (the source logs
    /// step 0, every intermediate holder logs its hop), and walks
    /// *stored at* a touched node visited it as their endpoint.
    /// Non-replayable walks (aggregated `GET-MORE-WALKS`) carry no
    /// trajectory record, so they are evicted conservatively whenever
    /// anything was touched.
    ///
    /// Eviction is local and free in CONGEST terms (every decision
    /// reads state the owning node already holds); the resulting
    /// per-source deficits feed the session's next
    /// [`crate::ShortWalksProtocol::top_up`] wave.
    pub fn evict_touched(&mut self, touched: &[NodeId]) -> usize {
        if touched.is_empty() {
            return 0;
        }
        // Sorted and deduplicated for binary search: the touched logs are
        // bounded, so a sort beats a tree (hash collections are banned).
        let mut doomed: Vec<(u32, u32)> = Vec::new();
        for &t in touched {
            let Some(ns) = self.nodes.get(t) else {
                continue; // an added node this state never grew to
            };
            doomed.extend(ns.forward.logged_walks());
            doomed.extend(ns.store.iter().map(|w| (w.id.source, w.id.seq)));
        }
        doomed.sort_unstable();
        doomed.dedup();
        let mut dropped = 0;
        for ns in &mut self.nodes {
            let before = ns.store.len();
            ns.store.retain(|w| {
                w.replayable && doomed.binary_search(&(w.id.source, w.id.seq)).is_err()
            });
            dropped += before - ns.store.len();
        }
        dropped
    }

    /// Makes every forwarding log forget the walks that no longer exist
    /// (consumed, evicted, discarded) and returns how many entries went.
    /// Does nothing unless the logs hold more than `slack` times the
    /// stored replayable walks' steps, so an entry is scanned `O(1)`
    /// times amortised. Host bookkeeping, unbilled like eviction.
    /// Callers must have replayed every consumed walk they still need.
    ///
    /// Afterwards no dead id is logged anywhere, so each source's
    /// sequence counter restarts one past its largest live seq: the
    /// 12-bit `seq` budget is spent by the launches since a source's
    /// newest walks last died, not by the session's lifetime.
    pub fn reclaim_forward_logs(&mut self, slack: usize) -> usize {
        let before = self.forward_entries();
        let stored = || {
            let all = self.nodes.iter().flat_map(|ns| &ns.store);
            all.filter(|w| w.replayable)
        };
        let live_steps: usize = stored().map(|w| w.len as usize).sum();
        if before <= slack * live_steps {
            return 0;
        }
        // Per-source sorted seqs: `O(eta * deg)` each, a few words to probe.
        let mut live = vec![Vec::new(); self.nodes.len()];
        for w in stored() {
            // (A retired source's walks were evicted with its edges.)
            if let Some(seqs) = live.get_mut(w.id.source as usize) {
                seqs.push(w.id.seq);
            }
        }
        live.iter_mut().for_each(|seqs| seqs.sort_unstable());
        for (v, ns) in self.nodes.iter_mut().enumerate() {
            ns.next_seq = live[v].last().map_or(0, |&q| q + 1);
            ns.forward.retain_walks(|(s, q)| {
                matches!(live.get(s as usize), Some(seqs) if seqs.binary_search(&q).is_ok())
            });
        }
        before - self.forward_entries()
    }

    /// Forwarding-log entries held network-wide.
    pub fn forward_entries(&self) -> usize {
        self.nodes.iter().map(|ns| ns.forward.len()).sum()
    }

    /// Discards every stored (unused) walk — the strict-repair
    /// invalidation: unbiased by construction (nothing survives to be
    /// conditioned on), at the price of a full Phase-1 relaunch.
    pub fn evict_all_stored(&mut self) -> usize {
        let mut dropped = 0;
        for ns in &mut self.nodes {
            dropped += ns.store.len();
            ns.store.clear();
        }
        dropped
    }

    /// Removes every forwarding-log entry for walks launched by sources
    /// `>= first_retired`, network-wide, in one pass (see
    /// [`ForwardLog::purge_sources_at_or_above`]).
    pub fn purge_sources_at_or_above(&mut self, first_retired: u32) {
        for ns in &mut self.nodes {
            ns.forward.purge_sources_at_or_above(first_retired);
        }
    }

    /// Byte census of this state, by subsystem.
    pub fn memory_report(&self) -> StateMemory {
        let mut m = StateMemory {
            nodes: self.nodes.len(),
            overhead_bytes: self.nodes.len() * std::mem::size_of::<NodeWalkState>(),
            ..StateMemory::default()
        };
        for ns in &self.nodes {
            m.store_bytes += ns.store.capacity() * std::mem::size_of::<StoredWalk>();
            m.forward_bytes += ns.forward.capacity_bytes();
            m.visit_bytes += ns.visits.capacity() * std::mem::size_of::<Visit>();
        }
        m
    }

    /// Removes and returns every recorded visit as `(node, visit)`
    /// pairs, leaving the per-node visit lists empty. Used by the
    /// session's recorded walk extension so each extension's visits can
    /// be consumed without clearing the (persistent) store and
    /// forwarding logs.
    pub fn drain_visits(&mut self) -> Vec<(NodeId, Visit)> {
        let mut out = Vec::new();
        for (v, ns) in self.nodes.iter_mut().enumerate() {
            out.extend(ns.visits.drain(..).map(|visit| (v, visit)));
        }
        out
    }

    /// Reconstructs the full walk `positions -> node` from the recorded
    /// per-node visits.
    ///
    /// # Panics
    ///
    /// Panics if the recorded positions do not exactly cover `0..=l`.
    pub fn reconstruct_walk(&self, l: u64) -> Vec<NodeId> {
        let mut walk = vec![usize::MAX; (l + 1) as usize];
        for (v, node) in self.nodes.iter().enumerate() {
            for visit in &node.visits {
                assert!(
                    visit.pos <= l,
                    "visit position {} beyond walk length {l}",
                    visit.pos
                );
                assert_eq!(
                    walk[visit.pos as usize],
                    usize::MAX,
                    "position {} recorded at two nodes",
                    visit.pos
                );
                walk[visit.pos as usize] = v;
            }
        }
        assert!(
            walk.iter().all(|&v| v != usize::MAX),
            "some walk positions were never recorded"
        );
        walk
    }
}

#[cfg(test)]
impl WalkState {
    /// Replays every stored replayable walk through the forwarding logs
    /// centrally, checks it ends at its storage node, and returns how
    /// many there were.
    pub(crate) fn replay_store_centrally(&self, g: &drw_graph::Graph) -> usize {
        let mut replayed = 0;
        for (endpoint, ns) in self.nodes.iter().enumerate() {
            for w in ns.store.iter().filter(|w| w.replayable) {
                let mut at = w.id.source as usize;
                for step in 0..w.len {
                    let hop = self.nodes[at]
                        .forward
                        .hop(w.id.source, w.id.seq, step)
                        .unwrap_or_else(|| panic!("missing forward entry at {at} step {step}"));
                    let next = g.neighbor_at(at, hop as usize);
                    assert!(g.has_edge(at, next));
                    at = next;
                }
                assert_eq!(at, endpoint, "walk must end at its storage node");
                replayed += 1;
            }
        }
        replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_take_round_trip() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut s = WalkState::new(3);
        s.store_walk(1, WalkId { source: 0, seq: 5 }, 7, true);
        s.store_walk(1, WalkId { source: 2, seq: 0 }, 9, false);
        assert_eq!(s.total_stored(), 2);
        assert_eq!(s.stored_from(1, 0), 1);
        assert_eq!(s.stored_from(1, 2), 1);
        let w = s.nodes[1].take_uniform_from(0, &mut rng).expect("stored");
        assert_eq!(w.id, WalkId { source: 0, seq: 5 });
        assert_eq!(w.len, 7);
        assert!(w.replayable);
        assert_eq!(s.total_stored(), 1);
    }

    #[test]
    fn tags_are_unique_per_endpoint() {
        let mut s = WalkState::new(2);
        for i in 0..4 {
            s.store_walk(0, WalkId { source: 1, seq: i }, 3, true);
        }
        let tags: Vec<u32> = s.nodes[0].store.iter().map(|w| w.tag).collect();
        let mut dedup = tags.clone();
        dedup.dedup();
        assert_eq!(tags, dedup);
        assert_eq!(tags, vec![0, 1, 2, 3]);
    }

    #[test]
    fn take_uniform_respects_source_and_removes() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut s = WalkState::new(2);
        for seq in 0..3 {
            s.store_walk(0, WalkId { source: 1, seq }, 4, true);
        }
        s.store_walk(0, WalkId { source: 0, seq: 0 }, 4, true);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.nodes[0].count_from(1), 3);
        for left in (0..3usize).rev() {
            let w = s.nodes[0].take_uniform_from(1, &mut rng).expect("token");
            assert_eq!(w.id.source, 1);
            assert_eq!(s.nodes[0].count_from(1), left);
        }
        assert!(s.nodes[0].take_uniform_from(1, &mut rng).is_none());
        assert_eq!(s.nodes[0].count_from(0), 1, "other source untouched");
    }

    #[test]
    fn outstanding_census_counts_by_source() {
        let mut s = WalkState::new(3);
        s.store_walk(1, WalkId { source: 0, seq: 0 }, 4, true);
        s.store_walk(2, WalkId { source: 0, seq: 1 }, 4, true);
        s.store_walk(0, WalkId { source: 2, seq: 0 }, 4, true);
        assert_eq!(s.outstanding_by_source(), vec![2, 0, 1]);
        s.nodes[1].store.clear();
        assert_eq!(s.outstanding_by_source(), vec![1, 0, 1]);
    }

    #[test]
    fn evict_touched_drops_exactly_the_walks_through_touched_nodes() {
        // Three replayable walks with hand-written trajectories on a
        // 5-node network:
        //   A = (0, 0): 0 -> 1 -> 2   (stored at 2)
        //   B = (0, 1): 0 -> 3 -> 4   (stored at 4)
        //   C = (3, 0): 3 -> 4        (stored at 4)
        let mut s = WalkState::new(5);
        s.nodes[0].log_forward_hop(0, 0, 0, 1);
        s.nodes[1].log_forward_hop(0, 0, 1, 2);
        s.store_walk(2, WalkId { source: 0, seq: 0 }, 2, true);
        s.nodes[0].log_forward_hop(0, 1, 0, 3);
        s.nodes[3].log_forward_hop(0, 1, 1, 4);
        s.store_walk(4, WalkId { source: 0, seq: 1 }, 2, true);
        s.nodes[3].log_forward_hop(3, 0, 0, 4);
        s.store_walk(4, WalkId { source: 3, seq: 0 }, 1, true);

        // Touching node 1 kills only A (B and C never visit it).
        assert_eq!(s.evict_touched(&[1]), 1);
        assert_eq!(s.outstanding_by_source(), vec![1, 0, 0, 1, 0]);

        // Touching node 3 kills B (intermediate hop) and C (source).
        assert_eq!(s.evict_touched(&[3]), 2);
        assert_eq!(s.total_stored(), 0);
    }

    #[test]
    fn evict_touched_is_conservative_for_nonreplayable_walks() {
        let mut s = WalkState::new(3);
        s.store_walk(1, WalkId { source: 0, seq: 0 }, 4, false);
        // Unknown trajectory: any touched node evicts it.
        assert_eq!(s.evict_touched(&[2]), 1);
        // An untouched epoch evicts nothing.
        let mut s = WalkState::new(3);
        s.store_walk(1, WalkId { source: 0, seq: 0 }, 4, false);
        assert_eq!(s.evict_touched(&[]), 0);
        assert_eq!(s.total_stored(), 1);
    }

    #[test]
    fn evict_touched_catches_endpoint_only_visits() {
        // A walk whose only brush with the touched node is being stored
        // there (the endpoint logs nothing).
        let mut s = WalkState::new(3);
        s.nodes[0].log_forward_hop(0, 0, 0, 2);
        s.store_walk(2, WalkId { source: 0, seq: 0 }, 1, true);
        assert_eq!(s.evict_touched(&[2]), 1);
    }

    /// The three hand-written walks of the eviction test above, with
    /// every seq shifted by `q0` and every hop by `h0`.
    fn three_walks(q0: u32, h0: u32) -> WalkState {
        let mut s = WalkState::new(5);
        s.nodes[0].log_forward_hop(0, q0, 0, h0 + 1);
        s.nodes[1].log_forward_hop(0, q0, 1, h0 + 2);
        s.store_walk(2, WalkId { source: 0, seq: q0 }, 2, true);
        s.nodes[0].log_forward_hop(0, q0 + 1, 0, h0 + 3);
        s.nodes[3].log_forward_hop(0, q0 + 1, 1, h0 + 4);
        let b = WalkId {
            source: 0,
            seq: q0 + 1,
        };
        s.store_walk(4, b, 2, true);
        s.nodes[3].log_forward_hop(3, q0, 0, h0 + 4);
        s.store_walk(4, WalkId { source: 3, seq: q0 }, 1, true);
        s.nodes[0].next_seq = q0 + 2;
        s.nodes[3].next_seq = q0 + 1;
        s
    }

    #[test]
    fn reclaim_keeps_exactly_the_stored_walks_entries() {
        let mut s = three_walks(0, 0);
        // An aggregated walk logs nothing and must not count as live.
        let aggregated = WalkId {
            source: 1,
            seq: u32::MAX,
        };
        s.store_walk(2, aggregated, 9, false);
        assert_eq!(s.reclaim_forward_logs(2), 0, "5 entries, 5 live steps");
        // Consume B = (0, 1): 5 entries over 3 live steps is still
        // within twice the store, so nothing is scanned yet.
        s.nodes[4].store.retain(|w| w.id.seq != 1);
        assert_eq!(s.reclaim_forward_logs(2), 0);
        assert_eq!(s.nodes[3].forward.hop(0, 1, 1), Some(4), "dead but kept");
        // Consume A = (0, 0) too: 5 > 2 * 1, so the pass runs and only
        // C = (3, 0)'s single entry survives.
        s.nodes[2].store.retain(|w| !w.replayable);
        assert_eq!(s.reclaim_forward_logs(2), 4);
        assert_eq!(s.forward_entries(), 1);
        assert_eq!(s.nodes[3].forward.hop(3, 0, 0), Some(4));
        assert_eq!(s.nodes[0].forward.hop(0, 0, 0), None);
        assert_eq!(s.nodes[3].forward.hop(0, 1, 1), None);
        // No dead id is left anywhere, so seqs restart past the live ones.
        let next: Vec<u32> = s.nodes.iter().map(|ns| ns.next_seq).collect();
        assert_eq!(next, vec![0, 0, 0, 1, 0]);
        assert_eq!(
            s.nodes[0].forward.capacity_bytes(),
            0,
            "capacity given back"
        );
    }

    #[test]
    fn overflow_entries_reclaim_like_packed_ones() {
        // The same walks through the packed store and — seq and hop both
        // past their 12-bit budgets — through the boxed overflow.
        let mut packed = three_walks(0, 0);
        let (q0, h0) = (1 << SEQ_BITS, 1 << HOP_BITS);
        let mut wide = three_walks(q0, h0);
        assert!(packed.nodes.iter().all(|ns| ns.forward.overflow.is_none()));
        assert!(wide.nodes.iter().all(|ns| ns.forward.packed.is_empty()));
        let compare = |packed: &WalkState, wide: &WalkState| {
            for (p, w) in packed.nodes.iter().zip(&wide.nodes) {
                let ids: Vec<_> = p.forward.logged_walks().collect();
                let shifted: Vec<_> = w.forward.logged_walks().collect();
                assert_eq!(ids.len(), shifted.len());
                for (&(s, q), &(ws, wq)) in ids.iter().zip(&shifted) {
                    assert_eq!((s, q + q0), (ws, wq));
                    for step in 0..2 {
                        let hop = p.forward.hop(s, q, step);
                        assert_eq!(hop.map(|h| h + h0), w.forward.hop(ws, wq, step));
                    }
                }
                assert_eq!(p.next_seq + q0 * u32::from(w.next_seq > 0), w.next_seq);
            }
        };
        compare(&packed, &wide);
        for s in [&mut packed, &mut wide] {
            assert_eq!(s.evict_touched(&[1]), 1, "A passes through node 1");
            s.nodes[4].store.retain(|w| w.id.source != 0);
        }
        assert_eq!(packed.reclaim_forward_logs(2), 4);
        assert_eq!(wide.reclaim_forward_logs(2), 4);
        compare(&packed, &wide);
        assert!(wide.nodes[0].forward.overflow.is_none(), "empty box freed");
    }

    #[test]
    fn seq_budget_bounds_live_walks_not_a_sessions_lifetime() {
        // A churned session whose sources launch more than 2^12 walks
        // each: every reclaim restarts a source's sequence numbers one
        // past its largest live one, so no entry ever leaves the packed
        // store (at the parent commit the counters ran past 4096 and
        // every new entry spilled to the 16-byte overflow for good).
        use crate::{SingleWalkConfig, WalkSession};
        use drw_graph::{generators, Topology, TopologyDelta};
        let topo = Topology::new(generators::torus2d(4, 4));
        let cfg = SingleWalkConfig {
            params: crate::WalkParams {
                eta: 4.0,
                ..crate::WalkParams::default()
            },
            ..SingleWalkConfig::default()
        };
        let mut s = WalkSession::attach(&topo, 0, &cfg, 3).unwrap();
        let n = s.state().nodes.len() as u64;
        let (mut at, mut chord, mut peak_seq) = (0, false, 0);
        while s.walks_added() <= (1 << SEQ_BITS) * n {
            let delta = if chord {
                TopologyDelta::new().remove_edge(0, 10)
            } else {
                TopologyDelta::new().add_edge(0, 10)
            };
            chord = !chord;
            let _ = topo.apply(&delta).unwrap();
            at = s.single_walk(at, 64).unwrap().destination;
            let nodes = &s.state().nodes;
            peak_seq = peak_seq.max(nodes.iter().map(|ns| ns.next_seq).max().unwrap());
            assert!(nodes.iter().all(|ns| ns.forward.overflow.is_none()));
        }
        // More launches than 2^12 per node on average, so by pigeonhole
        // at some source — and no counter came near the budget.
        assert!(
            peak_seq < 1 << (SEQ_BITS - 1),
            "next_seq reached {peak_seq}"
        );
        let stored = s.state().total_stored();
        assert!(stored > 0);
        assert_eq!(s.state().replay_store_centrally(&s.graph()), stored);
    }

    #[test]
    fn resize_grows_with_fresh_state_and_truncates() {
        let mut s = WalkState::new(2);
        s.store_walk(1, WalkId { source: 0, seq: 0 }, 4, true);
        s.resize(4);
        assert_eq!(s.nodes.len(), 4);
        assert_eq!(s.nodes[3].next_seq, 0);
        assert_eq!(s.total_stored(), 1);
        s.resize(1);
        assert_eq!(s.total_stored(), 0, "stores at removed nodes vanish");
        assert_eq!(s.outstanding_by_source(), vec![0]);
    }

    #[test]
    fn purge_retired_sources_removes_only_the_retired_block() {
        let mut s = WalkState::new(3);
        s.nodes[0].log_forward_hop(1, 0, 0, 1);
        s.nodes[0].log_forward_hop(0, 0, 0, 1);
        s.nodes[1].log_forward_hop(2, 3, 2, 0);
        s.purge_sources_at_or_above(1);
        assert_eq!(s.nodes[0].forward.len(), 1);
        assert!(s.nodes[1].forward.is_empty());
        assert_eq!(s.nodes[0].forward.hop(0, 0, 0), Some(1));
        assert_eq!(s.nodes[0].forward.hop(1, 0, 0), None);
        assert_eq!(s.nodes[1].forward.hop(2, 3, 2), None);
    }

    #[test]
    fn drain_visits_empties_and_returns_everything() {
        let mut s = WalkState::new(3);
        s.record_visit(0, 0, None);
        s.record_visit(2, 1, Some(0));
        s.record_visit(2, 3, Some(1));
        let mut drained = s.drain_visits();
        drained.sort_unstable_by_key(|(_, v)| v.pos);
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[1], (2, Visit::new(1, Some(0))));
        assert!(s.nodes.iter().all(|ns| ns.visits.is_empty()));
        assert!(s.drain_visits().is_empty());
    }

    #[test]
    fn seq_allocation_is_per_node() {
        let mut s = WalkState::new(2);
        assert_eq!(s.alloc_seqs(0, 3), 0);
        assert_eq!(s.alloc_seqs(0, 2), 3);
        assert_eq!(s.alloc_seqs(1, 1), 0, "nodes have independent counters");
    }

    #[test]
    fn reconstruct_simple_walk() {
        let mut s = WalkState::new(3);
        s.record_visit(0, 0, None);
        s.record_visit(1, 1, Some(0));
        s.record_visit(0, 2, Some(1));
        s.record_visit(2, 3, Some(0));
        assert_eq!(s.reconstruct_walk(3), vec![0, 1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn reconstruct_detects_gaps() {
        let mut s = WalkState::new(2);
        s.record_visit(0, 0, None);
        s.record_visit(1, 2, Some(0));
        let _ = s.reconstruct_walk(2);
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn reconstruct_detects_duplicates() {
        let mut s = WalkState::new(2);
        s.record_visit(0, 0, None);
        s.record_visit(1, 0, None);
        let _ = s.reconstruct_walk(0);
    }

    #[test]
    fn compact_layouts_have_the_advertised_sizes() {
        assert_eq!(
            std::mem::size_of::<Visit>(),
            16,
            "Visit must pack to 16 bytes"
        );
        assert_eq!(
            SOURCE_BITS + SEQ_BITS + STEP_BITS + HOP_BITS,
            64,
            "packed entry must fill exactly one u64"
        );
    }

    #[test]
    fn visit_pred_round_trips_through_the_sentinel() {
        assert_eq!(Visit::new(0, None).pred(), None);
        assert_eq!(Visit::new(7, Some(0)).pred(), Some(0));
        let big = (NO_PRED - 1) as usize;
        assert_eq!(Visit::new(7, Some(big)).pred(), Some(big));
    }

    #[test]
    fn packed_forward_log_round_trips_field_extremes() {
        let mut log = ForwardLog::default();
        let max_s = (1u32 << SOURCE_BITS) - 1;
        let max_q = (1u32 << SEQ_BITS) - 1;
        let max_t = (1u32 << STEP_BITS) - 1;
        let max_h = (1u32 << HOP_BITS) - 1;
        let cases = [
            (0, 0, 0, 0),
            (max_s, 0, 0, max_h),
            (0, max_q, max_t, 0),
            (max_s, max_q, max_t, max_h),
            (123_456, 7, 300, 11),
        ];
        for &(s, q, t, h) in &cases {
            log.log_hop(s, q, t, h);
        }
        for &(s, q, t, h) in &cases {
            assert_eq!(log.hop(s, q, t), Some(h), "({s}, {q}, {t})");
        }
        assert!(log.overflow.is_none(), "in-budget entries stay packed");
        assert_eq!(log.len(), cases.len());
    }

    #[test]
    fn oversized_fields_spill_to_overflow_and_stay_findable() {
        let mut log = ForwardLog::default();
        // One overflow per exceeded field, plus a packed control entry.
        log.log_hop(1 << SOURCE_BITS, 0, 0, 0);
        log.log_hop(0, 1 << SEQ_BITS, 0, 1);
        log.log_hop(0, 0, 1 << STEP_BITS, 2);
        log.log_hop(3, 3, 3, 1 << HOP_BITS); // key fits, hop does not
        log.log_hop(5, 5, 5, 5);
        assert_eq!(log.packed.len(), 1);
        assert_eq!(log.overflow.as_ref().unwrap().len(), 4);
        assert_eq!(log.len(), 5);
        assert_eq!(log.hop(1 << SOURCE_BITS, 0, 0), Some(0));
        assert_eq!(log.hop(0, 1 << SEQ_BITS, 0), Some(1));
        assert_eq!(log.hop(0, 0, 1 << STEP_BITS), Some(2));
        assert_eq!(log.hop(3, 3, 3), Some(1 << HOP_BITS));
        assert_eq!(log.hop(5, 5, 5), Some(5));
        assert_eq!(log.hop(9, 9, 9), None);
        // logged_walks sees both stores.
        let ids: Vec<(u32, u32)> = log.logged_walks().collect();
        assert_eq!(ids.len(), 5);
        assert!(ids.contains(&(5, 5)));
        assert!(ids.contains(&(3, 3)));
        assert!(ids.contains(&(1 << SOURCE_BITS, 0)));
        // Purging spans both stores too.
        log.purge_sources_at_or_above(4);
        assert_eq!(log.len(), 3, "sources 5 and 2^26 purged from both stores");
        assert_eq!(log.hop(3, 3, 3), Some(1 << HOP_BITS));
        assert_eq!(log.hop(5, 5, 5), None);
        assert_eq!(log.hop(1 << SOURCE_BITS, 0, 0), None);
    }

    #[test]
    fn memory_report_counts_the_compact_layout() {
        // The layout, pinned: 8 bytes a packed forward entry, 16 a visit,
        // 20 a stored walk.
        assert_eq!((size_of::<Visit>(), size_of::<StoredWalk>()), (16, 20));
        let mut s = WalkState::new(4);
        for ns in &mut s.nodes {
            ns.reserve_forward(250);
        }
        for i in 0..1000u32 {
            s.nodes[(i % 4) as usize].log_forward_hop(i % 4, i / 4, 0, 1);
        }
        for i in 0..100 {
            s.record_visit(i % 4, i as u64, if i == 0 { None } else { Some(i % 4) });
        }
        s.store_walk(0, WalkId { source: 1, seq: 0 }, 4, true);
        let m = s.memory_report();
        let caps = |f: fn(&NodeWalkState) -> usize| s.nodes.iter().map(f).sum::<usize>();
        assert_eq!(m.nodes, 4);
        assert_eq!(m.forward_bytes, 1000 * 8, "8 bytes per packed entry");
        assert_eq!(m.visit_bytes, caps(|ns| ns.visits.capacity()) * 16);
        assert_eq!(m.store_bytes, caps(|ns| ns.store.capacity()) * 20);
        assert_eq!(
            m.total_bytes(),
            m.overhead_bytes + m.store_bytes + m.forward_bytes + m.visit_bytes
        );
        assert!(m.bytes_per_node() > 0.0);
    }

    #[test]
    fn reserve_forward_sets_capacity_up_front() {
        let mut s = WalkState::new(1);
        s.nodes[0].reserve_forward(1000);
        let cap = s.nodes[0].forward.capacity_bytes();
        assert!(cap >= 8000, "reserved {cap} bytes");
        for i in 0..1000 {
            s.nodes[0].log_forward_hop(0, i, 0, 0);
        }
        assert_eq!(
            s.nodes[0].forward.capacity_bytes(),
            cap,
            "no reallocation within the reserved budget"
        );
    }
}
