//! Engine configuration, run statistics, and the executor dispatch.
//!
//! The round loop itself lives in [`crate::executor`]; this module owns
//! what every run shares — [`EngineConfig`], [`RunReport`],
//! [`RunError`] — and the [`run_protocol`] / [`run_node_local`] entry
//! points that pick the receive phase: by protocol trait, then by
//! [`EngineConfig::executor`].

use crate::executor::{run_node_local_in, run_rounds, ExecutorKind, PlainReceive, Scratch};
use crate::fault::{FaultCounters, FaultPlan};
use crate::message::WireCensus;
use crate::node_local::NodeLocalProtocol;
use crate::protocol::Protocol;
use drw_graph::Graph;
use std::fmt;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EngineConfig {
    /// Hard cap on simulated rounds; exceeding it is an error (a protocol
    /// bug or a parameter far outside the intended regime).
    pub max_rounds: u64,
    /// Messages deliverable per directed edge per round. `None` means
    /// unbounded (used by instrumentation experiments that want to observe
    /// raw per-round edge loads instead of queueing them out over rounds).
    pub edge_capacity: Option<usize>,
    /// Maximum message size in `O(log n)`-bit words. Larger messages abort
    /// the run with [`RunError::OversizedMessage`].
    pub max_message_words: usize,
    /// If true, the report's `edge_load_histogram` records, for every
    /// (edge, round) pair, how many messages were delivered (index = load,
    /// clamped to the histogram's last bucket). Costs a little time.
    pub record_edge_loads: bool,
    /// Which backend runs the receive phase of node-local protocols.
    /// Sequential and sharded runs are bit-identical; this only affects
    /// wall-clock time and the shard telemetry.
    pub executor: ExecutorKind,
    /// Ignored: every backend runs on the calling thread. Kept so that
    /// configurations which set it still compile.
    pub parallel_workers: usize,
    /// Seeded fault schedule applied at delivery time (`None` = the
    /// perfect network). Faulty runs stay deterministic and
    /// backend-independent: the schedule is a pure function of the
    /// plan seed and each delivery attempt's logical identity.
    pub faults: Option<FaultPlan>,
    /// If true, the delivery queue records a per-type wire-value census
    /// ([`RunReport::wire`]): the maximum actual magnitude of every
    /// priced field, per `Message` type. `drw-analyze --wire-report`
    /// joins it against the static pricing table. Costs a little time;
    /// off by default.
    pub record_wire: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 50_000_000,
            edge_capacity: Some(1),
            max_message_words: 4,
            record_edge_loads: false,
            executor: ExecutorKind::Sequential,
            parallel_workers: 0,
            faults: None,
            record_wire: false,
        }
    }
}

impl EngineConfig {
    /// Configuration with unbounded per-edge bandwidth and edge-load
    /// recording — for congestion-observation experiments (E7).
    pub fn observing() -> Self {
        EngineConfig {
            edge_capacity: None,
            record_edge_loads: true,
            ..EngineConfig::default()
        }
    }

    /// This configuration with the given executor backend.
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// This configuration with the given fault schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// This configuration with wire-value census recording enabled.
    pub fn with_wire_census(mut self) -> Self {
        self.record_wire = true;
        self
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The protocol did not finish within `max_rounds`.
    MaxRoundsExceeded(
        /// The configured cap.
        u64,
    ),
    /// A staged message exceeded `max_message_words`.
    OversizedMessage {
        /// Measured size in words.
        words: usize,
        /// Configured cap in words.
        cap: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MaxRoundsExceeded(cap) => {
                write!(f, "protocol exceeded the configured cap of {cap} rounds")
            }
            RunError::OversizedMessage { words, cap } => {
                write!(
                    f,
                    "message of {words} words exceeds the CONGEST cap of {cap} words"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Bytes of backing capacity held by each engine subsystem at the end of
/// a run. `Vec` capacities never shrink, so the end-of-run figure equals
/// the high-water mark — this *is* the peak, not a sample. The figures
/// are kept as the buffers grow (no run scans its `n` inboxes for
/// them), and under a [`crate::Runner`], whose buffers outlive a run,
/// they cover the runner's earlier runs too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemoryReport {
    /// The message queue's fallback sort keys and fault-parked messages:
    /// a function of the run alone, so equal on every backend.
    pub queue_bytes: usize,
    /// Per-node inbox buffers.
    pub inbox_bytes: usize,
    /// Per-node RNG streams.
    pub rng_bytes: usize,
    /// The message buffers that trade places between rounds (the
    /// staging buffer, the queue's run and its merge scratch) as one
    /// pooled figure, plus, on sharded runs, the per-shard staging
    /// buffers and partition scratch. How these grow depends on how the
    /// backend gathers a round's sends.
    pub staging_bytes: usize,
}

impl MemoryReport {
    /// Total engine-side bytes (excludes the graph and protocol state,
    /// which their owners account for).
    pub fn engine_total(&self) -> usize {
        self.queue_bytes + self.inbox_bytes + self.rng_bytes + self.staging_bytes
    }
}

/// Per-shard work distribution recorded by the sharded executor.
///
/// The unit of accounting is the *shard* (a contiguous chunk of
/// receiving nodes); shard loads are a deterministic function of the
/// round's deliveries.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WorkBalance {
    /// Rounds that fanned out into at least two shards (measured).
    pub rounds_measured: u64,
    /// Rounds that delivered mail but ran inline: too little of it to
    /// shard, or all of it on one node. `rounds_measured +
    /// rounds_inline` is the number of rounds that delivered anything.
    pub rounds_inline: u64,
    /// Worst observed `max / mean` over per-shard message loads across
    /// all measured rounds (`0.0` if nothing was measured).
    pub worst_max_over_mean: f64,
    /// Messages processed per shard slot, summed over measured rounds.
    pub shard_messages: Vec<u64>,
}

/// Statistics of one protocol run.
///
/// Equality compares the *semantic* fields only — rounds, message
/// traffic, edge loads. The [`RunReport::memory`] and
/// [`RunReport::balance`] telemetry legitimately differs across executor
/// backends (capacities and shard layouts are backend artifacts), and
/// the bit-identity contract (same protocol results for the same seed on
/// every backend) is asserted through this semantic equality.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunReport {
    /// Number of communication rounds executed. This is the paper's
    /// complexity measure.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total delivered message volume in `O(log n)`-bit words.
    pub words: u64,
    /// Largest backlog observed on any single directed edge queue.
    pub max_edge_backlog: usize,
    /// Largest number of messages delivered over a single directed edge in
    /// a single round (interesting when `edge_capacity` is `None`).
    pub max_edge_load: usize,
    /// Largest number of `O(log n)`-bit words that crossed a single
    /// directed edge in a single round — the run's measured CONGEST
    /// bandwidth peak. Counts every message that consumed a capacity
    /// slot (dropped, delayed or reordered messages spent the edge's
    /// bandwidth too). Under the default config (`edge_capacity = 1`)
    /// model conformance means this never exceeds `max_message_words`.
    pub max_edge_words_per_round: usize,
    /// If requested, `edge_load_histogram[l]` counts (edge, round) pairs
    /// that delivered exactly `l` messages (last bucket accumulates
    /// overflow); empty otherwise. Zero-load pairs are not counted.
    pub edge_load_histogram: Vec<u64>,
    /// Faults injected by the configured [`FaultPlan`] (all-zero on a
    /// perfect network). Semantic: the schedule is deterministic, so
    /// every backend must inject exactly the same faults.
    pub faults: FaultCounters,
    /// Wire-value census, populated when
    /// [`EngineConfig::record_wire`] is set (empty otherwise).
    /// Semantic: every backend delivers the same messages, so the
    /// recorded maxima must be identical too.
    pub wire: WireCensus,
    /// Peak bytes held per engine subsystem (telemetry; not compared).
    pub memory: MemoryReport,
    /// Shard work distribution, populated by [`ExecutorKind::Sharded`]
    /// runs of node-local protocols only (telemetry; not compared).
    pub balance: Option<WorkBalance>,
}

impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.rounds == other.rounds
            && self.messages == other.messages
            && self.words == other.words
            && self.max_edge_backlog == other.max_edge_backlog
            && self.max_edge_load == other.max_edge_load
            && self.max_edge_words_per_round == other.max_edge_words_per_round
            && self.edge_load_histogram == other.edge_load_histogram
            && self.faults == other.faults
            && self.wire == other.wire
    }
}

/// Runs a plain [`Protocol`] on `graph` to completion.
///
/// A plain protocol's receive hook takes `&mut self`, which no backend
/// may shard, so `cfg.executor` does not matter here: nodes are visited
/// in ascending order on the calling thread. Protocols wanting the
/// sharded receive phase implement [`NodeLocalProtocol`] and go through
/// [`run_node_local`].
///
/// Returns the run statistics; the protocol struct itself holds whatever
/// results it computed.
///
/// # Errors
///
/// [`RunError::MaxRoundsExceeded`] if the protocol ran too long;
/// [`RunError::OversizedMessage`] if it staged a message wider than the
/// configured CONGEST bandwidth.
pub fn run_protocol<P: Protocol>(
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    protocol: &mut P,
) -> Result<RunReport, RunError> {
    let scratch = &mut Scratch::default();
    run_rounds(graph, cfg, seed, scratch, &mut PlainReceive(protocol))
}

/// Runs a [`NodeLocalProtocol`] on `graph` to completion under the
/// backend selected by `cfg.executor`: every round inline in ascending
/// node order under [`ExecutorKind::Sequential`], heavy rounds cut into
/// shards and run in shard order under [`ExecutorKind::Sharded`] — with
/// bit-identical results, on the calling thread either way.
///
/// # Errors
///
/// Same as [`run_protocol`].
pub fn run_node_local<P: NodeLocalProtocol>(
    graph: &Graph,
    cfg: &EngineConfig,
    seed: u64,
    protocol: &mut P,
) -> Result<RunReport, RunError> {
    run_node_local_in(&mut Scratch::default(), graph, cfg, seed, protocol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Envelope, Message};
    use crate::protocol::Ctx;
    use drw_graph::generators;

    #[derive(Clone, Debug)]
    struct Ping(u32);
    impl Message for Ping {}

    /// Floods a counter outward; every node forwards a strictly smaller
    /// counter to all neighbors once.
    struct Flood {
        seen: Vec<bool>,
    }
    impl Protocol for Flood {
        type Msg = Ping;
        fn start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            self.seen[0] = true;
            for v in ctx.graph().neighbors(0).collect::<Vec<_>>() {
                ctx.send(0, v, Ping(8));
            }
        }
        fn on_receive(&mut self, node: usize, inbox: &[Envelope<Ping>], ctx: &mut Ctx<'_, Ping>) {
            let best = inbox.iter().map(|e| e.msg.0).max().expect("nonempty inbox");
            if !self.seen[node] {
                self.seen[node] = true;
                if best > 0 {
                    for v in ctx.graph().neighbors(node).collect::<Vec<_>>() {
                        ctx.send(node, v, Ping(best - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn flood_reaches_everyone_in_diameter_rounds() {
        let g = generators::torus2d(4, 4);
        let mut p = Flood {
            seen: vec![false; g.n()],
        };
        let report = run_protocol(&g, &EngineConfig::default(), 1, &mut p).unwrap();
        assert!(p.seen.iter().all(|&s| s));
        // Flood finishes one round after the farthest node is reached.
        let d = drw_graph::traversal::diameter_exact(&g) as u64;
        assert!(
            report.rounds >= d && report.rounds <= d + 2,
            "rounds = {}",
            report.rounds
        );
        assert!(report.messages > 0);
    }

    /// Sends `k` messages over one edge in round 0; with capacity 1 they
    /// take `k` rounds to drain.
    struct Burst {
        k: u32,
        received: u32,
    }
    impl Protocol for Burst {
        type Msg = Ping;
        fn start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            for i in 0..self.k {
                ctx.send(0, 1, Ping(i));
            }
        }
        fn on_receive(&mut self, _node: usize, inbox: &[Envelope<Ping>], _ctx: &mut Ctx<'_, Ping>) {
            self.received += inbox.len() as u32;
        }
    }

    #[test]
    fn congestion_queues_over_rounds() {
        let g = generators::path(2);
        let mut p = Burst { k: 10, received: 0 };
        let report = run_protocol(&g, &EngineConfig::default(), 1, &mut p).unwrap();
        assert_eq!(p.received, 10);
        assert_eq!(report.rounds, 10, "capacity 1 serializes the burst");
        assert_eq!(report.max_edge_backlog, 10);
    }

    #[test]
    fn edge_capacity_two_halves_the_drain_time() {
        // Satellite edge case: a backlog of 10 over one edge drains at 2
        // messages per round, in order.
        let g = generators::path(2);
        let mut p = Burst { k: 10, received: 0 };
        let cfg = EngineConfig {
            edge_capacity: Some(2),
            ..EngineConfig::default()
        };
        let report = run_protocol(&g, &cfg, 1, &mut p).unwrap();
        assert_eq!(p.received, 10);
        assert_eq!(report.rounds, 5, "capacity 2 drains two per round");
        assert_eq!(report.max_edge_backlog, 10);
        assert_eq!(report.max_edge_load, 2);
    }

    /// Records arrival order so FIFO-across-capacity can be asserted.
    struct OrderedBurst {
        k: u32,
        arrivals: Vec<u32>,
    }
    impl Protocol for OrderedBurst {
        type Msg = Ping;
        fn start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            for i in 0..self.k {
                ctx.send(0, 1, Ping(i));
            }
        }
        fn on_receive(&mut self, _node: usize, inbox: &[Envelope<Ping>], _ctx: &mut Ctx<'_, Ping>) {
            self.arrivals.extend(inbox.iter().map(|e| e.msg.0));
        }
    }

    #[test]
    fn backlog_drains_in_fifo_order_at_any_capacity() {
        for capacity in [1usize, 2, 3, 7, 100] {
            let g = generators::path(2);
            let mut p = OrderedBurst {
                k: 9,
                arrivals: Vec::new(),
            };
            let cfg = EngineConfig {
                edge_capacity: Some(capacity),
                ..EngineConfig::default()
            };
            let report = run_protocol(&g, &cfg, 1, &mut p).unwrap();
            assert_eq!(
                p.arrivals,
                (0..9).collect::<Vec<_>>(),
                "capacity {capacity}"
            );
            assert_eq!(report.rounds, (9u64).div_ceil(capacity as u64));
        }
    }

    #[test]
    fn unbounded_capacity_delivers_in_one_round() {
        let g = generators::path(2);
        let mut p = Burst { k: 10, received: 0 };
        let report = run_protocol(&g, &EngineConfig::observing(), 1, &mut p).unwrap();
        assert_eq!(p.received, 10);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.max_edge_load, 10);
        assert_eq!(report.edge_load_histogram[10], 1);
    }

    #[derive(Clone, Debug)]
    struct Wide;
    impl Message for Wide {
        fn size_words(&self) -> usize {
            9
        }
    }
    struct SendsWide;
    impl Protocol for SendsWide {
        type Msg = Wide;
        fn start(&mut self, ctx: &mut Ctx<'_, Wide>) {
            ctx.send(0, 1, Wide);
        }
        fn on_receive(&mut self, _: usize, _: &[Envelope<Wide>], _: &mut Ctx<'_, Wide>) {}
    }

    #[test]
    fn oversized_message_rejected() {
        let g = generators::path(2);
        let err = run_protocol(&g, &EngineConfig::default(), 1, &mut SendsWide).unwrap_err();
        assert_eq!(err, RunError::OversizedMessage { words: 9, cap: 4 });
        assert!(err.to_string().contains("9 words"));
    }

    /// Grows its payload on every hop; aborts once it exceeds the cap.
    #[derive(Clone, Debug)]
    struct Growing(usize);
    impl Message for Growing {
        fn size_words(&self) -> usize {
            self.0
        }
    }
    struct GrowsMidRun;
    impl Protocol for GrowsMidRun {
        type Msg = Growing;
        fn start(&mut self, ctx: &mut Ctx<'_, Growing>) {
            ctx.send(0, 1, Growing(1));
        }
        fn on_receive(
            &mut self,
            node: usize,
            inbox: &[Envelope<Growing>],
            ctx: &mut Ctx<'_, Growing>,
        ) {
            let words = inbox[0].msg.0;
            ctx.send(node, node ^ 1, Growing(words + 1));
        }
    }

    #[test]
    fn oversized_message_rejected_mid_run() {
        // Satellite edge case: the violation happens in a later round,
        // not in `start`, and reports the exact offending size.
        let g = generators::path(2);
        let err = run_protocol(&g, &EngineConfig::default(), 1, &mut GrowsMidRun).unwrap_err();
        assert_eq!(err, RunError::OversizedMessage { words: 5, cap: 4 });
    }

    /// Two nodes ping-pong forever.
    struct PingPong;
    impl Protocol for PingPong {
        type Msg = Ping;
        fn start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            ctx.send(0, 1, Ping(0));
        }
        fn on_receive(&mut self, node: usize, _: &[Envelope<Ping>], ctx: &mut Ctx<'_, Ping>) {
            ctx.send(node, node ^ 1, Ping(0));
        }
    }

    #[test]
    fn runaway_protocol_hits_round_cap() {
        let g = generators::path(2);
        let cfg = EngineConfig {
            max_rounds: 100,
            ..EngineConfig::default()
        };
        let err = run_protocol(&g, &cfg, 1, &mut PingPong).unwrap_err();
        assert_eq!(err, RunError::MaxRoundsExceeded(100));
    }

    struct Idle;
    impl Protocol for Idle {
        type Msg = Ping;
        fn start(&mut self, _: &mut Ctx<'_, Ping>) {}
        fn on_receive(&mut self, _: usize, _: &[Envelope<Ping>], _: &mut Ctx<'_, Ping>) {}
    }

    #[test]
    fn quiescent_protocol_takes_zero_rounds() {
        // Satellite edge case: `start` stages nothing, so the run ends
        // immediately with a pristine report.
        let g = generators::path(3);
        let report = run_protocol(&g, &EngineConfig::default(), 1, &mut Idle).unwrap();
        assert_eq!(report.rounds, 0);
        assert_eq!(report.messages, 0);
        assert_eq!(report.max_edge_backlog, 0);
    }

    #[test]
    fn healed_drops_deliver_everything_with_a_round_penalty() {
        // Stop-and-wait ARQ: a 20% drop rate on the burst edge loses
        // slots, but every message is eventually delivered exactly once.
        let g = generators::path(2);
        let mut p = Burst { k: 10, received: 0 };
        let cfg = EngineConfig::default().with_faults(FaultPlan::drops(3, 200));
        let report = run_protocol(&g, &cfg, 1, &mut p).unwrap();
        assert_eq!(p.received, 10, "ARQ must recover every drop");
        assert_eq!(report.messages, 10, "each message billed once");
        assert!(report.faults.dropped > 0, "20% of 10+ attempts must drop");
        assert_eq!(report.faults.retransmitted, report.faults.dropped);
        assert_eq!(report.faults.ack_words, report.faults.dropped);
        assert!(
            report.rounds > 10,
            "drops cost rounds (got {})",
            report.rounds
        );
    }

    #[test]
    fn unhealed_drops_are_permanent() {
        let g = generators::path(2);
        let mut p = Burst { k: 50, received: 0 };
        let cfg = EngineConfig::default().with_faults(FaultPlan::drops(3, 200).lossy());
        let report = run_protocol(&g, &cfg, 1, &mut p).unwrap();
        assert!(report.faults.dropped > 0);
        assert_eq!(report.faults.retransmitted, 0);
        assert_eq!(p.received as u64 + report.faults.dropped, 50);
        assert_eq!(report.rounds, 50, "every slot was spent, delivered or not");
    }

    #[test]
    fn quiescence_waits_for_delayed_messages() {
        // Regression: with a delay-only plan, the queue can be *empty*
        // while messages are parked for future rounds. Declaring the
        // run quiet then would silently lose them; the engine must spin
        // empty rounds until they come due.
        let g = generators::path(2);
        // A seed where the single message is delayed at least once (so
        // the queue really does go empty mid-run).
        let seed_with_delay = (0..64)
            .find(|&s| {
                let mut p = Burst { k: 1, received: 0 };
                let cfg = EngineConfig::default()
                    .with_faults(FaultPlan::new(s).with_delays(700, 5).lossy());
                let r = run_protocol(&g, &cfg, 1, &mut p).unwrap();
                r.faults.delayed > 0
            })
            .expect("a 70% delay rate must fire within 64 schedules");
        let mut p = Burst { k: 1, received: 0 };
        let cfg = EngineConfig::default()
            .with_faults(FaultPlan::new(seed_with_delay).with_delays(700, 5).lossy());
        let report = run_protocol(&g, &cfg, 1, &mut p).unwrap();
        assert_eq!(p.received, 1, "delayed message lost at quiescence");
        assert!(report.faults.delayed > 0);
        assert!(
            report.rounds >= 6,
            "a 5-round delay must cost at least 5 extra rounds (got {})",
            report.rounds
        );
    }

    #[test]
    fn reordering_permutes_arrivals_without_losing_any() {
        let g = generators::path(2);
        let cfg = EngineConfig {
            edge_capacity: Some(9),
            ..EngineConfig::default()
        }
        .with_faults(FaultPlan::new(5).with_reorder(400));
        let mut p = OrderedBurst {
            k: 9,
            arrivals: Vec::new(),
        };
        let report = run_protocol(&g, &cfg, 1, &mut p).unwrap();
        assert!(report.faults.reordered > 0, "40% of 9 attempts must fire");
        assert_eq!(report.faults.dropped + report.faults.delayed, 0);
        let mut sorted = p.arrivals.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(p.arrivals, sorted, "order must actually change");
    }

    #[test]
    fn scripted_fault_timing_is_deterministic_and_identity_at_zero() {
        use crate::fault::ScriptedTiming;
        let g = generators::torus2d(4, 5);
        let run = |plan: FaultPlan| {
            let mut p = Flood {
                seen: vec![false; g.n()],
            };
            let cfg = EngineConfig::default().with_faults(plan);
            let report = run_protocol(&g, &cfg, 9, &mut p).unwrap();
            (report, p.seen)
        };
        let plan = FaultPlan::new(11).with_drops(80).with_delays(50, 3);

        // Index 0 is the unpermuted baseline: bit-identical to no
        // timing mode at all.
        assert_eq!(run(plan), run(plan.with_timing(ScriptedTiming::new(0))));

        // Every timing index is deterministic; the budget moves, the
        // conservation invariant holds.
        for index in [1u64, 7, 40] {
            let timed = plan.with_timing(ScriptedTiming::new(index));
            let (seq_report, seq_seen) = run(timed);
            assert!(seq_report.faults.total() > 0);
            assert_eq!(
                seq_report.faults.dropped, seq_report.faults.retransmitted,
                "healed ARQ ledger must balance under timing {index}"
            );
            assert!(seq_seen.iter().all(|&s| s), "healed flood reaches everyone");
            assert_eq!(run(timed), (seq_report, seq_seen), "timing {index}");
        }
    }

    #[test]
    fn timing_ledger_bug_breaks_conservation_but_not_results() {
        use crate::fault::ScriptedTiming;
        let g = generators::torus2d(4, 5);
        let run = |plan: FaultPlan| {
            let mut p = Flood {
                seen: vec![false; g.n()],
            };
            let cfg = EngineConfig::default().with_faults(plan);
            let report = run_protocol(&g, &cfg, 9, &mut p).unwrap();
            (report, p.seen)
        };
        let plan = FaultPlan::new(11).with_drops(120);
        let (clean, clean_seen) = run(plan.with_timing(ScriptedTiming::new(5)));
        let (buggy, buggy_seen) = run(plan.with_timing(ScriptedTiming {
            index: 5,
            ledger_misses_moved: true,
        }));
        // The moved retransmissions still happen on the wire, so
        // results are unchanged — only the ledger is short.
        assert_eq!(clean_seen, buggy_seen);
        assert_eq!(clean.messages, buggy.messages);
        assert_eq!(clean.faults.dropped, buggy.faults.dropped);
        assert!(
            buggy.faults.retransmitted < buggy.faults.dropped,
            "the injected mismatch must be visible: {:?}",
            buggy.faults
        );
        assert_ne!(clean, buggy, "semantic report equality must catch it");
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        // An all-zero plan must leave the run bit-identical to no plan
        // at all (the engine keeps its fast path).
        let g = generators::torus2d(4, 4);
        let mut p1 = Flood {
            seen: vec![false; g.n()],
        };
        let r1 = run_protocol(&g, &EngineConfig::default(), 7, &mut p1).unwrap();
        let mut p2 = Flood {
            seen: vec![false; g.n()],
        };
        let cfg = EngineConfig::default().with_faults(FaultPlan::new(99));
        let r2 = run_protocol(&g, &cfg, 7, &mut p2).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(p1.seen, p2.seen);
        assert_eq!(r2.faults, FaultCounters::default());
    }

    #[test]
    fn report_equality_ignores_telemetry() {
        // The bit-identity contract is semantic: two backends may hold
        // different buffer capacities or shard layouts yet still count as
        // identical runs.
        let a = RunReport {
            rounds: 3,
            messages: 10,
            ..RunReport::default()
        };
        let mut b = a.clone();
        b.memory.queue_bytes = 4096;
        b.balance = Some(WorkBalance::default());
        assert_eq!(a, b);
        b.messages = 11;
        assert_ne!(a, b);
    }

    #[test]
    fn memory_report_totals() {
        let m = MemoryReport {
            queue_bytes: 1,
            inbox_bytes: 2,
            rng_bytes: 3,
            staging_bytes: 4,
        };
        assert_eq!(m.engine_total(), 10);
    }

    #[test]
    fn runs_populate_memory_telemetry() {
        let g = generators::torus2d(4, 4);
        let mut p = Flood {
            seen: vec![false; g.n()],
        };
        let report = run_protocol(&g, &EngineConfig::default(), 1, &mut p).unwrap();
        assert!(report.memory.staging_bytes > 0, "{:?}", report.memory);
        assert!(report.memory.inbox_bytes > 0, "{:?}", report.memory);
        assert!(report.memory.rng_bytes > 0, "{:?}", report.memory);
        assert!(report.balance.is_none(), "sequential runs have no shards");
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        // The flood tie-breaks are deterministic; more importantly the
        // engine delivers in sorted edge/node order, so reports match.
        let g = generators::torus2d(4, 5);
        let mut p1 = Flood {
            seen: vec![false; g.n()],
        };
        let mut p2 = Flood {
            seen: vec![false; g.n()],
        };
        let r1 = run_protocol(&g, &EngineConfig::default(), 9, &mut p1).unwrap();
        let r2 = run_protocol(&g, &EngineConfig::default(), 9, &mut p2).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(p1.seen, p2.seen);
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn sending_along_non_edge_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Msg = Ping;
            fn start(&mut self, ctx: &mut Ctx<'_, Ping>) {
                ctx.send(0, 2, Ping(0)); // path(3): 0-1-2, no 0-2 edge
            }
            fn on_receive(&mut self, _: usize, _: &[Envelope<Ping>], _: &mut Ctx<'_, Ping>) {}
        }
        let g = generators::path(3);
        let _ = run_protocol(&g, &EngineConfig::default(), 1, &mut Bad);
    }

    #[cfg(feature = "serde")]
    mod serde_tests {
        use super::*;

        #[test]
        fn run_report_round_trips_through_json() {
            let report = RunReport {
                rounds: 12,
                messages: 340,
                words: 900,
                max_edge_backlog: 7,
                max_edge_load: 3,
                max_edge_words_per_round: 4,
                edge_load_histogram: vec![0, 5, 2],
                faults: FaultCounters {
                    dropped: 6,
                    delayed: 2,
                    reordered: 1,
                    retransmitted: 6,
                    ack_words: 6,
                },
                memory: MemoryReport {
                    queue_bytes: 1024,
                    inbox_bytes: 512,
                    rng_bytes: 96,
                    staging_bytes: 64,
                },
                balance: Some(WorkBalance {
                    rounds_measured: 4,
                    rounds_inline: 8,
                    worst_max_over_mean: 1.25,
                    shard_messages: vec![100, 98],
                }),
                wire: {
                    let mut w = WireCensus::default();
                    let _ =
                        w.record("Ping", 1)
                            .field("counter", 8)
                            .field_fixed("mass", 1 << 40, 40);
                    w
                },
            };
            let json = serde_json::to_string(&report).unwrap();
            assert!(json.contains("\"rounds\":12"), "{json}");
            assert!(json.contains("\"queue_bytes\":1024"), "{json}");
            assert!(json.contains("\"dropped\":6"), "{json}");
            assert!(json.contains("\"type_name\":\"Ping\""), "{json}");
            assert!(json.contains("\"frac_bits\":40"), "{json}");
            let back: RunReport = serde_json::from_str(&json).unwrap();
            assert_eq!(back, report);
            assert_eq!(back.memory, report.memory);
            assert_eq!(back.balance, report.balance);
            assert_eq!(back.wire, report.wire);
        }

        #[test]
        fn engine_config_round_trips_through_json() {
            let cfg = EngineConfig {
                edge_capacity: None,
                executor: crate::ExecutorKind::Sharded,
                faults: Some(FaultPlan::drops(3, 50)),
                ..EngineConfig::default()
            };
            let json = serde_json::to_string(&cfg).unwrap();
            assert!(json.contains("\"executor\":\"sharded\""), "{json}");
            assert!(json.contains("\"edge_capacity\":null"), "{json}");
            assert!(json.contains("\"drop_per_mille\":50"), "{json}");
            let back: EngineConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(back, cfg);
        }
    }
}
