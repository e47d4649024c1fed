//! Engine configuration, run statistics, and the [`run_protocol`]
//! entry point.
//!
//! The round loop itself lives in [`crate::executor`]; this module owns
//! what every run shares — [`EngineConfig`], [`RunReport`],
//! [`RunError`].

use crate::executor::{run_rounds, ExecutorKind, Scratch};
use crate::fault::{FaultCounters, FaultPlan};
use crate::message::WireCensus;
use crate::protocol::Protocol;
use drw_graph::Graph;
use std::fmt;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// The round-executor backend. There is one
    /// ([`ExecutorKind::Sequential`]); the field stays so that
    /// configurations which name a backend keep compiling and parsing.
    pub executor: ExecutorKind,
    /// Ignored: the engine runs on the calling thread. Kept so that
    /// configurations which set it still compile.
    pub parallel_workers: usize,
    /// Seeded fault schedule applied at delivery time (`None` = the
    /// perfect network). Faulty runs stay deterministic: the schedule is
    /// a pure function of the plan seed and each delivery attempt's
    /// logical identity.
    pub faults: Option<FaultPlan>,
    /// If true, the delivery queue records a per-type wire-value census
    /// ([`RunReport::wire`]): the maximum actual magnitude of every
    /// listed field, per `Message` type, and the deliveries whose
    /// listing did not round-trip. `drw-analyze`'s wire audit prices
    /// it. Costs a little time; off by default.
    pub record_wire: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds: 50_000_000,
            edge_capacity: Some(1),
            max_message_words: 4,
            executor: ExecutorKind::Sequential,
            parallel_workers: 0,
            faults: None,
            record_wire: false,
        }
    }
}

impl EngineConfig {
    /// Configuration with unbounded per-edge bandwidth, so that
    /// [`RunReport::max_edge_load`] reads the raw per-round edge load —
    /// for congestion-observation experiments (E7).
    pub fn observing() -> Self {
        EngineConfig {
            edge_capacity: None,
            ..EngineConfig::default()
        }
    }

    /// This configuration with the given executor backend (there is
    /// one; see [`EngineConfig::executor`]).
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

/// Statistics of one protocol run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// Faults injected by the configured [`FaultPlan`] (all-zero on a
    /// perfect network). Semantic: the schedule is deterministic.
    pub faults: FaultCounters,
    /// Wire-value census, populated when
    /// [`EngineConfig::record_wire`] is set (empty otherwise).
    /// Semantic: a replay delivers the same messages, so the recorded
    /// maxima are identical too.
    pub wire: WireCensus,
}

/// Runs `protocol` on `graph` to completion over fresh engine buffers
/// (a [`crate::Runner`] keeps its buffers from run to run).
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
    run_rounds(graph, cfg, seed, &mut Scratch::default(), protocol, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Envelope, Message, WireReader, WireSink};
    use crate::protocol::Ctx;
    use drw_graph::generators;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl Message for Ping {
        fn encode(&self, w: &mut impl WireSink) {
            w.word("counter", self.0.into());
        }
        fn decode(r: &mut WireReader<'_>) -> Option<Self> {
            r.read().map(Ping)
        }
    }

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
    }

    // A broadcast payload is one word per item.
    use crate::primitives::BroadcastMsg as Wide;
    struct SendsWide;
    impl Protocol for SendsWide {
        type Msg = Wide;
        fn start(&mut self, ctx: &mut Ctx<'_, Wide>) {
            ctx.send(0, 1, Wide(vec![0; 9]));
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
    struct GrowsMidRun;
    impl Protocol for GrowsMidRun {
        type Msg = Wide;
        fn start(&mut self, ctx: &mut Ctx<'_, Wide>) {
            ctx.send(0, 1, Wide(vec![0]));
        }
        fn on_receive(&mut self, node: usize, inbox: &[Envelope<Wide>], ctx: &mut Ctx<'_, Wide>) {
            let words = inbox[0].msg.0.len();
            ctx.send(node, node ^ 1, Wide(vec![0; words + 1]));
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
}
