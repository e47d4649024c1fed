//! Sequential composition of sub-protocols.
//!
//! The paper's algorithms are multi-phase: Phase 1 (short walks), then a
//! stitching loop where every stitch runs `SAMPLE-DESTINATION` (itself a
//! BFS plus two tree sweeps), occasionally `GET-MORE-WALKS`, and a final
//! naive tail. Sequential composition in CONGEST simply sums the rounds of
//! the parts; [`Runner`] does that bookkeeping and derives a fresh RNG
//! stream per part.

use crate::engine::{EngineConfig, RunError, RunReport};
use crate::executor::{run_rounds, Scratch};
use crate::fault::FaultCounters;
use crate::protocol::Protocol;
use crate::rng::derive_seed;
use drw_graph::Graph;
use std::sync::Arc;

/// Runs sub-protocols on a shared graph snapshot, accumulating
/// round/message totals.
///
/// The runner owns an `Arc<Graph>` snapshot rather than a borrow, so a
/// long-lived runner can follow a versioned [`drw_graph::Topology`]
/// across epochs: [`Runner::rebind`] swaps in a newer snapshot without
/// disturbing the accumulated totals or the sub-protocol seed sequence.
/// Per-node RNG streams are derived per run as `derive_seed(run_seed,
/// node)` (see [`crate::NodeRngs`]), so rebinding to a snapshot with
/// *more* nodes extends the pool while keeping every pre-existing
/// node's stream bit-identical.
///
/// The runner also owns the engine's scratch — the RNG pool and, per
/// message type, the queue, inbox and staging buffers — so a chain of
/// short runs (a served walk is one) pays for the nodes each run
/// touches and the messages it moves, not for `n` before round 1.
///
/// # Example
///
/// ```
/// use drw_congest::{primitives::BfsTreeProtocol, EngineConfig, Runner};
/// use drw_graph::generators;
///
/// # fn main() -> Result<(), drw_congest::RunError> {
/// let g = generators::torus2d(4, 4);
/// let mut runner = Runner::new(&g, EngineConfig::default(), 42);
/// let mut bfs = BfsTreeProtocol::new(0);
/// runner.run(&mut bfs)?;
/// let tree = bfs.into_tree();
/// assert_eq!(tree.dist[0], 0);
/// assert!(runner.total_rounds() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Runner {
    graph: Arc<Graph>,
    cfg: EngineConfig,
    seed: u64,
    seq: u64,
    total_rounds: u64,
    total_messages: u64,
    total_words: u64,
    total_faults: FaultCounters,
    runs: u64,
    scratch: Scratch,
}

impl Runner {
    /// Creates a runner over a private snapshot of `graph` (cloned into
    /// an `Arc`) with the given engine configuration and master seed.
    pub fn new(graph: &Graph, cfg: EngineConfig, seed: u64) -> Self {
        Runner::on(Arc::new(graph.clone()), cfg, seed)
    }

    /// Creates a runner over an existing shared snapshot — what
    /// session-level callers use so the runner and the session observe
    /// the same [`drw_graph::Topology`] epoch without copying the CSR.
    pub fn on(graph: Arc<Graph>, cfg: EngineConfig, seed: u64) -> Self {
        Runner {
            graph,
            cfg,
            seed,
            seq: 0,
            total_rounds: 0,
            total_messages: 0,
            total_words: 0,
            total_faults: FaultCounters::default(),
            runs: 0,
            scratch: Scratch::default(),
        }
    }

    /// Swaps the graph snapshot this runner simulates on (a topology
    /// epoch change). Totals, the sub-protocol seed sequence and the
    /// engine scratch are preserved; subsequent runs size the per-node
    /// RNG pool and inboxes from the new snapshot (the cost of the
    /// change in `n`), with pre-existing nodes' streams unchanged.
    pub fn rebind(&mut self, graph: Arc<Graph>) {
        self.graph = graph;
    }

    /// Runs one sub-protocol to completion and accumulates its statistics.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from the engine.
    pub fn run<P: Protocol>(&mut self, protocol: &mut P) -> Result<RunReport, RunError> {
        let seed = derive_seed(self.seed, self.seq);
        let cfg = self.run_cfg();
        self.seq += 1;
        let report = run_rounds(&self.graph, &cfg, seed, &mut self.scratch, protocol, None)?;
        self.accumulate(&report);
        Ok(report)
    }

    /// The engine configuration for the next sub-protocol run. A fault
    /// plan's schedule seed is re-derived per run: each run simulates a
    /// later window of wall-clock time, so a protocol retried in a
    /// follow-up run must *not* deterministically re-hit the very same
    /// fault at the same `(round, edge, slot)` — that would turn every
    /// checkpoint-and-retry scheme into a livelock. Still a pure
    /// function of `(plan seed, run index)`, so replays stay
    /// bit-identical.
    fn run_cfg(&self) -> EngineConfig {
        let mut cfg = self.cfg.clone();
        if let Some(plan) = &mut cfg.faults {
            plan.seed = derive_seed(plan.seed, self.seq);
        }
        cfg
    }

    fn accumulate(&mut self, report: &RunReport) {
        self.total_rounds += report.rounds;
        self.total_messages += report.messages;
        self.total_words += report.words;
        self.total_faults.accumulate(&report.faults);
        self.runs += 1;
    }

    /// The graph snapshot under simulation.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A shared handle to the graph snapshot under simulation.
    pub fn graph_arc(&self) -> Arc<Graph> {
        self.graph.clone()
    }

    /// Engine configuration used for each sub-protocol.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Total rounds across all sub-protocols so far.
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// Total messages delivered across all sub-protocols so far.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Total delivered words across all sub-protocols so far.
    pub fn total_words(&self) -> u64 {
        self.total_words
    }

    /// Total faults injected across all sub-protocols so far (all-zero
    /// unless the engine configuration carries an active
    /// [`crate::FaultPlan`]).
    pub fn total_faults(&self) -> FaultCounters {
        self.total_faults
    }

    /// Number of sub-protocols executed.
    pub fn runs(&self) -> u64 {
        self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::BfsTreeProtocol;
    use drw_graph::generators;

    #[test]
    fn accumulates_rounds_across_runs() {
        let g = generators::path(6);
        let mut runner = Runner::new(&g, EngineConfig::default(), 3);
        let mut a = BfsTreeProtocol::new(0);
        let ra = runner.run(&mut a).unwrap();
        let mut b = BfsTreeProtocol::new(5);
        let rb = runner.run(&mut b).unwrap();
        assert_eq!(runner.total_rounds(), ra.rounds + rb.rounds);
        assert_eq!(runner.runs(), 2);
        assert!(runner.total_messages() >= ra.messages + rb.messages);
    }

    #[test]
    fn rebind_preserves_totals_and_seed_sequence() {
        use drw_graph::{Topology, TopologyDelta};
        let topo = Topology::new(generators::torus2d(4, 4));
        let mut runner = Runner::on(topo.snapshot(), EngineConfig::default(), 5);
        let mut bfs = BfsTreeProtocol::new(0);
        runner.run(&mut bfs).unwrap();
        let rounds_before = runner.total_rounds();
        assert!(rounds_before > 0);

        // Mutate the topology, rebind, and keep running: totals
        // accumulate across the epoch boundary and the new snapshot is
        // what later runs observe.
        let report = topo.apply(&TopologyDelta::new().add_edge(0, 5)).unwrap();
        assert_eq!(report.epoch, 1);
        runner.rebind(topo.snapshot());
        assert!(runner.graph().has_edge(0, 5));
        let mut bfs = BfsTreeProtocol::new(0);
        runner.run(&mut bfs).unwrap();
        assert!(runner.total_rounds() > rounds_before);
        assert_eq!(runner.runs(), 2);
    }

    #[test]
    fn sub_protocols_get_distinct_seeds() {
        // Two identical sub-protocols in sequence should *not* replay the
        // exact same randomness: their seeds differ by sequence number.
        assert_ne!(derive_seed(9, 0), derive_seed(9, 1));
    }
}
