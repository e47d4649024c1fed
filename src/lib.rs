//! # distributed-random-walks
//!
//! A production-quality Rust reproduction of
//!
//! > **Efficient Distributed Random Walks with Applications**
//! > Atish Das Sarma, Danupon Nanongkai, Gopal Pandurangan, Prasad
//! > Tetali. *PODC 2010.*
//!
//! The paper shows how to obtain a **true sample** of the `l`-step
//! random-walk distribution in a distributed network in
//! `~O(sqrt(l * D))` CONGEST rounds — sublinear in the walk length —
//! plus two applications: random spanning trees in `~O(sqrt(m * D))`
//! rounds and decentralized mixing-time estimation, and an almost
//! matching `Omega(sqrt(l / log l))` lower bound.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `drw-graph` | CSR graphs, generators, traversal, spectral ground truth, matrix-tree |
//! | [`congest`] | `drw-congest` | the CONGEST simulator: engine, protocols, BFS/broadcast/convergecast/upcast |
//! | [`core`] | `drw-core` | the `Network` service facade, the paper's algorithms, `WalkSession` |
//! | [`spanning`] | `drw-spanning` | centralized Aldous-Broder / Wilson references and uniformity tests |
//! | [`mixing`] | `drw-mixing` | mixing-time ground truth, the diffusion baseline, spectral-gap / conductance bounds |
//! | [`lowerbound`] | `drw-lowerbound` | `G_n`, PATH-VERIFICATION and the reduction |
//! | [`stats`] | `drw-stats` | chi-square / KS tests, summaries, regression |
//!
//! # Quickstart
//!
//! The network is a *service*: build one [`Network`](prelude::Network)
//! handle, then submit typed requests — one-shot or batched.
//!
//! ```
//! use distributed_random_walks::prelude::*;
//!
//! # fn main() -> Result<(), DrwError> {
//! // A 16x16 torus: n = 256 nodes, diameter 16.
//! let g = drw_graph::generators::torus2d(16, 16);
//! let mut net = Network::builder(&g).seed(42).build();
//!
//! // One exact 4096-step walk sample, distributed, in far fewer than
//! // 4096 rounds.
//! let walk = net.run(Request::walk(0, 4096))?.into_walk();
//! assert!(walk.rounds < 4096);
//!
//! // Heterogeneous traffic batches into *shared* engine runs: the
//! // walks, the spanning tree's doubling phases and the mixing probe
//! // multiplex their work items instead of serializing.
//! let responses = net.run_batch(vec![
//!     Request::walk(0, 1024),
//!     Request::walk(137, 1024),
//!     Request::spanning_tree(0),
//!     Request::mixing_probe(0, 256),
//! ])?;
//! assert_eq!(responses.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! A request is the only way to ask: walks, spanning trees and mixing
//! estimates alike go through a [`Network`](prelude::Network) (or a
//! [`Service`](prelude::Service)), and every request kind has one
//! driver and one Phase 2.
//!
//! See `DESIGN.md` for the system inventory and the per-experiment
//! index, and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use drw_congest as congest;
pub use drw_core as core;
pub use drw_graph as graph;
pub use drw_lowerbound as lowerbound;
pub use drw_mixing as mixing;
pub use drw_spanning as spanning;
pub use drw_stats as stats;

/// The most commonly used items in one import.
pub mod prelude {
    pub use drw_congest::{EngineConfig, ExecutorKind, Runner};
    pub use drw_core::{
        naive_walk, ArrivalTrace, Completion, Error as DrwError, ManyWalksResult, MixedTraceSpec,
        MixingProbe, MixingReport, MixingRequest, Network, NetworkBuilder, RepairReport, Request,
        Response, Service, ServiceBuilder, ServiceConfig, ServiceReport, SingleWalkConfig,
        SingleWalkResult, StitchScheduler, SubmitError, TenantBill, TenantId, Ticket, TicketPoll,
        TraceEvent, TraceRun, TreeMode, TreeRequest, TreeSample, WalkError, WalkParams,
        WalkSession,
    };
    pub use drw_graph::{
        generators, DeltaOp, EpochReport, Graph, GraphBuilder, Topology, TopologyDelta,
    };
}
