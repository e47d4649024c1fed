//! A deterministic simulator for the **CONGEST** model of distributed
//! computing (Peleg, 2000), the model of the PODC 2010 paper this
//! workspace reproduces.
//!
//! # The model
//!
//! An undirected graph `G = (V, E)` hosts one processor per node.
//! Computation proceeds in synchronous *rounds*; per round, each node may
//! send one message of `O(log n)` bits over each incident edge. Local
//! computation is free. The complexity measure is the number of rounds.
//!
//! # How the simulator enforces the model
//!
//! - Message sizes are accounted in `O(log n)`-bit *words*
//!   ([`Message::size_words`]); oversized messages abort the run.
//! - Each directed edge carries at most [`EngineConfig::edge_capacity`]
//!   messages per round (default 1). Excess sends are queued FIFO on the
//!   edge and delivered in subsequent rounds — so congestion shows up
//!   directly as extra rounds, exactly the quantity the paper's theorems
//!   bound.
//! - Protocols are written node-locally: behaviour may depend only on the
//!   receiving node's identity, its received messages, and its private RNG
//!   stream. The engine invokes [`Protocol::on_receive`] per node per
//!   round and collects sends via [`Ctx`].
//! - Runs are reproducible: all per-node RNG streams derive from a single
//!   `u64` seed.
//!
//! Multi-phase algorithms compose sequentially through [`Runner`], which
//! accumulates round counts across sub-protocols (standard sequential
//! composition in CONGEST).
//!
//! # Execution backends
//!
//! There is one round loop (module [`executor`]) over a flat message
//! queue (one `Vec` of `(edge id, message)` pairs, ascending by edge);
//! a backend only decides how the receive phase of a
//! [`NodeLocalProtocol`] is run. [`ExecutorKind::Sequential`], the
//! reference, visits receiving nodes in ascending order on one thread;
//! [`ExecutorKind::Sharded`] ([`ShardedExecutor`]) cuts heavy rounds
//! into load-balanced shards that OS threads claim, and merges their
//! sends back in node order. The two are **bit-identical**: same graph
//! and seed ⇒ same [`RunReport`], same protocol results — the choice
//! ([`EngineConfig::executor`]) only changes wall-clock time. A plain
//! [`Protocol`] runs the sequential discipline under either.
//!
//! # Example
//!
//! ```
//! use drw_congest::{run_protocol, Ctx, EngineConfig, Envelope, Message, Protocol};
//! use drw_graph::generators;
//!
//! /// A token that walks along a path for a fixed number of steps.
//! #[derive(Clone, Debug)]
//! struct Hop(u32);
//! impl Message for Hop {}
//!
//! struct Relay {
//!     end: Option<usize>,
//! }
//! impl Protocol for Relay {
//!     type Msg = Hop;
//!     fn start(&mut self, ctx: &mut Ctx<'_, Hop>) {
//!         ctx.send(0, 1, Hop(3));
//!     }
//!     fn on_receive(&mut self, node: usize, inbox: &[Envelope<Hop>], ctx: &mut Ctx<'_, Hop>) {
//!         let Hop(left) = inbox[0].msg;
//!         if left == 0 {
//!             self.end = Some(node);
//!         } else {
//!             ctx.send(node, node + 1, Hop(left - 1));
//!         }
//!     }
//! }
//!
//! let g = generators::path(8);
//! let mut p = Relay { end: None };
//! let report = run_protocol(&g, &EngineConfig::default(), 7, &mut p).unwrap();
//! assert_eq!(p.end, Some(4));
//! assert_eq!(report.rounds, 4);
//! ```

// `deny`, not `forbid`: the sharded backend lends round-scoped borrows
// to run-scoped threads through one lifetime-erased pointer, and that
// one function (`executor::pool::Pool::work`) opts back in.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod executor;
mod fault;
mod message;
mod multiplex;
mod node_local;
pub mod primitives;
mod protocol;
mod rng;
mod runner;

pub use engine::{
    run_node_local, run_protocol, EngineConfig, MemoryReport, RunError, RunReport, WorkBalance,
};
pub use executor::{ExecutorKind, ScriptedSchedule, ShardedExecutor};
pub use fault::{FaultCounters, FaultPlan, ScriptedTiming};
pub use message::{
    wire_type_name, Envelope, FieldCensus, FracBits, Message, TypeCensus, TypeRecorder, WireCensus,
};
pub use multiplex::{Mux, Mux2};
pub use node_local::{NodeCtx, NodeLocalProtocol};
pub use protocol::{Ctx, Protocol};
pub use rng::{derive_seed, NodeRngs};
pub use runner::Runner;
