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
//! - Message sizes are accounted in `O(log n)`-bit *words*, counted from
//!   each message's one wire listing ([`Message::encode`]); oversized
//!   messages abort the run.
//! - Each directed edge carries at most [`EngineConfig::edge_capacity`]
//!   messages per round (default 1). Excess sends are queued FIFO on the
//!   edge and delivered in subsequent rounds — so congestion shows up
//!   directly as extra rounds, exactly the quantity the paper's theorems
//!   bound.
//! - Protocols are written node-locally: behaviour may depend only on the
//!   receiving node's identity, its received messages, and its private RNG
//!   stream. The engine invokes [`Protocol::on_receive`] per node per
//!   round, in ascending node order, and collects sends via [`Ctx`]
//!   (or its node-scoped view, [`NodeCtx`]).
//! - Runs are reproducible: all per-node RNG streams derive from a single
//!   `u64` seed, and a run is a function of its graph, configuration and
//!   seed alone.
//!
//! Multi-phase algorithms compose sequentially through [`Runner`], which
//! accumulates round counts across sub-protocols (standard sequential
//! composition in CONGEST).
//!
//! # One round loop
//!
//! Every run goes through one round loop (module [`executor`]) over a
//! flat message queue (one `Vec` of `(edge id, message)` pairs,
//! ascending by edge), on the calling thread. The interleaving checker,
//! [`run_scripted`], is its one variation: it runs each round's receive
//! handlers in a scripted permutation ([`receive_order`]) and appends
//! their sends in node order, so that `drw-analyze` can measure that no
//! order shows through.
//!
//! # Example
//!
//! ```
//! use drw_congest::{run_protocol, Ctx, EngineConfig, Envelope, Message, Protocol};
//! use drw_congest::{WireReader, WireSink};
//! use drw_graph::generators;
//!
//! /// A token that walks along a path for a fixed number of steps.
//! #[derive(Clone, Debug, PartialEq)]
//! struct Hop(u32);
//! impl Message for Hop {
//!     fn encode(&self, w: &mut impl WireSink) {
//!         w.word("left", self.0.into());
//!     }
//!     fn decode(r: &mut WireReader<'_>) -> Option<Self> {
//!         r.read().map(Hop)
//!     }
//! }
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod executor;
mod fault;
mod message;
mod multiplex;
pub mod primitives;
mod protocol;
mod rng;
mod runner;

pub use engine::{run_protocol, EngineConfig, RunError, RunReport};
pub use executor::{receive_order, run_scripted, ExecutorKind, ScriptedSchedule};
pub use fault::{FaultCounters, FaultPlan};
pub use message::{
    round_trips, wire_type_name, Envelope, FieldCensus, FracBits, Message, TypeCensus, WireCensus,
    WireReader, WireSink,
};
pub use multiplex::Mux2;
pub use protocol::{Ctx, NodeCtx, Protocol};
pub use rng::{derive_seed, NodeRngs};
pub use runner::Runner;
