//! The PODC 2010 paper's primary contribution: performing random walks in
//! a distributed network in rounds *sublinear* in the walk length.
//!
//! Given an undirected connected graph, a source `s` and a length `l`, a
//! [`Network`] answers [`Request::Walk`] with a **true sample** from the
//! `l`-step simple-random-walk distribution from `s` in
//! `~O(sqrt(l * D))` CONGEST rounds w.h.p. (Theorem 2.5), against the
//! naive `O(l)` token walk ([`naive::naive_walk`]) and the PODC 2009
//! baseline's `~O(l^{2/3} D^{1/3})` (`drw_experiments::podc09`).
//! [`Request::ManyWalks`] extends this to `k` walks in
//! `~O(min(sqrt(k l D) + k, k + l))` rounds (Theorem 2.8), and the
//! applications are requests too: [`Request::SpanningTree`] and
//! [`Request::MixingTime`].
//!
//! # Algorithm structure (Section 2 of the paper)
//!
//! - **Phase 1** ([`short_walks`]): every node `v` launches
//!   `eta * deg(v)` short walks whose lengths are uniform in
//!   `[lambda, 2*lambda - 1]` — the randomized length is the paper's key
//!   idea, defeating periodic connector pile-ups (Lemma 2.7). Endpoints
//!   remember `(source, seq, length)`; every intermediate node logs its
//!   forwarding choice so walks can later be *regenerated* (Phase 2
//!   replays a recorded walk's segments as it stitches them).
//! - **Phase 2** ([`stitch_scheduler`], which routes each message to
//!   its role's module): the walk token stitches short walks. Each
//!   stitch is a `SAMPLE-DESTINATION` (Algorithm 3, the
//!   [`sample_destination`] role): the current connector draws one of
//!   its *unused* short walks uniformly at random from its own ledger and
//!   floods a claim for it, which the walk's owner answers by taking it
//!   and moving the token on — `dist(connector, owner)` rounds, within
//!   the paper's `O(D)`. A drained connector replenishes with
//!   `GET-MORE-WALKS` (Algorithm 2, the [`get_more_walks`] role), one
//!   Phase-1 token per new walk, the first of which the walk token
//!   rides. The final `< 2*lambda` steps
//!   are walked naively, by the role that also regenerates recorded
//!   walks. There is one Phase 2:
//!   `MANY-RANDOM-WALKS` advances all `k` tokens concurrently — the
//!   sub-protocols of every walk are multiplexed by walk id into *one*
//!   engine run, so concurrent stitches share CONGEST rounds instead of
//!   summing them (the `sqrt(k l D) + k` regime of Theorem 2.8) — and
//!   `SINGLE-RANDOM-WALK` (Algorithm 1, [`single_walk`]) is its `k = 1`
//!   case.
//! - **Sessions** ([`session`]): applications that issue many requests
//!   (the doubling loops of the spanning-tree sampler and the mixing
//!   estimator) hold a [`WalkSession`] — one BFS/diameter estimate, one
//!   persistent short-walk store with deficit-only top-up, and walk
//!   extension across requests — converting repeated setup into
//!   pay-as-you-go.
//!
//! The implementation is **Las Vegas** exactly as the paper's: any
//! parameter choice yields an exact sample; parameters only affect the
//! round count. Practical defaults drop the paper's polylog constants
//! (`lambda = c * sqrt(l * D)`, `eta = 1`); see [`params`] and DESIGN.md.
//!
//! # Example
//!
//! ```
//! use drw_core::{Network, Request};
//! use drw_graph::generators;
//!
//! # fn main() -> Result<(), drw_core::Error> {
//! let g = generators::torus2d(8, 8);
//! let mut net = Network::builder(&g).seed(42).build();
//! let result = net.run(Request::walk(0, 256))?.into_walk();
//! assert!(result.destination < g.n());
//! // Far fewer rounds than the naive 256 for a walk this long.
//! println!("destination {} in {} rounds", result.destination, result.rounds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod error;
pub mod exact;
pub mod get_more_walks;
pub mod many_walks;
pub mod naive;
pub mod network;
pub mod params;
pub mod request;
pub mod sample_destination;
pub mod service;
pub mod session;
pub mod short_walks;
pub mod single_walk;
pub mod state;
pub mod stitch_scheduler;
mod tail;
pub mod visit_stats;

pub use bucket::{sum_deg_sq, BucketTest, BucketTestResult, SampleStats};
pub use error::Error;
pub use many_walks::ManyWalksResult;
pub use naive::naive_walk;
pub use network::{Network, NetworkBuilder};
pub use params::WalkParams;
pub use request::{
    MixingProbe, MixingReport, MixingRequest, Request, Response, TreeMode, TreeRequest, TreeSample,
};
pub use service::{
    ArrivalTrace, Completion, MixedTraceSpec, Service, ServiceBuilder, ServiceConfig, ServiceError,
    ServiceReport, SubmitError, TenantBill, TenantId, Ticket, TicketPoll, TraceEvent, TraceRun,
};
pub use session::{RepairReport, SessionWalkOutcome, WalkSession, WaveOutcome, WaveWalk};
pub use short_walks::ShortWalksProtocol;
pub use single_walk::{
    Segment, SingleWalkConfig, SingleWalkResult, StitchSetup, WalkAction, WalkDriver, WalkError,
};
pub use state::{StateMemory, StoredWalk, Visit, WalkId, WalkState};
pub use stitch_scheduler::{
    BatchedStitchOutcome, BatchedWalk, StitchScheduler, StitchSpec, MAX_REISSUE_PASSES,
};
