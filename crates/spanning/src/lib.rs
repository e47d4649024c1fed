//! Random spanning trees via distributed random walks (Section 4.1 of the
//! PODC 2010 paper).
//!
//! The Aldous-Broder theorem says: walk from any root until every node is
//! visited; the set of first-entry edges is a *uniformly* random spanning
//! tree. The paper turns this into a distributed algorithm running in
//! `~O(sqrt(m * D))` rounds w.h.p. (Theorem 4.1) by
//!
//! 1. guessing the cover time with doubling lengths `l = n, 2n, 4n, ...`,
//! 2. performing `O(log n)` fast walks of length `l` per phase with the
//!    machinery of Section 2 (each regenerated so nodes know their
//!    positions and first-visit predecessors),
//! 3. checking coverage with an `O(D)` convergecast, and
//! 4. reading the tree off the first covering walk: each non-root node
//!    picks the edge of its earliest visit.
//!
//! The distributed algorithm is a request to the walk service,
//! `drw_core::Request::SpanningTree`, served by `drw_core::Network`
//! like every other request (its driver lives in `drw-core`). The
//! paper-literal restart scheme of step 2 is measurably biased; the
//! default extends one continuous walk instead and is exactly uniform
//! (the reproduction finding is documented on `drw_core::TreeMode`).
//! This crate holds what the distributed sampler is checked against:
//! the centralized references ([`aldous_broder()`], [`wilson()`]) and
//! the uniformity-testing helpers ([`uniformity`]) of experiment E9.
//!
//! # Example
//!
//! ```
//! use drw_core::{Network, Request};
//! use drw_graph::{generators, matrix_tree};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), drw_core::Error> {
//! let g = generators::torus2d(4, 4);
//! let mut net = Network::builder(&g).seed(7).build();
//! let r = net.run(Request::spanning_tree(0))?.into_tree();
//! assert!(matrix_tree::is_spanning_tree(&g, &r.edges));
//! // The centralized reference samples the same (uniform) law.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (reference, _steps) = drw_spanning::aldous_broder(&g, 0, &mut rng);
//! assert!(matrix_tree::is_spanning_tree(&g, &reference));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aldous_broder;
pub mod uniformity;
pub mod wilson;

pub use aldous_broder::{aldous_broder, naive_rst_cover_steps};
pub use uniformity::{sampled_tree_histogram, uniformity_test};
pub use wilson::wilson;
