//! Graph substrate for the `distributed-random-walks` workspace.
//!
//! The PODC 2010 paper operates on undirected, unweighted, connected
//! graphs in the CONGEST model. This crate provides:
//!
//! - [`Graph`] — an immutable compressed-sparse-row graph with sorted
//!   adjacency, O(1) directed-edge indexing and reverse-edge lookup (the
//!   CONGEST simulator charges bandwidth per *directed* edge);
//! - [`Topology`] — the versioned, mutable handle over the CSR for
//!   dynamic-network scenarios: batched [`TopologyDelta`]s, epoch
//!   stamps, per-epoch touched-node reports ([`EpochReport`]);
//! - [`generators`] — the graph families used by the paper and its
//!   experiments: paths, cycles, cliques, stars, binary trees, grids/tori,
//!   hypercubes, Erdős–Rényi, random regular (expanders), random geometric
//!   graphs (the ad-hoc-network model the paper cites), barbells, lollipops
//!   and a path-of-cliques family for diameter sweeps;
//! - [`traversal`] — BFS, connectivity and the exact diameter;
//! - [`spectral`] — stationary distributions, exact `t`-step walk
//!   distributions, exact mixing times (`tau_x(eps)` from Definition 4.3),
//!   the spectral gap `1 - lambda_2`, and conductance;
//! - [`matrix_tree`] — Kirchhoff spanning-tree counts and exhaustive tree
//!   enumeration for uniformity testing of the random-spanning-tree
//!   application (Theorem 4.1);
//! - [`dsu`] — a small union-find used for tree/forest checks.
//!
//! # Example
//!
//! ```
//! use drw_graph::{generators, spectral};
//!
//! let g = generators::cycle(8);
//! assert_eq!(g.n(), 8);
//! assert_eq!(g.m(), 8);
//! let pi = spectral::stationary_distribution(&g);
//! assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsu;
pub mod generators;
mod graph;
pub mod matrix_tree;
pub mod spectral;
mod topology;
pub mod traversal;

pub use graph::{Graph, GraphBuilder, GraphError, NodeId};
pub use topology::{DeltaOp, EpochReport, Topology, TopologyDelta};
