//! Shared infrastructure for the experiment harness binaries.
//!
//! Each reproduction experiment (E1-E11, A1-A3 — see DESIGN.md section 4)
//! is a binary in `src/bin/` that prints the paper-shaped table as
//! aligned text and, when `DRW_CSV_DIR` is set, also writes a CSV.
//! This library provides the table formatter, parallel trial runner,
//! the standard workload graphs and the PODC 2009 baseline the 2010
//! algorithm is compared against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod podc09;
pub mod table;
pub mod trials;
pub mod workloads;

pub use config::{engine_config_from_env, faults_from_env, walk_config_from_env};
pub use podc09::{podc09_walk, Podc09Params, Podc09Result};
pub use table::Table;
pub use trials::parallel_trials;

use drw_core::{Network, Request, SingleWalkConfig};
use drw_graph::Graph;

/// Arithmetic mean of a table column (NaN when `xs` is empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The rebuild-per-request baseline the session experiments (E12) and
/// `tests/session_reuse.rs` price amortization against: the summed
/// bills of serving `requests` one after another **one-shot**, each
/// paying its own BFS and full Phase 1. The baseline lives here, not in
/// a production path — `drw-core` has exactly one driver per request
/// kind.
///
/// # Panics
///
/// Panics if a request fails (baselines run on valid workloads).
pub fn one_shot_rounds(
    g: &Graph,
    cfg: &SingleWalkConfig,
    seed: u64,
    requests: impl IntoIterator<Item = Request>,
) -> u64 {
    let mut net = Network::builder(g).config(cfg.clone()).seed(seed).build();
    requests
        .into_iter()
        .map(|r| net.run(r).expect("one-shot baseline request").rounds())
        .sum()
}
