//! The repository's benchmark: six named workloads over the walk
//! service, end-to-end metrics with regression bounds, and a per-layer
//! ledger from a traced run. See `README.md` for the metric dictionary
//! and `../BENCHMARK.json` for the contract.

#![warn(missing_docs)]

pub mod checks;
pub mod compare;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod workloads;
