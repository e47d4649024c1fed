//! The round loop and its backends.
//!
//! One function, `round::run_rounds`, spells out what a synchronous
//! CONGEST round is — deliver queued messages, fire the global
//! `on_round` hook, fire per-node receive handlers, stage the resulting
//! sends — over the `queue::FlatQueue` flat message queue (one run of
//! `(edge id, message)` pairs, ascending by edge). Only the receive
//! phase varies, and it has exactly two forms:
//!
//! - a plain [`crate::Protocol`]'s `&mut self` handler, run in ascending
//!   node order on the calling thread under **every** backend (nothing
//!   proves its nodes independent, so nothing may shard it);
//! - a [`crate::NodeLocalProtocol`]'s node-local handler, which
//!   [`ExecutorKind::Sequential`] runs inline in ascending node order
//!   (the reference) and [`ExecutorKind::Sharded`] ([`ShardedExecutor`])
//!   splits into load-balanced shards that idle threads *claim* (work
//!   stealing), merging their sends back in node order — bit-identical
//!   results, plus per-shard work counts in the run report.
//!
//! Callers normally do not name a backend: they set [`ExecutorKind`] on
//! [`crate::EngineConfig`] and go through [`crate::run_protocol`] /
//! [`crate::run_node_local`] (or [`crate::Runner`]), which dispatch
//! here.

pub(crate) mod queue;

mod pool;
mod round;
mod sharded;

pub(crate) use round::{run_rounds, PlainReceive, Scratch};
pub(crate) use sharded::run_node_local_inline;
pub use sharded::{ScriptedSchedule, ShardedExecutor};

/// Which round-executor backend a run uses.
///
/// The two backends are deterministic and produce identical results
/// for the same graph, seed and protocol; the choice affects wall-clock
/// time only. `Sequential` is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// One thread, ascending node order (the reference backend).
    #[default]
    Sequential,
    /// Receive phase split into load-balanced work-stealing shards that
    /// idle threads claim dynamically; records per-shard work counts in
    /// [`crate::RunReport`]'s `balance` telemetry. Plain protocols keep
    /// the sequential receive discipline.
    Sharded,
}

impl ExecutorKind {
    /// Parses `"sequential"` / `"sharded"` (as used by experiment
    /// harness environment variables).
    pub fn from_name(name: &str) -> Option<ExecutorKind> {
        match name.to_ascii_lowercase().as_str() {
            "sequential" | "seq" => Some(ExecutorKind::Sequential),
            "sharded" | "shard" => Some(ExecutorKind::Sharded),
            _ => None,
        }
    }

    /// The backend's canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorKind::Sequential => "sequential",
            ExecutorKind::Sharded => "sharded",
        }
    }
}

impl std::fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for ExecutorKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

#[cfg(feature = "serde")]
impl serde::Deserialize for ExecutorKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => ExecutorKind::from_name(s)
                .ok_or_else(|| serde::Error(format!("unknown executor kind `{s}`"))),
            other => Err(serde::Error(format!("expected string, got {other:?}"))),
        }
    }
}
