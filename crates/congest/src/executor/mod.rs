//! The round loop.
//!
//! One function, `round::run_rounds`, spells out what a synchronous
//! CONGEST round is — deliver queued messages, fire the global
//! `on_round` hook, fire per-node receive handlers in ascending node
//! order, stage the resulting sends — over the `queue::FlatQueue` flat
//! message queue (one run of `(edge id, message)` pairs, ascending by
//! edge). Everything runs on the calling thread. Callers go through
//! [`crate::run_protocol`] or [`crate::Runner`]; the interleaving
//! checker goes through [`run_scripted`], which replaces only the
//! receive step.

pub(crate) mod queue;

mod round;
mod scripted;

pub(crate) use round::{run_rounds, Scratch};
pub use scripted::{receive_order, run_scripted, ScriptedSchedule};

/// Which round-executor backend a run uses. There is one: the round
/// loop on the calling thread, receiving nodes in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// One thread, ascending node order.
    #[default]
    Sequential,
}

impl ExecutorKind {
    /// Parses a backend name: `"sequential"` (or `"seq"`), and the
    /// retired `"sharded"` (or `"shard"`), which names the same backend
    /// so that configurations written for it keep running.
    pub fn from_name(name: &str) -> Option<ExecutorKind> {
        match name.to_ascii_lowercase().as_str() {
            "sequential" | "seq" | "sharded" | "shard" => Some(ExecutorKind::Sequential),
            _ => None,
        }
    }

    /// The backend's canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutorKind::Sequential => "sequential",
        }
    }
}

impl std::fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::ExecutorKind;

    #[test]
    fn every_backend_name_resolves_to_the_one_backend() {
        for name in ["sequential", "SEQ", "sharded", "Shard"] {
            assert_eq!(
                ExecutorKind::from_name(name),
                Some(ExecutorKind::Sequential)
            );
        }
        for name in ["parallel", "par", "gpu", ""] {
            assert_eq!(ExecutorKind::from_name(name), None, "{name:?}");
        }
    }
}
