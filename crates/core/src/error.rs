//! The unified error type of the [`crate::Network`] facade: the one
//! type `Network::run`, `Network::run_batch` and the `Service` return,
//! whatever the request kind.

use crate::single_walk::WalkError;
use drw_congest::RunError;
use drw_graph::GraphError;
use std::fmt;

/// Any failure of a [`crate::Network`] request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The walk machinery failed (engine error, disconnected graph, or
    /// an out-of-range source).
    Walk(WalkError),
    /// A topology delta was rejected (duplicate/missing edge, invalid
    /// node removal, or the delta would disconnect the graph). The
    /// topology is unchanged.
    Graph(GraphError),
    /// A spanning-tree request found no covering walk within its phase
    /// budget.
    NotCovered {
        /// Phases attempted.
        phases: u32,
        /// Final walk length tried.
        final_len: u64,
    },
    /// A spanning-tree request's doubling schedule hit the total-length
    /// cap (or would have overflowed `u64`) before coverage.
    LengthOverflow {
        /// Phases completed before the overflow.
        phases: u32,
        /// Total length walked so far.
        walked: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Walk(e) => write!(f, "walk error: {e}"),
            Error::Graph(e) => write!(f, "topology delta rejected: {e}"),
            Error::NotCovered { phases, final_len } => write!(
                f,
                "no covering walk after {phases} phases (final length {final_len})"
            ),
            Error::LengthOverflow { phases, walked } => write!(
                f,
                "doubling schedule overflowed the total-length cap after \
                 {phases} phases ({walked} steps walked)"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Walk(e) => Some(e),
            Error::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalkError> for Error {
    fn from(e: WalkError) -> Self {
        Error::Walk(e)
    }
}

impl From<RunError> for Error {
    fn from(e: RunError) -> Self {
        Error::Walk(WalkError::Engine(e))
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = Error::from(WalkError::Disconnected);
        assert!(e.to_string().contains("connected"));
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::NotCovered {
            phases: 3,
            final_len: 64,
        };
        assert!(e.to_string().contains("3 phases"));
        assert!(std::error::Error::source(&e).is_none());
        let e = Error::LengthOverflow {
            phases: 2,
            walked: 99,
        };
        assert!(e.to_string().contains("99 steps"));
    }
}
