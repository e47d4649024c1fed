//! The naive random-walk baseline: pass a token for `l` steps.
//!
//! This is the `O(l)`-round algorithm of Section 1.2 that the paper's
//! contribution beats. It has no protocol of its own: a naive walk is the
//! Phase-2 tail role ([`crate::StitchSpec::naive`]) with no store behind
//! it — the same token that walks the final `< 2*lambda` steps of a
//! stitched walk and the `k + l` branch of `MANY-RANDOM-WALKS`.

use crate::single_walk::{StitchSetup, WalkError};
use crate::state::WalkState;
use crate::stitch_scheduler::{StitchScheduler, StitchSpec};
use drw_congest::{EngineConfig, RunError, Runner};
use drw_graph::{Graph, NodeId};

/// Runs a single naive walk of `len` steps from `source` and returns
/// `(destination, rounds)`: one forced-naive lane of a
/// [`StitchScheduler`] run over an empty store, so one hop per round.
///
/// # Errors
///
/// Propagates engine errors (round cap, oversized messages).
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Example
///
/// ```
/// use drw_graph::generators;
///
/// let g = generators::cycle(16);
/// let (dest, rounds) = drw_core::naive_walk(&g, 0, 100, 7).unwrap();
/// assert!(dest < g.n());
/// assert_eq!(rounds, 100);
/// ```
pub fn naive_walk(
    g: &Graph,
    source: NodeId,
    len: u64,
    seed: u64,
) -> Result<(NodeId, u64), RunError> {
    let mut runner = Runner::new(g, EngineConfig::default(), seed);
    // A naive lane never stitches, so the setup is never read.
    let mut sched = StitchScheduler::new(&StitchSetup {
        lambda: 1,
        randomize_len: false,
        gmw_count: 1,
    });
    sched.add_spec(StitchSpec {
        naive: true,
        ..StitchSpec::plain(source, len)
    });
    match sched.run(&mut runner, &mut WalkState::new(g.n())) {
        Ok(out) => Ok((out.walks[0].destination, out.report.rounds)),
        Err(WalkError::Engine(e)) => Err(e),
        Err(e) => unreachable!("a loss-free naive walk fails only in the engine: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::generators;

    #[test]
    fn walk_takes_len_rounds() {
        let g = generators::torus2d(4, 4);
        let (dest, rounds) = naive_walk(&g, 0, 57, 3).unwrap();
        assert!(dest < g.n());
        assert_eq!(rounds, 57);
    }

    #[test]
    fn zero_length_walk_stays_home() {
        let g = generators::path(4);
        let (dest, rounds) = naive_walk(&g, 2, 0, 3).unwrap();
        assert_eq!(dest, 2);
        assert_eq!(rounds, 0);
    }

    #[test]
    fn walk_on_path_has_right_parity() {
        // On a bipartite graph, an even-length walk ends on the source's side.
        let g = generators::path(10);
        for seed in 0..20 {
            let (dest, _) = naive_walk(&g, 4, 6, seed).unwrap();
            assert_eq!(dest % 2, 0, "seed {seed} gave dest {dest}");
        }
    }
}
