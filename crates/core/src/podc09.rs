//! The PODC 2009 baseline (Das Sarma, Nanongkai, Pandurangan: "Fast
//! distributed random walks"), as recapped in Section 2.1 of the 2010
//! paper.
//!
//! Differences from the 2010 algorithm, all of which the 2010 paper
//! removes or improves:
//!
//! - short walks have *fixed* length `lambda` (no randomized lengths, so
//!   connector points can pile up periodically — Lemma 2.7's failure
//!   mode);
//! - every node prepares the *same* number `eta` of short walks (not
//!   degree-proportional, so high-degree nodes drain first);
//! - `GET-MORE-WALKS` is expected to fire: the worst-case amortization
//!   bounds its invocations by `l / (eta lambda)`.
//!
//! Optimizing its round bound `O(eta lambda + l D / lambda + l / eta)`
//! gives `lambda = l^{1/3} D^{2/3}`, `eta = sqrt(l / lambda)` and total
//! `~O(l^{2/3} D^{1/3})` — the curve experiment E1 compares against.

use crate::params::Podc09Params;
use crate::short_walks::ShortWalksProtocol;
use crate::single_walk::{StitchSetup, WalkError};
use crate::state::WalkState;
use crate::stitch_scheduler::StitchScheduler;
use drw_congest::primitives::BfsTreeProtocol;
use drw_congest::{EngineConfig, Runner};
use drw_graph::{traversal, Graph, NodeId};

/// Result of [`podc09_walk`].
#[derive(Debug, Clone)]
pub struct Podc09Result {
    /// The sampled destination (exact, like the 2010 algorithm).
    pub destination: NodeId,
    /// Total CONGEST rounds.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// The fixed short-walk length used.
    pub lambda: u32,
    /// The uniform per-node short-walk count used.
    pub eta: usize,
    /// Stitches performed.
    pub stitches: u64,
    /// `GET-MORE-WALKS` invocations (positive by design at this
    /// parameterization, unlike the 2010 algorithm).
    pub gmw_invocations: u64,
}

/// Performs a single random walk with the PODC 2009 algorithm:
/// `~O(l^{2/3} D^{1/3})` rounds.
///
/// # Errors
///
/// Same as [`crate::single_random_walk`].
pub fn podc09_walk(
    g: &Graph,
    source: NodeId,
    len: u64,
    params: &Podc09Params,
    seed: u64,
) -> Result<Podc09Result, WalkError> {
    if source >= g.n() {
        return Err(WalkError::SourceOutOfRange(source));
    }
    if !traversal::is_connected(g) {
        return Err(WalkError::Disconnected);
    }
    let mut runner = Runner::new(g, EngineConfig::default(), seed);
    let mut state = WalkState::new(g.n());

    let mut bfs = BfsTreeProtocol::new(source);
    runner.run(&mut bfs)?;
    let d_est = bfs.into_tree().depth().max(1) as u64;

    let lambda = params.lambda(len, d_est);
    let eta = params.eta(len, lambda);

    if len >= 2 * lambda as u64 {
        let mut p1 = ShortWalksProtocol::new(
            &mut state,
            vec![eta; g.n()],
            lambda,
            /* randomize_len = */ false,
        );
        runner.run_local(&mut p1)?;
    }

    let setup = StitchSetup {
        lambda,
        randomize_len: false,
        aggregated_gmw: true,
        gmw_count: eta as u64,
        record: false,
    };
    // Phase 2 is the one scheduler, run for a single lane.
    let mut sched = StitchScheduler::new(&setup);
    sched.add_walk(source, len);
    let outcome = sched.run(&mut runner, &mut state)?;

    Ok(Podc09Result {
        destination: outcome.walks[0].destination,
        rounds: runner.total_rounds(),
        messages: runner.total_messages(),
        lambda,
        eta,
        stitches: outcome.stitches,
        gmw_invocations: outcome.gmw_invocations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::generators;

    #[test]
    fn walk_completes_with_correct_parity() {
        let g = generators::torus2d(4, 4);
        for seed in 0..5 {
            let r = podc09_walk(&g, 0, 64, &Podc09Params::default(), seed).unwrap();
            let (row, col) = (r.destination / 4, r.destination % 4);
            assert_eq!((row + col) % 2, 0);
        }
    }

    #[test]
    fn sublinear_but_typically_slower_than_2010() {
        use crate::single_walk::{single_random_walk, SingleWalkConfig};
        let g = generators::torus2d(8, 8);
        let len = 8192u64;
        let r09 = podc09_walk(&g, 0, len, &Podc09Params::default(), 7).unwrap();
        let r10 = single_random_walk(&g, 0, len, &SingleWalkConfig::default(), 7).unwrap();
        assert!(r09.rounds < len, "2009 is sublinear: {}", r09.rounds);
        // The 2010 algorithm should win on a long walk (allow slack for a
        // single seed).
        assert!(
            r10.rounds < 2 * r09.rounds,
            "2010 ({}) should not lose badly to 2009 ({})",
            r10.rounds,
            r09.rounds
        );
    }

    #[test]
    fn parameters_follow_the_optimum() {
        let g = generators::torus2d(8, 8);
        let r = podc09_walk(&g, 0, 4096, &Podc09Params::default(), 1).unwrap();
        assert!(r.lambda >= 1);
        assert!(r.eta >= 1);
        // eta ~ sqrt(l / lambda).
        let expect = ((4096.0 / r.lambda as f64).sqrt()).round() as usize;
        assert!(
            r.eta == expect || r.eta + 1 == expect || r.eta == expect + 1,
            "eta = {}, expected ~{expect}",
            r.eta
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::path(4);
        assert!(matches!(
            podc09_walk(&g, 9, 8, &Podc09Params::default(), 1),
            Err(WalkError::SourceOutOfRange(9))
        ));
        let dg = drw_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            podc09_walk(&dg, 0, 8, &Podc09Params::default(), 1),
            Err(WalkError::Disconnected)
        ));
    }
}
