//! The direct-diffusion baseline: a Kempe-McSherry-style comparator that
//! needs `Theta(tau)` rounds.
//!
//! The paper compares its `~O(n^{1/2} + n^{1/4} sqrt(D tau))` estimator
//! against the only previously known approach, which runs for `~tau_mix`
//! rounds \[20\]. This baseline emulates that round profile faithfully:
//! the exact distribution `pi_x(t)` is evolved *in-network* (each node
//! splits its current mass equally among neighbors each round — one
//! matvec per round, one fixed-point word per edge), and at doubling
//! checkpoints an `O(D)` convergecast of `||pi_x(t) - pi||_1` decides
//! whether to stop.

use drw_congest::primitives::{AggOp, BfsTreeProtocol, ConvergecastProtocol};
use drw_congest::{Ctx, Envelope, Message, Protocol, Runner};
use drw_core::WalkError;
use drw_graph::{spectral, traversal, Graph, NodeId};

/// Fixed-point scale for mass messages (one `O(log n)`-bit word in the
/// standard assumption that fixed-point values of `poly(n)` precision
/// fit a word).
const SCALE: f64 = (1u64 << 40) as f64;

/// A share of probability mass crossing an edge (fixed-point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MassMsg(u64);

impl Message for MassMsg {
    fn census(&self, census: &mut drw_congest::WireCensus) {
        // Fixed-point mass: the low 40 bits (`SCALE = 2^40`) encode
        // precision, not magnitude — total mass is conserved at 1.0, so
        // the integer part never exceeds a handful of bits.
        let _ = census
            .record("MassMsg", self.size_words())
            .field_fixed("mass", self.0, 40);
    }
}

/// Diffuses mass for a fixed number of rounds: each round, every node
/// forwards everything it received, split equally among its neighbors.
struct DiffusionProtocol {
    masses: Vec<f64>,
    current_round_mass: Vec<f64>,
    last_update: Vec<u64>,
    target: u64,
}

impl DiffusionProtocol {
    fn new(masses: Vec<f64>, rounds: u64) -> Self {
        let n = masses.len();
        DiffusionProtocol {
            masses,
            current_round_mass: vec![0.0; n],
            last_update: vec![0; n],
            target: rounds,
        }
    }

    /// Mass distribution after the run (zero for nodes not reached in the
    /// final round... which cannot happen once the support is the whole
    /// graph; early rounds are handled by the last-update stamp).
    fn final_masses(&self) -> Vec<f64> {
        (0..self.masses.len())
            .map(|v| {
                if self.last_update[v] == self.target {
                    self.current_round_mass[v]
                } else {
                    0.0
                }
            })
            .collect()
    }
}

impl Protocol for DiffusionProtocol {
    type Msg = MassMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, MassMsg>) {
        if self.target == 0 {
            return;
        }
        for v in 0..self.masses.len() {
            let mass = self.masses[v];
            if mass <= 0.0 {
                continue;
            }
            let deg = ctx.graph().degree(v);
            let share = mass / deg as f64;
            for u in ctx.graph().neighbors(v).collect::<Vec<_>>() {
                ctx.send(v, u, MassMsg((share * SCALE) as u64));
            }
        }
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        inbox: &[Envelope<MassMsg>],
        ctx: &mut Ctx<'_, MassMsg>,
    ) {
        let received: f64 = inbox.iter().map(|e| e.msg.0 as f64 / SCALE).sum();
        self.current_round_mass[node] = received;
        self.last_update[node] = ctx.round();
        if ctx.round() < self.target {
            let deg = ctx.graph().degree(node);
            let share = received / deg as f64;
            for u in ctx.graph().neighbors(node).collect::<Vec<_>>() {
                ctx.send(node, u, MassMsg((share * SCALE) as u64));
            }
        }
        // At the target round, mass rests; quiescence ends the run.
    }
}

/// Result of [`direct_diffusion_mixing`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionResult {
    /// First checkpoint `t` with `||pi_x(t) - pi||_1 < eps`, or `None`
    /// if the cap was reached (e.g. bipartite graphs).
    pub tau: Option<u64>,
    /// Total CONGEST rounds consumed (diffusion + checks) — `Theta(tau)`.
    pub rounds: u64,
    /// Checkpoints probed.
    pub checkpoints: Vec<(u64, f64)>,
}

/// Runs the direct-diffusion baseline from `source` until the in-network
/// `L1` distance to stationarity drops below `eps` (checked at doubling
/// checkpoints), or `cap` steps.
///
/// # Errors
///
/// Propagates engine failures.
pub fn direct_diffusion_mixing(
    g: &Graph,
    source: NodeId,
    eps: f64,
    cap: u64,
    seed: u64,
) -> Result<DiffusionResult, WalkError> {
    direct_diffusion_mixing_cfg(
        g,
        source,
        eps,
        cap,
        seed,
        drw_congest::EngineConfig::default(),
    )
    .map(|(result, _)| result)
}

/// As [`direct_diffusion_mixing`], under the caller's engine
/// configuration. Also returns the merged wire census of every
/// sub-protocol run (empty unless `cfg.record_wire` is set) — the
/// conformance certifier's entry point for measuring the magnitudes
/// `MassMsg` actually puts on the wire.
///
/// # Errors
///
/// Propagates engine failures.
pub fn direct_diffusion_mixing_cfg(
    g: &Graph,
    source: NodeId,
    eps: f64,
    cap: u64,
    seed: u64,
    cfg: drw_congest::EngineConfig,
) -> Result<(DiffusionResult, drw_congest::WireCensus), WalkError> {
    assert!(source < g.n(), "source out of range");
    assert!(traversal::is_connected(g), "graph must be connected");
    let pi = spectral::stationary_distribution(g);
    let mut runner = Runner::new(g, cfg, seed);
    let mut census = drw_congest::WireCensus::default();

    // BFS tree for the periodic checks.
    let mut bfs = BfsTreeProtocol::new(source);
    census.merge(&runner.run(&mut bfs)?.wire);
    let tree = bfs.into_tree();

    let mut masses = vec![0.0; g.n()];
    masses[source] = 1.0;
    let mut t = 0u64;
    let mut next_check = 1u64;
    let mut checkpoints = Vec::new();
    loop {
        let advance = (next_check - t).min(cap - t);
        let mut diff = DiffusionProtocol::new(masses, advance);
        census.merge(&runner.run(&mut diff)?.wire);
        masses = diff.final_masses();
        t += advance;

        // Convergecast of the fixed-point L1 distance (each node knows
        // its own pi locally).
        let values: Vec<u64> = (0..g.n())
            .map(|v| ((masses[v] - pi[v]).abs() * SCALE) as u64)
            .collect();
        let mut cc = ConvergecastProtocol::new(&tree, AggOp::Sum, values).fixed_point(40);
        census.merge(&runner.run(&mut cc)?.wire);
        let l1 = cc.result() as f64 / SCALE;
        checkpoints.push((t, l1));
        if l1 < eps {
            return Ok((
                DiffusionResult {
                    tau: Some(t),
                    rounds: runner.total_rounds(),
                    checkpoints,
                },
                census,
            ));
        }
        if t >= cap {
            return Ok((
                DiffusionResult {
                    tau: None,
                    rounds: runner.total_rounds(),
                    checkpoints,
                },
                census,
            ));
        }
        next_check = (t * 2).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::{eps_mix, exact_tau};
    use drw_graph::generators;

    #[test]
    fn matches_exact_tau_up_to_doubling() {
        let g = generators::cycle(17);
        let eps = eps_mix();
        let exact = exact_tau(&g, 0, eps, 100_000).unwrap();
        let r = direct_diffusion_mixing(&g, 0, eps, 1 << 16, 1).unwrap();
        let tau = r.tau.expect("odd cycle mixes");
        // Checkpoints double, so tau in [exact, 2*exact).
        assert!(
            tau >= exact && tau < 2 * exact.max(1),
            "tau = {tau}, exact = {exact}"
        );
    }

    #[test]
    fn rounds_are_linear_in_tau() {
        let g = generators::cycle(33);
        let r = direct_diffusion_mixing(&g, 0, eps_mix(), 1 << 16, 2).unwrap();
        let tau = r.tau.unwrap();
        // Diffusion rounds dominate: rounds ~ tau + log(tau) * O(D).
        assert!(r.rounds >= tau);
        assert!(
            r.rounds <= 2 * tau + 40 * g.n() as u64,
            "rounds = {}",
            r.rounds
        );
    }

    #[test]
    fn bipartite_caps_out() {
        let g = generators::cycle(8);
        let r = direct_diffusion_mixing(&g, 0, eps_mix(), 256, 3).unwrap();
        assert_eq!(r.tau, None);
        assert!(r.checkpoints.iter().all(|&(_, l1)| l1 > 0.5));
    }

    #[test]
    fn complete_graph_is_immediate() {
        let g = generators::complete(16);
        let r = direct_diffusion_mixing(&g, 0, 0.5, 1 << 10, 4).unwrap();
        assert!(r.tau.unwrap() <= 2);
    }
}
