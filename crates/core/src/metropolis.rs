//! Extension: Metropolis-Hastings walks for arbitrary target
//! distributions.
//!
//! The PODC 2010 paper restricts to the simple walk "for the sake of
//! obtaining the best possible bounds", noting that its predecessor
//! (PODC 2009) handled the more general Metropolis-Hastings walk. This
//! module provides that generality for the *naive* (token) walker: given
//! unnormalized target weights `w(v)`, a step from `u` proposes a
//! uniform neighbor `v` and accepts with probability
//! `min(1, w(v) d(u) / (w(u) d(v)))`, staying put otherwise — the
//! classical MH chain whose stationary distribution is `w/|w|`, e.g.
//! **uniform node sampling** on irregular graphs with `w = 1`.
//!
//! A rejected proposal consumes a round with no movement. The simulator
//! only advances time while messages are in flight, so a holding token
//! emits a one-word `Tick` to a neighbor — the round cost of a stay is
//! modeled exactly, at one message of overhead.

use drw_congest::{Ctx, Envelope, Message, Protocol, RunError, WireReader, WireSink};
use drw_graph::{Graph, NodeId};
use rand::Rng;

/// A Metropolis-Hastings token (or a clock tick for a held token).
#[derive(Debug, Clone, PartialEq)]
pub enum MhMsg {
    /// The walk token: walk index and steps remaining after arrival.
    Token {
        /// Walk index within the batch.
        walk: u32,
        /// Steps remaining.
        left: u64,
    },
    /// Keep-alive from a holder whose proposal was rejected; the receiver
    /// ignores it.
    Tick,
}

impl Message for MhMsg {
    /// A `Tick` is padded to the token's 2 words.
    fn encode(&self, w: &mut impl WireSink) {
        match self {
            MhMsg::Token { walk, left } => {
                w.tag(0);
                w.word("Token.walk", (*walk).into());
                w.word("Token.left", *left);
            }
            MhMsg::Tick => {
                w.tag(1);
                w.pad(2);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.read::<u8>()? {
            0 => Some(MhMsg::Token {
                walk: r.read()?,
                left: r.read()?,
            }),
            1 => Some(MhMsg::Tick),
            _ => None,
        }
    }
}

/// Naive distributed Metropolis-Hastings walks over target weights `w`.
#[derive(Debug)]
pub struct MetropolisWalkProtocol {
    weights: Vec<f64>,
    specs: Vec<(NodeId, u64)>,
    holding: Vec<(NodeId, u32, u64)>,
    destinations: Vec<Option<NodeId>>,
}

impl MetropolisWalkProtocol {
    /// Creates a batch of MH walks `(source, len)` targeting the
    /// distribution proportional to `weights`.
    ///
    /// # Panics
    ///
    /// Panics if any weight is not strictly positive.
    pub fn new(weights: Vec<f64>, specs: Vec<(NodeId, u64)>) -> Self {
        assert!(
            weights.iter().all(|&w| w > 0.0),
            "target weights must be strictly positive"
        );
        let destinations = vec![None; specs.len()];
        MetropolisWalkProtocol {
            weights,
            specs,
            holding: Vec::new(),
            destinations,
        }
    }

    /// Destinations in spec order.
    ///
    /// # Panics
    ///
    /// Panics if some walk has not completed.
    pub fn destinations(&self) -> Vec<NodeId> {
        self.destinations
            .iter()
            .map(|d| d.expect("walk has not completed"))
            .collect()
    }

    /// One MH step for a token at `node`: move (send) or hold (tick).
    fn step(&mut self, node: NodeId, walk: u32, left: u64, ctx: &mut Ctx<'_, MhMsg>) {
        if left == 0 {
            self.destinations[walk as usize] = Some(node);
            return;
        }
        let deg_u = ctx.graph().degree(node);
        let idx = ctx.rng(node).random_range(0..deg_u);
        let v = ctx.graph().edge_target(ctx.graph().nth_edge_id(node, idx));
        let deg_v = ctx.graph().degree(v);
        let accept = (self.weights[v] * deg_u as f64) / (self.weights[node] * deg_v as f64);
        if accept >= 1.0 || ctx.rng(node).random_bool(accept.clamp(0.0, 1.0)) {
            ctx.send(
                node,
                v,
                MhMsg::Token {
                    walk,
                    left: left - 1,
                },
            );
        } else {
            // Stay: the step is consumed; keep the clock alive.
            self.holding.push((node, walk, left - 1));
            let first = ctx.graph().edge_target(ctx.graph().nth_edge_id(node, 0));
            ctx.send(node, first, MhMsg::Tick);
        }
    }
}

impl Protocol for MetropolisWalkProtocol {
    type Msg = MhMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, MhMsg>) {
        assert_eq!(self.weights.len(), ctx.graph().n(), "one weight per node");
        let specs = self.specs.clone();
        for (i, (source, len)) in specs.into_iter().enumerate() {
            assert!(source < ctx.graph().n(), "source out of range");
            self.step(source, i as u32, len, ctx);
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, MhMsg>) {
        let holding = std::mem::take(&mut self.holding);
        for (node, walk, left) in holding {
            self.step(node, walk, left, ctx);
        }
    }

    fn on_receive(&mut self, node: NodeId, inbox: &[Envelope<MhMsg>], ctx: &mut Ctx<'_, MhMsg>) {
        for env in inbox {
            if let MhMsg::Token { walk, left } = env.msg {
                self.step(node, walk, left, ctx);
            }
        }
    }
}

/// Runs one MH walk and returns `(destination, rounds)`.
///
/// # Errors
///
/// Propagates engine errors.
pub fn metropolis_walk(
    g: &Graph,
    weights: Vec<f64>,
    source: NodeId,
    len: u64,
    seed: u64,
) -> Result<(NodeId, u64), RunError> {
    let mut p = MetropolisWalkProtocol::new(weights, vec![(source, len)]);
    let report = drw_congest::run_protocol(g, &drw_congest::EngineConfig::default(), seed, &mut p)?;
    Ok((p.destinations()[0], report.rounds))
}

/// Exact `t`-step distribution of the MH chain (centralized ground
/// truth).
pub fn mh_distribution(g: &Graph, weights: &[f64], source: NodeId, t: u64) -> Vec<f64> {
    assert_eq!(weights.len(), g.n());
    let mut p = vec![0.0; g.n()];
    p[source] = 1.0;
    for _ in 0..t {
        let mut next = vec![0.0; g.n()];
        for u in 0..g.n() {
            if p[u] == 0.0 {
                continue;
            }
            let deg_u = g.degree(u) as f64;
            let mut stay = 0.0;
            for v in g.neighbors(u) {
                let a = ((weights[v] * deg_u) / (weights[u] * g.degree(v) as f64)).min(1.0);
                next[v] += p[u] * a / deg_u;
                stay += (1.0 - a) / deg_u;
            }
            next[u] += p[u] * stay;
        }
        p = next;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::generators;
    use drw_stats::chi2::chi_square_against_probs;

    #[test]
    fn uniform_target_samples_uniformly_on_irregular_graph() {
        // The whole point of MH: uniform node sampling despite skewed
        // degrees (the simple walk would oversample the hub by 9x).
        let g = generators::star(8);
        let weights = vec![1.0; g.n()];
        let len = 60u64;
        let mut counts = vec![0u64; g.n()];
        for seed in 0..4000 {
            let (d, _) = metropolis_walk(&g, weights.clone(), 1, len, seed).unwrap();
            counts[d] += 1;
        }
        let probs = mh_distribution(&g, &weights, 1, len);
        let t = chi_square_against_probs(&counts, &probs);
        assert!(t.passes(0.001), "{t:?}");
        // And the exact MH distribution itself is ~uniform by then.
        let uniform = 1.0 / g.n() as f64;
        for &p in &probs {
            assert!((p - uniform).abs() < 0.02, "p = {p}");
        }
    }

    #[test]
    fn degenerates_to_simple_walk_on_regular_graphs() {
        // On a regular graph with uniform weights, every proposal is
        // accepted: the MH kernel equals the simple kernel.
        let g = generators::cycle(9);
        let weights = vec![1.0; g.n()];
        let mh = mh_distribution(&g, &weights, 0, 21);
        let simple = crate::exact::exact_distribution(&g, 0, 21);
        for (a, b) in mh.iter().zip(&simple) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rounds_equal_length_with_stays() {
        // Each step costs one round, moved or held.
        let g = generators::star(6);
        let (_, rounds) = metropolis_walk(&g, vec![1.0; 6], 0, 40, 3).unwrap();
        assert_eq!(rounds, 40);
    }

    #[test]
    fn zero_length_walk_stays_home() {
        let g = generators::path(4);
        let (d, rounds) = metropolis_walk(&g, vec![1.0; 4], 2, 0, 1).unwrap();
        assert_eq!(d, 2);
        assert_eq!(rounds, 0);
    }

    #[test]
    fn skewed_target_is_respected() {
        // Target proportional to node id + 1 on a complete graph: the
        // exact MH distribution converges to it.
        let g = generators::complete(5);
        let weights: Vec<f64> = (0..5).map(|v| (v + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let p = mh_distribution(&g, &weights, 0, 400);
        for (v, &pv) in p.iter().enumerate() {
            let target = weights[v] / total;
            assert!((pv - target).abs() < 1e-6, "node {v}: {pv} vs {target}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_weights_rejected() {
        let _ = MetropolisWalkProtocol::new(vec![1.0, 0.0], vec![(0, 1)]);
    }
}
