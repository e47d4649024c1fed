//! Phase 1: every node launches short walks of random length.
//!
//! Each node `v` creates `counts[v]` tokens. Token `i` carries its source,
//! a sequence number, and a target length `lambda + r_i` with `r_i`
//! uniform in `[0, lambda - 1]` — the randomized lengths are the paper's
//! key device against periodic connector pile-ups (Lemma 2.7; ablation A1
//! switches them off to show why). Tokens move one uniformly random hop
//! per round; the engine's per-edge queues realize the congestion
//! schedule whose length Lemma 2.1 bounds by `O(lambda * eta * log n)`
//! w.h.p.
//!
//! Every forwarding decision is logged into the receiving node's
//! [`NodeWalkState::forward`] so the stitched walk can later be
//! *regenerated* ([`crate::stitch_scheduler`]), and every finished token
//! is stored at its endpoint — "only the destination of each of these walks
//! is aware of its source" (Section 2.1).
//!
//! This is the simulator's hottest protocol (every token draws from its
//! node's RNG every round), so it implements
//! [`drw_congest::NodeLocalProtocol`]: its receive phase touches only
//! the receiving node's [`NodeWalkState`], which lets the engine's
//! parallel executor shard nodes across threads with bit-identical
//! results.

use crate::state::{NodeWalkState, WalkId, WalkState};
use drw_congest::{Ctx, Envelope, Message, NodeCtx, NodeLocalProtocol};
use drw_graph::NodeId;
use rand::Rng;

/// A short-walk token in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortWalkMsg {
    /// Walk source.
    pub source: u32,
    /// Per-source sequence number.
    pub seq: u32,
    /// Step index of the *receiving* node (the receiver is the `step`-th
    /// node of the walk, 0-indexed).
    pub step: u32,
    /// Total walk length.
    pub total: u32,
}

impl Message for ShortWalkMsg {
    fn size_words(&self) -> usize {
        4
    }

    fn census(&self, census: &mut drw_congest::WireCensus) {
        let _ = census
            .record("ShortWalkMsg", self.size_words())
            .field("source", u64::from(self.source))
            .field("seq", u64::from(self.seq))
            .field("step", u64::from(self.step))
            .field("total", u64::from(self.total));
    }
}

/// Phase-1 protocol: launches `counts[v]` short walks from every node `v`.
///
/// Also used (with a single nonzero count) as the *per-token* variant of
/// `GET-MORE-WALKS`, which preserves replayability at the cost of
/// congestion.
#[derive(Debug)]
pub struct ShortWalksProtocol<'s> {
    state: &'s mut WalkState,
    counts: Vec<usize>,
    lambda: u32,
    randomize_len: bool,
}

impl<'s> ShortWalksProtocol<'s> {
    /// Creates the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `lambda == 0`.
    pub fn new(
        state: &'s mut WalkState,
        counts: Vec<usize>,
        lambda: u32,
        randomize_len: bool,
    ) -> Self {
        assert!(lambda >= 1, "lambda must be at least 1");
        ShortWalksProtocol {
            state,
            counts,
            lambda,
            randomize_len,
        }
    }

    /// Deficit-only replenishment mode: node `v` launches only
    /// `max(0, targets[v] - outstanding[v])` fresh walks, where
    /// `outstanding[v]` counts `v`-launched walks still unused anywhere
    /// in the store ([`WalkState::outstanding_by_source`]). Existing
    /// per-node stores are *extended*, never rebuilt, so a top-up over a
    /// full store launches nothing and costs zero rounds — the session's
    /// amortization primitive (walks are priced only when actually
    /// added).
    ///
    /// # Panics
    ///
    /// Panics if `lambda == 0` or `targets.len()` mismatches the state.
    pub fn top_up(
        state: &'s mut WalkState,
        targets: &[usize],
        lambda: u32,
        randomize_len: bool,
    ) -> Self {
        assert_eq!(targets.len(), state.nodes.len(), "one target per node");
        let outstanding = state.outstanding_by_source();
        let counts: Vec<usize> = targets
            .iter()
            .zip(&outstanding)
            .map(|(&t, &o)| t.saturating_sub(o))
            .collect();
        Self::new(state, counts, lambda, randomize_len)
    }

    /// Number of walks this run will launch (after any deficit
    /// computation).
    pub fn planned(&self) -> usize {
        self.counts.iter().sum()
    }
}

impl NodeLocalProtocol for ShortWalksProtocol<'_> {
    type Msg = ShortWalkMsg;
    type Shared = ();
    type NodeState = NodeWalkState;

    fn start(&mut self, ctx: &mut Ctx<'_, ShortWalkMsg>) {
        let n = ctx.graph().n();
        assert_eq!(self.counts.len(), n, "one count per node required");

        // Pre-reserve forwarding-log capacity from the graph's degree
        // stats: a walk's steps land on nodes proportionally to degree
        // (the simple walk's stationary law), so node `v` expects
        // `total_steps * deg(v) / (2m)` log entries. Reserving that up
        // front (with ~5% slack) replaces doubling growth — whose
        // high-water capacity can be 2x the need — with a near-exact
        // allocation, which is most of the measured bytes-per-node win.
        let planned: u64 = self.counts.iter().map(|&c| c as u64).sum();
        if planned > 0 {
            // Expected token length: `lambda` fixed, `~1.5 * lambda`
            // when lengths are randomized over `[lambda, 2*lambda)`.
            let expected_len = if self.randomize_len {
                self.lambda as u64 + (self.lambda as u64 - 1) / 2
            } else {
                self.lambda as u64
            };
            let total_steps = planned * expected_len;
            let dir_edges = ctx.graph().dir_edge_count() as u64;
            for v in 0..n {
                let degree_share = total_steps * ctx.graph().degree(v) as u64;
                if let Some(expect) = degree_share.checked_div(dir_edges) {
                    self.state.nodes[v].reserve_forward((expect + expect / 20 + 1) as usize);
                }
            }
        }

        for v in 0..n {
            let count = self.counts[v];
            if count == 0 {
                continue;
            }
            assert!(
                ctx.graph().degree(v) > 0,
                "node {v} cannot walk: no neighbors"
            );
            let first_seq = self.state.alloc_seqs(v, count);
            for i in 0..count {
                let seq = first_seq + i as u32;
                let r = if self.randomize_len {
                    ctx.rng(v).random_range(0..self.lambda)
                } else {
                    0
                };
                let total = self.lambda + r;
                let (hop, _) = ctx.send_random_neighbor_hop(
                    v,
                    ShortWalkMsg {
                        source: v as u32,
                        seq,
                        step: 1,
                        total,
                    },
                );
                self.state.nodes[v].log_forward_hop(v as u32, seq, 0, hop);
            }
        }
    }

    fn parts(&mut self) -> (&(), &mut [NodeWalkState]) {
        (&(), &mut self.state.nodes)
    }

    fn on_receive_local(
        _shared: &(),
        state: &mut NodeWalkState,
        _node: NodeId,
        inbox: &[Envelope<ShortWalkMsg>],
        ctx: &mut NodeCtx<'_, ShortWalkMsg>,
    ) {
        for env in inbox {
            let m = &env.msg;
            if m.step == m.total {
                state.store_walk(
                    WalkId {
                        source: m.source,
                        seq: m.seq,
                    },
                    m.total,
                    true,
                );
            } else {
                let (hop, _) = ctx.send_random_neighbor_hop(ShortWalkMsg {
                    source: m.source,
                    seq: m.seq,
                    step: m.step + 1,
                    total: m.total,
                });
                state.log_forward_hop(m.source, m.seq, m.step, hop);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_congest::{run_node_local, EngineConfig};
    use drw_graph::generators;

    fn run_phase1(
        g: &drw_graph::Graph,
        counts: Vec<usize>,
        lambda: u32,
        randomize: bool,
        seed: u64,
    ) -> (WalkState, u64) {
        let mut state = WalkState::new(g.n());
        let mut p = ShortWalksProtocol::new(&mut state, counts, lambda, randomize);
        let report = run_node_local(g, &EngineConfig::default(), seed, &mut p).unwrap();
        (state, report.rounds)
    }

    #[test]
    fn every_walk_is_stored_once() {
        let g = generators::torus2d(5, 5);
        let counts: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
        let total: usize = counts.iter().sum();
        let (state, _) = run_phase1(&g, counts, 8, true, 3);
        assert_eq!(state.total_stored(), total);
    }

    #[test]
    fn lengths_are_in_range() {
        let g = generators::complete(10);
        let lambda = 5;
        let (state, _) = run_phase1(&g, vec![4; 10], lambda, true, 5);
        for ns in &state.nodes {
            for w in &ns.store {
                assert!(w.len >= lambda && w.len < 2 * lambda, "len = {}", w.len);
                assert!(w.replayable);
            }
        }
    }

    #[test]
    fn fixed_lengths_when_not_randomized() {
        let g = generators::complete(8);
        let (state, _) = run_phase1(&g, vec![3; 8], 6, false, 5);
        for ns in &state.nodes {
            for w in &ns.store {
                assert_eq!(w.len, 6);
            }
        }
    }

    #[test]
    fn random_lengths_are_roughly_uniform() {
        // Statistical check with a fixed seed: chi-square over [lambda, 2*lambda).
        let g = generators::complete(20);
        let lambda = 8u32;
        let (state, _) = run_phase1(&g, vec![40; 20], lambda, true, 7);
        let mut counts = vec![0u64; lambda as usize];
        for ns in &state.nodes {
            for w in &ns.store {
                counts[(w.len - lambda) as usize] += 1;
            }
        }
        let test = drw_stats::chi_square_uniform(&counts);
        assert!(test.passes(0.001), "{test:?}");
    }

    #[test]
    fn forward_log_traces_every_walk_to_its_endpoint() {
        let g = generators::torus2d(4, 4);
        let counts = vec![2; g.n()];
        let (state, _) = run_phase1(&g, counts, 6, true, 9);
        assert_eq!(state.replay_store_centrally(&g), 2 * g.n());
    }

    #[test]
    fn reclaimed_logs_still_trace_every_stored_walk() {
        // A session that consumed, upgraded its regime and repaired: its
        // logs have forgotten every dead walk (and restarted sequence
        // numbers) several times over, and every walk still stored must
        // replay to its storage node on the graph it is served on.
        use crate::{SingleWalkConfig, WalkSession};
        use drw_graph::{Topology, TopologyDelta};
        let topo = Topology::new(generators::torus2d(6, 6));
        let cfg = SingleWalkConfig {
            record_walk: true, // per-token GET-MORE-WALKS: all replayable
            ..SingleWalkConfig::default()
        };
        let mut s = WalkSession::attach(&topo, 0, &cfg, 21).unwrap();
        let (mut shrunk, mut evicted, mut at) = (0, 0, 0);
        for i in 0..24u64 {
            let before = s.state().forward_entries();
            if i % 5 == 3 {
                let delta = if i % 10 == 3 {
                    TopologyDelta::new().add_edge(0, 14)
                } else {
                    TopologyDelta::new().remove_edge(0, 14)
                };
                let _ = topo.apply(&delta).unwrap();
                evicted += s.sync().unwrap().walks_evicted;
            } else {
                // Short walks, one long walk that upgrades the regime,
                // then walks long enough to stitch in the new one.
                let len = match i {
                    0..=8 => 256,
                    9 => 4096,
                    _ => 1024,
                };
                at = s.single_walk(at, len).unwrap().destination;
            }
            shrunk += usize::from(s.state().forward_entries() < before);
            let stored = s.state().total_stored();
            assert_eq!(s.state().replay_store_centrally(&s.graph()), stored);
        }
        assert!(evicted > 0, "the deltas evicted stored walks");
        assert!(s.walks_discarded() > 0, "the long walk upgraded the regime");
        assert!(shrunk >= 5, "logs were reclaimed {shrunk} times");
    }

    #[test]
    fn compact_state_beats_the_legacy_layout() {
        // The per-PR acceptance measurement in miniature: a forward-heavy
        // Phase-1 run must land well under the legacy layout's bytes.
        let g = generators::torus2d(10, 10);
        let counts: Vec<usize> = (0..g.n()).map(|v| g.degree(v)).collect();
        let (state, _) = run_phase1(&g, counts, 24, true, 11);
        let m = state.memory_report();
        assert!(
            m.ratio_vs_legacy() <= 0.60,
            "bytes ratio vs legacy = {:.3} (memory = {m:?})",
            m.ratio_vs_legacy()
        );
    }

    #[test]
    fn rounds_scale_with_lambda_and_eta() {
        let g = generators::torus2d(5, 5);
        let (_, r1) = run_phase1(&g, vec![1; g.n()], 8, true, 1);
        let (_, r2) = run_phase1(&g, vec![1; g.n()], 32, true, 1);
        assert!(r2 > r1, "longer walks take more rounds ({r1} vs {r2})");
        // With one walk per node on a regular graph congestion is mild:
        // rounds should be O(lambda * polylog), far below lambda * n.
        assert!(r2 < 32 * 20, "rounds = {r2}");
    }

    #[test]
    fn top_up_launches_only_the_deficit() {
        let g = generators::torus2d(4, 4);
        let targets = vec![3usize; g.n()];
        let mut state = WalkState::new(g.n());
        // First top-up over an empty store: launches everything.
        let mut p = ShortWalksProtocol::top_up(&mut state, &targets, 6, true);
        assert_eq!(p.planned(), 3 * g.n());
        run_node_local(&g, &EngineConfig::default(), 2, &mut p).unwrap();
        assert_eq!(state.total_stored(), 3 * g.n());

        // Full store: deficit is zero everywhere, zero rounds.
        let mut p = ShortWalksProtocol::top_up(&mut state, &targets, 6, true);
        assert_eq!(p.planned(), 0);
        let report = run_node_local(&g, &EngineConfig::default(), 3, &mut p).unwrap();
        assert_eq!(report.rounds, 0);
        assert_eq!(state.total_stored(), 3 * g.n());

        // Consume two walks launched by node 5; only node 5 replenishes.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut taken = 0;
        for v in 0..g.n() {
            while taken < 2 && state.nodes[v].count_from(5) > 0 {
                state.nodes[v].take_uniform_from(5, &mut rng).unwrap();
                taken += 1;
            }
        }
        assert_eq!(taken, 2);
        let mut p = ShortWalksProtocol::top_up(&mut state, &targets, 6, true);
        assert_eq!(p.planned(), 2);
        run_node_local(&g, &EngineConfig::default(), 4, &mut p).unwrap();
        assert_eq!(state.total_stored(), 3 * g.n());
        assert_eq!(state.outstanding_by_source(), vec![3; g.n()]);
    }

    #[test]
    fn zero_counts_do_nothing() {
        let g = generators::path(4);
        let (state, rounds) = run_phase1(&g, vec![0; 4], 4, true, 1);
        assert_eq!(state.total_stored(), 0);
        assert_eq!(rounds, 0);
    }

    #[test]
    fn sequential_and_sharded_backends_agree_exactly() {
        // The determinism contract, exercised at the protocol level: the
        // same seed must produce identical stores, forward logs and
        // reports on both executors. 2048 tokens over 1024 directed
        // edges keep the early rounds heavy enough to shard.
        let g = generators::torus2d(16, 16);
        let counts: Vec<usize> = (0..g.n()).map(|v| 2 * g.degree(v)).collect();
        let mut seq_state = WalkState::new(g.n());
        let mut par_state = WalkState::new(g.n());
        let seq_cfg = EngineConfig::default();
        let par_cfg = EngineConfig::default().with_workers(2);
        let mut p_seq = ShortWalksProtocol::new(&mut seq_state, counts.clone(), 16, true);
        let r_seq = run_node_local(&g, &seq_cfg, 42, &mut p_seq).unwrap();
        let mut p_par = ShortWalksProtocol::new(&mut par_state, counts, 16, true);
        let r_par = run_node_local(&g, &par_cfg, 42, &mut p_par).unwrap();
        assert_eq!(r_seq, r_par, "reports must be bit-identical");
        let balance = r_par.balance.as_ref().expect("sharded runs record balance");
        assert!(balance.rounds_measured > 0, "never sharded: {balance:?}");
        for v in 0..g.n() {
            assert_eq!(
                seq_state.nodes[v].store, par_state.nodes[v].store,
                "store at {v}"
            );
            assert_eq!(
                seq_state.nodes[v].forward, par_state.nodes[v].forward,
                "forward at {v}"
            );
        }
    }
}
