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
//! Every node a token reaches after its source logs the port it arrived
//! by into its [`crate::state::NodeWalkState::forward`], so the stitched
//! walk can later be *regenerated* backwards from the node that takes it
//! ([`crate::stitch_scheduler`]), and every
//! finished token is stored at its endpoint — "only the destination of
//! each of these walks is aware of its source" (Section 2.1).
//!
//! This is the simulator's hottest protocol (every token draws from its
//! node's RNG every round). Its receive handler touches only the
//! receiving node's [`crate::state::NodeWalkState`] and acts through a
//! node-scoped [`drw_congest::NodeCtx`], so it can reach no other node's
//! state or randomness; `drw-analyze`'s interleaving checker runs it
//! under scripted handler orders to measure that no order shows through.

use crate::state::{NodeWalkState, WalkId, WalkState};
use drw_congest::{Ctx, Envelope, Message, NodeCtx, Protocol, WireReader, WireSink};
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
    fn encode(&self, w: &mut impl WireSink) {
        w.word("source", self.source.into());
        w.word("seq", self.seq.into());
        w.word("step", self.step.into());
        w.word("total", self.total.into());
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(ShortWalkMsg {
            source: r.read()?,
            seq: r.read()?,
            step: r.read()?,
            total: r.read()?,
        })
    }
}

/// Phase-1 protocol: launches `counts[v]` short walks from every node `v`.
///
/// Its token (`launch`, `step`) is also Phase 2's `GET-MORE-WALKS`,
/// which replenishes a drained connector with walks stored like these.
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
    /// `max(0, targets[v] - unused[v])` fresh walks, where `unused[v]`
    /// counts the entries of `v`'s ledger, its walks still unused
    /// anywhere in the store ([`crate::state::Ledger`]). Existing
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
        let counts: Vec<usize> = (targets.iter().zip(&state.nodes))
            .map(|(&t, ns)| t.saturating_sub(ns.unused().len()))
            .collect();
        Self::new(state, counts, lambda, randomize_len)
    }

    /// Number of walks this run will launch (after any deficit
    /// computation).
    pub fn planned(&self) -> usize {
        self.counts.iter().sum()
    }
}

impl Protocol for ShortWalksProtocol<'_> {
    type Msg = ShortWalkMsg;

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
            let ledger = self.state.nodes[v].ledger_mut();
            let first = ledger.alloc_seqs(count);
            let length = (self.lambda, self.randomize_len);
            let walks = first..first + count as u32;
            launch(&mut ctx.at(v), walks, length, &mut ledger.unused, |m| m);
        }
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        inbox: &[Envelope<ShortWalkMsg>],
        ctx: &mut Ctx<'_, ShortWalkMsg>,
    ) {
        let state = &mut self.state.nodes[node];
        let mut ctx = ctx.at(node);
        for env in inbox {
            step(state, &mut ctx, &env.msg, env.from, |m| m);
        }
    }
}

/// Launches the short walks `seqs` from the context's node, their
/// source: per walk its length — `lambda` plus a uniform draw from
/// `0..lambda` when `randomize_len` — noted as `(seq, len)` in `into`,
/// then its first hop. `wrap` puts a token on the caller's wire. The
/// source logs nothing: it is step 0, which no arrival reaches.
pub(crate) fn launch<M: Message>(
    ctx: &mut NodeCtx<'_, M>,
    seqs: std::ops::Range<u32>,
    (lambda, randomize_len): (u32, bool),
    into: &mut Vec<(u32, u32)>,
    wrap: impl Fn(ShortWalkMsg) -> M,
) {
    let source = ctx.node() as u32;
    for seq in seqs {
        let mut total = lambda;
        if randomize_len {
            total += ctx.rng().random_range(0..lambda);
        }
        into.push((seq, total));
        let token = ShortWalkMsg {
            source,
            seq,
            step: 1,
            total,
        };
        ctx.send_random_neighbor(wrap(token));
    }
}

/// Moves token `t`, arrived from `from`, at its `t.step`-th node, the
/// context's: logs the port it arrived by, then stores the walk here if
/// it ends here, else sends it one uniformly random hop on. Returns
/// whether the walk ended.
#[inline(always)]
pub(crate) fn step<M: Message>(
    ws: &mut NodeWalkState,
    ctx: &mut NodeCtx<'_, M>,
    t: &ShortWalkMsg,
    from: NodeId,
    wrap: impl FnOnce(ShortWalkMsg) -> M,
) -> bool {
    let ports = ctx.graph().neighbor_slice(ctx.node());
    let port = ports.binary_search(&(from as u32));
    let port = port.expect("a token arrives over an edge") as u32;
    ws.log_arrival(t.source, t.seq, t.step, port);
    if t.step == t.total {
        let id = WalkId {
            source: t.source,
            seq: t.seq,
        };
        ws.store_walk(id, t.total);
        return true;
    }
    ctx.send_random_neighbor(wrap(ShortWalkMsg {
        step: t.step + 1,
        ..*t
    }));
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_congest::{run_protocol, EngineConfig};
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
        let report = run_protocol(g, &EngineConfig::default(), seed, &mut p).unwrap();
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

    /// A session that consumes, upgrades its regime (discarding),
    /// repairs (evicting), reclaims its logs and re-launches, calling
    /// `check` on its state after each of 24 steps.
    fn churned_session(mut check: impl FnMut(&WalkState, &drw_graph::Graph)) {
        use crate::{SingleWalkConfig, WalkSession};
        use drw_graph::{Topology, TopologyDelta};
        let topo = Topology::new(generators::torus2d(6, 6));
        let mut s = WalkSession::attach(&topo, 0, &SingleWalkConfig::default(), 21).unwrap();
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
            check(s.state(), &s.graph());
        }
        assert!(evicted > 0, "the deltas evicted stored walks");
        assert!(s.walks_discarded() > 0, "the long walk upgraded the regime");
        assert!(shrunk >= 5, "logs were reclaimed {shrunk} times");
        assert!(s.topups() > 2, "the store was re-launched");
    }

    #[test]
    fn reclaimed_logs_still_trace_every_stored_walk() {
        // The session's logs have forgotten every dead walk (and
        // restarted sequence numbers) several times over, and every walk
        // still stored must replay to its storage node on the graph it
        // is served on.
        churned_session(|state, g| {
            assert_eq!(state.replay_store_centrally(g), state.total_stored());
        });
    }

    #[test]
    fn every_ledger_lists_exactly_its_stored_walks_through_churn() {
        churned_session(|state, _| {
            assert_eq!(state.ledger_mismatch(), None, "ledgers and stores disagree");
        });
    }

    #[test]
    #[should_panic(expected = "ledgers and stores disagree")]
    fn an_eviction_that_skips_the_ledgers_shows_in_a_churned_session() {
        // Planted bug: eviction leaves the ledgers alone. The check after
        // the first repair sees it (left alone, a stitch would later claim
        // an evicted walk and stall).
        crate::state::SKIP_LEDGER_EVICTION.set(true);
        every_ledger_lists_exactly_its_stored_walks_through_churn();
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
        run_protocol(&g, &EngineConfig::default(), 2, &mut p).unwrap();
        assert_eq!(state.total_stored(), 3 * g.n());

        // Full store: deficit is zero everywhere, zero rounds.
        let mut p = ShortWalksProtocol::top_up(&mut state, &targets, 6, true);
        assert_eq!(p.planned(), 0);
        let report = run_protocol(&g, &EngineConfig::default(), 3, &mut p).unwrap();
        assert_eq!(report.rounds, 0);
        assert_eq!(state.total_stored(), 3 * g.n());

        // Consume two walks launched by node 5; only node 5 replenishes.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..2 {
            let ledger = state.nodes[5].ledger.as_mut().expect("node 5 launched");
            let (seq, _) = ledger.draw(u32::MAX, &mut rng).expect("unused walks");
            let id = WalkId { source: 5, seq };
            assert_eq!(
                state.nodes.iter_mut().filter_map(|ns| ns.take(id)).count(),
                1
            );
        }
        let mut p = ShortWalksProtocol::top_up(&mut state, &targets, 6, true);
        assert_eq!(p.planned(), 2);
        run_protocol(&g, &EngineConfig::default(), 4, &mut p).unwrap();
        assert_eq!(state.total_stored(), 3 * g.n());
        assert!(state.nodes.iter().all(|ns| ns.unused().len() == 3));
        assert_eq!(state.ledger_mismatch(), None);
    }

    #[test]
    fn zero_counts_do_nothing() {
        let g = generators::path(4);
        let (state, rounds) = run_phase1(&g, vec![0; 4], 4, true, 1);
        assert_eq!(state.total_stored(), 0);
        assert_eq!(rounds, 0);
    }
}
