//! Property-based tests of the core invariants, on arbitrary connected
//! graphs, seeds and walk lengths.

use distributed_random_walks::prelude::*;
use drw_graph::{matrix_tree, traversal};
use drw_lowerbound::IntervalSet;
use proptest::prelude::*;

/// An arbitrary connected graph: a random path through all nodes (for
/// connectivity) plus arbitrary extra edges.
fn connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..=max_n)
        .prop_flat_map(|n| {
            let extra = proptest::collection::vec((0..n, 0..n), 0..3 * n);
            (
                Just(n),
                proptest::sample::subsequence((0..n).collect::<Vec<_>>(), n),
                extra,
            )
        })
        .prop_map(|(n, order, extra)| {
            let mut b = GraphBuilder::new(n);
            for w in order.windows(2) {
                b.add_edge(w[0], w[1]);
            }
            // `subsequence` of the full range is the identity permutation;
            // chain consecutive ids as the guaranteed backbone.
            for i in 1..n {
                b.add_edge(i - 1, i);
            }
            for (u, v) in extra {
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.build().expect("valid edges")
        })
}

/// The short walks a one-shot `len`-step walk's Phase 1 launches at
/// base length `lambda`: none unless it stitches (`len >= 2 * lambda`),
/// and otherwise, for stitch demand `S = ceil(len / lambda)`, node `v`
/// with weight `w(v)` (its degree, or 1 under flat allocation) launches
/// `min(ceil(eta * w(v)), ceil(mu + 2 sqrt(mu)))`, where
/// `mu = w(v) * S / W` and `W` is the weight total.
fn provisioned(g: &Graph, cfg: &SingleWalkConfig, len: u64, lambda: u64) -> u64 {
    if len < 2 * lambda {
        return 0;
    }
    let demand = len.div_ceil(lambda) as f64;
    let weight = |v| {
        if cfg.degree_proportional {
            g.degree(v)
        } else {
            1
        }
    };
    let total: usize = (0..g.n()).map(weight).sum();
    (0..g.n())
        .map(|v| {
            let w = weight(v);
            let full = cfg.params.walks_for_degree(w) as u64;
            let mu = w as f64 * demand / total as f64;
            full.min((mu + 2.0 * mu.sqrt()).ceil() as u64)
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recorded stitched walk is always a valid trajectory of exactly
    /// `len` edges from the source to the reported destination.
    #[test]
    fn stitched_walk_is_always_a_valid_trajectory(
        g in connected_graph(14),
        len in 1u64..300,
        seed in 0u64..1000,
    ) {
        let source = seed as usize % g.n();
        let mut net = Network::builder(&g).seed(seed).build();
        let recorded = Request::Walk { source, len, record: true };
        let r = net.run(recorded).unwrap().into_walk();
        let walk = r.state.reconstruct_walk(len);
        prop_assert_eq!(walk.len() as u64, len + 1);
        prop_assert_eq!(walk[0], source);
        prop_assert_eq!(*walk.last().unwrap(), r.destination);
        for w in walk.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
    }

    /// Every stitched segment length lies in [lambda, 2*lambda) and the
    /// segments chain head-to-tail.
    #[test]
    fn segments_chain_with_bounded_lengths(
        g in connected_graph(12),
        seed in 0u64..1000,
    ) {
        let len = 200u64;
        let source = seed as usize % g.n();
        let mut net = Network::builder(&g).seed(seed).build();
        let r = net.run(Request::walk(source, len)).unwrap().into_walk();
        let mut at = source;
        let mut pos = 0u64;
        for seg in &r.segments {
            prop_assert_eq!(seg.connector, at);
            prop_assert_eq!(seg.start_pos, pos);
            prop_assert!(seg.len >= r.lambda && seg.len < 2 * r.lambda);
            at = seg.owner;
            pos += seg.len as u64;
        }
        prop_assert!(len - pos < 2 * r.lambda as u64);
    }

    /// The distributed BFS tree always matches centralized BFS distances.
    #[test]
    fn distributed_bfs_matches_centralized(
        g in connected_graph(16),
        seed in 0u64..100,
    ) {
        use drw_congest::primitives::BfsTreeProtocol;
        let root = seed as usize % g.n();
        let mut p = BfsTreeProtocol::new(root);
        drw_congest::run_protocol(&g, &EngineConfig::default(), seed, &mut p).unwrap();
        let tree = p.into_tree();
        let dist = traversal::bfs_distances(&g, root);
        prop_assert_eq!(tree.dist, dist);
    }

    /// The distributed RST always outputs a spanning tree.
    #[test]
    fn rst_always_spans(
        g in connected_graph(10),
        seed in 0u64..200,
    ) {
        let mut net = Network::builder(&g).seed(seed).build();
        let r = net.run(Request::spanning_tree(0)).unwrap().into_tree();
        prop_assert!(matrix_tree::is_spanning_tree(&g, &r.edges));
    }

    /// Interval-set inserts are idempotent and monotone in coverage.
    #[test]
    fn interval_set_algebra(
        ops in proptest::collection::vec((1u64..60, 0u64..10), 1..40),
    ) {
        let mut s = IntervalSet::new();
        for &(lo, width) in &ops {
            s.insert(lo, lo + width);
            // Idempotent: re-inserting is a no-op.
            let before = s.segments().to_vec();
            prop_assert!(s.insert(lo, lo + width).is_none());
            prop_assert_eq!(s.segments(), &before[..]);
        }
        // Every inserted interval is covered.
        for &(lo, width) in &ops {
            prop_assert!(s.contains(lo, lo + width));
        }
        // Segments are sorted and strictly non-overlapping.
        for w in s.segments().windows(2) {
            prop_assert!(w[0].1 < w[1].0);
        }
    }

    /// Graph builder round-trip: `edges()` returns exactly the
    /// deduplicated normalized input.
    #[test]
    fn graph_builder_round_trip(
        n in 2usize..20,
        raw in proptest::collection::vec((0usize..20, 0usize..20), 0..60),
    ) {
        let mut expected: Vec<(usize, usize)> = raw
            .iter()
            .filter(|&&(u, v)| u != v && u < n && v < n)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let g = Graph::from_edges(n, expected.iter().copied()).unwrap();
        let got: Vec<(usize, usize)> = g.edges().collect();
        prop_assert_eq!(got, expected);
    }

    /// Walk parity on bipartite graphs survives the full distributed
    /// pipeline: an even-length walk on an even cycle stays on the
    /// source's parity class.
    #[test]
    fn parity_preserved_on_even_cycles(
        half in 2usize..12,
        seed in 0u64..300,
    ) {
        let g = generators::cycle(2 * half);
        let len = 2 * (seed % 100 + 10);
        let mut net = Network::builder(&g).seed(seed).build();
        let r = net.run(Request::walk(0, len)).unwrap().into_walk();
        prop_assert_eq!(r.destination % 2, 0);
    }

    /// ARQ-healed faults never lose a message for good: a BFS wave
    /// under an arbitrary seeded drop+delay+reorder plan still reaches
    /// every node (eventual delivery — `into_tree` panics otherwise)
    /// with a structurally valid tree, and every one of its messages —
    /// one per directed edge — is delivered exactly once.
    ///
    /// Distances are *not* compared against centralized BFS here:
    /// delays legally let a longer path's wave arrive first, which
    /// costs tree depth, never correctness.
    #[test]
    fn healed_faults_eventually_deliver_every_message(
        g in connected_graph(16),
        seed in 0u64..200,
        drop_pm in 0u16..200,
        delay_pm in 0u16..200,
        reorder_pm in 0u16..200,
    ) {
        use drw_congest::primitives::BfsTreeProtocol;
        use drw_congest::FaultPlan;
        let plan = FaultPlan::new(seed)
            .with_drops(drop_pm)
            .with_delays(delay_pm, 2)
            .with_reorder(reorder_pm);
        let cfg = EngineConfig::default().with_faults(plan);
        let root = seed as usize % g.n();
        let mut p = BfsTreeProtocol::new(root);
        let report = drw_congest::run_protocol(&g, &cfg, seed, &mut p).unwrap();
        let tree = p.into_tree();
        prop_assert_eq!(tree.dist[root], 0);
        for v in 0..g.n() {
            if v == root {
                prop_assert!(tree.parent[v].is_none());
                continue;
            }
            let parent = tree.parent[v].expect("non-root nodes have parents");
            prop_assert!(g.has_edge(parent, v), "parent link {parent}-{v} not an edge");
            prop_assert_eq!(tree.dist[v], tree.dist[parent] + 1);
        }
        // One BFS message per directed edge, each delivered exactly once
        // however often its transmissions dropped: a healed drop that is
        // not parked for retransmission reads below this.
        prop_assert_eq!(report.messages, g.dir_edge_count() as u64);
        if !plan.is_active() {
            prop_assert_eq!(report.faults.total(), 0);
        }
    }

    /// The full walk pipeline under seeded drop+delay+reorder plans
    /// (ARQ-healed): every walk token is eventually delivered — the
    /// batched driver terminates with exactly-`len` walks whose
    /// segments chain head-to-tail — and the short-walk store balances
    /// exactly (initial + GET-MORE-WALKS creations - consumptions).
    #[test]
    fn walks_survive_seeded_fault_plans_with_store_conservation(
        g in connected_graph(12),
        seed in 0u64..300,
        drop_pm in 0u16..100,
        delay_pm in 0u16..100,
    ) {
        use drw_congest::FaultPlan;
        let len = 160u64;
        let plan = FaultPlan::new(seed ^ 0xFA)
            .with_drops(drop_pm)
            .with_delays(delay_pm, 3)
            .with_reorder(60);
        let cfg = SingleWalkConfig {
            params: WalkParams { lambda_scale: 0.3, eta: 1.0 },
            engine: EngineConfig::default().with_faults(plan),
            ..SingleWalkConfig::default()
        };
        let sources: Vec<usize> = (0..3).map(|i| (seed as usize + i * 5) % g.n()).collect();
        let mut net = Network::builder(&g).config(cfg.clone()).seed(seed).build();
        let r = net.run(Request::many_walks(sources.clone(), len)).unwrap().into_many_walks();
        prop_assert_eq!(r.destinations.len(), sources.len());
        if !r.used_naive_fallback {
            let lambda = r.lambda as u64;
            let mut consumed = 0u64;
            for (w, segs) in r.segments.iter().enumerate() {
                let mut at = sources[w];
                let mut pos = 0u64;
                for seg in segs {
                    prop_assert_eq!(seg.connector, at, "walk {} chain break", w);
                    prop_assert_eq!(seg.start_pos, pos, "walk {} position gap", w);
                    at = seg.owner;
                    pos += u64::from(seg.len);
                }
                prop_assert!(len - pos < 2 * lambda, "walk {} tail too long", w);
                consumed += segs.len() as u64;
            }
            let initial: u64 = (0..g.n())
                .map(|v| cfg.params.walks_for_degree(g.degree(v)) as u64)
                .sum();
            let gmw_count = (len / lambda).max(1);
            prop_assert_eq!(
                r.state.total_stored() as u64,
                initial + r.gmw_invocations * gmw_count - consumed
            );
        }
    }

    /// The same store balance for a one-shot walk, whose Phase 1 is
    /// sized by its own stitch demand ([`provisioned`]) instead of
    /// `walks_for_degree`, under either allocation and several `eta`.
    #[test]
    fn one_shot_walk_store_conservation(
        g in connected_graph(12),
        len in 1u64..400,
        seed in 0u64..400,
        eta_halves in 1u32..5,
        flat in 0u8..2,
    ) {
        let cfg = SingleWalkConfig {
            params: WalkParams { lambda_scale: 0.3, eta: f64::from(eta_halves) / 2.0 },
            degree_proportional: flat == 0,
            engine: drw_experiments::engine_config_from_env(),
            ..SingleWalkConfig::default()
        };
        let source = seed as usize % g.n();
        let mut net = Network::builder(&g).config(cfg.clone()).seed(seed).build();
        let r = net.run(Request::walk(source, len)).unwrap().into_walk();
        let lambda = u64::from(r.lambda);
        prop_assert_eq!(r.stitches, r.segments.len() as u64);
        let initial = provisioned(&g, &cfg, len, lambda);
        let gmw_count = (len / lambda).max(1);
        prop_assert_eq!(
            r.state.total_stored() as u64,
            initial + r.gmw_invocations * gmw_count - r.stitches
        );
    }

    /// The batched Phase-2 scheduler's bookkeeping invariants, on
    /// arbitrary connected graphs:
    ///
    /// - every walk's segments chain head-to-tail from its source with
    ///   lengths in `[lambda, 2*lambda)`, and the unstitched remainder
    ///   is a legal tail (`< 2*lambda`), so each walk's total length is
    ///   exactly `len`;
    /// - no short-walk segment is consumed by two walks: segment ids
    ///   are globally unique, and the store balances
    ///   exactly (initial + GET-MORE-WALKS creations - consumptions);
    /// - the reported phase round counters sum to the engine's total.
    #[test]
    fn batched_many_walks_invariants(
        g in connected_graph(12),
        seed in 0u64..400,
    ) {
        let len = 180u64;
        let cfg = SingleWalkConfig {
            params: WalkParams { lambda_scale: 0.3, eta: 1.0 },
            // DRW_FAULTS-aware: CI's fault leg runs these invariants
            // over a lossy ARQ-healed transport.
            engine: drw_experiments::engine_config_from_env(),
            ..SingleWalkConfig::default()
        };
        let sources: Vec<usize> = (0..3).map(|i| (seed as usize + i * 5) % g.n()).collect();
        let mut net = Network::builder(&g).config(cfg.clone()).seed(seed).build();
        let r = net.run(Request::many_walks(sources.clone(), len)).unwrap().into_many_walks();
        prop_assert_eq!(r.rounds_bfs + r.rounds_phase1 + r.rounds_phase2, r.rounds);
        prop_assert_eq!(r.destinations.len(), sources.len());
        // Tiny graphs may legitimately take the k + l naive branch, in
        // which case there is nothing stitched to check.
        if !r.used_naive_fallback {
            let lambda = r.lambda as u64;
            let mut ids = std::collections::HashSet::new();
            let mut consumed = 0u64;
            for (w, segs) in r.segments.iter().enumerate() {
                let mut at = sources[w];
                let mut pos = 0u64;
                for seg in segs {
                    prop_assert_eq!(seg.connector, at, "walk {} chain break", w);
                    prop_assert_eq!(seg.start_pos, pos, "walk {} position gap", w);
                    prop_assert!(u64::from(seg.len) >= lambda && u64::from(seg.len) < 2 * lambda);
                    prop_assert!(ids.insert(seg.id), "segment {:?} consumed twice", seg.id);
                    at = seg.owner;
                    pos += u64::from(seg.len);
                }
                prop_assert!(len - pos < 2 * lambda, "walk {} tail too long", w);
                consumed += segs.len() as u64;
            }
            prop_assert_eq!(r.stitches, consumed);
            // Store conservation: Phase 1 created ceil(eta * deg(v))
            // tokens per node, every GET-MORE-WALKS added gmw_count
            // more, and every stitch consumed exactly one.
            let initial: u64 = (0..g.n())
                .map(|v| cfg.params.walks_for_degree(g.degree(v)) as u64)
                .sum();
            let gmw_count = (len / lambda).max(1);
            prop_assert_eq!(
                r.state.total_stored() as u64,
                initial + r.gmw_invocations * gmw_count - consumed
            );
        }
    }
}
