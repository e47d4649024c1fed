//! Versioned-topology acceptance suite (ISSUE 5).
//!
//! - **CSR equivalence** (property test): a `Topology` after an
//!   arbitrary valid delta sequence is CSR-identical — same `n`, `m`,
//!   sorted adjacency and reverse-edge index — to a `Graph` built from
//!   scratch from the final edge set, and walks on the two are
//!   bit-identical under both round executors.
//! - **Churn conformance**: endpoints served by an *incrementally
//!   repaired* session on the mutated graph chi-square against the
//!   exact transition-matrix distribution of the mutated graph.
//! - **Epoch determinism**: a node-add delta leaves pre-existing nodes'
//!   walk outcomes bit-identical to a from-scratch network of the same
//!   final shape (per-node RNG streams are keyed by node id, never by
//!   `n` — see `drw_congest::NodeRngs`).

use distributed_random_walks::prelude::*;
use drw_core::exact::exact_distribution;
use drw_graph::traversal;
use drw_stats::chi2::chi_square_against_probs;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Mirror-model connectivity check (the test's independent oracle).
fn mirror_connected(n: usize, edges: &BTreeSet<(usize, usize)>) -> bool {
    if n == 0 {
        return false;
    }
    let mut adj = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u].push(v);
        adj[v].push(u);
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == n
}

/// Interprets raw fuzz words as a valid delta sequence against a mirror
/// edge-set model, applying each accepted delta to the topology.
/// Returns the final mirror `(n, edges)`.
fn churn(topo: &Topology, raw_ops: &[(u8, usize, usize)]) -> (usize, BTreeSet<(usize, usize)>) {
    let g = topo.snapshot();
    let mut n = g.n();
    let mut edges: BTreeSet<(usize, usize)> = g.edges().collect();
    for &(kind, a, b) in raw_ops {
        match kind % 4 {
            0 => {
                // Add a chord.
                let (u, v) = (a % n, b % n);
                let key = (u.min(v), u.max(v));
                if u == v || edges.contains(&key) {
                    continue;
                }
                let report = topo
                    .apply(&TopologyDelta::new().add_edge(u, v))
                    .expect("valid edge addition");
                assert_eq!(report.touched, vec![key.0, key.1]);
                edges.insert(key);
            }
            1 => {
                // Remove an edge, but only if the mirror says the graph
                // stays connected.
                if edges.is_empty() {
                    continue;
                }
                let key = *edges.iter().nth(a % edges.len()).expect("nonempty");
                let mut trial = edges.clone();
                trial.remove(&key);
                if !mirror_connected(n, &trial) {
                    // The topology must agree with the oracle.
                    let err = topo
                        .apply(&TopologyDelta::new().remove_edge(key.0, key.1))
                        .unwrap_err();
                    assert_eq!(err, drw_graph::GraphError::Disconnects);
                    continue;
                }
                let _ = topo
                    .apply(&TopologyDelta::new().remove_edge(key.0, key.1))
                    .expect("connectivity-preserving removal");
                edges = trial;
            }
            2 => {
                // A node joins with two links (one if the peers tie).
                let (p, q) = (a % n, b % n);
                let mut delta = TopologyDelta::new().add_node().add_edge(n, p);
                if q != p {
                    delta = delta.add_edge(n, q);
                }
                let report = topo.apply(&delta).expect("connected node join");
                assert_eq!(report.nodes_added, 1);
                edges.insert((p, n));
                if q != p {
                    edges.insert((q, n));
                }
                n += 1;
            }
            _ => {
                // The last node leaves, if stripping its links keeps the
                // rest connected.
                let last = n - 1;
                let incident: Vec<(usize, usize)> = edges
                    .iter()
                    .copied()
                    .filter(|&(u, v)| u == last || v == last)
                    .collect();
                if n <= 2 {
                    continue;
                }
                let mut trial = edges.clone();
                for e in &incident {
                    trial.remove(e);
                }
                if !mirror_connected(n - 1, &trial) {
                    continue;
                }
                let mut delta = TopologyDelta::new();
                for &(u, v) in &incident {
                    delta = delta.remove_edge(u, v);
                }
                let _ = topo
                    .apply(&delta.remove_node(last))
                    .expect("isolated last-node removal");
                edges = trial;
                n -= 1;
            }
        }
    }
    (n, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSR equivalence after arbitrary valid churn, plus bit-identical
    /// walks on both round executors.
    #[test]
    fn churned_topology_is_csr_identical_to_scratch_build(
        dims in (3usize..=5, 3usize..=5),
        raw_ops in proptest::collection::vec(
            (0u8..8, 0usize..1024, 0usize..1024), 0..24),
        seed in 0u64..1000,
    ) {
        let base = generators::torus2d(dims.0, dims.1);
        let topo = Topology::new(base);
        let (n, edges) = churn(&topo, &raw_ops);

        let snapshot = topo.snapshot();
        let scratch = Graph::from_edges(n, edges.iter().copied())
            .expect("mirror edge set is valid");

        // Piecewise diagnostics first, then the full CSR identity
        // (PartialEq covers offsets, adjacency, sources and the
        // reverse-edge index).
        prop_assert_eq!(snapshot.n(), scratch.n());
        prop_assert_eq!(snapshot.m(), scratch.m());
        for v in 0..n {
            prop_assert_eq!(
                snapshot.neighbors(v).collect::<Vec<_>>(),
                scratch.neighbors(v).collect::<Vec<_>>(),
                "adjacency of {} diverged", v
            );
        }
        for eid in 0..snapshot.dir_edge_count() {
            prop_assert_eq!(snapshot.reverse_edge(eid), scratch.reverse_edge(eid));
        }
        prop_assert_eq!(&*snapshot, &scratch);
        prop_assert!(traversal::is_connected(&snapshot));

        // Identical CSR must mean identical walks — under both
        // executors.
        for kind in [ExecutorKind::Sequential, ExecutorKind::Sharded] {
            let cfg = SingleWalkConfig {
                engine: EngineConfig::default().with_executor(kind),
                ..SingleWalkConfig::default()
            };
            let len = 64 + (seed % 64);
            let a = single_random_walk(&snapshot, 0, len, &cfg, seed).unwrap();
            let b = single_random_walk(&scratch, 0, len, &cfg, seed).unwrap();
            prop_assert_eq!(a.destination, b.destination);
            prop_assert_eq!(a.rounds, b.rounds);
            prop_assert_eq!(a.segments, b.segments);
        }
    }
}

/// Endpoints served through an incrementally repaired session must be
/// exact samples of the *mutated* graph's walk distribution.
#[test]
fn repaired_session_endpoints_match_mutated_graph_distribution() {
    let cfg = SingleWalkConfig {
        // Small lambda: the stitched regime runs and trajectories stay
        // local enough for eviction to be partial.
        params: WalkParams {
            lambda_scale: 0.25,
            eta: 1.0,
        },
        ..SingleWalkConfig::default()
    };
    let sources = [0usize, 5, 10];
    let len = 64u64;
    let trials = 300u64;
    let mut counts: Vec<Vec<u64>> = vec![Vec::new(); sources.len()];
    let mut mutated: Option<std::sync::Arc<Graph>> = None;
    let mut evictions = 0u64;
    for t in 0..trials {
        let topo = Topology::new(generators::torus2d(4, 4));
        let mut net = Network::over(topo.clone())
            .config(cfg.clone())
            .seed(20_000 + t)
            .build();
        let serve = |net: &mut Network| {
            let served = net
                .run_batch(vec![Request::many_walks(sources.to_vec(), len)])
                .unwrap()
                .remove(0)
                .into_many_walks();
            assert!(!served.used_naive_fallback);
            served
        };
        // Warm the store on the pre-churn graph...
        let _ = serve(&mut net);
        // ...mutate (a chord in, a cycle edge out; stays connected)...
        let _ = topo
            .apply(&TopologyDelta::new().add_edge(0, 5).remove_edge(9, 10))
            .unwrap();
        // ...and serve the same request again through incremental
        // repair.
        let served = serve(&mut net);
        let session = net.session().expect("batches open the shared session");
        evictions += session.walks_evicted();
        let g = session.graph();
        for (i, &d) in served.destinations.iter().enumerate() {
            if counts[i].is_empty() {
                counts[i] = vec![0; g.n()];
            }
            counts[i][d] += 1;
        }
        mutated.get_or_insert(g);
    }
    assert!(evictions > 0, "churn must evict something across trials");
    let g = mutated.expect("at least one trial ran");
    for (i, &s) in sources.iter().enumerate() {
        let probs = exact_distribution(&g, s, len);
        let test = chi_square_against_probs(&counts[i], &probs);
        assert!(
            test.passes(0.001),
            "walk {i} from {s} diverges from the mutated graph's exact \
             distribution: {test:?}"
        );
    }
}

/// A node-add delta must not perturb pre-existing nodes' randomness:
/// the grown topology serves the same requests as a from-scratch
/// network over the same final graph, bit-identically (fixed seeds).
#[test]
fn node_add_keeps_preexisting_rng_streams_bit_identical() {
    let grown = Topology::new(generators::cycle(8));
    let _ = grown
        .apply(
            &TopologyDelta::new()
                .add_node()
                .add_edge(8, 0)
                .add_edge(8, 4),
        )
        .unwrap();
    let scratch = {
        let mut edges: Vec<(usize, usize)> = generators::cycle(8).edges().collect();
        edges.push((0, 8));
        edges.push((4, 8));
        Graph::from_edges(9, edges).unwrap()
    };
    assert_eq!(&*grown.snapshot(), &scratch, "grown CSR equals scratch");
    for seed in [1u64, 42, 977] {
        let mut a = Network::over(grown.clone()).seed(seed).build();
        let mut b = Network::builder(&scratch).seed(seed).build();
        let wa = a.run(Request::walk(3, 257)).unwrap().into_walk();
        let wb = b.run(Request::walk(3, 257)).unwrap().into_walk();
        assert_eq!(wa.destination, wb.destination, "seed {seed}");
        assert_eq!(wa.rounds, wb.rounds, "seed {seed}");
        assert_eq!(wa.segments, wb.segments, "seed {seed}");
    }
}
