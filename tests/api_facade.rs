//! Facade-equivalence suite: the `Network` service facade versus the
//! legacy free functions, under both round executors.
//!
//! - Fixed-seed tests assert that `Network`-routed `Walk` /
//!   `ManyWalks` / `SpanningTree` / `MixingTime` responses are
//!   bit-identical to the legacy free-function results (which are thin
//!   shims over a throwaway `Network` — these tests pin the shims'
//!   seed plumbing and the facade's request dispatch).
//! - A property test checks that `run_batch` of independent requests
//!   matches the same requests run sequentially in every deterministic
//!   observable: response kinds and counts, regime decisions
//!   (Theorem 2.8 fallback), walk-law invariants (bipartite parity),
//!   and segment-chain structure — while `run_batch` itself is
//!   deterministic in the seed.
//! - The batching acceptance: four heterogeneous requests (2 walks,
//!   1 spanning tree, 1 mixing probe) complete in >= 1.5x fewer total
//!   rounds batched than sequentially.

use distributed_random_walks::prelude::*;
use drw_congest::EngineConfig;
use proptest::prelude::*;

fn executors() -> [ExecutorKind; 2] {
    [ExecutorKind::Sequential, ExecutorKind::Sharded]
}

fn cfg_for(kind: ExecutorKind) -> SingleWalkConfig {
    SingleWalkConfig {
        engine: EngineConfig::default().with_executor(kind),
        ..SingleWalkConfig::default()
    }
}

#[test]
fn walk_requests_match_the_legacy_free_function() {
    let g = generators::torus2d(8, 8);
    for kind in executors() {
        let cfg = cfg_for(kind);
        for seed in [0u64, 7, 99] {
            let legacy = single_random_walk(&g, 5, 1024, &cfg, seed).unwrap();
            let mut net = Network::builder(&g).config(cfg.clone()).seed(seed).build();
            let routed = net
                .run(Request::Walk {
                    source: 5,
                    len: 1024,
                    record: false,
                })
                .unwrap()
                .into_walk();
            assert_eq!(routed.destination, legacy.destination, "{kind:?}/{seed}");
            assert_eq!(routed.rounds, legacy.rounds, "{kind:?}/{seed}");
            assert_eq!(routed.segments, legacy.segments, "{kind:?}/{seed}");
            assert_eq!(routed.messages, legacy.messages, "{kind:?}/{seed}");
        }
    }
}

#[test]
fn many_walks_requests_match_the_legacy_free_function() {
    let g = generators::torus2d(6, 6);
    let sources = vec![0usize, 9, 20, 20];
    for kind in executors() {
        let cfg = cfg_for(kind);
        let legacy = many_random_walks(&g, &sources, 512, &cfg, 11).unwrap();
        let mut net = Network::builder(&g).config(cfg.clone()).seed(11).build();
        let routed = net
            .run(Request::many_walks(sources.clone(), 512))
            .unwrap()
            .into_many_walks();
        assert_eq!(routed.destinations, legacy.destinations, "{kind:?}");
        assert_eq!(routed.rounds, legacy.rounds, "{kind:?}");
        assert_eq!(routed.lambda, legacy.lambda, "{kind:?}");
    }
}

#[test]
fn spanning_tree_requests_match_the_legacy_free_function() {
    let g = generators::torus2d(6, 6);
    for kind in executors() {
        let rst_cfg = RstConfig {
            walk: cfg_for(kind),
            ..RstConfig::default()
        };
        let legacy = distributed_rst(&g, 0, &rst_cfg, 23).unwrap();
        let mut net = Network::builder(&g)
            .config(rst_cfg.walk.clone())
            .seed(23)
            .build();
        let routed = net
            .run(Request::SpanningTree(rst_cfg.to_request(0)))
            .unwrap()
            .into_tree();
        assert_eq!(routed.edges, legacy.edges, "{kind:?}");
        assert_eq!(routed.rounds, legacy.rounds, "{kind:?}");
        assert_eq!(routed.phases, legacy.phases);
        assert_eq!(routed.bfs_runs, legacy.bfs_runs);
    }
}

#[test]
fn mixing_requests_match_the_legacy_free_function() {
    let g = generators::cycle(33);
    for kind in executors() {
        let mix_cfg = MixingConfig {
            max_len: 1 << 12,
            walk: cfg_for(kind),
            ..MixingConfig::default()
        };
        let legacy = estimate_mixing_time(&g, 0, &mix_cfg, 31).unwrap();
        let mut net = Network::builder(&g)
            .config(mix_cfg.walk.clone())
            .seed(31)
            .build();
        let routed = net
            .run(Request::MixingTime(mix_cfg.to_request(0)))
            .unwrap()
            .into_mixing();
        assert_eq!(routed.tau_estimate, legacy.tau_estimate, "{kind:?}");
        assert_eq!(routed.rounds, legacy.rounds, "{kind:?}");
        assert_eq!(routed.probes, legacy.probes, "{kind:?}");
    }
}

/// Static-path equivalence guard (ISSUE 5): with zero deltas applied,
/// all four request kinds served through the *versioned topology
/// handle* (`Network::over`) are seed-for-seed identical to the
/// pre-redesign outputs — pinned here via the legacy free functions,
/// which the facade-equivalence tests above tie to the historical
/// drivers — under both executors.
#[test]
fn topology_handle_static_path_matches_legacy_outputs() {
    let g = generators::torus2d(6, 6);
    for kind in executors() {
        let cfg = cfg_for(kind);
        let over = |seed: u64| {
            Network::over(Topology::new(g.clone()))
                .config(cfg.clone())
                .seed(seed)
                .build()
        };

        let legacy = single_random_walk(&g, 5, 768, &cfg, 7).unwrap();
        let routed = over(7).run(Request::walk(5, 768)).unwrap().into_walk();
        assert_eq!(routed.destination, legacy.destination, "{kind:?} walk");
        assert_eq!(routed.rounds, legacy.rounds, "{kind:?} walk");
        assert_eq!(routed.segments, legacy.segments, "{kind:?} walk");

        let sources = vec![0usize, 9, 20];
        let legacy = many_random_walks(&g, &sources, 512, &cfg, 11).unwrap();
        let routed = over(11)
            .run(Request::many_walks(sources.clone(), 512))
            .unwrap()
            .into_many_walks();
        assert_eq!(routed.destinations, legacy.destinations, "{kind:?} many");
        assert_eq!(routed.rounds, legacy.rounds, "{kind:?} many");

        let rst_cfg = RstConfig {
            walk: cfg.clone(),
            ..RstConfig::default()
        };
        let legacy = distributed_rst(&g, 0, &rst_cfg, 23).unwrap();
        let routed = over(23)
            .run(Request::SpanningTree(rst_cfg.to_request(0)))
            .unwrap()
            .into_tree();
        assert_eq!(routed.edges, legacy.edges, "{kind:?} tree");
        assert_eq!(routed.rounds, legacy.rounds, "{kind:?} tree");

        let mix_cfg = MixingConfig {
            max_len: 1 << 10,
            walk: cfg.clone(),
            ..MixingConfig::default()
        };
        let legacy = estimate_mixing_time(&g, 0, &mix_cfg, 31).unwrap();
        let routed = over(31)
            .run(Request::MixingTime(mix_cfg.to_request(0)))
            .unwrap()
            .into_mixing();
        assert_eq!(routed.tau_estimate, legacy.tau_estimate, "{kind:?} mix");
        assert_eq!(routed.rounds, legacy.rounds, "{kind:?} mix");
        assert_eq!(routed.probes, legacy.probes, "{kind:?} mix");
    }
}

/// The heterogeneous-batching acceptance: 2 walks + 1 spanning tree +
/// 1 mixing probe, batched, must beat the same four requests run
/// sequentially (each with its own setup) by >= 1.5x in total rounds —
/// with exactness preserved (parity law, valid tree).
#[test]
fn heterogeneous_batch_shares_rounds() {
    let g = generators::torus2d(16, 16);
    let n = g.n() as u64;
    // The E13 acceptance workload (the experiment's --quick shape):
    // the tree's initial guess (32n) sits past the torus cover time,
    // so it covers in one doubling phase w.h.p. and its extension
    // rides the same waves as the walks and the probe instead of
    // trailing alone; the walks are sized comparably so no single
    // serial chain dominates the wave.
    let requests = || {
        vec![
            Request::walk(0, 4096),
            Request::walk(137, 4096),
            Request::SpanningTree(TreeRequest {
                initial_len: 32 * n,
                ..TreeRequest::new(0)
            }),
            Request::mixing_probe(0, 256),
        ]
    };

    let mut batched_net = Network::builder(&g).seed(42).build();
    let responses = batched_net.run_batch(requests()).unwrap();
    let batched_rounds = batched_net.session_rounds();

    let mut sequential_rounds = 0u64;
    for req in requests() {
        let mut net = Network::builder(&g).seed(42).build();
        sequential_rounds += net.run(req).unwrap().rounds();
    }

    assert!(
        batched_rounds * 3 <= sequential_rounds * 2,
        "batched {batched_rounds} rounds vs sequential {sequential_rounds}: \
         expected >= 1.5x sharing"
    );

    // Exactness of the batched responses.
    let parity = |v: usize| (v / 16 + v % 16) % 2;
    let w0 = responses[0].clone().into_walk();
    let w1 = responses[1].clone().into_walk();
    assert_eq!(parity(w0.destination), parity(0), "even-length walk law");
    assert_eq!(parity(w1.destination), parity(137), "even-length walk law");
    let tree = responses[2].clone().into_tree();
    assert!(drw_graph::matrix_tree::is_spanning_tree(&g, &tree.edges));
    let mix = responses[3].clone().into_mixing();
    assert_eq!(mix.probes.len(), 1);
    assert_eq!(mix.probes[0].len, 256);
}

/// An arbitrary even-sided torus (bipartite, so even-length walks obey
/// the parity law — a deterministic invariant both execution styles
/// must satisfy) plus arbitrary independent requests.
fn torus_dims() -> impl Strategy<Value = (usize, usize)> {
    (1..=3usize, 1..=3usize).prop_map(|(a, b)| (2 * a + 2, 2 * b + 2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `run_batch` of independent requests equals the same requests run
    /// sequentially in every deterministic observable, and is itself
    /// deterministic in the seed.
    #[test]
    fn batch_matches_sequential_requests(
        dims in torus_dims(),
        walk_len in 1u64..40,
        many_len in 1u64..40,
        k in 1usize..6,
        seed in 0u64..500,
    ) {
        let (rows, cols) = dims;
        let g = generators::torus2d(rows, cols);
        let n = g.n();
        let walk_len = walk_len * 2; // even: parity law applies
        let many_len = many_len * 2;
        let sources: Vec<usize> = (0..k).map(|i| (i * 7) % n).collect();
        let requests = || vec![
            Request::walk(seed as usize % n, walk_len),
            Request::many_walks(sources.clone(), many_len),
        ];

        // Batched twice with the same seed: bit-identical.
        let run_batched = || {
            let mut net = Network::builder(&g).seed(seed).build();
            let rs = net.run_batch(requests()).unwrap();
            (rs, ())
        };
        let (batch_a, ()) = run_batched();
        let (batch_b, ()) = run_batched();
        let walk_a = batch_a[0].clone().into_walk();
        let walk_b = batch_b[0].clone().into_walk();
        prop_assert_eq!(walk_a.destination, walk_b.destination);
        let many_a = batch_a[1].clone().into_many_walks();
        let many_b = batch_b[1].clone().into_many_walks();
        prop_assert_eq!(&many_a.destinations, &many_b.destinations);

        // Sequential execution of the same requests.
        let mut net = Network::builder(&g).seed(seed).build();
        let seq: Vec<Response> = requests()
            .into_iter()
            .map(|r| net.run(r).unwrap())
            .collect();
        let seq_walk = seq[0].clone().into_walk();
        let seq_many = seq[1].clone().into_many_walks();

        // Same response shapes.
        prop_assert_eq!(many_a.destinations.len(), seq_many.destinations.len());

        // Same regime decision (deterministic in (k, l, D); both paths
        // use the session-anchored vs source-anchored BFS of the same
        // graph, whose eccentricities agree on a torus).
        prop_assert_eq!(many_a.used_naive_fallback, seq_many.used_naive_fallback);

        // Both satisfy the walk law: even-length walks preserve the
        // bipartition class of their source.
        let parity = |v: usize| (v / cols + v % cols) % 2;
        prop_assert_eq!(parity(walk_a.destination), parity(seed as usize % n));
        prop_assert_eq!(parity(seq_walk.destination), parity(seed as usize % n));
        for (&s, &d) in sources.iter().zip(&many_a.destinations) {
            prop_assert_eq!(parity(d), parity(s));
        }
        for (&s, &d) in sources.iter().zip(&seq_many.destinations) {
            prop_assert_eq!(parity(d), parity(s));
        }

        // Segment chains are structurally valid in both styles.
        for (result, source) in [(&walk_a, seed as usize % n), (&seq_walk, seed as usize % n)] {
            let mut at = source;
            let mut pos = 0u64;
            for seg in &result.segments {
                prop_assert_eq!(seg.connector, at);
                prop_assert_eq!(seg.start_pos, pos);
                at = seg.owner;
                pos += seg.len as u64;
            }
            prop_assert!(pos <= walk_len);
        }
    }
}
