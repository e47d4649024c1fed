//! Facade suite: one `Network` handle, every way of serving a request.
//!
//! - A static-path guard asserts that a network over a shared versioned
//!   topology (`Network::over`) and one over a borrowed graph
//!   (`Network::builder`) answer all four request kinds identically.
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
use proptest::prelude::*;

/// Static-path equivalence guard: with zero deltas applied, all four
/// request kinds served through the *versioned topology handle*
/// (`Network::over`) are seed-for-seed identical, field for field, to
/// the same requests served over the borrowed graph.
#[test]
fn topology_handle_static_path_matches_legacy_outputs() {
    let g = generators::torus2d(6, 6);
    let mixing = MixingRequest {
        max_len: 1 << 10,
        ..MixingRequest::full_estimate(0)
    };
    let requests = [
        (7, Request::walk(5, 768)),
        (11, Request::many_walks(vec![0, 9, 20], 512)),
        (23, Request::spanning_tree(0)),
        (31, Request::MixingTime(mixing)),
    ];
    for (seed, req) in requests {
        let kind = req.kind();
        let mut built = Network::builder(&g).seed(seed).build();
        let mut over = Network::over(Topology::new(g.clone())).seed(seed).build();
        let built = built.run(req.clone()).unwrap();
        let over = over.run(req).unwrap();
        assert_eq!(format!("{over:?}"), format!("{built:?}"), "{kind}");
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
