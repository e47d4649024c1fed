//! Cross-crate integration for the two applications and the lower bound.

use distributed_random_walks::prelude::*;
use drw_congest::EngineConfig as EC;
use drw_lowerbound::{gn::GnGraph, path_verification::verify_path, reduction::follow_probability};
use drw_mixing::ground_truth;
use drw_spanning::{aldous_broder, wilson};

/// The distributed RST distribution agrees with the two independent
/// centralized uniform samplers on the cycle (where trees are easy to
/// read: each tree is "drop one edge").
#[test]
fn rst_agrees_with_centralized_uniform_samplers() {
    use rand::SeedableRng;
    let n = 5;
    let g = generators::cycle(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut dist_counts = vec![0u64; n];
    let mut ab_counts = vec![0u64; n];
    let mut wi_counts = vec![0u64; n];
    let dropped_edge = |tree: &Vec<(usize, usize)>| -> usize {
        // The missing cycle edge identifies the tree.
        (0..n)
            .find(|&i| !tree.contains(&((i).min((i + 1) % n), (i).max((i + 1) % n))))
            .expect("exactly one cycle edge missing")
    };
    for seed in 0..400u64 {
        let mut net = Network::builder(&g).seed(seed).build();
        let r = net.run(Request::spanning_tree(0)).unwrap().into_tree();
        dist_counts[dropped_edge(&r.edges)] += 1;
        ab_counts[dropped_edge(&aldous_broder(&g, 0, &mut rng).0)] += 1;
        wi_counts[dropped_edge(&wilson(&g, 0, &mut rng))] += 1;
    }
    for (name, counts) in [
        ("distributed", &dist_counts),
        ("aldous-broder", &ab_counts),
        ("wilson", &wi_counts),
    ] {
        let t = drw_stats::chi_square_uniform(counts);
        assert!(t.passes(0.001), "{name}: {t:?} {counts:?}");
    }
}

/// The mixing estimate brackets correctly across a fast and a slow
/// family, and orders them.
#[test]
fn mixing_estimates_order_families() {
    let fast = generators::complete(32);
    let slow = generators::cycle(33);
    let estimate = |g: &Graph| {
        let mut net = Network::builder(g).seed(3).build();
        let req = Request::MixingTime(MixingRequest::full_estimate(0));
        net.run(req).unwrap().into_mixing()
    };
    let (ef, es) = (estimate(&fast), estimate(&slow));
    assert!(ef.converged && es.converged);
    assert!(
        es.tau_estimate > 8 * ef.tau_estimate.max(1),
        "slow {} vs fast {}",
        es.tau_estimate,
        ef.tau_estimate
    );
    // Sandwich against exact values with generous bands.
    let lo = ground_truth::exact_tau(&slow, 0, 0.9, 1 << 18).unwrap();
    let hi = ground_truth::exact_tau(&slow, 0, 0.02, 1 << 18).unwrap();
    assert!(
        es.tau_estimate >= lo && es.tau_estimate <= hi,
        "estimate {} outside [{lo}, {hi}]",
        es.tau_estimate
    );
}

/// The full lower-bound pipeline: G_n verifies above the bound; the
/// biased walk follows P.
#[test]
fn lower_bound_pipeline() {
    use rand::SeedableRng;
    let gn = GnGraph::build(256, GnGraph::k_for_len(256));
    let path: Vec<usize> = (0..gn.n_prime()).collect();
    let r = verify_path(gn.graph(), &path, &EC::default(), 1)
        .unwrap()
        .expect("P verifies");
    assert!(
        r.rounds as usize > gn.k(),
        "rounds {} <= k {}",
        r.rounds,
        gn.k()
    );
    // Diameter stays logarithmic even though verification is slow.
    let d = drw_graph::traversal::diameter_exact(gn.graph());
    assert!(d <= 14, "diameter {d}");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    assert!(follow_probability(&gn, 60, &mut rng) > 0.9);
}

/// Walk machinery composes with the RST application on non-trivial
/// topology: a lollipop whose tail stresses cover time.
#[test]
fn rst_on_lollipop_covers_the_tail() {
    let g = generators::lollipop(6, 8);
    let mut net = Network::builder(&g).seed(11).build();
    let r = net.run(Request::spanning_tree(0)).unwrap().into_tree();
    assert!(drw_graph::matrix_tree::is_spanning_tree(&g, &r.edges));
    // The tail is a forced path: its edges must all be in the tree.
    for i in 6..13 {
        assert!(r.edges.contains(&(i, i + 1)), "tail edge {i} missing");
    }
}
