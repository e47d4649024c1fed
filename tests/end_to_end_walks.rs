//! Cross-crate integration: the three walk algorithms agree with the
//! exact `l`-step distribution end to end, and the whole pipeline is
//! deterministic in the seed.

use distributed_random_walks::prelude::*;
use drw_core::{exact::exact_distribution, podc09::podc09_walk, Podc09Params};
use drw_stats::chi2::chi_square_against_probs;

/// All three algorithms sample from the same exact distribution.
#[test]
fn all_algorithms_match_the_exact_distribution() {
    let g = generators::lollipop(5, 4); // non-regular, non-bipartite
    let len = 40u64;
    let probs = exact_distribution(&g, 0, len);
    let samples = 1200u64;

    let mut counts_naive = vec![0u64; g.n()];
    let mut counts_09 = vec![0u64; g.n()];
    let mut counts_10 = vec![0u64; g.n()];
    for seed in 0..samples {
        counts_naive[naive_walk(&g, 0, len, seed).unwrap().0] += 1;
        counts_09[podc09_walk(&g, 0, len, &Podc09Params::default(), 7_000 + seed)
            .unwrap()
            .destination] += 1;
        counts_10[single_random_walk(&g, 0, len, &SingleWalkConfig::default(), 90_000 + seed)
            .unwrap()
            .destination] += 1;
    }
    for (name, counts) in [
        ("naive", &counts_naive),
        ("podc09", &counts_09),
        ("podc10", &counts_10),
    ] {
        let t = chi_square_against_probs(counts, &probs);
        assert!(t.passes(0.001), "{name}: {t:?}");
    }
}

/// Regenerated walks are genuine trajectories whose endpoint matches the
/// reported destination.
#[test]
fn regenerated_walk_matches_destination() {
    let g = generators::torus2d(6, 6);
    let cfg = SingleWalkConfig {
        record_walk: true,
        ..SingleWalkConfig::default()
    };
    for seed in 0..5 {
        let len = 700 + seed * 113;
        let r = single_random_walk(&g, 3, len, &cfg, seed).unwrap();
        let walk = r.state.reconstruct_walk(len);
        assert_eq!(walk[0], 3);
        assert_eq!(*walk.last().unwrap(), r.destination);
        for w in walk.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }
}

/// MANY-RANDOM-WALKS and repeated SINGLE-RANDOM-WALK sample the same law.
#[test]
fn many_walks_match_single_walk_distribution() {
    let g = generators::complete(8);
    let len = 5u64;
    let probs = exact_distribution(&g, 0, len);
    let k = 60;
    let mut counts = vec![0u64; g.n()];
    for seed in 0..30 {
        let r =
            many_random_walks(&g, &vec![0; k], len, &SingleWalkConfig::default(), seed).unwrap();
        for d in r.destinations {
            counts[d] += 1;
        }
    }
    let t = chi_square_against_probs(&counts, &probs);
    assert!(t.passes(0.001), "{t:?}");
}

/// The full stack is reproducible from a single seed.
#[test]
fn pipeline_is_deterministic() {
    let g = generators::torus2d(5, 5);
    let a = single_random_walk(&g, 1, 999, &SingleWalkConfig::default(), 1234).unwrap();
    let b = single_random_walk(&g, 1, 999, &SingleWalkConfig::default(), 1234).unwrap();
    assert_eq!(a.destination, b.destination);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.segments, b.segments);
}

/// Round sublinearity materializes across families once l >> D.
#[test]
fn sublinear_rounds_across_families() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let len = 4096u64;
    for g in [
        generators::torus2d(8, 8),
        generators::random_regular(128, 4, &mut rng),
        generators::hypercube(7),
    ] {
        let r = single_random_walk(&g, 0, len, &SingleWalkConfig::default(), 3).unwrap();
        assert!(
            r.rounds < len,
            "rounds {} !< {len} on n={}",
            r.rounds,
            g.n()
        );
    }
}

/// A cohort in the band `lambda <= l < 2 * lambda` takes the stitched
/// regime but no token can stitch there, so it must not pay for a store:
/// no Phase 1, `k + l`-class rounds, tail-hop messages only. A cohort
/// with `l >= 2 * lambda` still builds the store and stitches.
#[test]
fn many_walks_too_short_to_stitch_build_no_store() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let cfg = SingleWalkConfig::default();
    let expander = generators::random_regular(1024, 4, &mut rng);
    let cases = [
        (expander, 256, 4096),
        (generators::torus2d(16, 16), 600, 8192),
    ];
    for (g, len, long) in cases {
        let sources: Vec<usize> = (0..16).map(|i| (i * 61) % g.n()).collect();
        let k = sources.len() as u64;
        let r = many_random_walks(&g, &sources, len, &cfg, 5).unwrap();
        let lambda = u64::from(r.lambda);
        assert!(!r.used_naive_fallback && lambda <= len && len < 2 * lambda);
        assert_eq!((r.rounds_phase1, r.stitches), (0, 0), "lambda = {lambda}");
        assert_eq!(r.state.total_stored(), 0);
        let bfs_messages = 4 * g.m() as u64; // at most two per edge and direction
        assert!(r.messages <= k * len + bfs_messages, "{}", r.messages);
        assert!(r.rounds <= r.rounds_bfs + k + len + 8, "{}", r.rounds);

        let r = many_random_walks(&g, &sources, long, &cfg, 5).unwrap();
        assert!(long >= 2 * u64::from(r.lambda));
        assert!(r.rounds_phase1 > 0 && r.stitches > 0 && r.state.total_stored() > 0);
    }
}
