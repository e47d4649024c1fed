//! Cross-crate integration: the three walk algorithms agree with the
//! exact `l`-step distribution end to end, and the whole pipeline is
//! deterministic in the seed.

use distributed_random_walks::prelude::*;
use drw_core::exact::exact_distribution;
use drw_experiments::{podc09_walk, Podc09Params};
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
        counts_10[Network::builder(&g)
            .seed(90_000 + seed)
            .build()
            .run(Request::walk(0, len))
            .unwrap()
            .into_walk()
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

/// A one-shot walk's Phase 1 is sized by its own stitch demand
/// `S = ceil(l / lambda)`: node `v` launches
/// `min(ceil(eta * deg(v)), ceil(mu + 2 sqrt(mu)))` short walks, where
/// `mu = S * deg(v) / 2m`, while a session, whose store outlives the
/// walk, keeps the full `eta * deg(v)`.
#[test]
fn one_shot_walk_launches_the_short_walks_it_can_use() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let g = generators::random_regular(1024, 4, &mut rng);
    let len = 1024u64;
    let r = Network::builder(&g)
        .seed(3)
        .build()
        .run(Request::walk(0, len))
        .unwrap()
        .into_walk();
    assert!(r.stitches > 0 && len >= 2 * u64::from(r.lambda));
    // Every stitch consumed one short walk and every GET-MORE-WALKS
    // launched `gmw_count` more; what is left is still stored.
    let gmw_count = (len / u64::from(r.lambda)).max(1);
    let launched = r.state.total_stored() as u64 + r.stitches - r.gmw_invocations * gmw_count;
    assert_eq!(launched, g.n() as u64, "one short walk per node");

    let mut session = WalkSession::new(&g, 0, &SingleWalkConfig::default(), 3).unwrap();
    let _ = session.single_walk(0, len).unwrap();
    assert_eq!(
        session.walks_added(),
        4 * g.n() as u64,
        "sessions keep eta * deg(v)"
    );

    // On a star the hub connects half the stitches: its cap stays below
    // its degree on both sides of S = n.
    let g = generators::star(64);
    for len in [1024u64, 8192] {
        let r = Network::builder(&g)
            .seed(5)
            .build()
            .run(Request::walk(0, len))
            .unwrap()
            .into_walk();
        let lambda = u64::from(r.lambda);
        let mu = len.div_ceil(lambda) as f64 / 2.0;
        assert!(len >= 2 * lambda);
        // The hub launched its Phase-1 cap and no GET-MORE-WALKS walk.
        let hub = u64::from(r.state.nodes[0].next_seq());
        assert_eq!(hub, (mu + 2.0 * mu.sqrt()).ceil() as u64, "l = {len}");
        assert!(hub < 63, "the cap bites at l = {len}");
    }
}

/// Exactness where the demand cap bites: a one-shot walk that provisions
/// fewer short walks than its connectors use must lean on
/// GET-MORE-WALKS, and the endpoint law must still be the exact one.
/// At `eta = 8` the full targets (`8 deg(v)`) lie above every cap here,
/// and `lambda_scale = 0.2` asks for enough stitches (`S = 45`) that a
/// connector now and then outruns its cap's Poisson margin (9 of the
/// 400 runs).
#[test]
fn capped_one_shot_walks_stay_exact() {
    let g = generators::lollipop(5, 4);
    let len = 400u64;
    let probs = exact_distribution(&g, 0, len);
    let mut counts = vec![0u64; g.n()];
    let mut runs_with_gmw = 0;
    for seed in 0..400 {
        let r = Network::builder(&g)
            .params(WalkParams {
                lambda_scale: 0.2,
                eta: 8.0,
            })
            .seed(40_000 + seed)
            .build()
            .run(Request::walk(0, len))
            .unwrap()
            .into_walk();
        counts[r.destination] += 1;
        runs_with_gmw += u32::from(r.gmw_invocations > 0);
        let gmw_count = (len / u64::from(r.lambda)).max(1);
        let launched = r.state.total_stored() as u64 + r.stitches - r.gmw_invocations * gmw_count;
        assert!(launched < 16 * g.m() as u64, "the cap bites: {launched}");
    }
    assert!(runs_with_gmw > 0, "the cap never left a connector dry");
    let t = chi_square_against_probs(&counts, &probs);
    assert!(
        t.passes(0.001),
        "{t:?} ({runs_with_gmw} runs with GET-MORE-WALKS)"
    );
}

/// Fitted stitches stay exact. A walk goes on stitching while
/// `lambda <= remaining < 2 * lambda`, over only the stored walks that
/// fit what is left. One-shot walks, and waves of eight walks from one
/// source (whose connectors coincide, so takes contend and retry), must
/// both match the exact law — and fitted segments must occur.
#[test]
fn fitted_stitches_stay_exact() {
    let g = generators::lollipop(5, 4);
    let len = 400u64;
    let probs = exact_distribution(&g, 0, len);
    // Segments that started with fewer than `2 * lambda` steps to go.
    let fitted = |segs: &[drw_core::Segment], lambda: u32| {
        let late = |s: &&drw_core::Segment| s.start_pos + 2 * u64::from(lambda) > len;
        segs.iter().filter(late).count()
    };
    let mut counts = vec![0u64; g.n()];
    let mut fitted_one_shot = 0;
    for seed in 0..400 {
        let r = Network::builder(&g)
            .seed(52_000 + seed)
            .build()
            .run(Request::walk(0, len))
            .unwrap()
            .into_walk();
        counts[r.destination] += 1;
        fitted_one_shot += fitted(&r.segments, r.lambda);
    }
    let t = chi_square_against_probs(&counts, &probs);
    assert!(t.passes(0.001), "one-shot: {t:?}");
    assert!(
        fitted_one_shot > 0,
        "no one-shot walk stitched a fitted segment"
    );

    let mut counts = vec![0u64; g.n()];
    let mut fitted_waves = 0;
    for seed in 0..50 {
        let r = Network::builder(&g)
            .seed(53_000 + seed)
            .build()
            .run(Request::many_walks(vec![0; 8], len))
            .unwrap()
            .into_many_walks();
        assert!(!r.used_naive_fallback);
        for (&d, segs) in r.destinations.iter().zip(&r.segments) {
            counts[d] += 1;
            fitted_waves += fitted(segs, r.lambda);
        }
    }
    let t = chi_square_against_probs(&counts, &probs);
    assert!(t.passes(0.001), "waves: {t:?}");
    assert!(fitted_waves > 0, "no wave walk stitched a fitted segment");
}

/// Regenerated walks are genuine trajectories whose endpoint matches the
/// reported destination.
#[test]
fn regenerated_walk_matches_destination() {
    let g = generators::torus2d(6, 6);
    for seed in 0..5 {
        let len = 700 + seed * 113;
        let r = Network::builder(&g)
            .seed(seed)
            .build()
            .run(Request::Walk {
                source: 3,
                len,
                record: true,
            })
            .unwrap()
            .into_walk();
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
        let r = Network::builder(&g)
            .seed(seed)
            .build()
            .run(Request::many_walks(vec![0; k], len))
            .unwrap()
            .into_many_walks();
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
    let run = || {
        let mut net = Network::builder(&g).seed(1234).build();
        net.run(Request::walk(1, 999)).unwrap().into_walk()
    };
    let (a, b) = (run(), run());
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
        let r = Network::builder(&g)
            .seed(3)
            .build()
            .run(Request::walk(0, len))
            .unwrap()
            .into_walk();
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
    let expander = generators::random_regular(1024, 4, &mut rng);
    let cases = [
        (expander, 256, 4096),
        (generators::torus2d(16, 16), 600, 8192),
    ];
    for (g, len, long) in cases {
        let sources: Vec<usize> = (0..16).map(|i| (i * 61) % g.n()).collect();
        let k = sources.len() as u64;
        let many = |len| {
            let mut net = Network::builder(&g).seed(5).build();
            net.run(Request::many_walks(sources.clone(), len))
                .unwrap()
                .into_many_walks()
        };
        let r = many(len);
        let lambda = u64::from(r.lambda);
        assert!(!r.used_naive_fallback && lambda <= len && len < 2 * lambda);
        assert_eq!((r.rounds_phase1, r.stitches), (0, 0), "lambda = {lambda}");
        assert_eq!(r.state.total_stored(), 0);
        let bfs_messages = 4 * g.m() as u64; // at most two per edge and direction
        assert!(r.messages <= k * len + bfs_messages, "{}", r.messages);
        assert!(r.rounds <= r.rounds_bfs + k + len + 8, "{}", r.rounds);

        let r = many(long);
        assert!(long >= 2 * u64::from(r.lambda));
        assert!(r.rounds_phase1 > 0 && r.stitches > 0 && r.state.total_stored() > 0);
    }
}
