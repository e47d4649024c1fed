//! Acceptance suite for the deterministic fault-injection layer and the
//! self-healing protocol stack (the PR-7 tentpole).
//!
//! The claim under test, at 5% uniform message drop with link-level ARQ
//! on the 32x32 torus: every algorithm still terminates with *verdict
//! parity* against its fault-free run — the RST is a valid spanning
//! tree, the mixing estimator reaches the same verdict, walk endpoints
//! still follow the exact `P^l` distribution (chi-square p >= 0.01) —
//! and the price of the faults is bounded: at most 2.5x the fault-free
//! round count. Faults shift timing and interleaving, never the
//! distribution; they cost rounds, never bias endpoints.
//!
//! Experiment E16 (`exp_e16_faults`) quantifies the same quantities
//! across drop rates {0, 1%, 5%, 10%}.

use distributed_random_walks::prelude::*;
use drw_congest::FaultPlan;
use drw_graph::matrix_tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The headline fault rate: 5% uniform drop, ARQ-healed.
const DROP_5PCT: u16 = 50;

/// Acceptance bound on the round overhead of healed faults.
const MAX_OVERHEAD: f64 = 2.5;

/// The default engine over a transport that drops 5% of messages
/// (ARQ-healed), on the fault plan seeded `seed`.
fn lossy(seed: u64) -> EngineConfig {
    EngineConfig::default().with_faults(FaultPlan::drops(seed, DROP_5PCT))
}

fn overhead(faulty_rounds: u64, base_rounds: u64) -> f64 {
    faulty_rounds as f64 / base_rounds.max(1) as f64
}

/// RST at 5% drop on the 32x32 torus: the tree is still a *valid*
/// spanning tree (every phase's recorded first-visit ledger survived the
/// lossy transport intact) and the whole construction costs at most
/// 2.5x the fault-free rounds.
#[test]
fn rst_is_valid_under_five_percent_drop() {
    let g = generators::torus2d(32, 32);
    let tree = |engine| {
        let mut net = Network::builder(&g).engine(engine).seed(31).build();
        net.run(Request::spanning_tree(0)).expect("RST").into_tree()
    };
    let base = tree(EngineConfig::default());
    assert!(matrix_tree::is_spanning_tree(&g, &base.edges));

    let f = tree(lossy(1));
    assert_eq!(f.edges.len(), g.n() - 1);
    assert!(
        matrix_tree::is_spanning_tree(&g, &f.edges),
        "faulty run produced a non-tree"
    );
    let ratio = overhead(f.rounds, base.rounds);
    assert!(
        ratio <= MAX_OVERHEAD,
        "RST overhead {ratio:.2}x exceeds {MAX_OVERHEAD}x ({} vs {} rounds)",
        f.rounds,
        base.rounds
    );
}

/// Walk endpoints at 5% drop still follow the exact transition-matrix
/// distribution: chi-square over the torus rows (1024 cells aggregated
/// to 32, the E14 small-expected-count idiom) must not reject at
/// p >= 0.01. ARQ retransmission changes *when* tokens move, and
/// therefore which RNG draws they meet — but never the per-step
/// transition law.
#[test]
fn endpoint_distribution_survives_drops() {
    use drw_core::exact::exact_distribution;
    use drw_stats::chi2::chi_square_against_probs;
    let g = generators::torus2d(32, 32);
    let params = WalkParams {
        lambda_scale: 0.25,
        eta: 1.0,
    };
    let source = 0usize;
    let len = 256u64;
    let mut row_counts = vec![0u64; 32];
    for t in 0..24 {
        let r = Network::builder(&g)
            .params(params)
            .engine(lossy(2))
            .seed(9000 + t)
            .build()
            .run(Request::many_walks(vec![source; 16], len))
            .expect("faulty many-walks")
            .into_many_walks();
        assert!(!r.used_naive_fallback);
        for &d in &r.destinations {
            row_counts[d / 32] += 1;
        }
    }
    let probs = exact_distribution(&g, source, len);
    let mut row_probs = vec![0f64; 32];
    for (v, p) in probs.iter().enumerate() {
        row_probs[v / 32] += p;
    }
    let test = chi_square_against_probs(&row_counts, &row_probs);
    assert!(
        test.passes(0.01),
        "endpoint distribution rejected under faults: {test:?}"
    );
}

/// Mixing verdict parity at 5% drop, on both sides of the spectrum:
///
/// - the bipartite 32x32 torus never passes a strict threshold — the
///   faulty estimator must agree (same non-converged verdict, same
///   capped tau);
/// - a 4-regular expander converges fast — the faulty estimator must
///   converge too, with tau within 2x (collision counts are sampled, so
///   different interleavings may land a neighboring probe).
#[test]
fn mixing_verdict_parity_under_drops() {
    let estimate = |g: &Graph, req: &MixingRequest, engine, seed| {
        let mut net = Network::builder(g).engine(engine).seed(seed).build();
        let req = Request::MixingTime(req.clone());
        net.run(req).expect("mixing").into_mixing()
    };

    let torus = generators::torus2d(32, 32);
    let strict = MixingRequest {
        samples_scale: 8.0,
        max_len: 1 << 12,
        threshold: 0.12,
        l2_threshold: 0.3,
        ..MixingRequest::full_estimate(0)
    };
    let base = estimate(&torus, &strict, EngineConfig::default(), 3);
    let f = estimate(&torus, &strict, lossy(1), 3);
    assert_eq!(
        base.converged, f.converged,
        "torus verdict flipped under faults"
    );
    assert_eq!(
        base.tau_estimate, f.tau_estimate,
        "capped tau must agree on the torus"
    );

    let mut rng = StdRng::seed_from_u64(0xD0D0);
    let expander = generators::random_regular(96, 4, &mut rng);
    let quick = MixingRequest {
        samples_scale: 8.0,
        max_len: 1 << 10,
        ..MixingRequest::full_estimate(0)
    };
    let base = estimate(&expander, &quick, EngineConfig::default(), 5);
    assert!(base.converged, "expander baseline must converge");
    let f = estimate(&expander, &quick, lossy(7), 5);
    assert!(f.converged, "expander verdict flipped under faults");
    assert!(
        f.tau_estimate <= 2 * base.tau_estimate && base.tau_estimate <= 2 * f.tau_estimate,
        "tau drifted: {} vs {}",
        base.tau_estimate,
        f.tau_estimate
    );
}

/// Round overhead of 5% healed drops on the walk drivers themselves:
/// `SINGLE-RANDOM-WALK` and `MANY-RANDOM-WALKS` both stay within 2.5x
/// of their fault-free round counts (measured ~1.2x; the bound leaves
/// headroom for seed variation, not for regressions to hide).
#[test]
fn walk_round_overhead_is_bounded() {
    let g16 = generators::torus2d(16, 16);
    let walk = |engine| {
        let mut net = Network::builder(&g16).engine(engine).seed(7).build();
        net.run(Request::walk(0, 1024)).expect("walk").into_walk()
    };
    let base = walk(EngineConfig::default());
    let f = walk(lossy(1));
    assert!(f.destination < g16.n());
    let ratio = overhead(f.rounds, base.rounds);
    assert!(
        ratio <= MAX_OVERHEAD,
        "single-walk overhead {ratio:.2}x ({} vs {} rounds)",
        f.rounds,
        base.rounds
    );

    let g32 = generators::torus2d(32, 32);
    let params = WalkParams {
        lambda_scale: 0.25,
        eta: 1.0,
    };
    let sources: Vec<usize> = (0..8).map(|i| (i * 131) % g32.n()).collect();
    let many = |engine| {
        let mut net = Network::builder(&g32)
            .params(params)
            .engine(engine)
            .seed(7)
            .build();
        let req = Request::many_walks(sources.clone(), 256);
        net.run(req).expect("many walks").into_many_walks()
    };
    let base = many(EngineConfig::default());
    let f = many(lossy(1));
    assert!(!f.used_naive_fallback);
    let ratio = overhead(f.rounds, base.rounds);
    assert!(
        ratio <= MAX_OVERHEAD,
        "many-walks overhead {ratio:.2}x ({} vs {} rounds)",
        f.rounds,
        base.rounds
    );
}

/// The full self-healing session story in one stream: lossy-but-healed
/// links, a node crash (forced eviction delta), a rejoin — and the
/// session keeps serving distribution-correct walks throughout.
#[test]
fn session_survives_crash_and_rejoin_on_faulty_links() {
    use drw_core::network::Network;
    use drw_core::request::Request;
    let g = generators::torus2d(8, 8);
    let mut net = Network::builder(&g)
        .engine(EngineConfig::default().with_faults(FaultPlan::drops(5, DROP_5PCT)))
        .seed(17)
        .build();
    let r1 = net
        .run_batch(vec![Request::many_walks(vec![0, 9, 27], 128)])
        .expect("pre-crash batch")
        .remove(0)
        .into_many_walks();
    assert_eq!(r1.destinations.len(), 3);
    let parity = |v: usize| (v / 8 + v % 8) % 2;
    for (&s, &d) in [0usize, 9, 27].iter().zip(&r1.destinations) {
        assert_eq!(parity(s), parity(d), "parity broken on faulty links");
    }

    // Crash the newest node; its stored walks are evicted at repair.
    let _ = net.crash_last_node().expect("crash");
    assert_eq!(net.graph().n(), 63);
    let r2 = net
        .run_batch(vec![Request::many_walks(vec![0, 9], 128)])
        .expect("post-crash batch")
        .remove(0)
        .into_many_walks();
    for &d in &r2.destinations {
        assert!(d < 63, "walk landed on the crashed node");
    }

    // Rejoin with fresh attachment edges; serve from the newcomer.
    let _ = net.rejoin_node(&[0, 7, 56]).expect("rejoin");
    assert_eq!(net.graph().n(), 64);
    let r3 = net
        .run_batch(vec![Request::many_walks(vec![63, 5], 128)])
        .expect("post-rejoin batch")
        .remove(0)
        .into_many_walks();
    assert_eq!(r3.destinations.len(), 2);
    assert!(net.session().expect("session exists").repairs() >= 2);
}
