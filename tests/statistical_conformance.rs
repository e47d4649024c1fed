//! Statistical conformance of the batched Phase-2 scheduler: the
//! endpoint of every one of the `k` concurrent walks must be an *exact*
//! sample of the `l`-step walk distribution (Theorem 2.5 extended to
//! Theorem 2.8's batched regime), even though the walks contend for one
//! shared short-walk store.
//!
//! Verified by chi-square against the exact transition-matrix
//! distribution (`drw_core::exact`), per source, on a torus and an
//! Erdős–Rényi graph, with fixed seeds. `DRW_FAULTS` selects the
//! transport, so the CI matrix runs this over a perfect and a lossy
//! ARQ-healed network.

use distributed_random_walks::prelude::*;
use drw_core::exact::exact_distribution;
use drw_experiments::engine_config_from_env;
use drw_stats::chi2::chi_square_against_probs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `trials` batched many-walks over `sources`, forced into the
/// stitched regime, and chi-squares each distinct source's endpoint
/// counts against the exact distribution.
fn assert_conformance(g: &Graph, name: &str, sources: &[usize], len: u64, trials: u64, seed: u64) {
    let cfg = SingleWalkConfig {
        // A small lambda keeps lambda_many below l, so the batched
        // stitched branch runs (the default scale would fall back to
        // the k + l naive branch at these sizes).
        params: WalkParams {
            lambda_scale: 0.25,
            eta: 1.0,
        },
        engine: engine_config_from_env(),
        ..SingleWalkConfig::default()
    };
    let mut counts: Vec<Vec<u64>> = vec![vec![0; g.n()]; sources.len()];
    let mut stitches = 0u64;
    for t in 0..trials {
        let r = Network::builder(g)
            .config(cfg.clone())
            .seed(seed + t)
            .build()
            .run(Request::many_walks(sources.to_vec(), len))
            .expect("many walks")
            .into_many_walks();
        assert!(
            !r.used_naive_fallback,
            "{name}: conformance must exercise the stitched regime"
        );
        stitches += r.stitches;
        for (i, &d) in r.destinations.iter().enumerate() {
            counts[i][d] += 1;
        }
    }
    assert!(stitches > 0, "{name}: no stitching happened");
    for (i, &s) in sources.iter().enumerate() {
        let probs = exact_distribution(g, s, len);
        let test = chi_square_against_probs(&counts[i], &probs);
        assert!(
            test.passes(0.001),
            "{name}: walk {i} from {s} diverges from the exact distribution: {test:?}"
        );
    }
}

#[test]
fn torus_endpoints_match_exact_distribution() {
    // Duplicate sources deliberately: walks from the same node contend
    // for the same tokens, which is where batched stitching could bias
    // the distribution if segment reuse or selection were wrong.
    let g = generators::torus2d(4, 4);
    assert_conformance(&g, "torus 4x4", &[0, 0, 5, 10], 64, 400, 10_000);
}

/// The fault-layer conformance claim (PR-7 tentpole): 5% uniform
/// ARQ-healed message drop on the 32x32 torus must not bias walk
/// endpoints. Retransmission reshuffles *which* RNG draw each token
/// meets, never the transition law, so the chi-square against the exact
/// `P^l` row distribution (1024 cells aggregated to the 32 torus rows,
/// keeping expected counts well above 5) must still pass.
#[test]
fn torus_endpoints_match_exact_distribution_at_five_percent_drop() {
    use drw_congest::FaultPlan;
    let g = generators::torus2d(32, 32);
    let len = 256u64;
    let source = 0usize;
    let cfg = SingleWalkConfig {
        params: WalkParams {
            lambda_scale: 0.25,
            eta: 1.0,
        },
        engine: engine_config_from_env().with_faults(FaultPlan::drops(4, 50)),
        ..SingleWalkConfig::default()
    };
    let mut row_counts = vec![0u64; 32];
    for t in 0..16 {
        let r = Network::builder(&g)
            .config(cfg.clone())
            .seed(60_000 + t)
            .build()
            .run(Request::many_walks(vec![source; 16], len))
            .expect("faulty many walks")
            .into_many_walks();
        assert!(
            !r.used_naive_fallback,
            "conformance needs the stitched regime"
        );
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
        test.passes(0.001),
        "faulty 32x32 torus diverges from the exact distribution: {test:?}"
    );
}

#[test]
fn erdos_renyi_endpoints_match_exact_distribution() {
    // G(n, p) above the connectivity threshold; deterministic seed scan
    // for a connected instance.
    let g = (0..100)
        .find_map(|i| {
            let mut rng = StdRng::seed_from_u64(0xE6 + i);
            let g = generators::er_gnp(24, 0.18, &mut rng);
            drw_graph::traversal::is_connected(&g).then_some(g)
        })
        .expect("some seed yields a connected G(n, p)");
    // Odd length: exercises the non-bipartite / odd-step case too.
    assert_conformance(&g, "er_gnp(24,0.18)", &[0, 3, 7, 7], 51, 400, 50_000);
}
