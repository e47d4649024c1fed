//! The decentralized mixing-time estimator (Theorem 4.6), as a client
//! of the [`drw_core::Network`] facade.
//!
//! The execution engine — `K = ceil(c * sqrt(n))` walk samples per
//! probe via `MANY-RANDOM-WALKS`, pipelined upcasts of endpoint bucket
//! statistics, the bucketed PASS/FAIL stationarity test, the doubling
//! scan and the binary-search refinement (Lemma 4.4 monotonicity) —
//! lives in `drw-core` behind [`drw_core::Request::MixingTime`]
//! (estimating the mixing time is just *serving a stream of walk
//! requests*, which is the whole point of the facade). This module
//! keeps the familiar [`estimate_mixing_time`] entry point as a thin
//! shim over a throwaway [`Network`], seed-for-seed identical to the
//! pre-facade driver, plus the legacy configuration type.
//!
//! Every probe rides one walk session private to the call: one
//! BFS/diameter estimate serves every probe's walks *and* upcasts, and
//! probes in the stitched regime top up the shared short-walk store
//! instead of rebuilding Phase 1 (experiment E12 prices that against
//! serving each probe's walks one-shot).

use drw_core::{Error, MixingRequest, Network, Request, SingleWalkConfig, WalkError};
use drw_graph::{Graph, NodeId};

/// One probe's record (the facade's probe type under its historical
/// name).
pub use drw_core::MixingProbe as ProbeRecord;

/// Result of [`estimate_mixing_time`] (the facade's mixing report under
/// its historical name).
pub use drw_core::MixingReport as MixingEstimate;

/// Configuration of [`estimate_mixing_time`].
#[derive(Debug, Clone)]
pub struct MixingConfig {
    /// PASS threshold on the bucketed total-variation discrepancy.
    /// Statistical noise with `K` samples is `~sqrt(B/K)`, so keep the
    /// threshold above that.
    pub threshold: f64,
    /// PASS threshold on the collision statistic
    /// `||p - pi||_2^2 / ||pi||_2^2` (the component that detects
    /// non-stationarity on regular graphs).
    pub l2_threshold: f64,
    /// Samples per probe: `K = ceil(samples_scale * sqrt(n))`.
    pub samples_scale: f64,
    /// Geometric base of the stationary-mass buckets.
    pub bucket_base: f64,
    /// Walk machinery configuration.
    pub walk: SingleWalkConfig,
    /// Probe-length cap: estimation aborts (returning the cap) once
    /// `l > max_len`, e.g. on bipartite graphs where the simple walk
    /// never mixes.
    pub max_len: u64,
    /// Refine with binary search after the first PASS.
    pub refine: bool,
}

impl Default for MixingConfig {
    fn default() -> Self {
        MixingConfig {
            threshold: 0.20,
            l2_threshold: 0.5,
            samples_scale: 8.0,
            bucket_base: 1.5,
            walk: SingleWalkConfig::default(),
            max_len: 1 << 20,
            refine: true,
        }
    }
}

impl MixingConfig {
    /// The facade request this configuration describes (a full
    /// doubling-scan estimate from `source`).
    pub fn to_request(&self, source: NodeId) -> MixingRequest {
        MixingRequest {
            source,
            threshold: self.threshold,
            l2_threshold: self.l2_threshold,
            samples_scale: self.samples_scale,
            bucket_base: self.bucket_base,
            start_len: 1,
            max_len: self.max_len,
            refine: self.refine,
        }
    }
}

/// Estimates `tau_mix` from `source` with the decentralized algorithm of
/// Section 4.2.
///
/// A thin shim over a throwaway [`Network`] issuing one
/// [`Request::MixingTime`]; regression-tested to stay seed-for-seed
/// identical to the pre-facade driver. Callers composing mixing probes
/// with other traffic should hold a [`Network`] and batch them instead.
///
/// # Errors
///
/// Same as [`drw_core::single_random_walk`].
pub fn estimate_mixing_time(
    g: &Graph,
    source: NodeId,
    cfg: &MixingConfig,
    seed: u64,
) -> Result<MixingEstimate, WalkError> {
    let mut net = Network::builder(g)
        .config(cfg.walk.clone())
        .seed(seed)
        .build();
    net.run(Request::MixingTime(cfg.to_request(source)))
        .map(drw_core::Response::into_mixing)
        .map_err(Error::expect_walk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::{exact_tau, exact_tau_mix};
    use drw_graph::generators;

    fn small_cfg() -> MixingConfig {
        MixingConfig {
            samples_scale: 6.0,
            max_len: 1 << 14,
            ..MixingConfig::default()
        }
    }

    #[test]
    fn expander_mixes_fast() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = generators::random_regular(64, 6, &mut rng);
        let est = estimate_mixing_time(&g, 0, &small_cfg(), 2).unwrap();
        assert!(est.converged);
        assert!(est.tau_estimate <= 32, "estimate = {}", est.tau_estimate);
    }

    #[test]
    fn odd_cycle_is_slow_and_sandwiched() {
        let g = generators::cycle(33);
        let est = estimate_mixing_time(&g, 0, &small_cfg(), 3).unwrap();
        assert!(est.converged);
        // Sandwich: the estimate must be at least tau_x(generous) and at
        // most tau_x(strict); we check the weaker ordering claims that
        // survive sampling noise: estimate within [tau(0.9), tau(0.05)].
        let lo = exact_tau(&g, 0, 0.9, 100_000).unwrap();
        let hi = exact_tau(&g, 0, 0.05, 100_000).unwrap();
        assert!(
            est.tau_estimate >= lo && est.tau_estimate <= hi,
            "estimate {} outside [{lo}, {hi}]",
            est.tau_estimate
        );
    }

    #[test]
    fn ordering_cycle_vs_complete() {
        let slow = estimate_mixing_time(&generators::cycle(33), 0, &small_cfg(), 4)
            .unwrap()
            .tau_estimate;
        let fast = estimate_mixing_time(&generators::complete(33), 0, &small_cfg(), 5)
            .unwrap()
            .tau_estimate;
        assert!(slow > 4 * fast.max(1), "slow={slow} fast={fast}");
    }

    #[test]
    fn bipartite_hits_the_cap() {
        let g = generators::cycle(16); // even cycle: never mixes
        let cfg = MixingConfig {
            max_len: 512,
            ..small_cfg()
        };
        let est = estimate_mixing_time(&g, 0, &cfg, 6).unwrap();
        assert!(!est.converged);
        assert_eq!(est.tau_estimate, 512);
    }

    #[test]
    fn pass_at_length_one_skips_refinement() {
        // On a complete graph a single step is already near-stationary:
        // the very first probe PASSes, `last_fail` stays 0, and the
        // binary search must not run (there is no probe below 1, and no
        // `lo = 0` artifact may surface).
        let g = generators::complete(32);
        let est = estimate_mixing_time(&g, 0, &small_cfg(), 8).unwrap();
        assert!(est.converged);
        assert_eq!(est.tau_estimate, 1);
        assert_eq!(est.probes.len(), 1, "no refinement probes may run");
        assert!(est.probes[0].pass);
    }

    #[test]
    fn no_pass_terminates_cleanly_at_the_cap() {
        // Nothing ever passes on a bipartite graph: the scan must visit
        // exactly the doubling lengths up to the cap — no infinite loop,
        // no refinement — and report the cap without a converged claim.
        let g = generators::cycle(16);
        let cfg = MixingConfig {
            max_len: 256,
            ..small_cfg()
        };
        let est = estimate_mixing_time(&g, 0, &cfg, 9).unwrap();
        assert!(!est.converged);
        assert_eq!(est.tau_estimate, 256);
        let lens: Vec<u64> = est.probes.iter().map(|p| p.len).collect();
        assert_eq!(lens, vec![1, 2, 4, 8, 16, 32, 64, 128, 256]);
        assert!(est.probes.iter().all(|p| !p.pass));
    }

    #[test]
    fn session_probes_match_exact_verdicts() {
        // The probes share one session's randomness, but at fixed seeds
        // on decisively-mixing / decisively-unmixed graphs the PASS/FAIL
        // sequence — and hence the estimate — must be the one the exact
        // walk distribution dictates.
        let cfg = MixingConfig {
            max_len: 1 << 12,
            ..small_cfg()
        };
        let cap = 1 << 12;

        let g = generators::complete(33);
        let exact = exact_tau_mix(&g, 0, cap).expect("complete graphs mix");
        let est = estimate_mixing_time(&g, 0, &cfg, 12).unwrap();
        assert!(est.converged);
        assert_eq!(est.tau_estimate, exact);
        assert!(est.probes.iter().all(|p| p.pass == (p.len >= exact)));

        let g = generators::cycle(16);
        assert_eq!(exact_tau_mix(&g, 0, cap), None, "bipartite: never mixes");
        let est = estimate_mixing_time(&g, 0, &cfg, 13).unwrap();
        assert!(!est.converged);
        assert!(est.probes.iter().all(|p| !p.pass));

        // Borderline graph: probes right at the mixing boundary may go
        // either way, but every probe on the decisive side of the exact
        // L1 curve has its verdict dictated, and the refined estimate
        // lands between the two decisive lengths.
        let g = generators::cycle(33);
        let unmixed_below = exact_tau(&g, 0, 0.9, cap).unwrap();
        let mixed_from = exact_tau(&g, 0, 0.05, cap).unwrap();
        let est = estimate_mixing_time(&g, 0, &cfg, 14).unwrap();
        assert!(est.converged);
        for p in &est.probes {
            if p.len < unmixed_below {
                assert!(!p.pass, "PASS at {} < tau(0.9) = {unmixed_below}", p.len);
            }
            if p.len >= mixed_from {
                assert!(p.pass, "FAIL at {} >= tau(0.05) = {mixed_from}", p.len);
            }
        }
        assert!(
            (unmixed_below..=mixed_from).contains(&est.tau_estimate),
            "estimate {} outside [{unmixed_below}, {mixed_from}]",
            est.tau_estimate
        );
    }

    #[test]
    fn probes_double_then_refine() {
        let g = generators::cycle(17);
        let est = estimate_mixing_time(&g, 0, &small_cfg(), 7).unwrap();
        assert!(est.converged);
        // Doubling prefix: 1, 2, 4, ... strictly increasing by factor 2.
        let mut prev = 0u64;
        for p in &est.probes {
            if p.pass {
                break;
            }
            assert!(
                p.len == 1 || p.len == prev * 2,
                "doubling broken at {}",
                p.len
            );
            prev = p.len;
        }
        // Exact tau_mix should be within a factor-4 band of the estimate
        // (threshold 0.2 vs eps 1/2e plus noise).
        let exact = exact_tau_mix(&g, 0, 100_000).unwrap();
        assert!(
            est.tau_estimate >= exact / 4 && est.tau_estimate <= exact * 4,
            "estimate {} vs exact {exact}",
            est.tau_estimate
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::path(4);
        assert!(matches!(
            estimate_mixing_time(&g, 9, &small_cfg(), 1),
            Err(WalkError::SourceOutOfRange(9))
        ));
    }
}
