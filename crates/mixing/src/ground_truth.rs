//! Exact (centralized) mixing-time ground truth for validating the
//! decentralized estimator.

use drw_graph::{spectral, Graph, NodeId};

pub use drw_graph::spectral::WalkKind;

/// The paper's `eps = 1/2e` from Definition 4.3 (`tau_mix^x =
/// tau_x(1/2e)`).
pub fn eps_mix() -> f64 {
    1.0 / (2.0 * std::f64::consts::E)
}

/// Exact `tau_x(eps)` for the simple walk (Definition 4.3): the first `t`
/// with `||pi_x(t) - pi||_1 < eps`, or `None` within `cap` steps (e.g.
/// bipartite graphs, where the simple walk never mixes).
pub fn exact_tau(g: &Graph, source: NodeId, eps: f64, cap: usize) -> Option<u64> {
    spectral::mixing_time(g, source, eps, WalkKind::Simple, cap).map(|t| t as u64)
}

/// Exact `tau_mix^x = tau_x(1/2e)`.
pub fn exact_tau_mix(g: &Graph, source: NodeId, cap: usize) -> Option<u64> {
    exact_tau(g, source, eps_mix(), cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::generators;

    #[test]
    fn tau_orders_families() {
        // Odd cycle (slow) vs complete graph (instant).
        let slow = exact_tau_mix(&generators::cycle(31), 0, 100_000).unwrap();
        let fast = exact_tau_mix(&generators::complete(31), 0, 100_000).unwrap();
        assert!(slow > 20 * fast.max(1), "slow={slow} fast={fast}");
    }

    #[test]
    fn bipartite_simple_walk_never_mixes() {
        assert_eq!(exact_tau_mix(&generators::cycle(8), 0, 10_000), None);
    }

    #[test]
    fn eps_mix_value() {
        assert!((eps_mix() - 0.1839).abs() < 1e-3);
    }

    /// The full estimator (doubling scan plus refinement) from node 0.
    fn estimate(g: &Graph, seed: u64) -> drw_core::MixingReport {
        use drw_core::{MixingRequest, Network, Request};
        let req = MixingRequest {
            samples_scale: 6.0,
            max_len: 1 << 14,
            ..MixingRequest::full_estimate(0)
        };
        let mut net = Network::builder(g).seed(seed).build();
        net.run(Request::MixingTime(req)).unwrap().into_mixing()
    }

    #[test]
    fn estimator_doubles_then_refines_near_the_exact_tau() {
        let g = generators::cycle(17);
        let est = estimate(&g, 7);
        assert!(est.converged);
        // Doubling prefix: 1, 2, 4, ... strictly increasing by factor 2.
        let mut prev = 0u64;
        for p in est.probes.iter().take_while(|p| !p.pass) {
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
    fn a_pass_at_length_one_skips_refinement() {
        // On a complete graph a single step is already near-stationary:
        // the very first probe PASSes and the binary search must not run
        // (there is no probe below 1, and no `lo = 0` artifact may
        // surface).
        let est = estimate(&generators::complete(32), 8);
        assert!(est.converged);
        assert_eq!(est.tau_estimate, 1);
        assert_eq!(est.probes.len(), 1, "no refinement probes may run");
        assert!(est.probes[0].pass);
    }
}
