//! Decentralized estimation of mixing time, spectral gap and conductance
//! (Section 4.2 of the PODC 2010 paper).
//!
//! Given a source `x`, the estimator draws `K = ~O(sqrt(n))` independent
//! `l`-step walk samples with `MANY-RANDOM-WALKS`, ships them to `x` by
//! pipelined upcast, and compares the empirical endpoint distribution
//! against the (degree-proportional) stationary distribution with a
//! bucketed test in the style of Batu et al. \[6\]; `l` doubles until the
//! test passes, then a binary search pins the smallest passing length
//! (using the monotonicity of `||pi_x(t) - pi||_1`, Lemma 4.4). Total:
//! `~O(n^{1/2} + n^{1/4} sqrt(D * tau))` rounds (Theorem 4.6) — compare
//! the `Theta(tau)`-round direct-diffusion baseline ([`baseline`], the
//! Kempe-McSherry-style comparator).
//!
//! From the mixing-time estimate, standard inequalities bound the
//! spectral gap and conductance ([`spectral_bounds`]):
//! `1/(1 - lambda_2) <= tau_mix <= log n / (1 - lambda_2)` and
//! `Theta(1 - lambda_2) <= Phi <= Theta(sqrt(1 - lambda_2))`.
//!
//! The estimator itself is a request to the walk service,
//! `drw_core::Request::MixingTime`, served by [`drw_core::Network`]
//! like every other request (its driver and the bucketed test live in
//! `drw-core`). This crate holds what the estimator is checked and
//! compared against. Ground truth for all of the above is computed
//! exactly in [`ground_truth`] (and `drw_graph::spectral`).
//!
//! # Example
//!
//! ```
//! use drw_core::{MixingRequest, Network, Request};
//! use drw_graph::generators;
//!
//! # fn main() -> Result<(), drw_core::Error> {
//! // An expander mixes fast; the estimate is small.
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let g = generators::random_regular(64, 6, &mut rng);
//! let mut net = Network::builder(&g).seed(3).build();
//! let request = Request::MixingTime(MixingRequest::full_estimate(0));
//! let est = net.run(request)?.into_mixing();
//! assert!(est.tau_estimate <= 64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod ground_truth;
pub mod spectral_bounds;

pub use baseline::{direct_diffusion_mixing, direct_diffusion_mixing_cfg, DiffusionResult};
pub use spectral_bounds::{conductance_interval, spectral_gap_interval, Interval};
