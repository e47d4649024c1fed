//! Parameter selection for the walk algorithms.
//!
//! The paper proves its bounds with `eta = 1` and
//! `lambda = 24 sqrt(l D) (log n)^3` — w.h.p. constants that dwarf any
//! simulable network. Because the algorithm is Las Vegas (any
//! `lambda >= 1` and any `eta > 0` give an exact sample; only rounds
//! change), the implementation uses `lambda = c * sqrt(l * D)` with a
//! small tunable `c` and relies on `GET-MORE-WALKS` to absorb the
//! dropped polylog slack. Experiment A2 sweeps `c` and recovers the
//! predicted optimum.
//!
//! A one-shot walk ([`crate::Network::run`] of a [`crate::Request::Walk`])
//! launches no more short walks than it can use: with stitch demand
//! `S = ceil(l / lambda)` (0 when `l < 2 * lambda`), node `v` expects
//! to connect `mu = S * deg(v) / 2m` stitches (`S / n` under flat
//! allocation) and launches `min(ceil(eta * deg(v)), ceil(mu + 2 sqrt(mu)))`
//! (`ceil(eta)` in place of the first term under flat allocation): a dry
//! connector rides a fresh walk of about `1.5 lambda` rounds where a
//! claim takes about `dist`, so the cap keeps a Poisson margin. Every
//! store that outlives its request (sessions, batches, the service) and
//! every other one-shot request keeps `ceil(eta * deg(v))`.

/// Tunable constants for the PODC 2010 algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkParams {
    /// `c` in `lambda = c * sqrt(l * D)`.
    pub lambda_scale: f64,
    /// Short walks per unit of degree in Phase 1 (`eta > 0`); node `v`
    /// prepares `ceil(eta * deg(v))` walks, fewer for a one-shot walk
    /// whose stitch demand is smaller (see the module docs).
    pub eta: f64,
}

impl Default for WalkParams {
    fn default() -> Self {
        WalkParams {
            lambda_scale: 1.0,
            eta: 1.0,
        }
    }
}

impl WalkParams {
    /// The short-walk base length `lambda = clamp(c * sqrt(l * D), 1, l)`
    /// (Theorem 2.5 with polylogs dropped).
    pub fn lambda(&self, len: u64, diameter: u64) -> u32 {
        let raw = self.lambda_scale * ((len as f64) * (diameter.max(1) as f64)).sqrt();
        (raw.round() as u64)
            .clamp(1, len.max(1))
            .min(u32::MAX as u64) as u32
    }

    /// The `lambda` for `k` simultaneous walks (Theorem 2.8 with polylogs
    /// dropped): `c * (sqrt(k l D) + k)`, clamped to `[1, l]`. When this
    /// exceeds `l`, `MANY-RANDOM-WALKS` falls back to `k` parallel naive
    /// walks — the `min(..., k + l)` branch of the theorem.
    pub fn lambda_many(&self, k: u64, len: u64, diameter: u64) -> u32 {
        let raw =
            self.lambda_scale * (((k * len) as f64 * diameter.max(1) as f64).sqrt() + k as f64);
        (raw.round() as u64)
            .clamp(1, len.max(1))
            .min(u32::MAX as u64) as u32
    }

    /// Number of short walks node `v` prepares in Phase 1:
    /// `ceil(eta * deg(v))` — the degree-proportional allocation that
    /// matches the visit bound of Lemma 2.6.
    pub fn walks_for_degree(&self, degree: usize) -> usize {
        (self.eta * degree as f64).ceil().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_scales_as_sqrt() {
        let p = WalkParams::default();
        let l1 = p.lambda(1024, 16) as f64;
        let l2 = p.lambda(4096, 16) as f64;
        // Quadrupling l should double lambda.
        assert!((l2 / l1 - 2.0).abs() < 0.05, "ratio = {}", l2 / l1);
        assert_eq!(p.lambda(1024, 16), 128);
    }

    #[test]
    fn lambda_clamped_to_len() {
        let p = WalkParams::default();
        assert_eq!(p.lambda(4, 10_000), 4);
        assert_eq!(p.lambda(1, 1), 1);
    }

    #[test]
    fn lambda_scale_is_linear() {
        let a = WalkParams {
            lambda_scale: 2.0,
            ..WalkParams::default()
        };
        let b = WalkParams::default();
        assert_eq!(a.lambda(1 << 16, 4), 2 * b.lambda(1 << 16, 4));
    }

    #[test]
    fn walks_for_degree_rounds_up_and_is_positive() {
        let p = WalkParams {
            eta: 0.5,
            ..WalkParams::default()
        };
        assert_eq!(p.walks_for_degree(1), 1);
        assert_eq!(p.walks_for_degree(4), 2);
        assert_eq!(p.walks_for_degree(5), 3);
        let q = WalkParams::default();
        assert_eq!(q.walks_for_degree(3), 3);
    }

    #[test]
    fn lambda_many_exceeds_single() {
        let p = WalkParams::default();
        assert!(p.lambda_many(16, 1 << 14, 16) > p.lambda(1 << 14, 16));
    }
}
