//! Bucketed comparison of an empirical sample against the stationary
//! distribution, in the style of Batu et al. \[6\].
//!
//! The paper uses the Batu et al. tester as a black box: partition nodes
//! into buckets by stationary mass, compare the sample's bucket
//! histogram against the exact bucket masses, and measure closeness
//! *within* buckets by collision statistics. This module implements that
//! interface with two components (the substitution is documented in
//! DESIGN.md):
//!
//! - the **bucketed TV discrepancy** `0.5 * sum_j |emp_j - mass_j|`,
//!   which catches mass-profile mismatch on irregular graphs; and
//! - the **collision L2 statistic**: with `c_v` samples at node `v`,
//!   `sum c_v (c_v - 1) / (K (K-1))` estimates `||p||_2^2` unbiasedly,
//!   and `sum c_v pi_v / K` estimates `<p, pi>`, giving
//!   `||p - pi||_2^2 = ||p||_2^2 - 2 <p, pi> + ||pi||_2^2` — this is the
//!   Goldreich-Ron/Batu collision device, and it is what detects
//!   non-stationarity on *regular* graphs, where every node falls into
//!   one bucket and the bucketed TV is vacuously zero.
//!
//! The test PASSes when both components are small. Everything a node
//! needs (its bucket, its `pi_v`) is local after two `O(D)` aggregations
//! (`2m` and `max degree`), matching the paper's claim that "each node
//! knows its own steady state probability".
//!
//! The [`crate::Network`] facade's `MixingTime` requests evaluate their
//! probes against it.

use drw_graph::{Graph, NodeId};

/// Node bucketing by stationary mass: bucket `j` holds nodes with
/// `pi_v in (pi_max * base^{-(j+1)}, pi_max * base^{-j}]`.
#[derive(Debug, Clone)]
pub struct BucketTest {
    bucket_of: Vec<usize>,
    bucket_mass: Vec<f64>,
}

/// Outcome of one comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketTestResult {
    /// Bucketed total-variation discrepancy
    /// `0.5 * sum_j |emp_j - mass_j|`.
    pub discrepancy: f64,
    /// Collision-based estimate of `||p - pi||_2^2 / ||pi||_2^2`
    /// (clamped at 0; ~0 at stationarity, ~n for a point mass).
    pub l2_ratio: f64,
    /// Whether both components are below their thresholds.
    pub pass: bool,
}

/// Node-local sample statistics shipped to the source by upcast: per
/// endpoint node `v` with `c_v` samples, the pairs
/// `(bucket_of(v), c_v)` and `(c_v * deg(v), c_v * (c_v - 1))`.
/// The source only ever adds fields, so the pairs stay `O(log n)`-bit
/// words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleStats {
    /// Samples per bucket.
    pub bucket_hist: Vec<u64>,
    /// `sum_v c_v * deg(v)` (numerator of `K * <p^, pi>` times `2m`).
    pub sum_c_deg: u64,
    /// `sum_v c_v * (c_v - 1)` (ordered collision count).
    pub sum_collisions: u64,
}

impl SampleStats {
    /// Total sample count `K`.
    pub fn total(&self) -> u64 {
        self.bucket_hist.iter().sum()
    }
}

impl BucketTest {
    /// Builds the bucketing for `g` with geometric `base`, for probes of
    /// `samples` endpoints each.
    ///
    /// The bucket count is `B = floor(ln(max deg / min deg) / ln base) + 1`,
    /// computed before anything is allocated. Returns `None` if `base` is
    /// NaN or at most 1, or if `B > samples`: a histogram with more
    /// buckets than samples cannot resolve them (and a base just above 1
    /// would ask for billions of buckets).
    pub fn new(g: &Graph, base: f64, samples: usize) -> Option<Self> {
        if base.is_nan() || base <= 1.0 {
            return None;
        }
        let max_deg = g.max_degree() as f64;
        // Guard the boundary: deg == max_deg gives exactly 0. An isolated
        // node (a disconnected graph, rejected later) joins the last bucket.
        let bucket = |deg: usize| {
            let j = (max_deg / deg.max(1) as f64).ln() / base.ln();
            j.max(0.0).floor() as usize
        };
        let buckets = bucket(g.min_degree()).saturating_add(1);
        if buckets > samples {
            return None;
        }
        let two_m = g.dir_edge_count() as f64;
        let bucket_of: Vec<usize> = (0..g.n()).map(|v| bucket(g.degree(v))).collect();
        let mut bucket_mass = vec![0.0; buckets];
        for (v, &j) in bucket_of.iter().enumerate() {
            bucket_mass[j] += g.degree(v) as f64 / two_m;
        }
        Some(BucketTest {
            bucket_of,
            bucket_mass,
        })
    }

    /// Number of buckets (`B` in the `O(D + B)` collection cost).
    pub fn buckets(&self) -> usize {
        self.bucket_mass.len()
    }

    /// The bucket of a node (node-local knowledge).
    pub fn bucket_of(&self, v: NodeId) -> usize {
        self.bucket_of[v]
    }

    /// Exact stationary mass per bucket.
    pub fn bucket_masses(&self) -> &[f64] {
        &self.bucket_mass
    }

    /// Per-node contribution vectors for the distributed
    /// `VectorSumProtocol` collection of bucket masses: node `v`
    /// contributes `deg(v)` to its bucket (the numerators of the masses).
    pub fn mass_numerators(&self, g: &Graph) -> Vec<Vec<u64>> {
        let b = self.buckets();
        (0..g.n())
            .map(|v| {
                let mut row = vec![0u64; b];
                row[self.bucket_of[v]] = g.degree(v) as u64;
                row
            })
            .collect()
    }

    /// Compares sample statistics against stationarity. `two_m` and
    /// `sum_deg_sq` are the network constants `2m` and `sum_v deg(v)^2`
    /// (collected once by `O(D)` convergecasts).
    ///
    /// # Panics
    ///
    /// Panics if the histogram length differs from the bucket count or
    /// fewer than two samples were provided (the collision estimator
    /// needs pairs).
    pub fn evaluate(
        &self,
        stats: &SampleStats,
        two_m: u64,
        sum_deg_sq: u64,
        tv_threshold: f64,
        l2_threshold: f64,
    ) -> BucketTestResult {
        assert_eq!(
            stats.bucket_hist.len(),
            self.buckets(),
            "histogram/bucket mismatch"
        );
        let total = stats.total();
        assert!(total >= 2, "collision estimator needs at least two samples");
        let k = total as f64;
        let discrepancy: f64 = stats
            .bucket_hist
            .iter()
            .zip(&self.bucket_mass)
            .map(|(&c, &m)| (c as f64 / k - m).abs())
            .sum::<f64>()
            / 2.0;
        // ||p||_2^2 (unbiased), <p, pi> (unbiased), ||pi||_2^2 (exact).
        let p_sq = stats.sum_collisions as f64 / (k * (k - 1.0));
        let p_pi = stats.sum_c_deg as f64 / (k * two_m as f64);
        let pi_sq = sum_deg_sq as f64 / (two_m as f64 * two_m as f64);
        let l2_sq = (p_sq - 2.0 * p_pi + pi_sq).max(0.0);
        let l2_ratio = l2_sq / pi_sq;
        BucketTestResult {
            discrepancy,
            l2_ratio,
            pass: discrepancy < tv_threshold && l2_ratio < l2_threshold,
        }
    }

    /// Convenience: bucket a list of endpoint nodes into a histogram.
    pub fn histogram(&self, endpoints: &[NodeId]) -> Vec<u64> {
        let mut h = vec![0u64; self.buckets()];
        for &v in endpoints {
            h[self.bucket_of[v]] += 1;
        }
        h
    }

    /// Builds the full [`SampleStats`] from a centrally known endpoint
    /// list (what the distributed upcasts deliver to the source).
    pub fn stats_from_endpoints(&self, g: &Graph, endpoints: &[NodeId]) -> SampleStats {
        let mut c = vec![0u64; g.n()];
        for &v in endpoints {
            c[v] += 1;
        }
        let mut stats = SampleStats {
            bucket_hist: vec![0u64; self.buckets()],
            ..SampleStats::default()
        };
        #[allow(clippy::needless_range_loop)]
        for v in 0..g.n() {
            if c[v] == 0 {
                continue;
            }
            stats.bucket_hist[self.bucket_of[v]] += c[v];
            stats.sum_c_deg += c[v] * g.degree(v) as u64;
            stats.sum_collisions += c[v] * (c[v] - 1);
        }
        stats
    }
}

/// `sum_v deg(v)^2`, the network constant behind `||pi||_2^2` (collected
/// distributedly by an `O(D)` convergecast; provided here for ground
/// truth and tests).
pub fn sum_deg_sq(g: &Graph) -> u64 {
    (0..g.n()).map(|v| (g.degree(v) as u64).pow(2)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_graph::generators;

    #[test]
    fn regular_graph_has_one_bucket() {
        let g = generators::torus2d(4, 4);
        let t = BucketTest::new(&g, 1.5, 64).unwrap();
        assert_eq!(t.buckets(), 1);
        assert!((t.bucket_masses()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_separates_hub_and_leaves() {
        let g = generators::star(10);
        let t = BucketTest::new(&g, 1.5, 64).unwrap();
        assert!(t.buckets() >= 2);
        assert_ne!(t.bucket_of(0), t.bucket_of(1));
        let mass: f64 = t.bucket_masses().iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_samples_pass_point_mass_fails() {
        use rand::Rng;
        use rand::SeedableRng;
        let g = generators::lollipop(6, 6);
        let t = BucketTest::new(&g, 1.5, 64).unwrap();
        let two_m = 2 * g.m() as u64;
        let sds = sum_deg_sq(&g);
        // Samples drawn exactly from pi.
        let pi: Vec<f64> = (0..g.n())
            .map(|v| g.degree(v) as f64 / two_m as f64)
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let endpoints: Vec<usize> = (0..4000)
            .map(|_| {
                let mut x: f64 = rng.random();
                for (v, &p) in pi.iter().enumerate() {
                    if x < p {
                        return v;
                    }
                    x -= p;
                }
                g.n() - 1
            })
            .collect();
        let stats = t.stats_from_endpoints(&g, &endpoints);
        let r = t.evaluate(&stats, two_m, sds, 0.1, 0.5);
        assert!(r.pass, "{r:?}");
        // A point mass at one node fails (l2 component explodes even if
        // the node sits in a heavy bucket).
        let point = vec![g.n() - 1; 4000];
        let stats = t.stats_from_endpoints(&g, &point);
        let r = t.evaluate(&stats, two_m, sds, 0.1, 0.5);
        assert!(!r.pass, "{r:?}");
        assert!(r.l2_ratio > 1.0, "{r:?}");
    }

    #[test]
    fn collision_statistic_detects_nonuniformity_on_regular_graphs() {
        // On a regular graph the bucketed TV is vacuously 0 — the
        // collision L2 component must carry the test.
        let g = generators::cycle(32);
        let t = BucketTest::new(&g, 1.5, 64).unwrap();
        assert_eq!(t.buckets(), 1);
        let two_m = 2 * g.m() as u64;
        let sds = sum_deg_sq(&g);
        // Sample concentrated on 4 nodes: far from stationary.
        let endpoints: Vec<usize> = (0..400).map(|i| i % 4).collect();
        let stats = t.stats_from_endpoints(&g, &endpoints);
        let r = t.evaluate(&stats, two_m, sds, 0.2, 0.5);
        assert_eq!(r.discrepancy, 0.0, "bucketed TV is blind here");
        assert!(!r.pass, "collision test must catch it: {r:?}");
        // Uniform-over-nodes samples (the stationary law here) pass.
        let endpoints: Vec<usize> = (0..400).map(|i| (i * 13) % 32).collect();
        let stats = t.stats_from_endpoints(&g, &endpoints);
        let r = t.evaluate(&stats, two_m, sds, 0.2, 0.5);
        assert!(r.pass, "{r:?}");
    }

    #[test]
    fn numerators_sum_to_2m() {
        let g = generators::barbell(4, 2);
        let t = BucketTest::new(&g, 2.0, 64).unwrap();
        let rows = t.mass_numerators(&g);
        let total: u64 = rows.iter().flatten().sum();
        assert_eq!(total, 2 * g.m() as u64);
    }

    #[test]
    fn histogram_counts_endpoints() {
        let g = generators::star(5);
        let t = BucketTest::new(&g, 1.5, 64).unwrap();
        let h = t.histogram(&[0, 1, 2, 0]);
        assert_eq!(h.iter().sum::<u64>(), 4);
        assert_eq!(h[t.bucket_of(0)], 2);
    }

    #[test]
    fn stats_fields_are_consistent() {
        let g = generators::star(6);
        let t = BucketTest::new(&g, 1.5, 64).unwrap();
        let endpoints = [0usize, 0, 1, 2];
        let stats = t.stats_from_endpoints(&g, &endpoints);
        assert_eq!(stats.total(), 4);
        // c_0 = 2 (deg 5), c_1 = c_2 = 1 (deg 1).
        assert_eq!(stats.sum_c_deg, 2 * 5 + 1 + 1);
        assert_eq!(stats.sum_collisions, 2);
        assert_eq!(sum_deg_sq(&g), 25 + 5);
    }

    #[test]
    fn malformed_or_unresolvable_bases_build_nothing() {
        let g = generators::star(64);
        for base in [1.0, 0.5, f64::NAN, 1.0001, 1.000_001, 1.0 + 1e-9] {
            assert!(BucketTest::new(&g, base, 64).is_none(), "{base}");
        }
        // ln 63 / ln 1.01 = 416.4: 417 buckets need 417 samples.
        assert!(BucketTest::new(&g, 1.01, 416).is_none());
        assert_eq!(BucketTest::new(&g, 1.01, 417).unwrap().buckets(), 417);
        assert_eq!(BucketTest::new(&g, 1.5, 64).unwrap().buckets(), 11);
        let isolated = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert_eq!(BucketTest::new(&isolated, 1.5, 8).unwrap().buckets(), 1);
    }
}
