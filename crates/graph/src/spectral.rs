//! Exact random-walk distributions, mixing times, spectral gap and
//! conductance.
//!
//! This module is the centralized *ground truth* against which the
//! decentralized estimators of Section 4.2 are validated:
//!
//! - `pi_x(t)` — the distribution of the walk after `t` steps from `x`
//!   (Definition 4.2), computed by exact sparse matrix-vector products;
//! - `tau_x(eps) = min { t : ||pi_x(t) - pi||_1 < eps }` (Definition 4.3);
//! - the spectral gap `1 - lambda_2` via deflated power iteration on the
//!   symmetrically normalized adjacency matrix;
//! - conductance `Phi`, exactly for tiny graphs and via the standard
//!   spectral sweep cut otherwise.

use crate::{Graph, NodeId};

/// Which transition kernel to use.
///
/// The paper analyzes the *simple* random walk and assumes the graph is
/// non-bipartite so mixing is well defined; the *lazy* walk (stay put with
/// probability 1/2) mixes on every connected graph and is provided for
/// robustness of the ground-truth computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WalkKind {
    /// Move to a uniformly random neighbor each step.
    #[default]
    Simple,
    /// With probability 1/2 stay, otherwise move to a random neighbor.
    Lazy,
}

/// The stationary distribution of the simple (and lazy) random walk:
/// `pi(v) = d(v) / 2m`.
///
/// # Panics
///
/// Panics if the graph has no edges.
pub fn stationary_distribution(g: &Graph) -> Vec<f64> {
    let two_m = g.dir_edge_count() as f64;
    assert!(
        two_m > 0.0,
        "stationary distribution needs at least one edge"
    );
    (0..g.n()).map(|v| g.degree(v) as f64 / two_m).collect()
}

/// One exact step of the walk: returns `p * P` (distribution at the next
/// step).
///
/// # Panics
///
/// Panics if `p.len() != g.n()` or if a node with positive mass is
/// isolated.
pub fn step_distribution(g: &Graph, p: &[f64], kind: WalkKind) -> Vec<f64> {
    assert_eq!(p.len(), g.n(), "distribution length must equal node count");
    let mut next = vec![0.0; g.n()];
    #[allow(clippy::needless_range_loop)]
    for v in 0..g.n() {
        let mass = p[v];
        if mass == 0.0 {
            continue;
        }
        let d = g.degree(v);
        assert!(d > 0, "node {v} with positive mass has no neighbors");
        let share = mass / d as f64;
        for u in g.neighbors(v) {
            next[u] += share;
        }
    }
    if kind == WalkKind::Lazy {
        for v in 0..g.n() {
            next[v] = 0.5 * next[v] + 0.5 * p[v];
        }
    }
    next
}

/// Exact distribution of the walk after `t` steps from `source`
/// (`pi_x(t)` in Definition 4.2).
pub fn distribution_after(g: &Graph, source: NodeId, t: usize, kind: WalkKind) -> Vec<f64> {
    assert!(source < g.n(), "source out of range");
    let mut p = vec![0.0; g.n()];
    p[source] = 1.0;
    for _ in 0..t {
        p = step_distribution(g, &p, kind);
    }
    p
}

/// Exact `tau_x(eps) = min { t : ||pi_x(t) - pi||_1 < eps }`, scanning `t`
/// upward to `cap`. Returns `None` if the walk does not get within `eps`
/// by `cap` steps (e.g. the simple walk on a bipartite graph never mixes).
pub fn mixing_time(
    g: &Graph,
    source: NodeId,
    eps: f64,
    kind: WalkKind,
    cap: usize,
) -> Option<usize> {
    assert!(source < g.n(), "source out of range");
    assert!(eps > 0.0, "eps must be positive");
    let pi = stationary_distribution(g);
    let mut p = vec![0.0; g.n()];
    p[source] = 1.0;
    for t in 0..=cap {
        let l1: f64 = p.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum();
        if l1 < eps {
            return Some(t);
        }
        p = step_distribution(g, &p, kind);
    }
    None
}

/// Exact mixing time from the worst source: `max_x tau_x(eps)`.
pub fn mixing_time_max(g: &Graph, eps: f64, kind: WalkKind, cap: usize) -> Option<usize> {
    let mut worst = 0usize;
    for x in 0..g.n() {
        worst = worst.max(mixing_time(g, x, eps, kind, cap)?);
    }
    Some(worst)
}

/// Second eigenvalue of the transition kernel via deflated power iteration
/// on the symmetrically normalized adjacency `N = D^{-1/2} A D^{-1/2}`
/// (same spectrum as `P`).
///
/// Returns the eigenvalue of largest *magnitude* orthogonal to the top
/// eigenvector. For [`WalkKind::Lazy`] the spectrum is nonnegative, so
/// this equals the algebraic second eigenvalue `lambda_2`; prefer `Lazy`
/// when feeding the relaxation-time bounds of Section 4.2.
pub fn second_eigenvalue(g: &Graph, kind: WalkKind) -> f64 {
    let n = g.n();
    assert!(n >= 2, "need at least two nodes");
    let inv_sqrt_deg: Vec<f64> = (0..n)
        .map(|v| {
            let d = g.degree(v);
            assert!(d > 0, "isolated node {v}");
            1.0 / (d as f64).sqrt()
        })
        .collect();
    // Top eigenvector of N: phi(v) ~ sqrt(d(v)).
    let mut phi: Vec<f64> = (0..n).map(|v| (g.degree(v) as f64).sqrt()).collect();
    normalize(&mut phi);

    // Deterministic start vector, deflated.
    let mut x: Vec<f64> = (0..n).map(|v| 1.0 + (v as f64 * 0.734_912).sin()).collect();
    deflate(&mut x, &phi);
    normalize(&mut x);

    let mut lambda = 0.0;
    for _ in 0..5000 {
        let mut y = matvec_normalized(g, &x, &inv_sqrt_deg);
        if kind == WalkKind::Lazy {
            for v in 0..n {
                y[v] = 0.5 * y[v] + 0.5 * x[v];
            }
        }
        deflate(&mut y, &phi);
        let norm = dot(&y, &y).sqrt();
        if norm < 1e-300 {
            return 0.0;
        }
        for v in &mut y {
            *v /= norm;
        }
        let new_lambda = rayleigh(g, &y, &inv_sqrt_deg, kind);
        let delta = new_lambda - lambda;
        lambda = new_lambda;
        x = y;
        if delta.abs() < 1e-12 {
            break;
        }
    }
    lambda
}

/// Spectral gap `1 - lambda_2` of the chosen kernel.
pub fn spectral_gap(g: &Graph, kind: WalkKind) -> f64 {
    1.0 - second_eigenvalue(g, kind)
}

fn matvec_normalized(g: &Graph, x: &[f64], inv_sqrt_deg: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; g.n()];
    for u in 0..g.n() {
        let mut acc = 0.0;
        for v in g.neighbors(u) {
            acc += x[v] * inv_sqrt_deg[v];
        }
        y[u] = acc * inv_sqrt_deg[u];
    }
    y
}

fn rayleigh(g: &Graph, x: &[f64], inv_sqrt_deg: &[f64], kind: WalkKind) -> f64 {
    let mut y = matvec_normalized(g, x, inv_sqrt_deg);
    if kind == WalkKind::Lazy {
        for v in 0..g.n() {
            y[v] = 0.5 * y[v] + 0.5 * x[v];
        }
    }
    dot(x, &y) / dot(x, x)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn normalize(x: &mut [f64]) {
    let norm = dot(x, x).sqrt();
    assert!(norm > 0.0, "cannot normalize the zero vector");
    for v in x {
        *v /= norm;
    }
}

fn deflate(x: &mut [f64], phi: &[f64]) {
    let proj = dot(x, phi);
    for (xi, pi) in x.iter_mut().zip(phi) {
        *xi -= proj * pi;
    }
}

/// Conductance of the cut `(set, complement)`:
/// `|cut| / min(vol(set), vol(complement))`.
///
/// # Panics
///
/// Panics if `in_set` has the wrong length or describes an empty or full
/// set.
pub fn cut_conductance(g: &Graph, in_set: &[bool]) -> f64 {
    assert_eq!(in_set.len(), g.n());
    let mut cut = 0usize;
    let mut vol = 0usize;
    for v in 0..g.n() {
        if in_set[v] {
            vol += g.degree(v);
            for u in g.neighbors(v) {
                if !in_set[u] {
                    cut += 1;
                }
            }
        }
    }
    let total = g.dir_edge_count();
    assert!(vol > 0 && vol < total, "cut must be nontrivial");
    cut as f64 / vol.min(total - vol) as f64
}

/// Exact conductance by exhaustive enumeration — only for tiny graphs.
///
/// # Panics
///
/// Panics if `g.n() > 20`.
pub fn conductance_exact_small(g: &Graph) -> f64 {
    let n = g.n();
    assert!(
        n <= 20,
        "exhaustive conductance is exponential; n must be <= 20"
    );
    let mut best = f64::INFINITY;
    let mut in_set = vec![false; n];
    // Fix node 0 out of the set to halve the work (conductance is
    // complement-symmetric).
    for mask in 1u32..(1 << (n - 1)) {
        for v in 0..n - 1 {
            in_set[v + 1] = (mask >> v) & 1 == 1;
        }
        best = best.min(cut_conductance(g, &in_set));
    }
    best
}

/// Spectral sweep-cut upper bound on conductance: order nodes by the
/// normalized second eigenvector and take the best prefix cut. By Cheeger's
/// inequality this is within `sqrt(2 * gap)` of optimal.
pub fn conductance_sweep(g: &Graph) -> f64 {
    let n = g.n();
    let inv_sqrt_deg: Vec<f64> = (0..n).map(|v| 1.0 / (g.degree(v) as f64).sqrt()).collect();
    let mut phi: Vec<f64> = (0..n).map(|v| (g.degree(v) as f64).sqrt()).collect();
    normalize(&mut phi);
    let mut x: Vec<f64> = (0..n).map(|v| 1.0 + (v as f64 * 0.734_912).sin()).collect();
    deflate(&mut x, &phi);
    normalize(&mut x);
    for _ in 0..2000 {
        let mut y = matvec_normalized(g, &x, &inv_sqrt_deg);
        // Lazy kernel avoids oscillation between the +/- eigenspaces.
        for v in 0..n {
            y[v] = 0.5 * y[v] + 0.5 * x[v];
        }
        deflate(&mut y, &phi);
        let norm = dot(&y, &y).sqrt();
        if norm < 1e-300 {
            break;
        }
        for v in &mut y {
            *v /= norm;
        }
        x = y;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = x[a] * inv_sqrt_deg[a];
        let fb = x[b] * inv_sqrt_deg[b];
        fb.partial_cmp(&fa).expect("eigenvector has no NaNs")
    });
    let total = g.dir_edge_count();
    let mut in_set = vec![false; n];
    let mut cut = 0isize;
    let mut vol = 0usize;
    let mut best = f64::INFINITY;
    for (i, &v) in order.iter().enumerate() {
        in_set[v] = true;
        vol += g.degree(v);
        let inside = g.neighbors(v).filter(|&u| in_set[u]).count() as isize;
        cut += g.degree(v) as isize - 2 * inside;
        if i + 1 < n {
            let phi_cut = cut as f64 / vol.min(total - vol) as f64;
            best = best.min(phi_cut);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn stationary_sums_to_one_and_is_degree_proportional() {
        let g = generators::star(6);
        let pi = stationary_distribution(&g);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((pi[0] - 0.5).abs() < 1e-12);
        assert!((pi[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn step_preserves_mass() {
        let g = generators::torus2d(4, 4);
        let p = distribution_after(&g, 3, 7, WalkKind::Simple);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn lazy_walk_converges_on_bipartite() {
        // Simple walk on an even cycle is periodic; lazy walk mixes.
        let g = generators::cycle(8);
        assert_eq!(mixing_time(&g, 0, 0.25, WalkKind::Simple, 500), None);
        let t = mixing_time(&g, 0, 0.25, WalkKind::Lazy, 5000).unwrap();
        assert!(t > 0 && t < 5000);
    }

    #[test]
    fn complete_graph_mixes_instantly_ish() {
        let g = generators::complete(16);
        let t = mixing_time(&g, 0, 0.25, WalkKind::Simple, 100).unwrap();
        assert!(t <= 2, "t = {t}");
    }

    #[test]
    fn cycle_mixing_is_quadratic_ish() {
        let t16 = mixing_time(&generators::cycle(17), 0, 0.5, WalkKind::Lazy, 100_000).unwrap();
        let t32 = mixing_time(&generators::cycle(33), 0, 0.5, WalkKind::Lazy, 100_000).unwrap();
        // Doubling n should roughly quadruple the mixing time.
        let ratio = t32 as f64 / t16 as f64;
        assert!(ratio > 2.5 && ratio < 6.0, "ratio = {ratio}");
    }

    #[test]
    fn mixing_time_max_at_least_single() {
        let g = generators::lollipop(6, 6);
        let single = mixing_time(&g, 0, 0.25, WalkKind::Lazy, 100_000).unwrap();
        let worst = mixing_time_max(&g, 0.25, WalkKind::Lazy, 100_000).unwrap();
        assert!(worst >= single);
    }

    #[test]
    fn second_eigenvalue_complete_graph() {
        // K_n has lambda_2 = -1/(n-1) for the simple walk; magnitude
        // 1/(n-1).
        let g = generators::complete(10);
        let l2 = second_eigenvalue(&g, WalkKind::Simple);
        assert!((l2.abs() - 1.0 / 9.0).abs() < 1e-6, "l2 = {l2}");
    }

    #[test]
    fn second_eigenvalue_cycle_matches_cosine() {
        // Cycle C_n: simple-walk eigenvalues cos(2 pi k / n). The lazy
        // kernel maps them to (1 + cos(2 pi k / n)) / 2 >= 0, so the
        // largest-magnitude secondary eigenvalue is the algebraic
        // lambda_2 = (1 + cos(2 pi / n)) / 2.
        let n = 12;
        let g = generators::cycle(n);
        let expected = (1.0 + (2.0 * std::f64::consts::PI / n as f64).cos()) / 2.0;
        let l2 = second_eigenvalue(&g, WalkKind::Lazy);
        assert!(
            (l2 - expected).abs() < 1e-6,
            "l2 = {l2}, expected {expected}"
        );
    }

    #[test]
    fn second_eigenvalue_simple_even_cycle_is_bipartite() {
        // On a bipartite graph the simple kernel's largest-magnitude
        // secondary eigenvalue is -1 (the bipartition eigenvector).
        let g = generators::cycle(12);
        let l2 = second_eigenvalue(&g, WalkKind::Simple);
        assert!((l2 + 1.0).abs() < 1e-6, "l2 = {l2}");
    }

    #[test]
    fn gap_orders_families_correctly() {
        // Expanders have a much larger gap than cycles.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let expander = generators::random_regular(64, 6, &mut rng);
        let slow = generators::cycle(64);
        assert!(
            spectral_gap(&expander, WalkKind::Lazy) > 5.0 * spectral_gap(&slow, WalkKind::Lazy)
        );
    }

    #[test]
    fn conductance_exact_on_barbell_is_bridge_limited() {
        let g = generators::barbell(4, 1);
        let phi = conductance_exact_small(&g);
        // Best cut separates the two cliques: 1 crossing edge, volume 13.
        assert!((phi - 1.0 / 13.0).abs() < 1e-9, "phi = {phi}");
    }

    #[test]
    fn sweep_cut_upper_bounds_exact() {
        let g = generators::barbell(4, 1);
        let exact = conductance_exact_small(&g);
        let sweep = conductance_sweep(&g);
        assert!(sweep >= exact - 1e-12);
        // On the barbell the sweep cut finds the bridge exactly.
        assert!(
            (sweep - exact).abs() < 1e-9,
            "sweep = {sweep}, exact = {exact}"
        );
    }

    #[test]
    fn relaxation_time_bounds_hold() {
        // 1/gap <= tau_mix(1/2e) <= log(n)/gap (Section 4.2, [18]), checked
        // on a lazy torus.
        let g = generators::torus2d(5, 5);
        let gap = spectral_gap(&g, WalkKind::Lazy);
        let tau = mixing_time_max(
            &g,
            1.0 / (2.0 * std::f64::consts::E),
            WalkKind::Lazy,
            100_000,
        )
        .unwrap() as f64;
        let n = g.n() as f64;
        assert!(tau >= 0.5 / gap - 1.0, "tau = {tau}, 1/gap = {}", 1.0 / gap);
        assert!(
            tau <= 4.0 * n.ln() / gap + 2.0,
            "tau = {tau}, log n/gap = {}",
            n.ln() / gap
        );
    }
}
