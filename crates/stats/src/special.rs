//! Special functions: log-gamma and the regularized incomplete gamma
//! function.
//!
//! Implemented from scratch (Lanczos approximation plus the standard
//! series/continued-fraction split from *Numerical Recipes*) so the
//! workspace needs no external numerics dependency.

/// Lanczos coefficients for `g = 7`, `n = 9` (Boost / Numerical Recipes
/// flavour). Accurate to ~15 significant digits for positive arguments.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection branch is not needed by this
/// workspace and is deliberately unimplemented).
///
/// # Example
///
/// ```
/// // Gamma(5) = 4! = 24.
/// let lg = drw_stats::special::ln_gamma(5.0);
/// assert!((lg - 24f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps the Lanczos series in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)` for `a > 0`,
/// `x >= 0`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for
/// `x >= a + 1`, as in *Numerical Recipes* section 6.2.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

const MAX_ITER: usize = 500;
const EPS: f64 = 1e-14;

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Lentz's algorithm for the continued fraction representation of Q.
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..=15 {
            let fact: f64 = (1..n).map(|k| k as f64).product::<f64>().max(1.0);
            close(ln_gamma(n as f64), fact.ln(), 1e-10);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Gamma(1/2) = sqrt(pi).
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Gamma(3/2) = sqrt(pi)/2.
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &(a, x) in &[
            (0.5, 0.3),
            (1.0, 1.0),
            (2.5, 4.0),
            (10.0, 3.0),
            (10.0, 30.0),
        ] {
            close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 - exp(-x).
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    #[test]
    fn gamma_p_monotone_in_x() {
        let mut prev = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.2;
            let p = gamma_p(3.0, x);
            assert!(p >= prev - 1e-15);
            prev = p;
        }
    }

    #[test]
    fn gamma_p_limits() {
        close(gamma_p(2.0, 0.0), 0.0, 1e-15);
        close(gamma_p(2.0, 1e4), 1.0, 1e-12);
    }

    #[test]
    #[should_panic]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }
}
