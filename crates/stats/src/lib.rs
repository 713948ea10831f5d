//! Statistical machinery for the RacketStore measurement analyses.
//!
//! §6 of the paper compares feature distributions between worker-controlled
//! and regular devices using the two-sample Kolmogorov–Smirnov test,
//! parametric one-way ANOVA and non-parametric ANOVA (Kruskal–Wallis),
//! choosing the latter because Shapiro–Wilk rejected normality and
//! Fligner–Killeen rejected homoscedasticity for every feature.
//!
//! This crate implements those five tests from scratch, together with the
//! special functions they need (log-gamma, regularized incomplete gamma and
//! beta, the error function, the normal quantile function and the
//! Kolmogorov distribution), plus descriptive statistics and the Jaccard
//! similarity used by the Appendix A snapshot fingerprinting.
//!
//! All tests return a [`TestOutcome`] carrying the test statistic and an
//! asymptotic p-value, matching what R/scipy would report on the same data
//! (unit tests pin reference values).

#![deny(missing_docs)]

mod descriptive;
mod rank;
pub mod special;
mod tests;

pub use descriptive::{quantile, Summary};
pub use tests::{
    anova_oneway, fligner_killeen, jaccard, kruskal_wallis, ks_2samp, mann_whitney_u, shapiro_wilk,
    TestOutcome,
};

/// Conventional significance level used throughout the paper (p < 0.05).
pub(crate) const ALPHA: f64 = 0.05;
