//! Small distribution toolkit for persona calibration.
//!
//! The §6 measurements are heavy-tailed (medians far below means, large
//! SDs, extreme maxima), which log-normal rate models reproduce well. The
//! install-to-review delay of workers needs a *mixture*: a third of worker
//! reviews land within one day of installation while the body stretches to
//! hundreds of days (§6.3, Figure 7).

use rand::Rng;
use rand_distr::{Distribution, Exp, LogNormal};

/// A log-normal sampler clamped to `[min, max]`.
///
/// Parametrized by *median* and σ (`mu = ln(median)`), because the paper
/// reports medians; the mean then is `median · exp(σ²/2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClampedLogNormal {
    /// Median of the unclamped distribution.
    pub median: f64,
    /// Log-space standard deviation.
    pub sigma: f64,
    /// Lower clamp.
    pub min: f64,
    /// Upper clamp.
    pub max: f64,
}

impl ClampedLogNormal {
    /// Construct; panics on invalid parameters.
    pub fn new(median: f64, sigma: f64, min: f64, max: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        assert!(min <= max, "min must not exceed max");
        ClampedLogNormal {
            median,
            sigma,
            min,
            max,
        }
    }

    /// Draw one value.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let d = LogNormal::new(self.median.ln(), self.sigma.max(1e-12))
            .expect("valid log-normal parameters");
        d.sample(rng).clamp(self.min, self.max)
    }

    /// Draw and round to a non-negative integer count.
    pub(crate) fn sample_count(&self, rng: &mut impl Rng) -> u64 {
        self.sample(rng).round().max(0.0) as u64
    }
}

/// The worker install-to-review delay: `weight` of the mass is an
/// exponential spike of same-day reviews; the rest is a log-normal body.
///
/// Calibrated in [`crate::params`] so that ~33% of worker reviews land
/// within one day (13,376 of 40,397 in the paper), the median sits near
/// 5 days and the mean near 10.4 days.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayMixture {
    /// Probability of drawing from the fast (exponential) component.
    pub fast_weight: f64,
    /// Mean of the fast component, in days.
    pub fast_mean_days: f64,
    /// Log-normal body.
    pub body: ClampedLogNormal,
}

impl DelayMixture {
    /// Draw a delay in days.
    pub(crate) fn sample_days(&self, rng: &mut impl Rng) -> f64 {
        if rng.gen_bool(self.fast_weight) {
            let e = Exp::new(1.0 / self.fast_mean_days).expect("positive rate");
            e.sample(rng).min(self.body.max)
        } else {
            self.body.sample(rng)
        }
    }
}

/// Draw from a Poisson distribution with the given mean (0 for mean ≤ 0).
///
/// Daily event counts (installs, uninstalls, opens) are Poisson around a
/// per-device latent rate.
pub(crate) fn poisson(rng: &mut impl Rng, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    rand_distr::Poisson::new(mean)
        .expect("positive mean")
        .sample(rng) as u64
}

#[cfg(test)]
impl ClampedLogNormal {
    /// Mean of the *unclamped* distribution (`median · e^{σ²/2}`): the
    /// reference the persona calibration tests compare against.
    pub(crate) fn unclamped_mean(&self) -> f64 {
        self.median * (self.sigma * self.sigma / 2.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn lognormal_median_and_mean_track_parameters() {
        let d = ClampedLogNormal::new(5.0, 1.0, 0.0, f64::INFINITY);
        let mut r = rng();
        let mut samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((median - 5.0).abs() / 5.0 < 0.05, "median {median}");
        assert!(
            (mean - d.unclamped_mean()).abs() / d.unclamped_mean() < 0.1,
            "mean {mean}"
        );
    }

    #[test]
    fn clamping_respected() {
        let d = ClampedLogNormal::new(10.0, 2.0, 2.0, 20.0);
        let mut r = rng();
        for _ in 0..1000 {
            let v = d.sample(&mut r);
            assert!((2.0..=20.0).contains(&v));
        }
    }

    #[test]
    fn counts_are_rounded() {
        let d = ClampedLogNormal::new(3.0, 0.3, 1.0, 10.0);
        let mut r = rng();
        let c = d.sample_count(&mut r);
        assert!((1..=10).contains(&c));
    }

    #[test]
    fn delay_mixture_fast_fraction() {
        let m = DelayMixture {
            fast_weight: 0.33,
            fast_mean_days: 0.4,
            body: ClampedLogNormal::new(10.0, 1.0, 0.0, 574.0),
        };
        let mut r = rng();
        let n = 20_000;
        let within_day = (0..n).filter(|_| m.sample_days(&mut r) <= 1.0).count() as f64 / n as f64;
        // 33% spike plus the small body mass below 1 day.
        assert!((0.3..0.45).contains(&within_day), "P(≤1d) = {within_day}");
    }

    #[test]
    fn poisson_mean_tracks() {
        let mut r = rng();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(&mut r, 6.4)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 6.4).abs() < 0.2, "mean {mean}");
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -1.0), 0);
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn rejects_bad_median() {
        ClampedLogNormal::new(0.0, 1.0, 0.0, 1.0);
    }
}
