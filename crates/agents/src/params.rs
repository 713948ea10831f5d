//! Persona parameter sets, calibrated to §6 of the paper.
//!
//! Each constructor documents the statistics it targets. The numbers are
//! per-*device* latent distributions: a device first draws its profile
//! (rates, counts) from these, then day-to-day behaviour is Poisson around
//! the profile — producing the across-device heterogeneity the paper's
//! scatterplots show.

use crate::dist::{ClampedLogNormal, DelayMixture};
use racket_types::Persona;

/// Generative parameters of one persona.
#[derive(Debug, Clone, PartialEq)]
pub struct PersonaParams {
    /// Which persona this parametrizes.
    pub persona: Persona,
    /// Gmail accounts registered on the device.
    pub gmail_accounts: ClampedLogNormal,
    /// Number of distinct *consumer* services with accounts (WhatsApp,
    /// Facebook, …); Gmail and ASO tooling are counted separately.
    pub consumer_services: ClampedLogNormal,
    /// Probability of a DualSpace account (app cloner, §6.2).
    pub dualspace_prob: f64,
    /// Probability of a Freelancer account (job sourcing, §6.2).
    pub freelancer_prob: f64,
    /// Apps installed on the device when the study begins.
    pub initial_apps: ClampedLogNormal,
    /// Per-device mean of daily install events.
    pub daily_installs: ClampedLogNormal,
    /// Per-device mean of daily uninstall events.
    pub daily_uninstalls: ClampedLogNormal,
    /// Per-device mean of daily app-opening sessions.
    pub daily_opens: ClampedLogNormal,
    /// Fraction of installs that are ASO-promoted apps.
    pub promo_install_fraction: f64,
    /// Probability that a promoted install is ever *opened*.
    pub promo_open_prob: f64,
    /// Probability this device reviews a promoted app at all (some jobs
    /// are install-only retention work without a review).
    pub promo_job_review_prob: f64,
    /// Probability a promoted install gets reviewed (per posting account).
    pub promo_review_prob: f64,
    /// Accounts used to review one promoted app (workers post the same app
    /// from several device accounts, §6.3).
    pub promo_accounts_per_app: ClampedLogNormal,
    /// Probability a *personal* install is eventually reviewed.
    pub personal_review_prob: f64,
    /// Install-to-review delay for promoted apps, days.
    pub promo_review_delay: DelayMixture,
    /// Install-to-review delay for personal apps, days.
    pub personal_review_delay: DelayMixture,
    /// Probability a promoted app gets force-stopped after its job is done
    /// (§6.3: retention installs kept but stopped to avoid clutter).
    pub promo_stop_prob: f64,
    /// Probability an off-Play-store app is installed during history
    /// (§6.3, third-party stores / modded apps).
    pub off_store_prob: f64,
    /// Consumer-app taste breadth: `Some(k)` restricts personal installs
    /// to the `k` most popular apps (workers' personal use is mainstream);
    /// `None` samples the entire consumer catalog (regular users reach
    /// into the long tail).
    pub mainstream_only: Option<usize>,
    /// Fraction of the day the device is up and reporting snapshots
    /// (drives snapshots/day, Figure 4).
    pub uptime_fraction: ClampedLogNormal,
    /// Probability this worker is a *novice*: few accounts, few jobs, a
    /// device that still mostly looks personal. §8.2 observes the
    /// classifier catching "worker-controlled devices with low app
    /// suspiciousness, that may belong to novice workers".
    pub novice_prob: f64,
    /// Probability this regular user is a review *enthusiast* who posts
    /// far more often than the cohort baseline — the main source of
    /// regular-side boundary cases.
    pub enthusiast_prob: f64,
}

impl PersonaParams {
    /// Regular-user parameters.
    ///
    /// Targets (§6): Gmail accounts median 2, SD 1.66, max 10; ~6 account
    /// types (max 19); ~65.5 installed apps; 3.88 daily installs (median
    /// 2.0); 3.29 daily uninstalls; ~1.9 total reviews per device (max 36),
    /// 0.7 installed-and-reviewed apps; install-to-review mean 85.1 d,
    /// median 21.9 d, only 4/35 within a day.
    pub fn regular() -> Self {
        PersonaParams {
            persona: Persona::Regular,
            gmail_accounts: ClampedLogNormal::new(2.0, 0.45, 1.0, 10.0),
            consumer_services: ClampedLogNormal::new(5.0, 0.45, 1.0, 18.0),
            dualspace_prob: 0.01,
            freelancer_prob: 0.02,
            initial_apps: ClampedLogNormal::new(60.0, 0.45, 12.0, 220.0),
            daily_installs: ClampedLogNormal::new(2.0, 1.05, 0.0, 60.0),
            daily_uninstalls: ClampedLogNormal::new(1.8, 0.95, 0.0, 50.0),
            daily_opens: ClampedLogNormal::new(9.0, 0.5, 1.0, 40.0),
            promo_install_fraction: 0.0,
            promo_open_prob: 0.0,
            promo_job_review_prob: 0.0,
            promo_review_prob: 0.0,
            promo_accounts_per_app: ClampedLogNormal::new(1.0, 0.0, 1.0, 1.0),
            personal_review_prob: 0.012,
            promo_review_delay: Self::personal_delay(),
            personal_review_delay: Self::personal_delay(),
            promo_stop_prob: 0.0,
            off_store_prob: 0.02,
            mainstream_only: None,
            uptime_fraction: Self::uptime(),
            novice_prob: 0.0,
            enthusiast_prob: 0.08,
        }
    }

    /// Organic-worker parameters: a regular user's personal behaviour with
    /// ASO work layered on top (§2, §8.2: 123/178 worker devices).
    ///
    /// Targets: Gmail accounts median ~15 (combined worker median 21, mean
    /// 28.9, max 163); few consumer services; churn median 6.4 installs/day
    /// (mean 15.9); promoted installs reviewed from several accounts within
    /// days (median 5 d, 33% ≤ 1 d).
    pub fn organic_worker() -> Self {
        PersonaParams {
            persona: Persona::OrganicWorker,
            gmail_accounts: ClampedLogNormal::new(15.0, 0.85, 2.0, 163.0),
            consumer_services: ClampedLogNormal::new(3.0, 0.5, 1.0, 12.0),
            dualspace_prob: 0.55,
            freelancer_prob: 0.45,
            initial_apps: ClampedLogNormal::new(70.0, 0.45, 15.0, 280.0),
            daily_installs: ClampedLogNormal::new(6.0, 1.2, 0.0, 150.0),
            daily_uninstalls: ClampedLogNormal::new(2.6, 1.2, 0.0, 120.0),
            daily_opens: ClampedLogNormal::new(8.0, 0.5, 1.0, 40.0),
            promo_install_fraction: 0.55,
            promo_open_prob: 0.30,
            promo_job_review_prob: 0.90,
            promo_review_prob: 0.80,
            promo_accounts_per_app: ClampedLogNormal::new(2.2, 0.5, 1.0, 12.0),
            personal_review_prob: 0.012,
            promo_review_delay: Self::worker_delay(),
            personal_review_delay: Self::personal_delay(),
            promo_stop_prob: 0.30,
            off_store_prob: 0.08,
            mainstream_only: Some(120),
            uptime_fraction: Self::uptime(),
            novice_prob: 0.15,
            enthusiast_prob: 0.0,
        }
    }

    /// Dedicated-worker parameters: the device exists to promote apps
    /// (§8.2: 55/178 devices — all apps promotion-indicative, median 31
    /// Gmail accounts, median 23 stopped apps).
    pub fn dedicated_worker() -> Self {
        PersonaParams {
            persona: Persona::DedicatedWorker,
            gmail_accounts: ClampedLogNormal::new(31.0, 0.6, 5.0, 163.0),
            consumer_services: ClampedLogNormal::new(1.5, 0.5, 0.0, 6.0),
            dualspace_prob: 0.75,
            freelancer_prob: 0.6,
            initial_apps: ClampedLogNormal::new(85.0, 0.5, 20.0, 320.0),
            daily_installs: ClampedLogNormal::new(7.0, 1.25, 0.0, 200.0),
            daily_uninstalls: ClampedLogNormal::new(3.0, 1.25, 0.0, 150.0),
            daily_opens: ClampedLogNormal::new(4.0, 0.6, 0.0, 25.0),
            promo_install_fraction: 0.92,
            promo_open_prob: 0.22,
            promo_job_review_prob: 0.90,
            promo_review_prob: 0.80,
            promo_accounts_per_app: ClampedLogNormal::new(3.0, 0.5, 1.0, 15.0),
            personal_review_prob: 0.004,
            promo_review_delay: Self::worker_delay(),
            personal_review_delay: Self::personal_delay(),
            promo_stop_prob: 0.40,
            off_store_prob: 0.10,
            mainstream_only: Some(80),
            uptime_fraction: Self::uptime(),
            novice_prob: 0.08,
            enthusiast_prob: 0.0,
        }
    }

    /// Worker promoted-app delay: 33% same-day spike (exp, mean 0.4 d) plus
    /// a log-normal body (median 10 d, σ = 1.0), matching §6.3's worker
    /// mean 10.4 d / median 5 d / 33% within one day / max 574 d.
    fn worker_delay() -> DelayMixture {
        DelayMixture {
            fast_weight: 0.33,
            fast_mean_days: 0.4,
            body: ClampedLogNormal::new(10.0, 1.0, 0.05, 574.0),
        }
    }

    /// Personal-review delay: log-normal median ~22 d, σ = 1.6 (mean ≈
    /// 79 d), matching §6.3's regular-user mean 85.1 d / median 21.9 d /
    /// max 606 d.
    fn personal_delay() -> DelayMixture {
        DelayMixture {
            fast_weight: 0.08,
            fast_mean_days: 0.6,
            body: ClampedLogNormal::new(22.0, 1.6, 0.1, 606.0),
        }
    }

    /// Device uptime (snapshot-reporting fraction of the day). One shared
    /// distribution for every persona: Figure 4 shows worker and regular
    /// engagement overlapping heavily (means 8.2k vs 9.4k snapshots/day),
    /// so the reporting rate itself carries no cohort signal.
    fn uptime() -> ClampedLogNormal {
        ClampedLogNormal::new(0.52, 0.45, 0.02, 1.0)
    }

    /// The parameter set for a persona.
    pub(crate) fn for_persona(persona: Persona) -> Self {
        match persona {
            Persona::Regular => Self::regular(),
            Persona::OrganicWorker => Self::organic_worker(),
            Persona::DedicatedWorker => Self::dedicated_worker(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persona_mapping() {
        for p in [
            Persona::Regular,
            Persona::OrganicWorker,
            Persona::DedicatedWorker,
        ] {
            assert_eq!(PersonaParams::for_persona(p).persona, p);
        }
    }

    #[test]
    fn regular_targets_paper_means() {
        let p = PersonaParams::regular();
        // daily installs: median 2, unclamped mean ≈ 3.5 (paper: 3.88).
        let m = p.daily_installs.unclamped_mean();
        assert!((3.0..4.5).contains(&m), "daily install mean {m}");
        // No promotion behaviour at all.
        assert_eq!(p.promo_install_fraction, 0.0);
    }

    #[test]
    fn worker_targets_paper_means() {
        let p = PersonaParams::organic_worker();
        // Combined churn mean should land in the paper's ballpark (15.9).
        let m = p.daily_installs.unclamped_mean();
        assert!((10.0..20.0).contains(&m), "daily install mean {m}");
        assert!(p.promo_install_fraction > 0.4);
        let d = PersonaParams::dedicated_worker();
        assert!(d.promo_install_fraction > p.promo_install_fraction);
        assert!(d.consumer_services.median < p.consumer_services.median);
    }

    #[test]
    fn worker_delay_mean_near_10_days() {
        let d = PersonaParams::organic_worker().promo_review_delay;
        // mixture mean = 0.33·0.4 + 0.67·(10·e^{0.5}) ≈ 11.2 (paper 10.4).
        let mean =
            d.fast_weight * d.fast_mean_days + (1.0 - d.fast_weight) * d.body.unclamped_mean();
        assert!((8.0..13.0).contains(&mean), "delay mean {mean}");
    }

    #[test]
    fn personal_delay_mean_near_80_days() {
        let d = PersonaParams::regular().personal_review_delay;
        let mean =
            d.fast_weight * d.fast_mean_days + (1.0 - d.fast_weight) * d.body.unclamped_mean();
        assert!((60.0..100.0).contains(&mean), "delay mean {mean}");
    }

    #[test]
    fn gmail_ordering_regular_lt_organic_lt_dedicated() {
        let r = PersonaParams::regular().gmail_accounts.median;
        let o = PersonaParams::organic_worker().gmail_accounts.median;
        let d = PersonaParams::dedicated_worker().gmail_accounts.median;
        assert!(r < o && o < d);
    }
}
