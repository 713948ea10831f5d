//! Train-and-validate selection (§7.2).
//!
//! The paper sets aside 20% of worker devices and 42% of regular devices,
//! and labels apps by their installation pattern *on those holdout
//! devices*:
//!
//! * **suspicious** — advertised for promotion in the infiltrated Facebook
//!   groups ∧ installed on ≥ 5 holdout worker devices ∧ installed on no
//!   regular device ("co-installing apps that are not popular and we know
//!   have been promoted is likely the result of ASO work");
//! * **non-suspicious** — installed on no worker device ∧ on ≥ 1 regular
//!   device ∧ with ≥ 15,000 store reviews.
//!
//! Thresholds are configurable so the rule scales down to small test
//! fleets.

use crate::study::StudyOutput;
use racket_types::{AppId, Cohort};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// Labeling thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelingConfig {
    /// Fraction of worker devices set aside for app selection (paper: 0.2).
    pub worker_holdout: f64,
    /// Fraction of regular devices set aside (paper: 0.42).
    pub regular_holdout: f64,
    /// Minimum holdout worker devices co-installing a suspicious app
    /// (paper: 5).
    pub min_worker_installs: usize,
    /// Minimum store review volume for a non-suspicious app (paper:
    /// 15,000).
    pub min_reviews_non_suspicious: u64,
    /// Selection seed.
    pub seed: u64,
}

impl Default for LabelingConfig {
    fn default() -> Self {
        LabelingConfig {
            worker_holdout: 0.2,
            regular_holdout: 0.42,
            min_worker_installs: 5,
            min_reviews_non_suspicious: 15_000,
            seed: 99,
        }
    }
}

impl LabelingConfig {
    /// Thresholds scaled for a small test fleet.
    pub fn test_scale() -> Self {
        LabelingConfig {
            min_worker_installs: 2,
            ..Default::default()
        }
    }
}

/// The selected app labels and device holdouts.
#[derive(Debug, Clone)]
pub struct AppLabels {
    /// Apps labeled suspicious (promotion-installed).
    pub suspicious: HashSet<AppId>,
    /// Apps labeled non-suspicious (personal use).
    pub non_suspicious: HashSet<AppId>,
    /// Observation indexes of the holdout worker devices.
    pub holdout_workers: Vec<usize>,
    /// Observation indexes of the holdout regular devices.
    pub holdout_regular: Vec<usize>,
}

/// Apply the §7.2 selection to a study output.
pub fn label_apps(out: &StudyOutput, config: &LabelingConfig) -> AppLabels {
    let mut rng = StdRng::seed_from_u64(config.seed);

    let worker_idx: Vec<usize> = (0..out.observations.len())
        .filter(|&i| out.truth[i].persona.cohort() == Cohort::Worker)
        .collect();
    let regular_idx: Vec<usize> = (0..out.observations.len())
        .filter(|&i| out.truth[i].persona.cohort() == Cohort::Regular)
        .collect();

    let sample = |idx: &[usize], frac: f64, rng: &mut StdRng| -> Vec<usize> {
        let mut v = idx.to_vec();
        v.shuffle(rng);
        let k = ((idx.len() as f64 * frac).round() as usize)
            .max(1)
            .min(idx.len());
        v.truncate(k);
        v.sort_unstable();
        v
    };
    let holdout_workers = sample(&worker_idx, config.worker_holdout, &mut rng);
    let holdout_regular = sample(&regular_idx, config.regular_holdout, &mut rng);

    // Installation sets. "Installed" uses every app observed on the device
    // during monitoring (the paper reads the full installed list).
    let installed_on =
        |i: usize| -> HashSet<AppId> { out.observations[i].record.apps.keys().copied().collect() };
    let mut installed_any_worker: HashSet<AppId> = HashSet::new();
    for &i in &worker_idx {
        installed_any_worker.extend(installed_on(i));
    }
    let mut installed_any_regular: HashSet<AppId> = HashSet::new();
    for &i in &regular_idx {
        installed_any_regular.extend(installed_on(i));
    }

    // Suspicious: advertised ∧ ≥ k holdout worker devices ∧ 0 regular.
    let advertised: HashSet<AppId> = out.fleet.catalog.promoted_apps().iter().copied().collect();
    let mut suspicious = HashSet::new();
    for &app in &advertised {
        if installed_any_regular.contains(&app) {
            continue;
        }
        let holdout_count = holdout_workers
            .iter()
            .filter(|&&i| out.observations[i].record.apps.contains_key(&app))
            .count();
        if holdout_count >= config.min_worker_installs {
            suspicious.insert(app);
        }
    }

    // Non-suspicious: never on a worker device, on ≥ 1 regular holdout
    // device, popular enough on the store.
    let mut non_suspicious = HashSet::new();
    for &i in &holdout_regular {
        for app in installed_on(i) {
            if installed_any_worker.contains(&app) {
                continue;
            }
            if out.fleet.store.public_review_count(app) >= config.min_reviews_non_suspicious {
                non_suspicious.insert(app);
            }
        }
    }

    AppLabels {
        suspicious,
        non_suspicious,
        holdout_workers,
        holdout_regular,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::test_output as output;

    #[test]
    fn holdouts_have_expected_sizes() {
        let labels = label_apps(output(), &LabelingConfig::test_scale());
        // 40 workers × 0.2 = 8; 20 regular × 0.42 ≈ 8.
        assert_eq!(labels.holdout_workers.len(), 8);
        assert_eq!(labels.holdout_regular.len(), 8);
    }

    #[test]
    fn labels_are_disjoint_and_nonempty() {
        let labels = label_apps(output(), &LabelingConfig::test_scale());
        assert!(!labels.suspicious.is_empty(), "no suspicious apps selected");
        assert!(
            !labels.non_suspicious.is_empty(),
            "no non-suspicious apps selected"
        );
        assert!(labels.suspicious.is_disjoint(&labels.non_suspicious));
    }

    #[test]
    fn suspicious_apps_are_advertised_promos() {
        let out = output();
        let labels = label_apps(out, &LabelingConfig::test_scale());
        for app in &labels.suspicious {
            assert!(out.fleet.catalog.promoted_apps().contains(app));
        }
    }

    #[test]
    fn non_suspicious_apps_have_high_review_volume() {
        let out = output();
        let labels = label_apps(out, &LabelingConfig::test_scale());
        for app in &labels.non_suspicious {
            assert!(out.fleet.store.public_review_count(*app) >= 15_000);
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let a = label_apps(output(), &LabelingConfig::test_scale());
        let b = label_apps(output(), &LabelingConfig::test_scale());
        assert_eq!(a.suspicious, b.suspicious);
        assert_eq!(a.holdout_workers, b.holdout_workers);
    }
}
