//! §8: the device classifier — detecting worker-controlled devices.
//!
//! Builds one instance per device from the §8.1 features (including the
//! *app suspiciousness* ratio computed by the trained §7 classifier),
//! balances with SMOTE, evaluates the Table 2 algorithm set under 10-fold
//! CV, reports the Figure 14 importances, and computes the Figure 15
//! organic/dedicated split over worker devices.

use crate::app_classifier::{
    feature_importance, suspiciousness, table2_algorithms, AlgorithmRow, AppClassifier,
};
use crate::study::StudyOutput;
use racket_features::{device_features, DEVICE_FEATURE_NAMES};
use racket_ml::{cross_validate, Dataset, Resampling};
use racket_types::Cohort;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The per-device dataset of §8.2.
#[derive(Debug, Clone)]
pub struct DeviceDataset {
    /// Feature matrix + labels (1 = worker device).
    pub data: Dataset,
    /// Observation index per row.
    pub provenance: Vec<usize>,
    /// App-suspiciousness per row (kept for Figure 15).
    pub suspiciousness: Vec<f64>,
}

impl DeviceDataset {
    /// Build the dataset over devices with at least `min_days` active
    /// days (the paper keeps 178 worker + 88 regular devices with ≥ 2
    /// days of snapshots; `subsample` trims each cohort to those counts
    /// when enough devices qualify).
    pub fn build(
        out: &StudyOutput,
        app_classifier: &AppClassifier,
        min_days: usize,
        subsample: Option<(usize, usize)>,
        seed: u64,
    ) -> DeviceDataset {
        let _span = out.obs.span("features/device_dataset");
        let mut eligible: Vec<usize> = (0..out.observations.len())
            .filter(|&i| out.observations[i].record.active_days() >= min_days)
            .collect();
        if let Some((n_workers, n_regular)) = subsample {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut workers: Vec<usize> = eligible
                .iter()
                .copied()
                .filter(|&i| out.truth[i].persona.cohort() == Cohort::Worker)
                .collect();
            let mut regular: Vec<usize> = eligible
                .iter()
                .copied()
                .filter(|&i| out.truth[i].persona.cohort() == Cohort::Regular)
                .collect();
            workers.shuffle(&mut rng);
            regular.shuffle(&mut rng);
            workers.truncate(n_workers);
            regular.truncate(n_regular);
            eligible = workers.into_iter().chain(regular).collect();
            eligible.sort_unstable();
        }

        let suspiciousness = suspiciousness(
            app_classifier.model(),
            eligible.iter().map(|&i| &out.observations[i]),
        );
        let x = eligible
            .iter()
            .zip(&suspiciousness)
            .map(|(&i, &susp)| device_features(&out.observations[i], susp))
            .collect();
        let y = eligible
            .iter()
            .map(|&i| u8::from(out.truth[i].persona.cohort() == Cohort::Worker))
            .collect();
        DeviceDataset {
            data: Dataset::new(
                x,
                y,
                DEVICE_FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
            ),
            provenance: eligible,
            suspiciousness,
        }
    }
}

/// Suspiciousness above which a worker device counts as
/// *promotion-dedicated* in the Figure 15 split.
///
/// The paper's dedicated devices have "all their apps" flagged; our
/// suspiciousness denominator includes the ~dozen preinstalled system
/// packages (per the paper's own §8.2 examples of personal use), which a
/// well-generalizing classifier almost always reads as personal. A device
/// whose *installed* apps are all promotion-indicative therefore lands
/// just below 1.0 — 0.9 is the corresponding cut once system packages are
/// discounted.
pub const DEDICATED_SUSPICIOUSNESS: f64 = 0.9;

/// The Figure 15 organic/dedicated breakdown of worker devices.
#[derive(Debug, Clone)]
pub struct OrganicSplit {
    /// Per worker device: (suspiciousness, installed-and-reviewed count).
    pub points: Vec<(f64, usize)>,
    /// Worker devices with clearly personal app use
    /// (suspiciousness below [`DEDICATED_SUSPICIOUSNESS`]) — the paper's
    /// 123/178 ≈ 69.1%.
    pub organic: usize,
    /// Worker devices whose installed apps are (essentially) all
    /// promotion-indicative — the paper's 55/178.
    pub dedicated: usize,
}

impl OrganicSplit {
    /// Fraction of worker devices with organic-indicative behaviour.
    pub fn organic_fraction(&self) -> f64 {
        let total = self.organic + self.dedicated;
        if total == 0 {
            return 0.0;
        }
        self.organic as f64 / total as f64
    }
}

/// The §8 evaluation report.
#[derive(Debug)]
pub struct DeviceClassifierReport {
    /// Table 2 rows, in paper order (XGB, RF, SVM, KNN, LVQ).
    pub table: Vec<AlgorithmRow>,
    /// Figure 14 feature importances, sorted descending.
    pub importance: Vec<(String, f64)>,
    /// Figure 15 split.
    pub split: OrganicSplit,
    /// Worker devices in the dataset.
    pub n_workers: usize,
    /// Regular devices in the dataset.
    pub n_regular: usize,
}

/// Evaluate the §8 pipeline: 10-fold CV with SMOTE (the paper's default;
/// pass a different [`Resampling`] for the §8.2 ablations).
pub fn evaluate(dataset: &DeviceDataset, resampling: Resampling) -> DeviceClassifierReport {
    let mut table = Vec::new();
    for (name, factory) in table2_algorithms() {
        let report = cross_validate(factory.as_ref(), &dataset.data, 10, 1, resampling, 77);
        table.push(AlgorithmRow {
            name,
            metrics: report.metrics,
        });
    }

    let importance = feature_importance(&dataset.data);

    // Figure 15 over the worker rows.
    let mut points = Vec::new();
    let mut organic = 0;
    let mut dedicated = 0;
    let reviewed_col = DEVICE_FEATURE_NAMES
        .iter()
        .position(|&n| n == "n_installed_and_reviewed")
        .expect("feature present");
    for (row, (&label, &susp)) in dataset
        .data
        .x
        .iter()
        .zip(dataset.data.y.iter().zip(&dataset.suspiciousness))
    {
        if label != 1 {
            continue;
        }
        points.push((susp, row[reviewed_col] as usize));
        if susp >= DEDICATED_SUSPICIOUSNESS {
            dedicated += 1;
        } else {
            organic += 1;
        }
    }

    DeviceClassifierReport {
        table,
        importance,
        split: OrganicSplit {
            points,
            organic,
            dedicated,
        },
        n_workers: dataset.data.n_positive(),
        n_regular: dataset.data.n_negative(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app_classifier::{AppClassifier, AppUsageDataset};
    use crate::labeling::{label_apps, LabelingConfig};
    use crate::study::test_output;
    use std::sync::OnceLock;

    fn pipeline() -> (&'static StudyOutput, &'static DeviceDataset) {
        static P: OnceLock<DeviceDataset> = OnceLock::new();
        let out = test_output();
        let ds = P.get_or_init(|| {
            let labels = label_apps(out, &LabelingConfig::test_scale());
            let app_ds = AppUsageDataset::build(out, &labels);
            let clf = AppClassifier::train(&app_ds);
            DeviceDataset::build(out, &clf, 2, None, 5)
        });
        (out, ds)
    }

    #[test]
    fn dataset_covers_both_cohorts() {
        let (_, ds) = pipeline();
        assert!(
            ds.data.n_positive() >= 30,
            "workers: {}",
            ds.data.n_positive()
        );
        assert!(
            ds.data.n_negative() >= 15,
            "regular: {}",
            ds.data.n_negative()
        );
        assert_eq!(ds.provenance.len(), ds.data.len());
    }

    #[test]
    fn xgb_detects_worker_devices_like_table_2() {
        let (_, ds) = pipeline();
        let report = evaluate(ds, Resampling::Smote { k: 5 });
        let xgb = &report.table[0];
        assert_eq!(xgb.name, "XGB");
        assert!(
            xgb.metrics.f1 > 0.85,
            "XGB F1 = {:.4} (paper: 0.9529)",
            xgb.metrics.f1
        );
        assert!(
            xgb.metrics.auc > 0.85,
            "XGB AUC = {:.4} (paper: 0.9455)",
            xgb.metrics.auc
        );
    }

    #[test]
    fn figure_15_split_has_material_organic_share() {
        let (_, ds) = pipeline();
        let report = evaluate(ds, Resampling::Smote { k: 5 });
        let split = &report.split;
        assert_eq!(split.organic + split.dedicated, report.n_workers);
        // The paper's 69.1% organic majority (84% at paper scale, see
        // EXPERIMENTS.md) needs the full worker population; the 40-worker
        // test fleet trains the §7 classifier on a tiny holdout, which
        // inflates suspiciousness and lowers this fraction.
        assert!(
            split.organic_fraction() > 0.3,
            "organic fraction {:.2} (paper: 0.691)",
            split.organic_fraction()
        );
    }

    #[test]
    fn importance_highlights_review_and_suspiciousness_features() {
        let (_, ds) = pipeline();
        let report = evaluate(ds, Resampling::Smote { k: 5 });
        let top5: Vec<&str> = report
            .importance
            .iter()
            .take(5)
            .map(|(n, _)| n.as_str())
            .collect();
        let expected_any = [
            "n_total_apps_reviewed",
            "app_suspiciousness",
            "n_stopped_apps",
            "avg_reviews_per_account",
            "n_installed_and_reviewed",
            "n_gmail_accounts",
        ];
        assert!(
            top5.iter().any(|n| expected_any.contains(n)),
            "top-5 {top5:?} misses all Figure 14 features"
        );
    }

    #[test]
    fn subsampling_trims_cohorts() {
        let (out, _) = pipeline();
        let labels = label_apps(out, &LabelingConfig::test_scale());
        let app_ds = AppUsageDataset::build(out, &labels);
        let clf = AppClassifier::train(&app_ds);
        let ds = DeviceDataset::build(out, &clf, 2, Some((10, 5)), 5);
        assert_eq!(ds.data.n_positive(), 10);
        assert_eq!(ds.data.n_negative(), 5);
    }
}
