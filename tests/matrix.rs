//! The two fixed checks beside the scenario table
//! (`tests/scenario/mod.rs`, whose module doc lists every equivalence
//! contract and the rows that check it):
//!
//! * [`fleet_generation_is_thread_invariant`]: `Fleet::generate` gives the
//!   same fleet at 1 and 8 worker threads;
//! * [`training_and_scoring_match_their_references`]: on one test-scale
//!   study, `predict_proba_batch` ≡ `predict_proba`, streaming ≡ batch
//!   verdicts, and each stage's span completed once. (GBT `fit` ≡ the
//!   row-oriented reference search runs in `racket-ml`'s unit tests, on
//!   a matrix shaped like the study's app matrix: the reference is a
//!   test-only item.)
//!
//! The two tests may run concurrently: [`with_threads`] serialises every
//! study behind one lock and restores the worker count it found.

mod common;
mod scenario;

use common::{span_count, with_threads};
use racket_agents::{Fleet, FleetConfig};
use racket_columnar::FlatMatrix;
use racket_ml::{Classifier, GradientBoosting, GradientBoostingParams};
use racket_types::metrics::keys;
use racketstore::app_classifier::{AppClassifier, AppUsageDataset};
use racketstore::device_classifier::DeviceDataset;
use racketstore::labeling::{label_apps, LabelingConfig};
use racketstore::scoring::DetectionService;
use racketstore::study::{Study, StudyConfig};
use scenario::assert_columnar_mirrors_records;
use std::fmt::Write;

/// Canonical fingerprint of a generated fleet: per-device state in fleet
/// order plus the review store rendered app-by-app in ID order.
fn fleet_fingerprint(fleet: &Fleet) -> String {
    let mut s = String::new();
    for d in &fleet.devices {
        let mut apps: Vec<_> = d.device.installed_apps().collect();
        apps.sort_by_key(|a| a.app);
        writeln!(
            s,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{apps:?}|{:?}",
            d.participant,
            d.install_id,
            d.monitoring,
            d.persona(),
            d.device.android_id(),
            d.device.accounts()
        )
        .unwrap();
    }
    for raw in 0..=(fleet.catalog.len() as u32 + 1) {
        let app = racket_types::AppId(raw);
        let n = fleet.store.review_count(app);
        if n == 0 {
            continue;
        }
        writeln!(s, "app {raw}: {:?}", fleet.store.newest_page(app, 0, n)).unwrap();
    }
    s
}

#[test]
fn fleet_generation_is_thread_invariant() {
    let generate = |threads| {
        with_threads(Some(threads), || {
            fleet_fingerprint(&Fleet::generate(FleetConfig::test_scale()))
        })
    };
    assert_eq!(
        generate("1"),
        generate("8"),
        "Fleet::generate depends on thread count"
    );
}

/// The full contract on a test-scale study, model training included, at
/// the ambient thread count.
#[test]
fn training_and_scoring_match_their_references() {
    with_threads(None, || {
        let out = Study::new(StudyConfig::test_scale()).run();
        assert_columnar_mirrors_records(&out, "test-scale/wire/clean");

        // Study-derived app feature matrix.
        let labels = label_apps(&out, &LabelingConfig::test_scale());
        let ds = AppUsageDataset::build(&out, &labels);
        let mut columnar = GradientBoosting::new(GradientBoostingParams::default());
        columnar.fit(&ds.data.x, &ds.data.y);

        // Flat-matrix batch scoring == per-row scoring, bitwise.
        let flat = FlatMatrix::from_rows(&ds.data.x);
        let batch = columnar.predict_proba_batch(&flat);
        assert_eq!(batch.len(), ds.data.x.len());
        for (row, proba) in ds.data.x.iter().zip(&batch) {
            assert_eq!(
                proba.to_bits(),
                columnar.predict_proba(row).to_bits(),
                "batch scoring must equal per-row scoring"
            );
        }

        // End to end: the service's batch and streaming verdicts (both on
        // the flat-matrix path) stay bitwise equal.
        let clf = AppClassifier::train(&ds);
        let dev_ds = DeviceDataset::build(&out, &clf, 2, None, 5);
        let svc = DetectionService::train(&clf, &dev_ds);
        let primed = svc.prime(&out);
        let streaming = svc.score_streaming(&out, &primed);
        let batch = svc.score_batch(&out);
        assert_eq!(streaming.len(), batch.len());
        for (s, b) in streaming.iter().zip(&batch) {
            assert_eq!(s.suspiciousness.to_bits(), b.suspiciousness.to_bits());
            assert_eq!(s.proba.to_bits(), b.proba.to_bits());
            assert_eq!(s.is_worker, b.is_worker);
        }

        // Every stage a study-plus-scoring run crosses completed exactly
        // once in the study's registry: a span name denotes one operation.
        for stage in [
            keys::SPAN_FLEET_GEN,
            keys::SPAN_SIMULATE,
            keys::SPAN_ASSEMBLE,
            keys::SPAN_CAMPAIGN_INCREMENTAL,
            keys::SPAN_SCORE_STREAM,
            keys::SPAN_SCORE_BATCH,
        ] {
            assert_eq!(span_count(&out, stage), 1, "stage `{stage}`");
        }
    });
}
