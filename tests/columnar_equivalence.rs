//! Differential harness: the columnar analyze engine must equal the
//! row-oriented reference, bit for bit.
//!
//! ARCHITECTURE.md §9's row→column equivalence contract has three layers,
//! and this binary pins all of them:
//!
//! * **store** — the [`racket_collect::ColumnarSnapshots`] projection
//!   built at assemble time must mirror the row-oriented install records
//!   exactly (same scalars, same per-app streaming aggregates, same
//!   account services), and its dictionary codes must be identical across
//!   worker-thread counts and collection paths (records reach the
//!   columnarizer in canonical sorted order on every path);
//! * **training** — the presorted columnar GBT split search must produce
//!   a byte-identical model to the row-oriented reference search
//!   (`fit_reference`) on study-derived feature matrices, where tied
//!   feature values and subsampled rows exercise the batch-canonical
//!   order hardest;
//! * **scoring** — flat-matrix batch scoring must yield bitwise the same
//!   probabilities as per-row scoring, and the detection service's
//!   batch-vs-streaming verdicts must stay bitwise equal now that both
//!   ride `Model::score_batch`.
//!
//! Scenarios pin `RAYON_NUM_THREADS` (process-global), so the matrix
//! lives in one binary that `check.sh` runs with `--test-threads=1`; the
//! ambient test is named to sort (and run) first.

mod common;

use common::{small_config, span_count, with_threads};
use racket_columnar::FlatMatrix;
use racket_ml::{Classifier, GradientBoosting, GradientBoostingParams, Model};
use racket_types::metrics::keys;
use racketstore::app_classifier::{AppClassifier, AppUsageDataset};
use racketstore::device_classifier::DeviceDataset;
use racketstore::labeling::{label_apps, LabelingConfig};
use racketstore::scoring::DetectionService;
use racketstore::study::{CollectionPath, Study, StudyConfig, StudyOutput};
use std::fmt::Write;

/// Assert the columnar store is an exact projection of the row records.
fn assert_columnar_mirrors_records(out: &StudyOutput, context: &str) {
    assert_eq!(
        out.columnar.n_installs(),
        out.observations.len(),
        "{context}: one columnar row per joined record"
    );
    for obs in &out.observations {
        let r = &obs.record;
        let code = out
            .columnar
            .install_code(r.install_id)
            .unwrap_or_else(|| panic!("{context}: {:?} missing from dictionary", r.install_id));
        assert_eq!(out.columnar.install_id(code), r.install_id, "{context}");
        assert_eq!(out.columnar.participant(code), r.participant, "{context}");
        assert_eq!(
            out.columnar.snapshot_counts(code),
            (r.n_fast, r.n_slow),
            "{context}"
        );
        assert_eq!(
            out.columnar.active_days(code) as usize,
            r.active_days(),
            "{context}"
        );
        assert_eq!(
            out.columnar.avg_snapshots_per_day(code).to_bits(),
            r.avg_snapshots_per_day().to_bits(),
            "{context}: avg snapshots/day must be the same f64"
        );
        assert_eq!(
            out.columnar.event_totals(code),
            (r.stream.n_install_events, r.stream.n_uninstall_events),
            "{context}"
        );
        // CSR app entries: ascending AppId, stats equal to the streaming
        // aggregates latched on the record.
        let entries: Vec<_> = out.columnar.apps_of(code).collect();
        assert_eq!(entries.len(), r.apps.len(), "{context}: app entry count");
        let mut expected: Vec<_> = r.apps.keys().copied().collect();
        expected.sort_unstable();
        for (entry, &app) in entries.iter().zip(&expected) {
            assert_eq!(entry.app, app, "{context}: apps sorted by AppId");
            let stream = r.stream.app(app).copied().unwrap_or_default();
            assert_eq!(entry.fg_total, stream.fg_total, "{context}: {app:?}");
            assert_eq!(entry.n_installs, stream.n_installs, "{context}: {app:?}");
            assert_eq!(
                entry.n_uninstalls, stream.n_uninstalls,
                "{context}: {app:?}"
            );
            let last = stream
                .last_uninstall
                .map_or(racket_collect::NEVER_UNINSTALLED, |t| t.as_secs());
            assert_eq!(entry.last_uninstall, last, "{context}: {app:?}");
        }
        // Account services, in snapshot order.
        let services: Vec<_> = out.columnar.services_of(code).collect();
        let expected_services: Vec<_> = r.accounts.iter().map(|a| a.service).collect();
        assert_eq!(services, expected_services, "{context}: account services");
    }
}

/// Canonical dump of the columnar store: identical across thread counts
/// and collection paths (codes come from the sorted record order).
fn columnar_fingerprint(out: &StudyOutput) -> String {
    let mut s = String::new();
    for code in 0..out.columnar.n_installs() as u32 {
        write!(
            s,
            "{:?}|{:?}|{:?}|{}|{:x}|{:?}",
            out.columnar.install_id(code),
            out.columnar.participant(code),
            out.columnar.snapshot_counts(code),
            out.columnar.active_days(code),
            out.columnar.avg_snapshots_per_day(code).to_bits(),
            out.columnar.event_totals(code),
        )
        .unwrap();
        for e in out.columnar.apps_of(code) {
            write!(
                s,
                "|{:?}:{},{},{},{}",
                e.app, e.fg_total, e.n_installs, e.n_uninstalls, e.last_uninstall
            )
            .unwrap();
        }
        let services: Vec<_> = out.columnar.services_of(code).collect();
        writeln!(s, "|{services:?}").unwrap();
    }
    s
}

/// Whatever thread pool the environment gives us: the full contract on a
/// test-scale study, including model training.
#[test]
fn ambient_columnar_engine_matches_row_reference() {
    let out = Study::new(StudyConfig::test_scale()).run();
    assert_columnar_mirrors_records(&out, "ambient/wire/clean");

    // Study-derived app feature matrix: the presorted columnar split
    // search must reproduce the row-oriented reference byte for byte.
    let labels = label_apps(&out, &LabelingConfig::test_scale());
    let ds = AppUsageDataset::build(&out, &labels);
    let mut columnar = GradientBoosting::new(GradientBoostingParams::default());
    columnar.fit(&ds.data.x, &ds.data.y);
    let mut reference = GradientBoosting::new(GradientBoostingParams::default());
    reference.fit_reference(&ds.data.x, &ds.data.y);
    assert_eq!(
        Model::Xgb(columnar.clone()).to_bytes(),
        Model::Xgb(reference).to_bytes(),
        "columnar and reference split searches must agree byte-for-byte"
    );

    // Flat-matrix batch scoring == per-row scoring, bitwise.
    let model = Model::Xgb(columnar);
    let flat = FlatMatrix::from_rows(&ds.data.x);
    let batch = model.score_batch(&flat);
    assert_eq!(batch.len(), ds.data.x.len());
    for (row, proba) in ds.data.x.iter().zip(&batch) {
        assert_eq!(
            proba.to_bits(),
            model.score(row).to_bits(),
            "batch scoring must equal per-row scoring"
        );
    }

    // End to end: the service's batch and streaming verdicts (both now on
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

    // Every stage a study-plus-scoring run crosses completed exactly once
    // in the study's registry: a span name denotes one operation.
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
}

/// The columnar store is a pure function of the study data: identical
/// across 1/2/8 worker threads and all three collection paths.
#[test]
fn matrix_columnar_store_is_path_and_thread_invariant() {
    let paths = [
        ("direct", CollectionPath::Direct),
        ("wire", CollectionPath::Wire),
        ("async", CollectionPath::AsyncWire),
    ];
    let mut baseline: Option<String> = None;
    for threads in ["1", "2", "8"] {
        for (name, path) in paths {
            let out = with_threads(threads, || Study::new(small_config(path)).run());
            let context = format!("{name} @ {threads} threads");
            assert_columnar_mirrors_records(&out, &context);
            let fp = columnar_fingerprint(&out);
            match &baseline {
                None => baseline = Some(fp),
                Some(expect) => assert_eq!(
                    &fp, expect,
                    "{context}: columnar store diverged from direct @ 1 thread"
                ),
            }
        }
    }
}
