//! Shared harness for the experiment binaries and benchmarks.
//!
//! Every table and figure of the paper's evaluation has a binary under
//! `src/bin` that reruns the corresponding experiment on the simulated
//! fleet and prints the same rows/series the paper reports, alongside the
//! paper's published values for comparison. Results are also written as
//! CSV under `target/experiments/`.
//!
//! Scale is selected with the `RACKET_SCALE` environment variable:
//!
//! * `test`  — 60 devices, seconds per experiment (CI-friendly);
//! * `mid`   — 268 devices (default);
//! * `paper` — the full 803-device population of §5.
//!
//! Performance numbers do not come from here: the `benchmark/` package at
//! the repository root is the one measurement harness (`study_summary`
//! prints a run's stage-timing tree for orientation only).

#![deny(missing_docs)]

use racket_agents::FleetConfig;
use racket_collect::CollectorConfig;
use racketstore::study::{CollectionPath, Study, StudyConfig, StudyOutput};
use std::io::Write;
use std::sync::OnceLock;

/// Experiment scale, from `RACKET_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 60 devices.
    Test,
    /// 268 devices.
    Mid,
    /// 803 devices (the paper's population).
    Paper,
}

impl Scale {
    /// Read the scale from the environment (default `mid`).
    pub fn from_env() -> Scale {
        match std::env::var("RACKET_SCALE").as_deref() {
            Ok("test") => Scale::Test,
            Ok("paper") => Scale::Paper,
            Ok("mid") | Err(_) => Scale::Mid,
            Ok(other) => panic!("unknown RACKET_SCALE `{other}` (use test|mid|paper)"),
        }
    }

    /// The study configuration for this scale.
    pub fn config(self) -> StudyConfig {
        match self {
            Scale::Test => StudyConfig::test_scale(),
            Scale::Mid => StudyConfig {
                fleet: FleetConfig {
                    n_regular: 74,
                    n_organic: 134,
                    n_dedicated: 60,
                    history_days: 540,
                    max_study_days: 10,
                    no_android_id_rate: 0.06,
                    catalog: Default::default(),
                    seed: 2021,
                    overrides: Default::default(),
                    campaigns: Default::default(),
                    review_text: false,
                },
                collector: CollectorConfig {
                    fast_period_secs: 60,
                    slow_period_secs: 120,
                    collect_reviews: false,
                },
                path: CollectionPath::Direct,
                seed: 2021,
                faults: racket_collect::FaultPlan::none(),
            },
            Scale::Paper => StudyConfig::paper_scale(),
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Test => "test (60 devices)",
            Scale::Mid => "mid (268 devices)",
            Scale::Paper => "paper (803 devices)",
        }
    }
}

/// Run (and memoize) the study at the environment-selected scale.
pub fn study() -> &'static StudyOutput {
    static OUT: OnceLock<StudyOutput> = OnceLock::new();
    OUT.get_or_init(|| {
        let scale = Scale::from_env();
        eprintln!("[racket-bench] running study at {} scale…", scale.label());
        let t0 = std::time::Instant::now();
        let out = Study::new(scale.config()).run();
        eprintln!(
            "[racket-bench] study done in {:.1}s: {} devices, {} snapshots",
            t0.elapsed().as_secs_f64(),
            out.observations.len(),
            out.server_stats.snapshots
        );
        out
    })
}

/// Write a CSV file under `target/experiments/` (best effort).
pub fn write_csv(name: &str, header: &str, rows: impl IntoIterator<Item = String>) {
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(name);
    let Ok(mut f) = std::fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(f, "{header}");
    for row in rows {
        let _ = writeln!(f, "{row}");
    }
    eprintln!("[racket-bench] wrote {}", path.display());
}

/// Print a paper-style comparison block for one §6 feature.
pub fn print_comparison(c: &racketstore::measurements::CohortComparison) {
    println!("--- {} ---", c.name);
    println!("  regular: {}", c.regular_summary().paper_style());
    println!("  worker : {}", c.worker_summary().paper_style());
    println!(
        "  KS D = {:.4} (p = {:.2e}){}   ANOVA F = {:.2} (p = {:.2e}){}   KW H = {:.2} (p = {:.2e}){}",
        c.ks.statistic,
        c.ks.p_value,
        sig(c.ks.significant()),
        c.anova.statistic,
        c.anova.p_value,
        sig(c.anova.significant()),
        c.kruskal.statistic,
        c.kruskal.p_value,
        sig(c.kruskal.significant()),
    );
}

/// Significance marker.
pub fn sig(s: bool) -> &'static str {
    if s {
        " *"
    } else {
        "  "
    }
}

/// Format a metrics row for the Table 1/2 printers.
pub fn metrics_row(name: &str, m: &racket_ml::Metrics) -> String {
    format!(
        "{:<6} {:>9.2}% {:>9.2}% {:>9.2}% {:>8.4} {:>8.4}",
        name,
        m.precision * 100.0,
        m.recall * 100.0,
        m.f1 * 100.0,
        m.auc,
        m.fpr
    )
}

/// Header matching [`metrics_row`].
pub const METRICS_HEADER: &str = "algo    precision     recall         F1      AUC      FPR";

/// Labeling thresholds appropriate for the selected scale (small fleets
/// need a lower co-install threshold).
pub fn labeling_config() -> racketstore::labeling::LabelingConfig {
    match Scale::from_env() {
        Scale::Test => racketstore::labeling::LabelingConfig::test_scale(),
        Scale::Mid => racketstore::labeling::LabelingConfig {
            min_worker_installs: 3,
            ..Default::default()
        },
        Scale::Paper => Default::default(),
    }
}

/// The §7.2 labels over the memoized study.
pub fn labels() -> &'static racketstore::labeling::AppLabels {
    static L: OnceLock<racketstore::labeling::AppLabels> = OnceLock::new();
    L.get_or_init(|| racketstore::labeling::label_apps(study(), &labeling_config()))
}

/// The labeled app-usage dataset over the memoized study.
pub fn app_dataset() -> &'static racketstore::app_classifier::AppUsageDataset {
    static D: OnceLock<racketstore::app_classifier::AppUsageDataset> = OnceLock::new();
    D.get_or_init(|| racketstore::app_classifier::AppUsageDataset::build(study(), labels()))
}

/// The trained deployable app classifier.
pub fn app_classifier() -> &'static racketstore::app_classifier::AppClassifier {
    static C: OnceLock<racketstore::app_classifier::AppClassifier> = OnceLock::new();
    C.get_or_init(|| racketstore::app_classifier::AppClassifier::train(app_dataset()))
}

/// The §8 device dataset (≥ 2 active days; cohorts subsampled to the
/// paper's 178 + 88 at paper scale).
pub fn device_dataset() -> &'static racketstore::device_classifier::DeviceDataset {
    static D: OnceLock<racketstore::device_classifier::DeviceDataset> = OnceLock::new();
    D.get_or_init(|| {
        let subsample = match Scale::from_env() {
            Scale::Paper => Some((178, 88)),
            _ => None,
        };
        racketstore::device_classifier::DeviceDataset::build(
            study(),
            app_classifier(),
            2,
            subsample,
            7,
        )
    })
}

/// The §6 measurement report over the memoized study.
pub fn measurements() -> &'static racketstore::measurements::MeasurementReport {
    static M: OnceLock<racketstore::measurements::MeasurementReport> = OnceLock::new();
    M.get_or_init(|| racketstore::measurements::MeasurementReport::compute(study()))
}
