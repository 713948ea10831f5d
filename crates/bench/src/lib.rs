//! The paper report: every table, figure, ablation and appendix of the
//! paper's evaluation, rerun on the simulated fleet over [`SEEDS`] seeds.
//!
//! One binary, `paper_report`, drives it. Per seed it builds one
//! [`Report`] (one base study, its datasets, classifiers, §6 measurements
//! and one classifier evaluation per resampling mode, each computed once)
//! and runs every row of [`SECTIONS`] over it. A section states each number
//! once, into a [`Sink`]: named scalars, §6 significance verdicts and CSV
//! series. Everything the binary emits is rendered from those records —
//! stdout, the per-figure CSV series of seed 0, `paper_report.csv` (n /
//! mean / sd / min / max per scalar, "significant in k of n" per §6
//! comparison) and `index.md` (the table EXPERIMENTS.md opens with), all
//! under `target/experiments/`. Timing goes to stderr only, so stdout and
//! every file are byte-identical across runs and thread counts.
//!
//! `RACKET_SCALE` is the only setting:
//!
//! * `test`  — 60 devices (what `check.sh` runs);
//! * `mid`   — 268 devices (default);
//! * `paper` — the full 803-device population of §5.
//!
//! Performance numbers do not come from here: the `benchmark/` package at
//! the repository root is the one measurement harness.

#![deny(missing_docs)]

mod sections;

pub use sections::SECTIONS;

use racket_agents::stream_seed;
use racket_ml::{Metrics, Resampling};
use racket_stats::Summary;
use racketstore::app_classifier::{self, AppClassifier, AppClassifierReport, AppUsageDataset};
use racketstore::device_classifier::{self, DeviceClassifierReport, DeviceDataset};
use racketstore::labeling::{label_apps, LabelingConfig};
use racketstore::measurements::{CohortComparison, MeasurementReport};
use racketstore::study::{Study, StudyConfig, StudyOutput};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Seeds every headline is reported over. Seed 0 is the scale's own
/// configuration; seed `i` replaces both the fleet and the study seed with
/// `stream_seed(study seed, i)`.
pub const SEEDS: u64 = 16;

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

    /// The study configuration for this scale at one of the [`SEEDS`].
    pub fn config(self, seed_index: u64) -> StudyConfig {
        let mut config = match self {
            Scale::Test => StudyConfig::test_scale(),
            Scale::Mid | Scale::Paper => StudyConfig::paper_scale(),
        };
        if self == Scale::Mid {
            let fleet = &mut config.fleet;
            (fleet.n_regular, fleet.n_organic, fleet.n_dedicated) = (74, 134, 60);
            fleet.max_study_days = 10;
            config.collector.fast_period_secs = 60;
        }
        if seed_index > 0 {
            config.seed = stream_seed(config.seed, seed_index);
            config.fleet.seed = config.seed;
        }
        config
    }

    /// The §7.2 labeled app-usage dataset of a study; small fleets need a
    /// lower co-install threshold.
    fn app_dataset(self, out: &StudyOutput) -> AppUsageDataset {
        let min_worker_installs = match self {
            Scale::Test => 2,
            Scale::Mid => 3,
            Scale::Paper => 5,
        };
        let labeling = LabelingConfig {
            min_worker_installs,
            ..Default::default()
        };
        AppUsageDataset::build(out, &label_apps(out, &labeling))
    }
}

/// Everything the sections share for one seed, each computed once.
pub struct Report {
    scale: Scale,
    /// Of the base study; the campaign, evasion and review-text studies
    /// derive theirs from it.
    config: StudyConfig,
    out: StudyOutput,
    app_ds: AppUsageDataset,
    app_clf: AppClassifier,
    /// Devices with ≥ 2 active days; at paper scale the cohorts are
    /// subsampled to the paper's 178 + 88.
    dev_ds: DeviceDataset,
    measurements: MeasurementReport,
    /// Single-repeat cross-validation per resampling mode, §7.2 order.
    app_evals: [(&'static str, AppClassifierReport); 4],
    /// Per resampling mode in §8.2 order: SMOTE, the paper's default,
    /// first (Table 2, Figures 14 and 15 read it).
    dev_evals: [(&'static str, DeviceClassifierReport); 4],
}

fn resampling(mode: &str) -> Resampling {
    match mode {
        "none" => Resampling::None,
        "undersample" => Resampling::Undersample,
        "oversample" => Resampling::Oversample,
        _ => Resampling::Smote { k: 5 },
    }
}

impl Report {
    /// Run the base study of one seed and everything derived from it.
    pub fn run(scale: Scale, seed_index: u64) -> Report {
        let t0 = std::time::Instant::now();
        let config = scale.config(seed_index);
        let out = Study::new(config.clone()).run();
        let (secs, snapshots) = (t0.elapsed().as_secs_f64(), out.server_stats.snapshots);
        eprintln!(
            "[paper_report] seed {seed_index}: study done in {secs:.1}s, {snapshots} snapshots"
        );
        if seed_index == 0 {
            eprintln!("== Pipeline metrics ==\n{}", out.metrics.report());
            let tree = racket_obs::render_timing_tree(&out.obs.snapshot());
            eprintln!("== Stage timing tree ==\n{tree}");
        }
        let app_ds = scale.app_dataset(&out);
        let app_clf = AppClassifier::train(&app_ds);
        let subsample = (scale == Scale::Paper).then_some((178, 88));
        let dev_ds = DeviceDataset::build(&out, &app_clf, 2, subsample, 7);
        Report {
            app_evals: ["none", "undersample", "oversample", "smote"]
                .map(|mode| (mode, app_classifier::evaluate(&app_ds, 1, resampling(mode)))),
            dev_evals: ["smote", "undersample", "none", "oversample"]
                .map(|mode| (mode, device_classifier::evaluate(&dev_ds, resampling(mode)))),
            measurements: MeasurementReport::compute(&out),
            scale,
            config,
            out,
            app_ds,
            app_clf,
            dev_ds,
        }
    }
}

/// What a stated value is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A number reported as a band over the seeds.
    Scalar {
        /// Also shown in the index table.
        headline: bool,
    },
    /// A §6 test verdict (1 = significant at α = 0.05), reported as
    /// "significant in k of n seeds".
    Verdict,
}

/// What the sections of one seed stated.
#[derive(Debug, Default, PartialEq)]
pub struct Sink {
    section: &'static str,
    /// `(section, key, value, kind)`; keys are unique within a section.
    pub stated: Vec<(&'static str, String, f64, Kind)>,
    /// `(file name, contents)` of each per-figure CSV series.
    pub series: Vec<(&'static str, String)>,
}

impl Sink {
    /// Run every section over one seed's report.
    pub fn record(report: &Report) -> Sink {
        let mut sink = Sink::default();
        for &(name, _, _, run) in SECTIONS {
            sink.section = name;
            run(report, &mut sink);
        }
        sink
    }

    fn state(&mut self, key: impl Into<String>, value: f64, kind: Kind) {
        self.stated.push((self.section, key.into(), value, kind));
    }

    fn scalar(&mut self, key: impl Into<String>, value: f64) {
        self.state(key, value, Kind::Scalar { headline: false });
    }

    fn headline(&mut self, key: impl Into<String>, value: f64) {
        self.state(key, value, Kind::Scalar { headline: true });
    }

    fn count(&mut self, key: impl Into<String>, n: usize) {
        self.scalar(key, n as f64);
    }

    /// Mean (a headline), median, SD and max of a sample — the four numbers
    /// the paper quotes per cohort. An empty sample states nothing.
    fn summary(&mut self, prefix: &str, sample: &[f64]) {
        let Some(s) = Summary::of(sample) else { return };
        self.headline(format!("{prefix}.mean"), s.mean);
        self.scalar(format!("{prefix}.median"), s.median);
        self.scalar(format!("{prefix}.sd"), s.sd);
        self.scalar(format!("{prefix}.max"), s.max);
    }

    /// One §6 comparison: both cohort summaries and the three verdicts.
    fn comparison(&mut self, c: &CohortComparison) {
        self.summary(&format!("{}.regular", c.name), &c.regular);
        self.summary(&format!("{}.worker", c.name), &c.worker);
        for (test, outcome) in [("ks", &c.ks), ("anova", &c.anova), ("kw", &c.kruskal)] {
            let significant = f64::from(u8::from(outcome.significant()));
            self.state(format!("{}.{test}", c.name), significant, Kind::Verdict);
        }
    }

    /// States one classifier row under `prefix` (its F1 a headline on
    /// request) and returns the row's five CSV cells.
    fn metrics(&mut self, prefix: &str, m: &Metrics, headline: bool) -> String {
        self.scalar(format!("{prefix}.precision"), m.precision);
        self.scalar(format!("{prefix}.recall"), m.recall);
        self.state(format!("{prefix}.f1"), m.f1, Kind::Scalar { headline });
        self.scalar(format!("{prefix}.auc"), m.auc);
        self.scalar(format!("{prefix}.fpr"), m.fpr);
        let cells = [m.precision, m.recall, m.f1, m.auc, m.fpr];
        cells.map(|value| format!("{value:.4}")).join(",")
    }

    fn series(&mut self, name: &'static str, header: &str, rows: impl Iterator<Item = String>) {
        let csv = rows.fold(format!("{header}\n"), |csv, row| csv + &row + "\n");
        self.series.push((name, csv));
    }

    /// `cohort,value` rows of one comparison, regular devices first.
    fn cohort_series(&mut self, name: &'static str, header: &str, c: &CohortComparison) {
        let regular = c.regular.iter().map(|v| format!("regular,{v}"));
        let worker = c.worker.iter().map(|v| format!("worker,{v}"));
        self.series(name, header, regular.chain(worker));
    }
}

/// One table, figure, ablation or appendix of the paper: its key in
/// `paper_report.csv`, the artifact it reproduces, the paper's own headline
/// for side-by-side reading, and the function that states its numbers for
/// one seed.
pub type Section = (
    &'static str,
    &'static str,
    &'static str,
    fn(&Report, &mut Sink),
);

/// One stated key over the seeds that stated it, seed order.
struct Band {
    section: &'static str,
    key: String,
    kind: Kind,
    values: Vec<f64>,
}

impl Band {
    /// One band per `(section, key)`, in order of first appearance.
    fn fold(sinks: &[Sink]) -> Vec<Band> {
        let mut bands: Vec<Band> = Vec::new();
        let mut index = std::collections::HashMap::new();
        for (section, key, value, kind) in sinks.iter().flat_map(|s| &s.stated) {
            let slot = *index.entry((*section, key)).or_insert(bands.len());
            if slot == bands.len() {
                let (key, values) = (key.clone(), Vec::new());
                bands.push(Band {
                    section,
                    key,
                    kind: *kind,
                    values,
                });
            }
            bands[slot].values.push(*value);
        }
        bands
    }

    /// The band as `paper_report.csv` cells (`n,mean,sd,min,max,significant_in`:
    /// a verdict fills the last, anything else the four before it) and as
    /// text (`mean ± sd [min, max]`, or `significant in k/n`).
    fn over_seeds(&self) -> (String, String) {
        let s = Summary::of(&self.values).expect("stated at least once");
        if self.kind == Kind::Verdict {
            let (k, n) = (self.values.iter().sum::<f64>(), s.n);
            return (format!("{n},,,,,{k}"), format!("significant in {k}/{n}"));
        }
        let csv = format!("{},{},{},{},{},", s.n, s.mean, s.sd, s.min, s.max);
        let (mean, sd, min, max) = (num(s.mean), num(s.sd), num(s.min), num(s.max));
        (csv, format!("{mean} ± {sd} [{min}, {max}]"))
    }
}

/// Integers print as integers, everything else to four decimals.
fn num(v: f64) -> String {
    let decimals = if v.fract() == 0.0 { 0 } else { 4 };
    format!("{v:.decimals$}")
}

/// `paper_report.csv`, `index.md` (the table EXPERIMENTS.md opens with) and
/// the stdout report (per section, every key at its first seed beside its
/// band), all from one fold of the sweep.
fn render(scale: Scale, sinks: &[Sink]) -> [String; 3] {
    let bands = Band::fold(sinks);
    let mut csv = String::from("section,key,n,mean,sd,min,max,significant_in\n");
    let mut index = format!(
        "Generated by `paper_report` at {scale:?} scale; measured = mean ± sd [min, max] over \
         n = {SEEDS} seeds.\n\n| paper artifact | section | paper | measured |\n|---|---|---|---|\n"
    );
    let mut text = format!("paper_report at {scale:?} scale, {SEEDS} seeds\n");
    for &(name, artifact, paper, _) in SECTIONS {
        let mut measured = Vec::new();
        let _ = writeln!(text, "\n== {artifact} ({name}) ==\npaper: {paper}");
        let (key, first) = ("key", "seed 0");
        let _ = writeln!(text, "{key:<44} {first:>12}   mean ± sd [min, max] (n)");
        for band in bands.iter().filter(|b| b.section == name) {
            let (key, first, n) = (&band.key, num(band.values[0]), band.values.len());
            let (cells, over_seeds) = band.over_seeds();
            let _ = writeln!(csv, "{name},{key},{cells}");
            let _ = writeln!(text, "{key:<44} {first:>12}   {over_seeds} ({n})");
            if band.kind != (Kind::Scalar { headline: false }) {
                measured.push(format!("{key} {over_seeds}"));
            }
        }
        let measured = measured.join("; ");
        let _ = writeln!(index, "| {artifact} | `{name}` | {paper} | {measured} |");
    }
    [csv, index, text]
}

/// Run the whole report at `scale`: all [`SEEDS`] in parallel on the rayon
/// shim (each seed's records are a pure function of its configuration, so
/// nothing depends on the thread count), every file written under
/// `target/experiments/` of the working directory, the text on stdout. An
/// error names the path that could not be written.
pub fn paper_report(scale: Scale) -> io::Result<()> {
    use rayon::prelude::*;
    let write = |name: &str, contents: &str| {
        let path = Path::new("target/experiments").join(name);
        let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
        std::fs::create_dir_all("target/experiments").map_err(named)?;
        std::fs::write(&path, contents).map_err(named)
    };
    // An unwritable output directory fails here, not after the sweep.
    write("index.md", "")?;
    eprintln!("[paper_report] running at {scale:?} scale…");
    let record = |i| {
        let t0 = std::time::Instant::now();
        let sink = Sink::record(&Report::run(scale, i));
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("[paper_report] seed {i}: every section done in {secs:.1}s");
        sink
    };
    let sinks: Vec<Sink> = (0..SEEDS).into_par_iter().map(record).collect();
    for (name, csv) in &sinks[0].series {
        write(name, csv)?;
    }
    let [csv, index, text] = render(scale, &sinks);
    write("paper_report.csv", &csv)?;
    write("index.md", &index)?;
    print!("{text}");
    Ok(())
}
