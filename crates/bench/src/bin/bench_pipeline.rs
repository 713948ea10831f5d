//! End-to-end pipeline benchmark: run the study (plus the downstream
//! labeling/feature/CV stages) at increasing fleet scales and emit
//! `BENCH_pipeline.json` — per-stage wall clock, ingestion throughput
//! (plus the test scale's study wall once more on one worker thread),
//! compressed bytes, p50/p95/p99 stage latencies and every fault/retry
//! counter. The schema lives in `racket_bench::report` and is documented
//! in `EXPERIMENTS.md`.
//!
//! Usage:
//!
//! ```text
//! bench_pipeline [--smoke] [--paper] [--out PATH] [--validate PATH] [--async-smoke]
//! ```
//!
//! * default: test + mid study scales plus the `large` ingest-plane run
//!   (10⁴ concurrent connections through the async collection server,
//!   validated against its ≥ 1M snapshots/s floor);
//! * `--smoke`: test scale only, then parse the emitted file back
//!   (seconds — what `check.sh bench-smoke` runs);
//! * `--paper`: add the full 803-device scale (large still included);
//! * `--out PATH`: where to write (default `BENCH_pipeline.json`);
//! * `--validate PATH`: no runs — just parse and sanity-check an
//!   existing file, exiting non-zero on any violation;
//! * `--async-smoke`: no report — run the ingest plane at a small shape
//!   (hundreds of connections) purely as a correctness check on the
//!   async plane's plumbing, the step `check.sh` adds to its gate.

use racket_bench::ingest_plane::{self, IngestPlaneConfig};
use racket_bench::report::{self, BenchReport};
use racket_bench::Scale;
use racket_ml::{cross_validate, Classifier, GradientBoosting, GradientBoostingParams, Resampling};
use racket_obs::{install_global, render_timing_tree, Registry, SPAN_PREFIX};
use racket_types::metrics::keys;
use racketstore::app_classifier::{AppClassifier, AppUsageDataset};
use racketstore::device_classifier::DeviceDataset;
use racketstore::labeling::{label_apps, LabelingConfig};
use racketstore::scoring::DetectionService;
use racketstore::study::{CollectionPath, Study};

fn main() {
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut scales = vec![Scale::Test, Scale::Mid];
    let mut with_large = true;
    let mut validate_path: Option<String> = None;
    let mut async_smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                scales = vec![Scale::Test];
                with_large = false;
            }
            "--paper" => scales = vec![Scale::Test, Scale::Mid, Scale::Paper],
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--validate" => validate_path = Some(args.next().expect("--validate needs a path")),
            "--async-smoke" => async_smoke = true,
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    if async_smoke {
        // Pure plumbing check: a few hundred live connections through the
        // async plane, every upload acked, exactly-once ingest asserted
        // inside `ingest_plane::run`. No report is written.
        let cfg = IngestPlaneConfig::smoke();
        let result = ingest_plane::run(cfg);
        println!(
            "async smoke: {} connections, {} snapshots ingested exactly once, \
             {:.0} snapshots/s",
            result.devices, result.snapshots, result.snapshots_per_sec
        );
        return;
    }

    if let Some(path) = validate_path {
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        match report::validate(&json) {
            Ok(parsed) => {
                println!(
                    "{path}: valid ({} runs, schema v{})",
                    parsed.runs.len(),
                    parsed.schema_version
                );
                return;
            }
            Err(e) => fail(&format!("{path}: INVALID — {e}")),
        }
    }

    let mut bench = BenchReport::new();
    for scale in scales {
        bench.runs.push(run_scale(scale));
    }
    if with_large {
        bench.runs.push(run_large());
    }

    let json = serde_json::to_string(&bench).expect("report serializes");
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| fail(&format!("cannot write {out_path}: {e}")));
    eprintln!("[bench_pipeline] wrote {out_path} ({} bytes)", json.len());

    // Self-check: the file we just wrote must parse back clean.
    match report::validate(&json) {
        Ok(_) => println!("{out_path}: valid ({} runs)", bench.runs.len()),
        Err(e) => fail(&format!("emitted report failed validation: {e}")),
    }
}

/// One complete pipeline run at `scale`, isolated in a fresh process-global
/// registry (so fleet-generation and CV-fold spans from different scales
/// never mix), returning its merged run report.
fn run_scale(scale: Scale) -> report::RunReport {
    let scale_name = match scale {
        Scale::Test => "test",
        Scale::Mid => "mid",
        Scale::Paper => "paper",
    };
    eprintln!("[bench_pipeline] running {} …", scale.label());
    let previous = install_global(Registry::new());
    let config = scale.config();
    let path_name = match config.path {
        CollectionPath::Wire => "wire",
        CollectionPath::AsyncWire => "async",
        CollectionPath::Direct => "direct",
    };
    let out = Study::new(config).run();

    // Downstream analysis stages, timed through the same registries: §7.2
    // labeling, app dataset + XGB cross-validation, deployable app
    // classifier, §8 device dataset. A 2-fold CV keeps the smoke run in
    // seconds while still exercising the `ml/cv_fold` spans.
    let labeling = match scale {
        Scale::Test => LabelingConfig::test_scale(),
        Scale::Mid => LabelingConfig {
            min_worker_installs: 3,
            ..Default::default()
        },
        Scale::Paper => Default::default(),
    };
    let labels = {
        let _span = out.obs.span("analyze/labeling");
        label_apps(&out, &labeling)
    };
    let app_data = AppUsageDataset::build(&out, &labels);
    {
        let _span = out.obs.span("analyze/cv_app");
        cross_validate(
            || {
                Box::new(GradientBoosting::new(GradientBoostingParams::default()))
                    as Box<dyn Classifier>
            },
            &app_data.data,
            2,
            1,
            Resampling::None,
            42,
        );
    }
    let app_clf = {
        let _span = out.obs.span("analyze/train_app");
        AppClassifier::train(&app_data)
    };
    let device_data = DeviceDataset::build(&out, &app_clf, 2, None, 7);

    // Live detection service: train, round-trip through the RKML codec
    // (the deployment artifact must behave identically to the in-memory
    // models), prime from streaming state, then time both scoring paths.
    let service = {
        let _span = out.obs.span("analyze/train_service");
        let trained = DetectionService::train(&app_clf, &device_data);
        DetectionService::from_bytes(&trained.to_bytes())
            .unwrap_or_else(|e| fail(&format!("service round-trip failed: {e}")))
    };
    let primed = service.prime(&out);
    let batch = service.score_batch(&out);
    let streaming = service.score_streaming(&out, &primed);
    for (i, (s, b)) in streaming.iter().zip(&batch).enumerate() {
        if s.proba.to_bits() != b.proba.to_bits()
            || s.suspiciousness.to_bits() != b.suspiciousness.to_bits()
        {
            fail(&format!(
                "device {i}: streaming verdict ({}, {}) != batch ({}, {})",
                s.suspiciousness, s.proba, b.suspiciousness, b.proba
            ));
        }
    }

    // Lockstep campaign detection: the study already ran the detector
    // incrementally over ingest-time sketches; recompute in batch from the
    // columnar install-event family (stamping `campaign/shingle` and the
    // `campaign.shingles` counter the validator's throughput floor reads)
    // and hold the two reports byte-identical.
    let campaigns = {
        let _span = out.obs.span("analyze/campaign_batch");
        racketstore::campaign::batch_report(&out)
    };
    if campaigns != out.campaigns {
        fail(&format!(
            "{scale_name}: batch campaign report != incremental report"
        ));
    }
    eprintln!(
        "[bench_pipeline] {} campaigns: {} clusters from {} candidate pairs",
        scale_name,
        campaigns.campaigns.len(),
        campaigns.n_candidate_pairs
    );

    // Review-text kernel throughput: fold a deterministic synthetic
    // review corpus (the agents' keyed template generator — identical
    // every run) through the batch text-sketch rebuild kernel, stamping
    // `campaign/text_rebuild` wall time and the `text.reviews` counter
    // the validator's ≥ 1M reviews/s floor reads. The default study runs
    // text-off, so this synthetic volume is what backs the floor. The
    // corpus is materialized *before* the span opens: the floor measures
    // the shingle → SimHash/sentiment → sketch fold (what ingest pays
    // per review), not template generation (which the simulator pays,
    // under `simulate`).
    {
        use rayon::prelude::*;
        let textgen = racket_agents::TextGen::new(2021);
        let (n_installs, per_install) = match scale {
            Scale::Test => (500u64, 100u64),
            _ => (2_500u64, 100u64),
        };
        let corpus: Vec<Vec<String>> = (0..n_installs)
            .into_par_iter()
            .map(|i| {
                (0..per_install)
                    .map(|r| {
                        let app = (i * per_install + r) % 97;
                        let stars = (1 + (i + r) % 5) as u8;
                        let rating = racket_types::Rating::new(stars).unwrap();
                        textgen.personal(i * 1_000 + r, app, rating)
                    })
                    .collect()
            })
            .collect();
        let span = out.obs.span(keys::SPAN_TEXT_REBUILD);
        let sketches: Vec<racket_text::TextSketch> = (0..n_installs)
            .into_par_iter()
            .map(|i| {
                let mut sk = racket_text::TextSketch::default();
                for (r, text) in corpus[i as usize].iter().enumerate() {
                    let r = r as u64;
                    let app = (i * per_install + r) % 97;
                    let stars = (1 + (i + r) % 5) as u8;
                    sk.observe(app as u32, i * 1_000 + r, r * 60, stars, text);
                }
                sk
            })
            .collect();
        drop(span);
        let n_reviews = n_installs * per_install;
        out.obs.add(keys::TEXT_REVIEWS, n_reviews);
        if sketches.iter().any(|s| s.is_empty()) {
            fail(&format!(
                "{scale_name}: text kernel produced an empty sketch"
            ));
        }
        eprintln!(
            "[bench_pipeline] {} text kernel: {} reviews folded into {} sketches",
            scale_name,
            n_reviews,
            sketches.len()
        );
    }

    // Merge the study's private registry with the global one (fleet
    // per-device timing, ml/cv_fold spans) into the run's snapshot.
    let mut snapshot = out.obs.snapshot();
    snapshot.merge(&install_global(previous).snapshot());

    // The streaming engine's payoff: classifying every device from primed
    // streaming state must be far cheaper than the batch re-scan.
    let stage_secs = |stage: &str| {
        snapshot
            .histograms
            .get(&format!("{SPAN_PREFIX}{stage}"))
            .map(|h| h.sum_secs())
            .unwrap_or(0.0)
    };
    let batch_secs = stage_secs(keys::SPAN_SCORE_BATCH);
    let streaming_secs = stage_secs(keys::SPAN_SCORE_STREAM);
    let speedup = if streaming_secs > 0.0 {
        batch_secs / streaming_secs
    } else {
        f64::INFINITY
    };
    eprintln!(
        "[bench_pipeline] {} live detection: {} devices scored; batch {:.1} ms, \
         streaming {:.3} ms ({speedup:.0}x)",
        scale_name,
        streaming.len(),
        batch_secs * 1e3,
        streaming_secs * 1e3
    );
    if scale != Scale::Test && speedup < 5.0 {
        fail(&format!(
            "streaming scoring only {speedup:.1}x faster than batch at {scale_name} scale \
             (contract: >= 5x)"
        ));
    }

    eprintln!(
        "[bench_pipeline] {} done: {} devices, {} snapshots, {:.0} snapshots/s",
        scale_name,
        out.observations.len(),
        out.metrics.snapshots_ingested,
        out.metrics.snapshots_per_sec()
    );
    eprintln!("{}", render_timing_tree(&snapshot));
    let mut run = report::run_report(scale_name, path_name, out.observations.len(), &snapshot);
    if scale == Scale::Test {
        let wall_1t = study_wall_1t(scale);
        eprintln!(
            "[bench_pipeline] {scale_name} study wall: {:.3} s on {} threads, {wall_1t:.3} s on 1",
            run.total_secs, run.threads
        );
        run.wall_1t_secs = Some(wall_1t);
    }
    run
}

/// `total_secs` of the study at `scale` run once more with
/// `RAYON_NUM_THREADS=1` (in a throwaway global registry): the baseline a
/// run's `threads` and `total_secs` are read against. Called between
/// runs, when no other thread of this process exists to read the
/// environment.
fn study_wall_1t(scale: Scale) -> f64 {
    const VAR: &str = "RAYON_NUM_THREADS";
    let caller_threads = std::env::var_os(VAR);
    std::env::set_var(VAR, "1");
    let previous = install_global(Registry::new());
    let out = Study::new(scale.config()).run();
    install_global(previous);
    match caller_threads {
        Some(v) => std::env::set_var(VAR, v),
        None => std::env::remove_var(VAR),
    }
    out.metrics.total_secs()
}

/// The `large` scale: not a study, but the async ingest plane at fleet
/// width — 10⁴ concurrent connections flooding pre-encoded uploads into
/// the reactor workers, measured first-byte-in to last-ack-out. The
/// measured throughput overrides the report's study-oriented
/// `snapshots_per_sec` derivation (which divides by the `simulate` span
/// this run does not have).
fn run_large() -> report::RunReport {
    let cfg = IngestPlaneConfig::large();
    eprintln!(
        "[bench_pipeline] running large (ingest plane: {} connections, {} snapshots) …",
        cfg.connections,
        cfg.total_snapshots()
    );
    let result = ingest_plane::run(cfg);
    let snapshot = result.registry.snapshot();
    let mut run = report::run_report("large", "async", result.devices, &snapshot);
    run.total_secs = result.elapsed_secs;
    run.snapshots_per_sec = result.snapshots_per_sec;
    eprintln!(
        "[bench_pipeline] large done: {} connections, {} snapshots in {:.2}s \
         ({:.2}M snapshots/s)",
        result.devices,
        result.snapshots,
        result.elapsed_secs,
        result.snapshots_per_sec / 1e6
    );
    eprintln!("{}", render_timing_tree(&snapshot));
    run
}

fn fail(msg: &str) -> ! {
    eprintln!("[bench_pipeline] {msg}");
    std::process::exit(1);
}
