//! The `BENCH_pipeline.json` schema and its builders.
//!
//! `bench_pipeline` runs the end-to-end study at two or three fleet
//! scales and freezes each run's observability registry into a
//! [`RunReport`]; the [`BenchReport`] wrapping them is the repository's
//! machine-readable performance trajectory (schema documented in
//! `EXPERIMENTS.md`). Everything here is *derived* statistics — stage
//! wall-clock, throughput, p50/p95/p99 latencies, counter totals — never
//! raw histogram buckets, so the file stays small and diff-friendly.
//!
//! The vendored `serde_json` has no untyped `Value`; validation is a
//! round-trip parse back into these same structs ([`validate`]), which is
//! exactly what any downstream consumer of the file will do.

use racket_obs::{RegistrySnapshot, SPAN_PREFIX};
use racket_types::metrics::keys;
use racket_types::PipelineMetrics;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema identifier carried in every emitted file.
pub const SCHEMA: &str = "racketstore/bench-pipeline";
/// Current schema version.
pub const SCHEMA_VERSION: u32 = 1;

/// Derived statistics for one pipeline stage (one `span.*` histogram).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Completed spans.
    pub count: u64,
    /// Total wall time across all spans, in seconds.
    pub wall_secs: f64,
    /// Median single-span latency, in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile single-span latency, in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile single-span latency, in milliseconds.
    pub p99_ms: f64,
}

/// One study run at one scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Scale label (`test`, `mid`, `paper`).
    pub scale: String,
    /// Collection path the run used (`wire` or `direct`).
    pub path: String,
    /// Devices observed.
    pub devices: usize,
    /// Worker threads the parallel stages ran with.
    pub threads: usize,
    /// `total_secs` of the same study run once more on one worker thread
    /// (`RAYON_NUM_THREADS=1`) — the baseline `threads` is read against.
    /// Measured at the `test` scale only; `null` on every other run.
    pub wall_1t_secs: Option<f64>,
    /// End-to-end study wall time (fleet gen + simulate + assemble), s.
    pub total_secs: f64,
    /// Snapshots ingested by the collection server.
    pub snapshots_ingested: u64,
    /// Ingestion throughput over the simulate stage, snapshots/second.
    pub snapshots_per_sec: f64,
    /// Compressed bytes uploaded over the wire path (0 on direct).
    pub bytes_compressed: u64,
    /// Every registry counter (faults, retries, dedup, ingest, …).
    pub counters: BTreeMap<String, u64>,
    /// Per-stage timing, keyed by span path (`simulate/day/lane`, …).
    pub stages: BTreeMap<String, StageReport>,
}

/// The emitted file: a schema header plus one report per run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Always [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// One entry per (scale, path) run, in execution order.
    pub runs: Vec<RunReport>,
}

impl BenchReport {
    /// A report with the current schema header and no runs yet.
    pub fn new() -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            schema_version: SCHEMA_VERSION,
            runs: Vec::new(),
        }
    }
}

impl Default for BenchReport {
    fn default() -> Self {
        Self::new()
    }
}

/// Build one run's report from its merged registry snapshot (study
/// registry + the process-global registry holding fleet/ML spans).
pub fn run_report(
    scale: &str,
    path: &str,
    devices: usize,
    snapshot: &RegistrySnapshot,
) -> RunReport {
    let metrics = PipelineMetrics::from_snapshot(snapshot);
    let stages = snapshot
        .histograms
        .iter()
        .filter_map(|(name, hist)| {
            let stage = name.strip_prefix(SPAN_PREFIX)?;
            Some((
                stage.to_string(),
                StageReport {
                    count: hist.count,
                    wall_secs: hist.sum_secs(),
                    p50_ms: hist.quantile(0.50) / 1e6,
                    p95_ms: hist.quantile(0.95) / 1e6,
                    p99_ms: hist.quantile(0.99) / 1e6,
                },
            ))
        })
        .collect();
    RunReport {
        scale: scale.to_string(),
        path: path.to_string(),
        devices,
        threads: metrics.threads,
        wall_1t_secs: None,
        total_secs: metrics.total_secs(),
        snapshots_ingested: metrics.snapshots_ingested,
        snapshots_per_sec: metrics.snapshots_per_sec(),
        bytes_compressed: metrics.bytes_compressed,
        counters: snapshot.counters.clone(),
        stages,
    }
}

/// Ingest-throughput floor the `large` run must clear (snapshots/s
/// aggregate across ≥ [`LARGE_MIN_DEVICES`] concurrent connections).
pub const LARGE_MIN_SNAPSHOTS_PER_SEC: f64 = 1_000_000.0;
/// Minimum concurrent connections for a valid `large` run.
pub const LARGE_MIN_DEVICES: usize = 10_000;
/// Ceiling on the `mid` run's total `analyze/*` wall time, in seconds.
///
/// The columnar analyze engine's performance contract: the pre-columnar
/// baseline (row-oriented split search and per-row scoring) spent 1.73 s
/// across the analyze stage group at mid scale, so holding the group
/// under 0.87 s enforces the promised ≥ 2× on every future regeneration
/// of `BENCH_pipeline.json`.
pub const MID_ANALYZE_MAX_SECS: f64 = 0.87;
/// Floor on the lockstep-detection hot path at mid scale: campaign
/// shingles folded per second of combined `campaign/shingle` +
/// `campaign/lsh` wall time (sketch rebuild, MinHash folding and LSH
/// banding — the per-event cost of running the detector over a fleet).
/// Set well below measured rates so only an order-of-magnitude
/// regression trips it.
pub const MID_CAMPAIGN_MIN_SHINGLES_PER_SEC: f64 = 250_000.0;
/// Floor on the review-text kernel at mid scale: reviews folded per
/// second of `campaign/text_rebuild` wall time (tokenize + shingle +
/// SimHash + 32-permutation MinHash per review — the full batch
/// text-sketch rebuild). The parallel rebuild measures well above this;
/// the floor trips only on an order-of-magnitude regression.
pub const MID_TEXT_MIN_REVIEWS_PER_SEC: f64 = 1_000_000.0;
/// Ceiling on the `mid` run's `simulate` stage wall time, in seconds.
///
/// The allocation-free lane engine's performance contract: the
/// pre-overhaul driver (per-day index rebuilds, fresh snapshot vectors
/// per poll, per-crawl `HashSet` rebuilds, per-day directive scans)
/// spent 4.51 s simulating the mid-scale study, so holding the stage
/// under 1.50 s enforces the promised ≥ 3× on every future regeneration
/// of `BENCH_pipeline.json`.
pub const MID_SIMULATE_MAX_SECS: f64 = 1.50;

/// Parse and sanity-check an emitted `BENCH_pipeline.json`.
///
/// Returns the parsed report, or a description of the first violation:
/// wrong schema header, no runs, a run missing one of the required
/// stages (the three top-level study stages plus the two end-of-study
/// scoring paths), a run with zero ingestion throughput, or a `test` run
/// without its one-thread wall (`wall_1t_secs`). A `large`
/// run is held to the async ingest-plane contract instead: path
/// `async`, ≥ 10⁴ devices, a nonzero `ingest` stage, and at least
/// [`LARGE_MIN_SNAPSHOTS_PER_SEC`] aggregate throughput.
pub fn validate(json: &str) -> Result<BenchReport, String> {
    let report: BenchReport =
        serde_json::from_str(json).map_err(|e| format!("not a BenchReport: {e:?}"))?;
    if report.schema != SCHEMA {
        return Err(format!("schema is `{}`, want `{SCHEMA}`", report.schema));
    }
    if report.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version is {}, want {SCHEMA_VERSION}",
            report.schema_version
        ));
    }
    if report.runs.is_empty() {
        return Err("report has no runs".to_string());
    }
    for run in &report.runs {
        if run.scale == "large" {
            if run.path != "async" {
                return Err(format!("large run has path `{}`, want `async`", run.path));
            }
            if run.devices < LARGE_MIN_DEVICES {
                return Err(format!(
                    "large run has {} devices, want >= {LARGE_MIN_DEVICES}",
                    run.devices
                ));
            }
            let s = run
                .stages
                .get("ingest")
                .ok_or_else(|| "large run is missing stage `ingest`".to_string())?;
            if s.count == 0 {
                return Err("large run stage `ingest` has count 0".to_string());
            }
            if run.snapshots_ingested == 0 {
                return Err("large run reports zero ingestion".to_string());
            }
            if run.snapshots_per_sec < LARGE_MIN_SNAPSHOTS_PER_SEC {
                return Err(format!(
                    "large run sustains {:.0} snapshots/s, below the {:.0} floor",
                    run.snapshots_per_sec, LARGE_MIN_SNAPSHOTS_PER_SEC
                ));
            }
            if run.threads == 0 {
                return Err("large run reports zero threads".to_string());
            }
            continue;
        }
        for stage in [
            keys::SPAN_FLEET_GEN,
            keys::SPAN_SIMULATE,
            keys::SPAN_ASSEMBLE,
            keys::SPAN_SCORE_BATCH,
            keys::SPAN_SCORE_STREAM,
            keys::SPAN_CAMPAIGN_INCREMENTAL,
        ] {
            let s = run
                .stages
                .get(stage)
                .ok_or_else(|| format!("run `{}` is missing stage `{stage}`", run.scale))?;
            if s.count == 0 {
                return Err(format!("run `{}` stage `{stage}` has count 0", run.scale));
            }
        }
        if run.snapshots_ingested == 0 || run.snapshots_per_sec <= 0.0 {
            return Err(format!("run `{}` reports zero ingestion", run.scale));
        }
        if run.threads == 0 {
            return Err(format!("run `{}` reports zero threads", run.scale));
        }
        if run.scale == "test" && !run.wall_1t_secs.is_some_and(|s| s > 0.0) {
            return Err("test run reports no one-thread wall (wall_1t_secs)".to_string());
        }
        // The columnar analyze engine's wall-clock contract (mid scale
        // only: the test scale is noise-dominated and paper scale is not
        // part of the default matrix).
        if run.scale == "mid" {
            let analyze_secs: f64 = run
                .stages
                .iter()
                .filter(|(name, _)| name.starts_with("analyze/"))
                .map(|(_, s)| s.wall_secs)
                .sum();
            if analyze_secs <= 0.0 {
                return Err("mid run reports no analyze/* wall time".to_string());
            }
            if analyze_secs > MID_ANALYZE_MAX_SECS {
                return Err(format!(
                    "mid run spends {analyze_secs:.3} s in analyze/*, above the \
                     {MID_ANALYZE_MAX_SECS} s columnar-engine ceiling"
                ));
            }
            // The lane engine's wall-clock contract: the simulate stage
            // (the parallel per-device day loop) must hold the ≥ 3×
            // speedup the allocation-free overhaul bought.
            let simulate_secs = run
                .stages
                .get(keys::SPAN_SIMULATE)
                .map(|s| s.wall_secs)
                .unwrap_or(0.0);
            if simulate_secs <= 0.0 {
                return Err("mid run reports no simulate wall time".to_string());
            }
            if simulate_secs > MID_SIMULATE_MAX_SECS {
                return Err(format!(
                    "mid run spends {simulate_secs:.3} s in simulate, above the \
                     {MID_SIMULATE_MAX_SECS} s lane-engine ceiling"
                ));
            }
            // The lockstep detector's hot-path contract: shingle folding
            // plus LSH banding must sustain the MinHash throughput floor
            // (the batch rebuild stamps `campaign.shingles`).
            let shingles = run
                .counters
                .get(keys::CAMPAIGN_SHINGLES)
                .copied()
                .unwrap_or(0);
            if shingles == 0 {
                return Err("mid run folded no campaign shingles".to_string());
            }
            let hot_secs: f64 = [keys::SPAN_CAMPAIGN_SHINGLE, keys::SPAN_CAMPAIGN_LSH]
                .iter()
                .filter_map(|s| run.stages.get(*s))
                .map(|s| s.wall_secs)
                .sum();
            if hot_secs <= 0.0 {
                return Err("mid run reports no campaign/* hot-path wall time".to_string());
            }
            let rate = shingles as f64 / hot_secs;
            if rate < MID_CAMPAIGN_MIN_SHINGLES_PER_SEC {
                return Err(format!(
                    "mid run's campaign hot path sustains {rate:.0} shingles/s, below \
                     the {MID_CAMPAIGN_MIN_SHINGLES_PER_SEC:.0} floor"
                ));
            }
            // The review-text kernel's throughput contract: the batch
            // text-sketch rebuild (bench_pipeline's synthetic corpus plus
            // any real rebuild volume) must sustain the reviews/s floor.
            let reviews = run.counters.get(keys::TEXT_REVIEWS).copied().unwrap_or(0);
            if reviews == 0 {
                return Err("mid run folded no text reviews".to_string());
            }
            let text_secs = run
                .stages
                .get(keys::SPAN_TEXT_REBUILD)
                .map(|s| s.wall_secs)
                .unwrap_or(0.0);
            if text_secs <= 0.0 {
                return Err("mid run reports no text_rebuild wall time".to_string());
            }
            let text_rate = reviews as f64 / text_secs;
            if text_rate < MID_TEXT_MIN_REVIEWS_PER_SEC {
                return Err(format!(
                    "mid run's text kernel sustains {text_rate:.0} reviews/s, below \
                     the {MID_TEXT_MIN_REVIEWS_PER_SEC:.0} floor"
                ));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_obs::Registry;

    fn plausible_snapshot() -> RegistrySnapshot {
        let reg = Registry::new();
        reg.gauge_set(keys::THREADS, 4);
        reg.add(keys::SNAPSHOTS_INGESTED, 5_000);
        // Campaign hot path: 10k shingles over 20 ms = 500k/s, above floor.
        reg.add(keys::CAMPAIGN_SHINGLES, 10_000);
        reg.record(
            &format!("{SPAN_PREFIX}{}", keys::SPAN_CAMPAIGN_SHINGLE),
            10_000_000,
        );
        reg.record(
            &format!("{SPAN_PREFIX}{}", keys::SPAN_CAMPAIGN_LSH),
            10_000_000,
        );
        // Text kernel: 100k reviews over 10 ms = 10M/s, above floor.
        reg.add(keys::TEXT_REVIEWS, 100_000);
        reg.record(
            &format!("{SPAN_PREFIX}{}", keys::SPAN_TEXT_REBUILD),
            10_000_000,
        );
        for stage in [
            keys::SPAN_FLEET_GEN,
            keys::SPAN_SIMULATE,
            keys::SPAN_ASSEMBLE,
            keys::SPAN_SCORE_BATCH,
            keys::SPAN_SCORE_STREAM,
            keys::SPAN_CAMPAIGN_INCREMENTAL,
        ] {
            reg.record(&format!("{SPAN_PREFIX}{stage}"), 2_000_000_000);
        }
        reg.snapshot()
    }

    /// A test-scale run as `bench_pipeline` emits it: the report of the
    /// snapshot plus the one-thread wall of the rerun.
    fn plausible_test_run() -> RunReport {
        let mut run = run_report("test", "wire", 60, &plausible_snapshot());
        run.wall_1t_secs = Some(6.5);
        run
    }

    #[test]
    fn report_round_trips_and_validates() {
        let mut report = BenchReport::new();
        report.runs.push(plausible_test_run());
        let json = serde_json::to_string(&report).unwrap();
        let back = validate(&json).expect("valid report");
        assert_eq!(back, report);
        let run = &back.runs[0];
        assert_eq!(run.devices, 60);
        assert_eq!(run.threads, 4);
        assert_eq!(run.wall_1t_secs, Some(6.5));
        assert!(run.snapshots_per_sec > 0.0);
        assert!(run.stages.contains_key("simulate"));
    }

    #[test]
    fn validate_requires_the_one_thread_wall_on_test_runs() {
        let mut report = BenchReport::new();
        report
            .runs
            .push(run_report("test", "wire", 60, &plausible_snapshot()));
        let json = serde_json::to_string(&report).unwrap();
        let err = validate(&json).unwrap_err();
        assert!(err.contains("wall_1t_secs"), "{err}");
        // A file from before the field existed does not parse at all.
        let old = json.replace("\"wall_1t_secs\":null,", "");
        assert_ne!(old, json);
        let err = validate(&old).unwrap_err();
        assert!(err.contains("wall_1t_secs"), "{err}");
    }

    #[test]
    fn validate_rejects_missing_stage() {
        let mut report = BenchReport::new();
        let mut run = plausible_test_run();
        run.stages.remove(keys::SPAN_SIMULATE);
        report.runs.push(run);
        let json = serde_json::to_string(&report).unwrap();
        let err = validate(&json).unwrap_err();
        assert!(err.contains("missing stage"), "{err}");
    }

    fn plausible_large_run() -> RunReport {
        let reg = Registry::new();
        reg.gauge_set(keys::THREADS, 1);
        reg.add(keys::SNAPSHOTS_INGESTED, 1_280_000);
        reg.record(&format!("{SPAN_PREFIX}ingest"), 1_000_000_000);
        let mut run = run_report("large", "async", 10_000, &reg.snapshot());
        run.snapshots_per_sec = 1_280_000.0;
        run
    }

    #[test]
    fn validate_holds_large_runs_to_the_ingest_plane_contract() {
        let mut report = BenchReport::new();
        report.runs.push(plausible_large_run());
        let json = serde_json::to_string(&report).unwrap();
        validate(&json).expect("a compliant large run validates");

        // Below the throughput floor.
        let mut slow = BenchReport::new();
        let mut run = plausible_large_run();
        run.snapshots_per_sec = 999_999.0;
        slow.runs.push(run);
        let err = validate(&serde_json::to_string(&slow).unwrap()).unwrap_err();
        assert!(err.contains("floor"), "{err}");

        // Too few connections.
        let mut small = BenchReport::new();
        let mut run = plausible_large_run();
        run.devices = 9_999;
        small.runs.push(run);
        let err = validate(&serde_json::to_string(&small).unwrap()).unwrap_err();
        assert!(err.contains("devices"), "{err}");

        // Wrong path.
        let mut wrong = BenchReport::new();
        let mut run = plausible_large_run();
        run.path = "wire".to_string();
        wrong.runs.push(run);
        let err = validate(&serde_json::to_string(&wrong).unwrap()).unwrap_err();
        assert!(err.contains("async"), "{err}");

        // Missing the ingest stage.
        let mut missing = BenchReport::new();
        let mut run = plausible_large_run();
        run.stages.remove("ingest");
        missing.runs.push(run);
        let err = validate(&serde_json::to_string(&missing).unwrap()).unwrap_err();
        assert!(err.contains("ingest"), "{err}");
    }

    #[test]
    fn validate_holds_mid_runs_to_the_analyze_ceiling() {
        // A mid run whose analyze group fits under the ceiling validates.
        let mut ok = BenchReport::new();
        ok.runs
            .push(run_report("mid", "direct", 240, &plausible_snapshot()));
        // plausible_snapshot records 2 s in each span — push the two
        // scoring stages and the simulate stage under their ceilings
        // first.
        for stage in [
            keys::SPAN_SCORE_BATCH,
            keys::SPAN_SCORE_STREAM,
            keys::SPAN_SIMULATE,
        ] {
            ok.runs[0].stages.get_mut(stage).unwrap().wall_secs = 0.05;
        }
        validate(&serde_json::to_string(&ok).unwrap()).expect("fast mid run validates");

        // The same run with a slow analyze stage is rejected.
        let mut slow = ok.clone();
        slow.runs[0]
            .stages
            .get_mut(keys::SPAN_SCORE_BATCH)
            .unwrap()
            .wall_secs = MID_ANALYZE_MAX_SECS + 1.0;
        let err = validate(&serde_json::to_string(&slow).unwrap()).unwrap_err();
        assert!(err.contains("ceiling"), "{err}");

        // Test-scale runs are exempt (noise-dominated).
        let mut test_run = BenchReport::new();
        test_run.runs.push(plausible_test_run());
        test_run.runs[0]
            .stages
            .get_mut(keys::SPAN_SCORE_BATCH)
            .unwrap()
            .wall_secs = 100.0;
        validate(&serde_json::to_string(&test_run).unwrap()).expect("test runs have no ceiling");
    }

    #[test]
    fn validate_holds_mid_runs_to_the_simulate_ceiling() {
        // A mid run with every stage under its ceiling validates.
        let mut ok = BenchReport::new();
        ok.runs
            .push(run_report("mid", "direct", 240, &plausible_snapshot()));
        for stage in [
            keys::SPAN_SCORE_BATCH,
            keys::SPAN_SCORE_STREAM,
            keys::SPAN_SIMULATE,
        ] {
            ok.runs[0].stages.get_mut(stage).unwrap().wall_secs = 0.05;
        }
        validate(&serde_json::to_string(&ok).unwrap()).expect("fast mid run validates");

        // The same run with a slow simulate stage is rejected.
        let mut slow = ok.clone();
        slow.runs[0]
            .stages
            .get_mut(keys::SPAN_SIMULATE)
            .unwrap()
            .wall_secs = MID_SIMULATE_MAX_SECS + 1.0;
        let err = validate(&serde_json::to_string(&slow).unwrap()).unwrap_err();
        assert!(err.contains("lane-engine ceiling"), "{err}");

        // Test-scale runs are exempt (noise-dominated).
        let mut test_run = BenchReport::new();
        test_run.runs.push(plausible_test_run());
        test_run.runs[0]
            .stages
            .get_mut(keys::SPAN_SIMULATE)
            .unwrap()
            .wall_secs = 100.0;
        validate(&serde_json::to_string(&test_run).unwrap()).expect("test runs have no ceiling");
    }

    #[test]
    fn validate_holds_mid_runs_to_the_text_floor() {
        let mut ok = BenchReport::new();
        ok.runs
            .push(run_report("mid", "direct", 240, &plausible_snapshot()));
        for stage in [
            keys::SPAN_SCORE_BATCH,
            keys::SPAN_SCORE_STREAM,
            keys::SPAN_SIMULATE,
        ] {
            ok.runs[0].stages.get_mut(stage).unwrap().wall_secs = 0.05;
        }
        validate(&serde_json::to_string(&ok).unwrap()).expect("fast mid run validates");

        // The same run with a crawling text kernel is rejected.
        let mut slow = ok.clone();
        slow.runs[0]
            .stages
            .get_mut(keys::SPAN_TEXT_REBUILD)
            .unwrap()
            .wall_secs = 1.0; // 100k reviews over 1 s = 100k/s, below floor
        let err = validate(&serde_json::to_string(&slow).unwrap()).unwrap_err();
        assert!(err.contains("reviews/s"), "{err}");

        // A mid run that never folded reviews is rejected outright.
        let mut none = ok.clone();
        none.runs[0].counters.remove(keys::TEXT_REVIEWS);
        let err = validate(&serde_json::to_string(&none).unwrap()).unwrap_err();
        assert!(err.contains("no text reviews"), "{err}");

        // Test-scale runs are exempt.
        let mut test_run = BenchReport::new();
        test_run.runs.push(plausible_test_run());
        test_run.runs[0].counters.remove(keys::TEXT_REVIEWS);
        validate(&serde_json::to_string(&test_run).unwrap()).expect("test runs have no floor");
    }

    #[test]
    fn validate_rejects_wrong_schema_and_empty_runs() {
        let mut report = BenchReport::new();
        report.schema = "something-else".to_string();
        let json = serde_json::to_string(&report).unwrap();
        assert!(validate(&json).unwrap_err().contains("schema"));

        let empty = serde_json::to_string(&BenchReport::new()).unwrap();
        assert!(validate(&empty).unwrap_err().contains("no runs"));

        assert!(validate("not json").is_err());
    }
}
