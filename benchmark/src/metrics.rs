//! The benchmark's metric definitions — the tables `BENCHMARK.json` lists
//! (a unit test compares the two field by field) — and the result line.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric: name, unit, direction and — end-to-end only — the share of
/// the parent's median by which it may worsen before it is a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: defined on every workload, never zero, measured
/// with tracing off. `wall_min_s` is the fastest timed repetition, steadier
/// run to run on this shared 2-core box than the median the issue defined,
/// which is demoted to the per-layer `wall_median_s`. The two times carry
/// the widest bound allowed because the box itself shifts by that much
/// between sets of runs (README, "Which estimator, and which bound").
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_min_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, printed by the traced run. The first block holds
/// the user-visible numbers that exist on some workloads only (so they
/// cannot carry a bound under the one-table-for-all-workloads contract);
/// they are measured on the traced binary's *untraced* repetitions. A
/// metric reads 0 on a workload where its layer does no work.
pub const PER_LAYER: &[MetricDef] = &[
    layer("wall_median_s", "s", Lower),
    layer("wall_max_s", "s", Lower),
    layer("wall_reps", "count", Higher),
    layer("snapshots_per_s", "1/s", Higher),
    layer("reviews_per_s", "1/s", Higher),
    layer("verdict_ms", "ms", Lower),
    layer("ack_ms_p50", "ms", Lower),
    layer("ack_ms_p99", "ms", Lower),
    layer("wire_bytes_per_snapshot", "B", Lower),
    layer("wall_1t_s", "s", Lower),
    layer("scaling_efficiency", "ratio", Higher),
    layer("ops_failed_share", "ratio", Lower),
    layer("agents.fleet_gen.busy_s", "s", Lower),
    layer("agents.lane.busy_s", "s", Lower),
    layer("agents.lane.ns_per_snapshot", "ns", Lower),
    layer("core.study.run_busy_s", "s", Lower),
    layer("core.study.simulate_wall_s", "s", Lower),
    layer("collect.codec.encode_busy_s", "s", Lower),
    layer("collect.codec.encode_ns_per_snapshot", "ns", Lower),
    layer("collect.codec.decode_ns_per_snapshot", "ns", Lower),
    layer("collect.lzss.compress_busy_s", "s", Lower),
    layer("collect.lzss.compress_mb_per_s", "MB/s", Higher),
    layer("collect.lzss.decompress_mb_per_s", "MB/s", Higher),
    layer("collect.lzss.ratio", "ratio", Higher),
    layer("collect.hash.sha256_busy_s", "s", Lower),
    layer("collect.hash.sha256_mb_per_s", "MB/s", Higher),
    layer("collect.hash.crc32_mb_per_s", "MB/s", Higher),
    layer("collect.wire.encode_busy_s", "s", Lower),
    layer("collect.wire.decode_ns_per_frame", "ns", Lower),
    layer("collect.retry.attempts", "count", Lower),
    layer("collect.retry.retries", "count", Lower),
    layer("collect.retry.reconnects", "count", Lower),
    layer("collect.retry.exhausted", "count", Lower),
    layer("collect.retry.first_try_share", "ratio", Higher),
    layer("collect.retry.wait_s", "s", Lower),
    layer("reactor.poll.busy_s", "s", Lower),
    layer("reactor.poll.rounds", "count", Lower),
    layer("collect.async_server.accept_busy_s", "s", Lower),
    layer("collect.async_server.shed", "count", Lower),
    layer("collect.async_server.stall_sweeps", "count", Lower),
    layer("collect.shard.ingest_ns_per_snapshot", "ns", Lower),
    layer("collect.shard.skew", "ratio", Lower),
    layer("collect.server.dup_files", "count", Lower),
    layer("collect.server.bad_uploads", "count", Lower),
    layer("core.study.assemble_busy_s", "s", Lower),
    layer("core.study.join_busy_s", "s", Lower),
    layer("collect.fingerprint.coalesce_busy_s", "s", Lower),
    layer("collect.columnar.columnarize_busy_s", "s", Lower),
    layer("collect.columnar.bytes", "B", Lower),
    layer("features.streaming.fold_busy_s", "s", Lower),
    layer("core.labeling.busy_s", "s", Lower),
    layer("features.app_dataset.busy_s", "s", Lower),
    layer("features.device_dataset.busy_s", "s", Lower),
    layer("ml.cv.busy_s", "s", Lower),
    layer("ml.cv.fold_ms_p50", "ms", Lower),
    layer("ml.gbt.train_busy_s", "s", Lower),
    layer("core.scoring.train_busy_s", "s", Lower),
    layer("core.scoring.persist_roundtrip_s", "s", Lower),
    layer("core.scoring.prime_busy_s", "s", Lower),
    layer("core.scoring.score_streaming_busy_s", "s", Lower),
    layer("core.scoring.score_batch_busy_s", "s", Lower),
    layer("core.measurements.busy_s", "s", Lower),
    layer("campaign.detect.incremental_busy_s", "s", Lower),
    layer("campaign.detect.batch_busy_s", "s", Lower),
    layer("campaign.lsh.busy_s", "s", Lower),
    layer("campaign.sketch.shingles_per_s", "1/s", Higher),
    layer("text.sketch.observe_ns_per_review", "ns", Lower),
    layer("text.sketch.merge_ns", "ns", Lower),
    layer("text.sketch.rebuild_busy_s", "s", Lower),
    layer("text.index.scan_busy_s", "s", Lower),
    layer("alloc.count_per_snapshot", "count", Lower),
    layer("alloc.bytes_per_snapshot", "B", Lower),
    layer("obs.overhead_share", "ratio", Lower),
    layer("bench.verify_busy_s", "s", Lower),
    layer("bench.unaccounted_share", "ratio", Lower),
    layer("bench.generator_lag_ms_p99", "ms", Lower),
];

/// The four workloads, in the order `--all` runs them, each with the one
/// line `BENCHMARK.json` records for why it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "e2e_async",
        "whole pipeline in one clock window over AsyncWire (60 devices, text + campaigns): delivery (serialize, LZSS, SHA-256, framing, reactor, admission, fold) does most of the work",
    ),
    (
        "e2e_direct",
        "same chain on a 134-device fleet (half of mid) over Direct: bypasses the wire, so simulator, ingest fold, columnarize, features, GBT and scoring dominate; carries the 1-thread baseline",
    ),
    (
        "ingest_plane",
        "server side only: 10000 in-memory lanes flood 960k pre-encoded real-mix snapshots into AsyncCollectServer (closed loop), plus a paced open loop in the traced run; simulator and analysis idle",
    ),
    (
        "detect_corpus",
        "campaign + text detection only: scoring, incremental and batch detectors, 300k-review corpus fold/merge/near-duplicate scan and synthetic lockstep sketches; collection does nothing",
    ),
];

/// How long one run measures, in seconds (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// Named metric values of one run.
pub type Values = BTreeMap<&'static str, f64>;

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (upload files, devices scored, reviews
    /// folded, correctness checks).
    pub attempted: u64,
    /// Operations that failed, including failed correctness checks.
    pub failed: u64,
    /// What failed, for the human reading stderr.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: Values,
}

impl Outcome {
    /// Count `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{bad} of {n} {what} failed"));
        }
    }

    /// One correctness check; a failed check is a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("check failed: {what}"));
        }
    }

    /// The contract's result line: every metric of `defs`, each as
    /// measured with all its digits. Per-layer metrics a workload has no
    /// work for read 0; a missing end-to-end metric is a harness bug.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = match self.values.get(d.name) {
                    Some(v) => *v,
                    None if d.bound.is_none() => 0.0,
                    None => panic!("end-to-end metric {} was not measured", d.name),
                };
                assert!(v.is_finite(), "metric {} is not finite", d.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_these_tables() {
        use crate::compare::Raw;
        use serde::Content;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let Raw(root) = serde_json::from_str(&json).expect("BENCHMARK.json parses");
        let Content::Map(entries) = &root else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let rows = |key: &str| match root.get(key) {
            Some(Content::Seq(rows)) => rows.clone(),
            other => panic!("{key} is a list, not {other:?}"),
        };
        let text = |row: &Content, key: &str| match row.get(key) {
            Some(Content::Str(s)) => s.clone(),
            other => panic!("{key} is a string, not {other:?}"),
        };
        assert_eq!(
            root.get("run_seconds"),
            Some(&Content::U64(u64::from(RUN_SECONDS)))
        );
        assert!((1..=60).contains(&RUN_SECONDS));

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let defined: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(name, why)| (name.to_string(), why.to_string()))
            .collect();
        assert_eq!(listed, defined);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(name.len() <= 64 && why.len() <= 200 && !why.contains('\n'));
        }

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String, Option<f64>)> = rows(key)
                .iter()
                .map(|m| {
                    let bound = match m.get("bound") {
                        None => None,
                        Some(Content::F64(b)) => Some(*b),
                        Some(other) => panic!("bound is a fraction, not {other:?}"),
                    };
                    (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
                })
                .collect();
            let defined: Vec<(String, String, String, Option<f64>)> = defs
                .iter()
                .map(|d| {
                    let better = match d.better {
                        Lower => "lower",
                        Higher => "higher",
                    };
                    (d.name.into(), d.unit.into(), better.into(), d.bound)
                })
                .collect();
            assert_eq!(listed, defined, "{key}");
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut o = Outcome::default();
        o.ops(10, 0, "uploads");
        o.check(true, "fine");
        for d in END_TO_END {
            o.values.insert(d.name, 1.25);
        }
        let line = o.result_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 11, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        o.check(false, "broken");
        assert!(o.result_line(END_TO_END).starts_with("{\"correct\": false"));
        // Per-layer metrics without work read zero instead of vanishing.
        assert!(o
            .result_line(PER_LAYER)
            .contains("\"verdict_ms\": {\"value\": 0, "));
    }
}
