//! The analysis chain behind a study — label, featurize, cross-validate,
//! train, persist, score, detect — called through the crates'
//! public functions with a span around each call, plus the correctness
//! checks every repetition makes and the `Registry` read-out that splits
//! `Study::run` into its layers.

use crate::metrics::{Outcome, Values};
use crate::trace::Tracer;
use racket_campaign::{detect_with_text, CampaignReport, CampaignSketch, DetectorConfig};
use racket_ml::{cross_validate, Classifier, GradientBoosting, GradientBoostingParams, Resampling};
use racket_obs::{install_global, Registry, RegistrySnapshot};
use racket_text::TextSketch;
use racket_types::metrics::keys;
use racket_types::InstallId;
use racketstore::app_classifier::{AppClassifier, AppUsageDataset};
use racketstore::device_classifier::DeviceDataset;
use racketstore::labeling::{label_apps, LabelingConfig};
use racketstore::scoring::{DetectionService, DeviceVerdict};
use racketstore::study::StudyOutput;
use std::fmt::Write;

/// Train the deployable detection service for a study: §7.2 labels → app
/// dataset → (optionally) 10-fold GBT cross-validation → app classifier →
/// device dataset → device model → RKML round trip. `ml.cv.fold_ms_p50`
/// lands in `layers` when cross-validation ran.
pub fn train_service(
    t: &Tracer,
    out: &StudyOutput,
    labeling: &LabelingConfig,
    with_cv: bool,
    layers: &mut Values,
) -> DetectionService {
    let (labels, _) = t.time("core.labeling", || label_apps(out, labeling));
    let (app_data, _) = t.time("features.app_dataset", || {
        AppUsageDataset::build(out, &labels)
    });
    if with_cv {
        // Per-fold spans go to the process-default registry; swap in a
        // fresh one so this repetition's folds are read in isolation.
        let previous = install_global(Registry::new());
        t.time("ml.cv", || {
            cross_validate(
                || {
                    Box::new(GradientBoosting::new(GradientBoostingParams::default()))
                        as Box<dyn Classifier>
                },
                &app_data.data,
                10,
                1,
                Resampling::None,
                42,
            )
        });
        let folds = install_global(previous).snapshot();
        if let Some(h) = folds.histogram("span.ml/cv_fold") {
            layers.insert("ml.cv.fold_ms_p50", h.quantile(0.5) / 1e6);
        }
    }
    let (app_clf, _) = t.time("ml.gbt.train", || AppClassifier::train(&app_data));
    let (device_data, _) = t.time("features.device_dataset", || {
        DeviceDataset::build(out, &app_clf, 2, None, 7)
    });
    let (trained, _) = t.time("core.scoring.train", || {
        DetectionService::train(&app_clf, &device_data)
    });
    let (restored, _) = t.time("core.scoring.persist_roundtrip", || {
        DetectionService::from_bytes(&trained.to_bytes())
    });
    restored.expect("a service serialized a moment ago restores")
}

/// What [`score_and_detect`] produced, kept so the checks can run after
/// the repetition's clock has been read.
pub struct Detected {
    /// `prime + score_streaming` seconds — the time from the last snapshot
    /// landing to a verdict for every device.
    pub verdict_s: f64,
    streaming: Vec<DeviceVerdict>,
    batch: Vec<DeviceVerdict>,
    incremental: CampaignReport,
    batch_campaigns: CampaignReport,
    batch_texts: Vec<(InstallId, TextSketch)>,
}

/// Score every device both ways, run both campaign detectors and the batch
/// text rebuild. [`Detected::verify`] holds each pair of results to its
/// contract; it is a separate call so no workload's wall includes it.
pub fn score_and_detect(t: &Tracer, out: &StudyOutput, service: &DetectionService) -> Detected {
    let (primed, prime_s) = t.time("core.scoring.prime", || service.prime(out));
    let (streaming, stream_s) = t.time("core.scoring.score_streaming", || {
        service.score_streaming(out, &primed)
    });
    let (batch, _) = t.time("core.scoring.score_batch", || service.score_batch(out));
    let (incremental, _) = t.time("campaign.detect.incremental", || {
        let inputs: Vec<(InstallId, &CampaignSketch)> = out
            .observations
            .iter()
            .map(|o| (o.record.install_id, o.record.stream.campaign()))
            .collect();
        let texts = streaming_text_sketches(out);
        detect_with_text(&inputs, &texts, &DetectorConfig::default(), Some(&out.obs))
    });
    let (batch_campaigns, _) = t.time("campaign.detect.batch", || {
        racketstore::campaign::batch_report(out)
    });
    let (batch_texts, _) = t.time("text.sketch.rebuild", || {
        racketstore::text::batch_text_sketches(out)
    });
    Detected {
        verdict_s: prime_s + stream_s,
        streaming,
        batch,
        incremental,
        batch_campaigns,
        batch_texts,
    }
}

impl Detected {
    /// Every device has a verdict, and each result equals its counterpart.
    pub fn verify(&self, out: &StudyOutput, outcome: &mut Outcome) {
        let n = out.observations.len() as u64;
        let without_verdict = n.saturating_sub(self.streaming.len() as u64);
        outcome.ops(n, without_verdict, "devices scored");
        outcome.check(
            verdicts_bitwise_equal(&self.streaming, &self.batch),
            "score_streaming == score_batch bit for bit",
        );
        outcome.check(
            self.incremental == out.campaigns,
            "incremental detect_with_text == StudyOutput.campaigns",
        );
        outcome.check(
            self.batch_campaigns == out.campaigns,
            "batch_report == StudyOutput.campaigns",
        );
        let mut streamed = streaming_text_sketches(out);
        streamed.sort_by_key(|(id, _)| *id);
        let mut rebuilt: Vec<(InstallId, &TextSketch)> =
            self.batch_texts.iter().map(|(id, s)| (*id, s)).collect();
        rebuilt.sort_by_key(|(id, _)| *id);
        outcome.check(
            streamed == rebuilt,
            "streaming text sketches == batch_text_sketches",
        );
    }
}

/// The non-empty ingest-time text sketches, as the study's own
/// incremental detector reads them.
fn streaming_text_sketches(out: &StudyOutput) -> Vec<(InstallId, &TextSketch)> {
    out.observations
        .iter()
        .filter(|o| !o.record.stream.text().is_empty())
        .map(|o| (o.record.install_id, o.record.stream.text()))
        .collect()
}

fn verdicts_bitwise_equal(a: &[DeviceVerdict], b: &[DeviceVerdict]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(s, b)| {
            s.proba.to_bits() == b.proba.to_bits()
                && s.suspiciousness.to_bits() == b.suspiciousness.to_bits()
                && s.is_worker == b.is_worker
        })
}

/// SHA-256 over a canonical rendering of what the study collected: every
/// install record's counters, per-day histogram, event lists and sorted
/// app set, plus the server's ingestion totals. Equal across repetitions
/// of one seed and across delivery paths; wall times, retry counters, the
/// file count (zero on the direct path) and `dup_files` (timing) stay out.
pub fn data_fingerprint(out: &StudyOutput) -> [u8; 32] {
    let mut s = String::new();
    for (obs, truth) in out.observations.iter().zip(&out.truth) {
        let r = &obs.record;
        let mut apps: Vec<_> = r.apps.keys().collect();
        apps.sort_unstable();
        let _ = writeln!(
            s,
            "{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{apps:?}|{:?}|{:?}|{}|{:?}|{}|{:?}",
            r.install_id,
            r.participant,
            r.first_seen,
            r.last_seen,
            r.n_fast,
            r.n_slow,
            r.snapshots_per_day,
            r.install_events,
            r.uninstall_events,
            r.accounts.len(),
            r.stopped_apps,
            r.review_events.len(),
            truth.persona,
        );
    }
    let st = &out.server_stats;
    let _ = write!(
        s,
        "sign_ins={} snapshots={} bad={} crawled={} coalesced={}",
        st.sign_ins, st.snapshots, st.bad_uploads, out.reviews_crawled, out.coalesced_devices
    );
    racket_collect::sha256(s.as_bytes())
}

/// Snapshots the study's records hold, counted from the records
/// themselves (independent of the server's running counter).
pub fn snapshots_in_records(out: &StudyOutput) -> u64 {
    out.observations
        .iter()
        .map(|o| o.record.n_fast + o.record.n_slow)
        .sum()
}

/// Read `Study::run`'s layers out of the registry it hands back (source
/// `R`): busy seconds per layer, the retry ledger and the server counters.
/// On the direct path the four delivery kernels and every `server/*` span
/// record nothing, so they read exactly 0 — the predicted no-change pairs.
pub fn study_layers(snap: &RegistrySnapshot, snapshots: u64, layers: &mut Values) {
    let secs = |span: &str| snap.span_secs(span);
    let per_snapshot_ns = |s: f64| s * 1e9 / snapshots.max(1) as f64;
    let deliver = secs("simulate/deliver");
    let lane = (secs("simulate/day/lane") - deliver).max(0.0);
    let serialize = secs("simulate/deliver/serialize");
    let compress = secs("simulate/deliver/compress");
    let hash = secs("simulate/deliver/hash");
    let frame = secs("simulate/deliver/frame");
    layers.insert("agents.fleet_gen.busy_s", secs(keys::SPAN_FLEET_GEN));
    layers.insert("agents.lane.busy_s", lane);
    layers.insert("agents.lane.ns_per_snapshot", per_snapshot_ns(lane));
    layers.insert("core.study.simulate_wall_s", secs(keys::SPAN_SIMULATE));
    layers.insert("collect.codec.encode_busy_s", serialize);
    layers.insert(
        "collect.codec.encode_ns_per_snapshot",
        per_snapshot_ns(serialize),
    );
    layers.insert("collect.lzss.compress_busy_s", compress);
    layers.insert("collect.hash.sha256_busy_s", hash);
    layers.insert("collect.wire.encode_busy_s", frame);
    let attempts = snap.counter(keys::UPLOAD_ATTEMPTS) as f64;
    if attempts > 0.0 {
        // A wire path: what is left of `deliver` after its four kernels is
        // the lane blocked on the ack round trip.
        layers.insert(
            "collect.retry.wait_s",
            (deliver - serialize - compress - hash - frame).max(0.0),
        );
        let acked = (snap.counter("server.files") + snap.counter("server.sign_ins")) as f64;
        layers.insert("collect.retry.attempts", attempts);
        layers.insert(
            "collect.retry.retries",
            snap.counter(keys::UPLOAD_RETRIES) as f64,
        );
        layers.insert(
            "collect.retry.reconnects",
            snap.counter(keys::RECONNECTS) as f64,
        );
        layers.insert(
            "collect.retry.exhausted",
            snap.counter(keys::EXCHANGES_EXHAUSTED) as f64,
        );
        layers.insert("collect.retry.first_try_share", (acked / attempts).min(1.0));
        layers.insert(
            "wire_bytes_per_snapshot",
            snap.counter(keys::BYTES_COMPRESSED) as f64 / snapshots.max(1) as f64,
        );
    } else {
        // The direct path: `deliver` is `ShardedIngest::ingest_batch`.
        layers.insert(
            "collect.shard.ingest_ns_per_snapshot",
            per_snapshot_ns(deliver),
        );
    }
    server_layers(snap, layers);
    layers.insert("core.study.assemble_busy_s", secs(keys::SPAN_ASSEMBLE));
    layers.insert("core.study.join_busy_s", secs("assemble/join"));
    layers.insert(
        "collect.fingerprint.coalesce_busy_s",
        secs("assemble/coalesce"),
    );
    layers.insert(
        "collect.columnar.columnarize_busy_s",
        secs(keys::SPAN_COLUMNARIZE),
    );
    layers.insert(
        "features.streaming.fold_busy_s",
        secs(keys::SPAN_STREAM_FOLD),
    );
    layers.insert("campaign.lsh.busy_s", secs(keys::SPAN_CAMPAIGN_LSH));
}

/// The async server's own spans and counters (source `R`, via
/// `AsyncCollectServer::shutdown`).
pub fn server_layers(snap: &RegistrySnapshot, layers: &mut Values) {
    let hist = |span: &str| snap.histogram(&format!("span.{span}"));
    layers.insert(
        "reactor.poll.busy_s",
        snap.span_secs(keys::SPAN_SERVER_POLL),
    );
    layers.insert(
        "reactor.poll.rounds",
        hist(keys::SPAN_SERVER_POLL).map_or(0.0, |h| h.count as f64),
    );
    layers.insert(
        "collect.async_server.accept_busy_s",
        snap.span_secs(keys::SPAN_SERVER_ACCEPT),
    );
    layers.insert(
        "collect.async_server.shed",
        snap.counter(keys::SERVER_LOAD_SHED) as f64,
    );
    layers.insert(
        "collect.async_server.stall_sweeps",
        snap.counter(keys::SERVER_STALL_SWEEPS) as f64,
    );
    layers.insert(
        "collect.server.dup_files",
        snap.counter(keys::DUP_FILES) as f64,
    );
    layers.insert(
        "collect.server.bad_uploads",
        snap.counter("server.bad_uploads") as f64,
    );
}

/// Copy the self seconds of this repetition's benchmark-side spans into
/// their layer metrics, and account for the wall: whatever part of the
/// `rep` span is neither a layer span's self time nor (via `inside_run`)
/// one of `Study::run`'s serial phases is `bench.unaccounted_share`.
pub fn span_layers(t: &Tracer, rep: u32, inside_run_s: f64, layers: &mut Values) {
    const SPAN_TO_METRIC: &[(&str, &str)] = &[
        ("core.study.run", "core.study.run_busy_s"),
        ("core.labeling", "core.labeling.busy_s"),
        ("features.app_dataset", "features.app_dataset.busy_s"),
        ("features.device_dataset", "features.device_dataset.busy_s"),
        ("ml.cv", "ml.cv.busy_s"),
        ("ml.gbt.train", "ml.gbt.train_busy_s"),
        ("core.scoring.train", "core.scoring.train_busy_s"),
        (
            "core.scoring.persist_roundtrip",
            "core.scoring.persist_roundtrip_s",
        ),
        ("core.scoring.prime", "core.scoring.prime_busy_s"),
        (
            "core.scoring.score_streaming",
            "core.scoring.score_streaming_busy_s",
        ),
        (
            "core.scoring.score_batch",
            "core.scoring.score_batch_busy_s",
        ),
        ("core.measurements", "core.measurements.busy_s"),
        (
            "campaign.detect.incremental",
            "campaign.detect.incremental_busy_s",
        ),
        ("campaign.detect.batch", "campaign.detect.batch_busy_s"),
        ("text.sketch.rebuild", "text.sketch.rebuild_busy_s"),
        ("text.index.scan", "text.index.scan_busy_s"),
        ("bench.verify", "bench.verify_busy_s"),
    ];
    let by_rep = crate::trace::self_secs_by_rep(&t.spans());
    let Some(own) = by_rep.get(&rep) else {
        return;
    };
    for (span, metric) in SPAN_TO_METRIC {
        if let Some(&s) = own.get(*span) {
            layers.insert(metric, s);
        }
    }
    let wall: f64 = own.values().sum();
    let run_self = own.get("core.study.run").copied().unwrap_or(0.0);
    let rep_self = own.get("rep").copied().unwrap_or(0.0);
    let unaccounted = rep_self + (run_self - inside_run_s).max(0.0);
    if wall > 0.0 {
        layers.insert("bench.unaccounted_share", unaccounted / wall);
    }
}
