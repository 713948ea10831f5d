//! Shared helpers for the integration-test binaries: canonical study
//! fingerprints and the small study configuration used by the determinism
//! and chaos suites.
//!
//! Each integration test compiles this module independently, so not every
//! binary uses every helper.

#![allow(dead_code)]

use racket_agents::FleetConfig;
use racket_collect::CollectorConfig;
use racket_features::{app_features, device_features};
use racket_types::metrics::keys;
use racket_types::AppId;
use racketstore::study::{CollectionPath, StudyConfig, StudyOutput};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Canonical fingerprint of everything in a [`StudyOutput`] except the
/// pipeline metrics (wall times are thread-dependent; fault/retry counters
/// vary with the fault plan by design). Hash-map contents are rendered in
/// sorted key order so the fingerprint reflects *data*, never iteration
/// order. Includes the full server stats — the right choice when comparing
/// runs under the *same* fault plan (thread invariance).
pub fn fingerprint(out: &StudyOutput) -> String {
    let mut s = data_fingerprint(out);
    write!(s, " dup_files={}", out.server_stats.dup_files).unwrap();
    s
}

/// Like [`fingerprint`], but excluding the server's `dup_files` counter —
/// the one data-plane stat that legitimately varies with the fault plan
/// (it counts replays absorbed by idempotent ingest). This is the
/// fingerprint the chaos suite compares across fault plans: everything in
/// it must be byte-identical between a clean run and any survivable
/// hostile-network run.
pub fn data_fingerprint(out: &StudyOutput) -> String {
    let mut s = String::new();
    for (obs, truth) in out.observations.iter().zip(&out.truth) {
        let r = &obs.record;
        write!(
            s,
            "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}",
            r.install_id,
            r.participant,
            r.android_id,
            r.first_seen,
            r.last_seen,
            r.n_fast,
            r.n_slow,
            r.snapshots_per_day
        )
        .unwrap();
        let foreground: BTreeMap<_, _> = r.foreground.iter().collect();
        write!(s, "{foreground:?}").unwrap();
        let apps: BTreeMap<_, _> = r.apps.iter().map(|(k, v)| (k, format!("{v:?}"))).collect();
        write!(s, "{apps:?}").unwrap();
        let mut installed: Vec<_> = r.installed_now.iter().collect();
        installed.sort();
        write!(
            s,
            "{installed:?}{:?}{:?}{:?}{:?}",
            r.install_events, r.uninstall_events, r.accounts, r.stopped_apps
        )
        .unwrap();
        write!(s, "{:?}{:?}", obs.monitoring, obs.google_ids).unwrap();
        let reviews: BTreeMap<_, _> = obs
            .reviews_by_app
            .iter()
            .map(|(k, v)| (k, format!("{v:?}")))
            .collect();
        write!(s, "{reviews:?}").unwrap();
        let vt: BTreeMap<_, _> = obs.vt_flags.iter().collect();
        write!(s, "{vt:?}").unwrap();
        let mut pre: Vec<_> = obs.preinstalled.iter().collect();
        pre.sort();
        writeln!(s, "{pre:?}|{:?}", truth.persona).unwrap();
    }
    // Render the stats field-by-field (not `{:?}` of the whole struct) so
    // the fault-variant `dup_files` counter stays out of this fingerprint.
    let st = &out.server_stats;
    write!(
        s,
        "crawled={} coalesced={} sign_ins={} rejected={} files={} snapshots={} bad={} store_reviews={}",
        out.reviews_crawled,
        out.coalesced_devices,
        st.sign_ins,
        st.rejected_sign_ins,
        st.files,
        st.snapshots,
        st.bad_uploads,
        out.fleet.store.total_reviews()
    )
    .unwrap();
    s
}

/// Canonical fingerprint of the *streaming* feature state: the per-app
/// ingest-time aggregates latched on each install record, plus the exact
/// bit pattern (`f64::to_bits`) of every feature vector emitted from
/// streaming state. Per-app maps render in sorted ID order. The chaos
/// suite compares this across fault plans: streaming state recovered from
/// a hostile network must be byte-identical to a clean run's.
pub fn streaming_fingerprint(out: &StudyOutput) -> String {
    let mut s = String::new();
    for (obs, stream) in out.observations.iter().zip(&out.streaming) {
        let r = &obs.record;
        write!(
            s,
            "{:?} installs={} uninstalls={}",
            r.install_id, r.stream.n_install_events, r.stream.n_uninstall_events
        )
        .unwrap();
        let per_app: BTreeMap<_, _> = r
            .stream
            .apps()
            .map(|(k, v)| (k, format!("{v:?}")))
            .collect();
        write!(s, "{per_app:?}").unwrap();
        let mut apps: Vec<AppId> = r.apps.keys().copied().collect();
        apps.sort_unstable();
        for app in apps {
            let bits: Vec<u64> = stream
                .app_vector(obs, app)
                .iter()
                .map(|f| f.to_bits())
                .collect();
            write!(s, "|{app:?}:{bits:x?}").unwrap();
        }
        let bits: Vec<u64> = stream
            .device_vector(obs, 0.0)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        writeln!(s, "|device:{bits:x?}").unwrap();
    }
    s
}

/// Assert that every feature vector emitted from streaming state is
/// `f64`-bit-identical to the batch formulas recomputed from the raw
/// assembled observation — the differential contract of the streaming
/// engine (ARCHITECTURE.md §7). `context` names the scenario in failures.
pub fn assert_stream_equals_batch(out: &StudyOutput, context: &str) {
    assert_eq!(
        out.streaming.len(),
        out.observations.len(),
        "{context}: streaming state misaligned with observations"
    );
    for (i, (obs, stream)) in out.observations.iter().zip(&out.streaming).enumerate() {
        let mut apps: Vec<AppId> = obs.record.apps.keys().copied().collect();
        apps.sort_unstable();
        for app in apps {
            let streamed = stream.app_vector(obs, app);
            let batch = app_features(obs, app);
            assert_eq!(streamed.len(), batch.len(), "{context}: app vector arity");
            for (col, (sv, bv)) in streamed.iter().zip(&batch).enumerate() {
                assert_eq!(
                    sv.to_bits(),
                    bv.to_bits(),
                    "{context}: device {i} app {app:?} feature {col}: \
                     streaming {sv:?} != batch {bv:?}"
                );
            }
        }
        // Any suspiciousness constant passes through both paths untouched;
        // exercise the 0 edge and an arbitrary interior value.
        for susp in [0.0, 0.375] {
            let streamed = stream.device_vector(obs, susp);
            let batch = device_features(obs, susp);
            assert_eq!(
                streamed.len(),
                batch.len(),
                "{context}: device vector arity"
            );
            for (col, (sv, bv)) in streamed.iter().zip(&batch).enumerate() {
                assert_eq!(
                    sv.to_bits(),
                    bv.to_bits(),
                    "{context}: device {i} feature {col} (susp {susp}): \
                     streaming {sv:?} != batch {bv:?}"
                );
            }
        }
    }
}

/// Canonical fingerprint of a study's campaign-detection report: the
/// incremental report carried on the output plus the batch recomputation
/// from the columnar install-event family, rendered through
/// `CampaignReport::fingerprint` (densities as exact `f64` bit patterns).
/// The equivalence suite compares this string across thread counts and
/// delivery paths.
pub fn campaign_fingerprint(out: &StudyOutput) -> String {
    format!(
        "incremental:{}\nbatch:{}",
        out.campaigns.fingerprint(),
        racketstore::campaign::batch_report(out).fingerprint()
    )
}

/// Canonical fingerprint of the per-install streaming text-sketch state
/// next to its batch recomputation from the columnar review family
/// (ARCHITECTURE.md §13). The text suites compare this string across
/// thread counts, delivery paths and fault plans; the two halves must
/// also equal each other, which [`assert_text_stream_equals_batch`]
/// checks per scenario.
pub fn text_fingerprint(out: &StudyOutput) -> String {
    format!(
        "streaming:{}\nbatch:{}",
        racketstore::text::streaming_text_fingerprint(out),
        racketstore::text::batch_text_fingerprint(out)
    )
}

/// Completions of the span named `stage` in the study's registry so far.
pub fn span_count(out: &StudyOutput, stage: &str) -> u64 {
    let name = format!("{}{stage}", racket_obs::SPAN_PREFIX);
    out.obs.snapshot().histogram(&name).map_or(0, |h| h.count)
}

/// Assert the text engine's differential contract: the per-install
/// [`racket_text::TextSketch`] folded review-by-review at ingest time
/// must be byte-identical to the sketch rebuilt in batch from the
/// columnar review family. `context` names the scenario in failures.
///
/// The comparison rebuilds once, so it also holds the `campaign/text_rebuild`
/// span to its meaning: one completion per `batch_text_sketches` call.
pub fn assert_text_stream_equals_batch(out: &StudyOutput, context: &str) {
    let before = span_count(out, keys::SPAN_TEXT_REBUILD);
    assert_eq!(
        racketstore::text::streaming_text_fingerprint(out),
        racketstore::text::batch_text_fingerprint(out),
        "{context}: streaming text sketches != batch rebuild from columnar reviews"
    );
    assert_eq!(
        span_count(out, keys::SPAN_TEXT_REBUILD),
        before + 1,
        "{context}: campaign/text_rebuild is not one span per batch rebuild"
    );
}

/// [`small_config`] with deterministic review-text generation enabled —
/// the configuration of the text-equivalence suites. Everything else
/// (fleet, cadence, seed) is byte-identical to [`small_config`], which
/// is exactly what the no-perturbation pin in `tests/text_equivalence.rs`
/// relies on.
pub fn text_config(path: CollectionPath) -> StudyConfig {
    let mut config = small_config(path);
    config.fleet.review_text = true;
    config
}

/// [`campaign_config`] with review text enabled: campaign workers post
/// template-shared review text, so the near-duplicate index has real
/// cross-account structure to find.
pub fn text_campaign_config(
    path: CollectionPath,
    n: usize,
    pacing: racket_agents::PacingStrategy,
) -> StudyConfig {
    let mut config = campaign_config(path, n, pacing);
    config.fleet.review_text = true;
    config
}

/// [`small_config`] with `n` coordinated campaigns scheduled under the
/// given pacing — the configuration of the lockstep-detection suites.
pub fn campaign_config(
    path: CollectionPath,
    n: usize,
    pacing: racket_agents::PacingStrategy,
) -> StudyConfig {
    let mut config = small_config(path);
    config.fleet.campaigns = racket_agents::CampaignConfig::with(n, pacing);
    config
}

/// Run `f` with the rayon worker-thread count pinned through the
/// process-global `RAYON_NUM_THREADS` variable. Callers that pin threads
/// must run their scenarios inside a single `#[test]` — concurrent tests
/// flipping the variable would race.
pub fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

/// A deliberately small configuration so repeated full study runs stay
/// cheap in debug builds; neither determinism nor chaos recovery depends
/// on scale.
pub fn small_config(path: CollectionPath) -> StudyConfig {
    let mut fleet = FleetConfig::test_scale();
    fleet.n_regular = 8;
    fleet.n_organic = 8;
    fleet.n_dedicated = 4;
    fleet.history_days = 30;
    fleet.max_study_days = 4;
    StudyConfig {
        fleet,
        collector: CollectorConfig {
            fast_period_secs: 120,
            slow_period_secs: 240,
            collect_reviews: false,
        },
        path,
        seed: 11,
        faults: racket_collect::FaultPlan::none(),
    }
}
