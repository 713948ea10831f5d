//! Shared helpers for the integration-test binaries: canonical study
//! fingerprints, the per-study contract checks and the small study
//! configurations the scenario table (`tests/scenario/mod.rs`) and the
//! conformance suites run.
//!
//! Each integration test compiles this module independently, so not every
//! binary uses every helper.

#![allow(dead_code)]

use racket_agents::FleetConfig;
use racket_collect::CollectorConfig;
use racket_features::{app_features, device_features};
use racket_types::metrics::keys;
use racketstore::study::{CollectionPath, StudyConfig, StudyOutput};
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fmt::Write;
use std::sync::Mutex;

/// Canonical fingerprint of everything in a [`StudyOutput`] except the
/// pipeline metrics (wall times are thread-dependent; fault/retry counters
/// vary with the fault plan by design). Hash-map contents are rendered in
/// sorted key order so the fingerprint reflects *data*, never iteration
/// order. Includes the full server stats — the right choice when comparing
/// runs over the *same* path and fault plan (thread invariance).
pub(crate) fn fingerprint(out: &StudyOutput) -> String {
    let mut s = data_fingerprint(out);
    let st = &out.server_stats;
    write!(s, " files={} dup_files={}", st.files, st.dup_files).unwrap();
    s
}

/// Like [`fingerprint`], but excluding the server's two file counters:
/// `files` (uploaded files folded; the direct path uploads none) and
/// `dup_files` (replays absorbed by idempotent ingest, which vary with the
/// fault plan). This is the fingerprint the scenario matrix compares
/// across paths and fault plans: everything in it must be byte-identical
/// between a direct run, a clean wire run and any survivable
/// hostile-network run.
pub(crate) fn data_fingerprint(out: &StudyOutput) -> String {
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
        let apps: BTreeMap<_, _> = r.apps.values().map(|v| (v.app, format!("{v:?}"))).collect();
        write!(s, "{apps:?}").unwrap();
        let installed: Vec<_> = r.apps.installed().collect();
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
        writeln!(s, "{:?}", truth.persona).unwrap();
    }
    // Render the stats field-by-field (not `{:?}` of the whole struct) so
    // the path- and fault-variant file counters stay out of this fingerprint.
    let st = &out.server_stats;
    write!(
        s,
        "crawled={} coalesced={} sign_ins={} rejected={} snapshots={} bad={} store_reviews={}",
        out.reviews_crawled,
        out.coalesced_devices,
        st.sign_ins,
        st.rejected_sign_ins,
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
/// streaming state. Per-app maps render in sorted ID order. The scenario
/// matrix compares this across paths, thread counts and fault plans:
/// streaming state recovered from a hostile network must be
/// byte-identical to a clean run's.
pub(crate) fn streaming_fingerprint(out: &StudyOutput) -> String {
    let mut s = String::new();
    for (obs, stream) in out.observations.iter().zip(&out.streaming) {
        let r = &obs.record;
        write!(
            s,
            "{:?} installs={} uninstalls={}",
            r.install_id,
            r.install_events.len(),
            r.uninstall_events.len()
        )
        .unwrap();
        let per_app: BTreeMap<_, _> = r
            .stream
            .apps()
            .map(|(k, v)| (k, format!("{v:?}")))
            .collect();
        write!(s, "{per_app:?}").unwrap();
        for &app in r.apps.keys() {
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
pub(crate) fn assert_stream_equals_batch(out: &StudyOutput, context: &str) {
    assert_eq!(
        out.streaming.len(),
        out.observations.len(),
        "{context}: streaming state misaligned with observations"
    );
    for (i, (obs, stream)) in out.observations.iter().zip(&out.streaming).enumerate() {
        for &app in obs.record.apps.keys() {
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

/// Completions of the span named `stage` in the study's registry so far.
pub(crate) fn span_count(out: &StudyOutput, stage: &str) -> u64 {
    let name = format!("{}{stage}", racket_obs::SPAN_PREFIX);
    out.obs.snapshot().histogram(&name).map_or(0, |h| h.count)
}

/// Assert the text engine's differential contract and return the text
/// fingerprint: the per-install [`racket_text::TextSketch`] folded
/// review-by-review at ingest time must be byte-identical to the sketch
/// rebuilt in batch from the columnar review family (ARCHITECTURE.md
/// §13). `context` names the scenario in failures. The fingerprint of an
/// output without review text is the bare `texted_installs=0 …` header.
///
/// The comparison rebuilds once, so it also holds the `campaign/text_rebuild`
/// span to its meaning: one completion per `batch_text_sketches` call.
pub(crate) fn assert_text_stream_equals_batch(out: &StudyOutput, context: &str) -> String {
    let before = span_count(out, keys::SPAN_TEXT_REBUILD);
    let streamed = racketstore::text::streaming_text_fingerprint(out);
    assert_eq!(
        streamed,
        racketstore::text::batch_text_fingerprint(out),
        "{context}: streaming text sketches != batch rebuild from columnar reviews"
    );
    assert_eq!(
        span_count(out, keys::SPAN_TEXT_REBUILD),
        before + 1,
        "{context}: campaign/text_rebuild is not one span per batch rebuild"
    );
    streamed
}

/// [`small_config`] with deterministic review-text generation enabled.
/// Everything else (fleet, cadence, seed) is byte-identical to
/// [`small_config`], which is what the text-off twin of the scenario
/// table (`tests/scenario/mod.rs`) relies on.
pub(crate) fn text_config(path: CollectionPath) -> StudyConfig {
    let mut config = small_config(path);
    config.fleet.review_text = true;
    config
}

/// [`campaign_config`] with review text enabled: campaign workers post
/// template-shared review text, so the near-duplicate index has real
/// cross-account structure to find.
pub(crate) fn text_campaign_config(
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
pub(crate) fn campaign_config(
    path: CollectionPath,
    n: usize,
    pacing: racket_agents::PacingStrategy,
) -> StudyConfig {
    let mut config = small_config(path);
    config.fleet.campaigns = racket_agents::CampaignConfig::with(n, pacing);
    config
}

/// Held by [`with_threads`] for the whole of its closure.
static THREADS: Mutex<()> = Mutex::new(());

/// Puts a saved `RAYON_NUM_THREADS` back when dropped, panics included.
struct RestoreThreads(Option<OsString>);

impl Drop for RestoreThreads {
    fn drop(&mut self) {
        match self.0.take() {
            Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }
}

/// Run `f` with the rayon worker-thread count pinned through the
/// process-global `RAYON_NUM_THREADS` variable, then put back whatever
/// value (or absence) was there before. `None` pins nothing: `f` runs at
/// the count the environment set. Every call holds one process-wide lock,
/// so tests in one binary may run concurrently without ever seeing each
/// other's pins.
pub(crate) fn with_threads<T>(threads: Option<&str>, f: impl FnOnce() -> T) -> T {
    // A test that panicked inside `f` still restored the variable on
    // unwind, so a poisoned lock guards nothing stale.
    let _serial = THREADS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let _restore = RestoreThreads(std::env::var_os("RAYON_NUM_THREADS"));
    if let Some(threads) = threads {
        std::env::set_var("RAYON_NUM_THREADS", threads);
    }
    f()
}

/// A deliberately small configuration so repeated full study runs stay
/// cheap in debug builds; none of the equivalence contracts depends on
/// scale.
pub(crate) fn small_config(path: CollectionPath) -> StudyConfig {
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
