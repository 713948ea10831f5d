//! The scenario table: every equivalence contract, checked on every study.
//!
//! A row is one study of the same small fleet (review text on, two
//! burst-paced campaigns) over one collection path, under one fault plan,
//! at one rayon worker count (`None` runs at the count the environment
//! set; `check.sh` runs the table's binaries at `RAYON_NUM_THREADS=1` and
//! `=8`). [`check`] runs each row of a slice once, checks every row-local
//! contract on its output, and compares each output's fingerprints with
//! the first row of the slice that produced them. The table is split into
//! slices, one per test, so that each study of the table runs once in the
//! suite:
//!
//! | test | rows (path/fault @ threads) |
//! |---|---|
//! | `streaming_equivalence::ambient_streaming_state_equals_batch_features` | direct/clean @ ambient |
//! | `streaming_equivalence::matrix_streaming_state_equals_batch_features` | direct/clean @ ambient, 1, 2, 3, 8 |
//! | `path_equivalence::wire_and_direct_paths_yield_identical_aggregates` | direct/clean @ 1; wire/clean @ 1, 3, 8 |
//! | `async_equivalence::async_driver_reproduces_the_sync_wire_study` | wire/clean @ 1; async/clean @ 1, 2, 3, 8 |
//! | `chaos::study_output_survives_every_fault_class` | wire/clean @ 1; wire/each of the seven classes @ 1; wire/hostile @ 1, 8 |
//! | `text_equivalence::ambient_text_on_study_reproduces_text_off_bytes` | direct/clean @ ambient, then its text-off twin |
//! | `text_equivalence::matrix_streaming_text_equals_batch_everywhere` | wire/clean @ 1; async/hostile @ 1 |
//! | `campaign_equivalence::ambient_batch_report_equals_incremental` | direct/clean @ ambient |
//! | `campaign_equivalence::matrix_batch_report_equals_incremental_everywhere` | wire/clean @ 1; async/hostile @ 3 |
//! | `columnar_equivalence::matrix_columnar_store_is_path_and_thread_invariant` | wire/clean @ 1; async/hostile @ 8 |
//!
//! 34 small studies in all: the 24 rows of the table, the text-off twin,
//! and the nine direct or clean wire reference rows that anchor a slice's
//! cross-row comparisons. Three are async + hostile. Every multi-row slice
//! starts at direct/clean or wire/clean at 1 thread; the streaming slice
//! holds direct at ambient and 1 thread, and the path slice holds direct
//! and wire at 1 thread. So the per-slice comparisons chain into one
//! equality over the whole table. Every slice with an async row starts at
//! clean sync wire, so each async row's uploaded-file count is compared
//! with the sync wire count.
//!
//! The contracts, each with the test file that checked it before the
//! table, and the rows that check it now:
//!
//! 1. **N threads ≡ 1 thread** on direct and wire (`determinism.rs`): the
//!    full [`fingerprint`] (`files` and `dup_files` included) is equal
//!    across the thread counts of each direct and sync wire (path, fault)
//!    pair in a slice: direct clean at ambient/1/2/3/8, wire clean at
//!    1/3/8, wire hostile at 1/8. 3 does not divide the 20-lane fleet, so
//!    its workers claim lanes in an interleaving no other count produces.
//! 2. **Fleet generation is thread-invariant** (`determinism.rs`):
//!    `tests/matrix.rs`, 1 vs 8 threads.
//! 3. **Wire ≡ direct** (`path_equivalence.rs`): every row's
//!    [`data_fingerprint`] (all records, review joins and server totals)
//!    equals its slice's first row's; every wire and async row uploaded
//!    files, as many as the slice's first off-direct row, and no direct
//!    row uploaded any.
//! 4. **Async ≡ sync** (`async_equivalence.rs`, `chaos.rs`): the async rows
//!    (clean at 1/2/3/8, hostile at 1/3/8) reproduce the data and streaming
//!    fingerprints and the uploaded-file count of the clean sync wire row
//!    their slice starts with; the async plane ingested through shards,
//!    injected nothing on a clean link, and its hostile rows sampled
//!    faults, retried and exhausted no exchange.
//! 5. **Faulted ≡ clean** (`chaos.rs`, `streaming_equivalence.rs`): every
//!    fault row (the seven single classes on wire at 1 thread, hostile on
//!    wire at 1/8 and async at 1/3/8) reproduces the clean data, streaming
//!    and text fingerprints; it shows its class sampled and the protocol's
//!    recovery (retries, stale discards, reconnects, dedups as the class
//!    calls for, backoff behind every sync retry); it exhausts no exchange
//!    and counts as many `ingest.dup_files` as `server_stats.dup_files`. The clean
//!    wire rows really are clean: no fault, retry, reconnect, backoff,
//!    stale frame or dedup.
//! 6. **Streaming ≡ batch feature bits** (`streaming_equivalence.rs`):
//!    every row.
//! 7. **Text stream ≡ batch, one span per rebuild** (`text_equivalence.rs`,
//!    `streaming_equivalence.rs`, `chaos.rs`): every row; the text
//!    fingerprint is non-vacuous and equal on every row of a slice.
//! 8. **Text-on reproduces text-off** (`text_equivalence.rs`): the text-off
//!    twin of the ambient direct row has that row's full and streaming
//!    fingerprints and no review text.
//! 9. **Campaign batch ≡ incremental** (`campaign_equivalence.rs`,
//!    `text_equivalence.rs`): every row, with at least one detected
//!    cluster, text candidate pairs > 0 and one campaign fingerprint per
//!    slice.
//! 10. **The columnar store mirrors the records**
//!     (`columnar_equivalence.rs`): on every row its install events and
//!     review events equal the records', and the columnar fingerprint
//!     (installs, events, reviews) is equal on every row of a slice.
//! 11. **Training and scoring equal their references**
//!     (`columnar_equivalence.rs`): `tests/matrix.rs`, on one test-scale
//!     study: `predict_proba_batch` ≡ `predict_proba`, streaming ≡ batch
//!     verdicts, each stage's span completed once. GBT `fit` ≡ the
//!     row-oriented reference fit, byte for byte, is a unit test of
//!     `racket-ml` (`gbt.rs`, `columnar_fit_matches_reference_bitwise`
//!     on a 1,520 × 21 matrix shaped like the study's app matrix, and the
//!     `columnar_fit_is_bitwise_reference` proptest), because the
//!     reference grower is a test-only item.
//!
//! Tests in one binary may run concurrently: [`with_threads`] serialises
//! every study behind one lock and restores the worker count it found.
//!
//! Each binary that runs a slice compiles this module, so not every binary
//! uses every item.

#![allow(dead_code)]

use crate::common::{
    assert_stream_equals_batch, assert_text_stream_equals_batch, campaign_config, data_fingerprint,
    fingerprint, streaming_fingerprint, text_campaign_config, with_threads,
};
use racket_agents::PacingStrategy;
use racket_collect::FaultPlan;
use racket_types::metrics::keys;
use racket_types::{FaultCounters, ReviewEvent};
use racketstore::campaign::batch_report;
use racketstore::study::{CollectionPath, Study, StudyOutput};
use std::collections::BTreeMap;
use std::fmt::Write;
use CollectionPath::{AsyncWire, Direct, Wire};

/// (path, fault plan, worker threads).
pub(crate) type Row = (CollectionPath, &'static str, Option<&'static str>);

fn plan(fault: &str) -> FaultPlan {
    match fault {
        "clean" => FaultPlan::none(),
        "drop" => FaultPlan::drops(),
        "duplicate" => FaultPlan::duplicates(),
        "reorder" => FaultPlan::reorders(),
        "truncate" => FaultPlan::truncations(),
        "corrupt" => FaultPlan::corruptions(),
        "disconnect" => FaultPlan::disconnects(),
        "stall" => FaultPlan::stalls(),
        "hostile" => FaultPlan::hostile(),
        other => unreachable!("no fault plan named {other}"),
    }
}

/// The first value each fingerprint took; later rows must match it.
#[derive(Default)]
pub(crate) struct Canon(BTreeMap<String, String>);

impl Canon {
    fn pin(&mut self, key: String, value: String, context: &str) {
        let first = self.0.entry(key.clone()).or_insert_with(|| value.clone());
        if *first != value {
            let (was, is) = first
                .lines()
                .zip(value.lines())
                .find(|(was, is)| was != is)
                .unwrap_or(("(one is a prefix of the other)", ""));
            panic!(
                "{context}: {key} fingerprint diverged from the first row that produced it\n\
                 first line that differs:\n  was {was}\n  now {is}"
            );
        }
    }

    /// Text-off twin of the direct rows: generating review text draws from
    /// its own keyed stream family, so switching it off changes nothing the
    /// other fingerprints can see, and leaves no review text behind.
    pub(crate) fn check_text_off_twin(&mut self) {
        let off = with_threads(None, || {
            Study::new(campaign_config(Direct, 2, PacingStrategy::Burst)).run()
        });
        let context = "Direct/clean text-off";
        self.pin("full Direct/clean".into(), fingerprint(&off), context);
        self.pin("streaming".into(), streaming_fingerprint(&off), context);
        let text = assert_text_stream_equals_batch(&off, context);
        assert!(
            text.starts_with("texted_installs=0 "),
            "{context}: review text from nowhere"
        );
    }
}

/// Run each row's study once and check every contract that applies to it;
/// returns the fingerprints the slice pinned.
pub(crate) fn check(rows: &[Row]) -> Canon {
    let mut canon = Canon::default();
    for &(path, fault, threads) in rows {
        let context = format!("{path:?}/{fault} @ {}", threads.unwrap_or("ambient"));
        let out = with_threads(threads, || {
            let mut config = text_campaign_config(path, 2, PacingStrategy::Burst);
            config.faults = plan(fault);
            Study::new(config).run()
        });

        // Row-local contracts.
        assert_stream_equals_batch(&out, &context);
        let text = assert_text_stream_equals_batch(&out, &context);
        assert!(
            !text.starts_with("texted_installs=0 "),
            "{context}: no review text generated"
        );
        assert!(
            !out.campaigns.campaigns.is_empty(),
            "{context}: no campaign detected"
        );
        assert!(
            out.campaigns.n_text_candidate_pairs > 0,
            "{context}: near-duplicate index produced no candidates"
        );
        assert_eq!(
            batch_report(&out),
            out.campaigns,
            "{context}: campaign batch != incremental"
        );
        assert_columnar_mirrors_records(&out, &context);
        assert_delivery_evidence(&out, path, fault, &context);

        // Cross-row contracts. Every off-direct row uploads as many files
        // as the slice's first one. The full fingerprint adds the file
        // counters: equal across thread counts of one direct or sync wire
        // (path, fault) pair, while the async plane's `dup_files` follows
        // its timing.
        canon.pin("data".into(), data_fingerprint(&out), &context);
        canon.pin("streaming".into(), streaming_fingerprint(&out), &context);
        canon.pin("text".into(), text, &context);
        canon.pin("campaign".into(), out.campaigns.fingerprint(), &context);
        canon.pin("columnar".into(), columnar_fingerprint(&out), &context);
        if path != Direct {
            canon.pin("files".into(), out.server_stats.files.to_string(), &context);
        }
        if path != AsyncWire {
            canon.pin(
                format!("full {path:?}/{fault}"),
                fingerprint(&out),
                &context,
            );
        }
    }
    canon
}

/// The fault layer's evidence on one row: the plan's class was sampled,
/// the protocol visibly recovered, and nothing was abandoned.
fn assert_delivery_evidence(out: &StudyOutput, path: CollectionPath, fault: &str, context: &str) {
    let snap = out.obs.snapshot();
    let f = FaultCounters::from_snapshot(&snap);
    let [attempts, retries, reconnects, backoff_ms, exhausted, stale, dedups] = [
        keys::UPLOAD_ATTEMPTS,
        keys::UPLOAD_RETRIES,
        keys::RECONNECTS,
        keys::BACKOFF_MS,
        keys::EXCHANGES_EXHAUSTED,
        keys::STALE_FRAMES,
        keys::DUP_FILES,
    ]
    .map(|key| snap.counter(key));
    assert_eq!(exhausted, 0, "{context}: retry budget exhausted");
    assert_eq!(dedups, out.server_stats.dup_files, "{context}");
    assert_eq!(
        out.server_stats.files > 0,
        path != Direct,
        "{context}: files uploaded"
    );
    if path == AsyncWire {
        assert!(
            snap.gauges
                .keys()
                .any(|k| k.starts_with(keys::SHARD_OCCUPANCY_PREFIX)),
            "{context}: async plane ingests through shards"
        );
    }
    let summary = format!(
        "{context}: retries={retries} reconnects={reconnects} stale={stale} dedups={dedups}"
    );
    if fault == "clean" {
        assert_eq!(f.total(), 0, "{context}: a clean link injected faults");
        if path == Wire {
            assert!(attempts > 0, "{context}");
            let quiet = retries + reconnects + backoff_ms + stale + dedups;
            assert_eq!(quiet, 0, "{summary}");
        }
        return;
    }
    let (sampled, recovered) = match fault {
        "drop" => (f.dropped, retries > 0 && dedups > 0),
        "duplicate" => (f.duplicated, stale > 0),
        "reorder" => (f.reordered, retries > 0 && stale > 0),
        "truncate" => (f.truncated, reconnects > 0),
        "corrupt" => (f.corrupted, reconnects > 0),
        "disconnect" => (f.disconnected, reconnects > 0),
        "stall" => (f.stalled, retries > 0),
        _ if path == AsyncWire => (f.total(), retries > 0),
        _ => (
            f.total(),
            retries > 0 && reconnects > 0 && stale > 0 && dedups > 0,
        ),
    };
    assert!(sampled > 0, "{context}: the plan injected no {fault} fault");
    assert!(recovered, "{summary}: no evidence of recovery");
    if path == Wire && retries > 0 {
        assert!(backoff_ms > 0, "{summary}: retries without backoff");
    }
}

/// Assert the columnar store carries exactly the row records' install
/// events and review events, install by install in sorted record order —
/// the two families the batch campaign and text rebuilds scan.
pub(crate) fn assert_columnar_mirrors_records(out: &StudyOutput, context: &str) {
    assert_eq!(
        out.columnar.n_installs(),
        out.observations.len(),
        "{context}: one columnar install per joined record"
    );
    let mut records: Vec<_> = out.observations.iter().map(|o| &o.record).collect();
    records.sort_by_key(|r| r.install_id);
    for (i, r) in records.into_iter().enumerate() {
        assert_eq!(out.columnar.install_id(i), r.install_id, "{context}");
        let events: Vec<_> = out.columnar.install_events_of(i).collect();
        assert_eq!(events, r.install_events, "{context}: install events");
        let reviews: Vec<_> = out
            .columnar
            .reviews_of(i)
            .map(|e| ReviewEvent {
                app: e.app,
                reviewer: e.reviewer,
                time: e.time,
                rating: e.rating,
                text: e.text.to_owned(),
            })
            .collect();
        assert_eq!(reviews, r.review_events, "{context}: review events");
    }
}

/// Canonical dump of the columnar store: every install with its events
/// and reviews (the install order is the sorted record order, so it is
/// identical across thread counts and paths).
fn columnar_fingerprint(out: &StudyOutput) -> String {
    let mut s = String::new();
    for i in 0..out.columnar.n_installs() {
        write!(s, "{:?}", out.columnar.install_id(i)).unwrap();
        for (app, t) in out.columnar.install_events_of(i) {
            write!(s, "|{}@{}", app.0, t.as_secs()).unwrap();
        }
        for e in out.columnar.reviews_of(i) {
            write!(
                s,
                "|{}:{}@{}*{}:{:?}",
                e.app.0,
                e.reviewer.0,
                e.time.as_secs(),
                e.rating.stars(),
                e.text
            )
            .unwrap();
        }
        s.push('\n');
    }
    s
}
