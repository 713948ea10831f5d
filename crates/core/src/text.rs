//! Batch review-text sketch rebuild and canonical text fingerprints.
//!
//! The streaming engine folds one [`racket_text::TextSketch`] per install
//! at snapshot-ingest time (`StreamAggregates::note_reviews`); this module
//! is the batch half of that contract: [`batch_text_sketches`] rebuilds
//! every sketch from the columnar review column family, and the two
//! fingerprint helpers render either side canonically so the scenario
//! table (`tests/scenario/mod.rs`) can compare them byte for byte across thread
//! counts, delivery paths and fault profiles.

use crate::study::StudyOutput;
use racket_text::TextSketch;
use racket_types::metrics::keys;
use racket_types::InstallId;

/// Rebuild one text sketch per reviewed install from the columnar review
/// family (`campaign/text_rebuild` span). Installs without reported
/// reviews are omitted, mirroring the incremental path's non-empty filter
/// — so the two sides cover the identical install set.
pub fn batch_text_sketches(out: &StudyOutput) -> Vec<(InstallId, TextSketch)> {
    let _span = out.obs.span(keys::SPAN_TEXT_REBUILD);
    let mut sketches = Vec::new();
    for i in 0..out.columnar.n_installs() {
        let mut sk = TextSketch::default();
        sk.observe_all(out.columnar.reviews_of(i).map(|e| {
            (
                e.app.raw(),
                e.reviewer.raw(),
                e.time.as_secs(),
                e.rating.stars(),
                e.text,
            )
        }));
        if !sk.is_empty() {
            sketches.push((out.columnar.install_id(i), sk));
        }
    }
    sketches
}

/// Canonical rendering of one install's text-sketch state: every review
/// row. Byte-identical iff the sketches are identical (rows are a sorted,
/// deduplicated set).
fn render_sketch(out: &mut String, id: InstallId, sk: &TextSketch) {
    use std::fmt::Write;
    let _ = writeln!(out, "install={} reviews={}", id.0, sk.n_reviews());
    for r in sk.rows() {
        let _ = writeln!(
            out,
            "  app={} who={} t={} stars={} len={} sent={} sim={:016x}",
            r.app, r.reviewer, r.time, r.rating, r.len, r.sentiment, r.simhash
        );
    }
}

/// Canonical fingerprint of the *streaming* per-install text state, in
/// ascending install order. Empty sketches are skipped; a text-off study
/// therefore fingerprints as the bare `texted_installs=0` header.
pub fn streaming_text_fingerprint(out: &StudyOutput) -> String {
    let texted: Vec<(InstallId, &TextSketch)> = out
        .observations
        .iter()
        .filter(|o| !o.record.stream.text().is_empty())
        .map(|o| (o.record.install_id, o.record.stream.text()))
        .collect();
    fingerprint_of(texted)
}

/// Canonical fingerprint of the *batch-rebuilt* text state — same
/// rendering as [`streaming_text_fingerprint`], so streaming ≡ batch is
/// a string equality.
pub fn batch_text_fingerprint(out: &StudyOutput) -> String {
    let sketches = batch_text_sketches(out);
    fingerprint_of(sketches.iter().map(|(id, s)| (*id, s)).collect())
}

fn fingerprint_of(mut texted: Vec<(InstallId, &TextSketch)>) -> String {
    use std::fmt::Write;
    texted.sort_by_key(|(id, _)| *id);
    let total: usize = texted.iter().map(|(_, s)| s.n_reviews()).sum();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "texted_installs={} total_reviews={}",
        texted.len(),
        total
    );
    for (id, sk) in texted {
        render_sketch(&mut s, id, sk);
    }
    s
}
