//! Per-app streaming aggregates folded at snapshot-ingest time.
//!
//! The batch feature extractors (`racket-features`) re-scan an
//! [`crate::InstallRecord`]'s event vectors once per app when a study
//! ends: per-app install/uninstall counts, the last uninstall time and the
//! foreground totals all come from O(events)-per-app passes. The streaming
//! engine (ARCHITECTURE.md §7) maintains those per-app sufficient
//! statistics inside `InstallRecord::ingest`, at the exact
//! program points where the batch-visible vectors are appended — so the
//! aggregate is equal to the batch scan **by construction**, travels with
//! the record (store drain, clones), and inherits the server's
//! idempotent-ingest guarantee: a deduplicated upload replay never
//! reaches `ingest`, so it can never double-fold.
//!
//! Everything here is an exact integer/latch aggregate (no floats), which
//! is what lets the streaming feature vectors match batch bit-for-bit.
//! Sharded ingest keeps each install's record in exactly one shard, so
//! the aggregate is only ever folded, never merged from partial states.

use racket_campaign::CampaignSketch;
use racket_text::TextSketch;
use racket_types::{AppId, ReviewEvent, SimTime};
use std::collections::HashMap;

/// Streaming sufficient statistics for one app on one install.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppStream {
    /// Install events observed during monitoring (mirrors the app's
    /// entries in `InstallRecord::install_events`).
    pub n_installs: u64,
    /// Uninstall events observed (mirrors `uninstall_events`).
    pub n_uninstalls: u64,
    /// Latest uninstall time observed, if any (the batch path computes
    /// this as `max` over the uninstall-event vector).
    pub last_uninstall: Option<SimTime>,
    /// Total fast snapshots with this app on screen (the batch path sums
    /// the per-day foreground map).
    pub fg_total: u64,
}

/// The per-install streaming aggregate: one [`AppStream`] per app that has
/// produced an event or foreground observation, plus the campaign and text
/// sketches. Device-level event totals are the lengths of the record's
/// event vectors.
#[derive(Debug, Clone, Default)]
pub struct StreamAggregates {
    per_app: HashMap<AppId, AppStream>,
    /// Lockstep-detection sketch over the install events (shingle set,
    /// MinHash signature, exact event set — ARCHITECTURE.md §10). Folded
    /// where the record pushes onto its install-event vector, so it is
    /// equal to the batch rebuild from the install-event column family by
    /// construction. Never enters feature vectors or fingerprints.
    campaign: CampaignSketch,
    /// Review-text sketch over the reported review events (the sorted,
    /// deduplicated canonical per-review rows — ARCHITECTURE.md §13).
    /// Folded from exactly the reviews the record appends to its
    /// review-event vector, so it equals the batch rebuild from the
    /// columnar review family by construction. Stays empty in review-off
    /// studies.
    text: TextSketch,
}

impl StreamAggregates {
    /// The empty aggregate.
    pub fn new() -> Self {
        StreamAggregates::default()
    }

    /// The aggregate for one app, if it ever produced a signal.
    pub fn app(&self, app: AppId) -> Option<&AppStream> {
        self.per_app.get(&app)
    }

    /// Iterate all per-app aggregates (unspecified order).
    pub fn apps(&self) -> impl Iterator<Item = (&AppId, &AppStream)> {
        self.per_app.iter()
    }

    /// The campaign (lockstep-detection) sketch folded so far.
    pub fn campaign(&self) -> &CampaignSketch {
        &self.campaign
    }

    /// The review-text sketch folded so far.
    pub fn text(&self) -> &TextSketch {
        &self.text
    }

    /// Fold one monitored install event (called exactly when the record
    /// pushes onto `install_events`; `t` is the event's install time, the
    /// same value the event vector records).
    pub fn note_install(&mut self, app: AppId, t: SimTime) {
        self.per_app.entry(app).or_default().n_installs += 1;
        self.campaign.observe(app, t);
    }

    /// Fold one uninstall event (called exactly when the record pushes
    /// onto `uninstall_events`).
    pub fn note_uninstall(&mut self, app: AppId, t: SimTime) {
        let s = self.per_app.entry(app).or_default();
        s.n_uninstalls += 1;
        s.last_uninstall = Some(match s.last_uninstall {
            Some(prev) => prev.max(t),
            None => t,
        });
    }

    /// Fold one foreground observation (called exactly when the record
    /// bumps the per-day foreground counter).
    pub fn note_foreground(&mut self, app: AppId) {
        self.per_app.entry(app).or_default().fg_total += 1;
    }

    /// Fold the reviews a batch of snapshots reported (called once per
    /// batch with what the record just appended to its review-event
    /// vector), sorted and merged into the text sketch in one pass.
    pub fn note_reviews(&mut self, reviews: &[ReviewEvent]) {
        self.text.observe_all(reviews.iter().map(|r| {
            (
                r.app.raw(),
                r.reviewer.raw(),
                r.time.as_secs(),
                r.rating.stars(),
                r.text.as_str(),
            )
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{GoogleId, Rating};

    const A: AppId = AppId(1);
    const B: AppId = AppId(2);

    #[test]
    fn folds_accumulate_per_app() {
        let mut s = StreamAggregates::new();
        s.note_install(A, SimTime::from_secs(10));
        s.note_install(A, SimTime::from_secs(11));
        s.note_uninstall(A, SimTime::from_secs(50));
        s.note_uninstall(A, SimTime::from_secs(20)); // out of order: latch keeps max
        s.note_foreground(B);
        let a = s.app(A).unwrap();
        assert_eq!(a.n_installs, 2);
        assert_eq!(a.n_uninstalls, 2);
        assert_eq!(a.last_uninstall, Some(SimTime::from_secs(50)));
        assert_eq!(s.app(B).unwrap().fg_total, 1);
        assert_eq!(s.apps().count(), 2);
    }

    /// `install_time` is decoded from the socket as a raw `u64`: the
    /// largest one must fold (into the saturated last bucket) like any
    /// other, in debug builds too.
    #[test]
    fn note_install_accepts_any_wire_timestamp() {
        let mut s = StreamAggregates::new();
        s.note_install(A, SimTime::from_secs(u64::MAX));
        s.note_install(A, SimTime::from_secs(0));
        assert_eq!(s.app(A).unwrap().n_installs, 2);
        assert_eq!(
            s.campaign().shingles().collect::<Vec<_>>(),
            vec![1 << 32, (1 << 32) | u64::from(u32::MAX)]
        );
    }

    #[test]
    fn review_folds_reach_the_text_sketch() {
        let review = |app, who, t, rating, text: &str| ReviewEvent {
            app,
            reviewer: GoogleId(who),
            time: SimTime::from_secs(t),
            rating,
            text: text.to_string(),
        };
        let mut s = StreamAggregates::new();
        s.note_reviews(&[
            review(B, 8, 200, Rating::ONE, "crashes a lot"),
            review(A, 7, 100, Rating::FIVE, "great app"),
        ]);
        s.note_reviews(&[review(A, 7, 100, Rating::FIVE, "great app")]);
        let mut text = TextSketch::default();
        text.observe(A.raw(), 7, 100, 5, "great app");
        text.observe(B.raw(), 8, 200, 1, "crashes a lot");
        assert_eq!(s.text(), &text);
        assert_eq!(s.text().n_reviews(), 2);
        // Text folds do not create per-app install aggregates.
        assert_eq!(s.apps().count(), 0);
    }
}
