//! The two sketches an install record folds at snapshot-ingest time.
//!
//! Every feature of Tables 1 and 2 is computed by `racket-features` from
//! the record's batch-visible containers; the record keeps no per-app
//! feature state. What ingest does fold incrementally is the input of the
//! two detectors that compare installs with each other: the campaign
//! (lockstep) sketch over the monitored install events and the
//! review-text sketch over the reported reviews (ARCHITECTURE.md §7).
//! Both fold at the exact program points where `InstallRecord::ingest`
//! appends to the vectors they summarise, so each equals its batch
//! rebuild from the columnar families by construction, travels with the
//! record, and inherits the server's idempotent-ingest guarantee: a
//! deduplicated upload replay never reaches `ingest`, so it can never
//! double-fold. Sharded ingest keeps each install's record in exactly one
//! shard, so the sketches are only ever folded, never merged from partial
//! states.

use racket_campaign::CampaignSketch;
use racket_text::TextSketch;
use racket_types::{AppId, ReviewEvent, SimTime};

/// The per-install incremental state: the campaign and text sketches.
#[derive(Debug, Clone, Default)]
pub struct StreamAggregates {
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
        self.campaign.observe(app, t);
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

    /// `install_time` is decoded from the socket as a raw `u64`: the
    /// largest one must fold (into the saturated last bucket) like any
    /// other, in debug builds too.
    #[test]
    fn note_install_accepts_any_wire_timestamp() {
        let mut s = StreamAggregates::new();
        s.note_install(A, SimTime::from_secs(u64::MAX));
        s.note_install(A, SimTime::from_secs(0));
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
        // Text folds leave the campaign sketch alone.
        assert_eq!(s.campaign(), &CampaignSketch::default());
    }
}
