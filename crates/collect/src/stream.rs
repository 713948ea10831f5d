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

use racket_campaign::CampaignSketch;
use racket_text::TextSketch;
use racket_types::{AppId, GoogleId, Rating, SimTime};
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

impl AppStream {
    /// Merge another per-app aggregate built over a disjoint slice of the
    /// same install's snapshots. Counters add; the uninstall latch takes
    /// the max — commutative and associative, with the default value as
    /// identity.
    pub fn merge(&mut self, other: &AppStream) {
        self.n_installs += other.n_installs;
        self.n_uninstalls += other.n_uninstalls;
        self.last_uninstall = match (self.last_uninstall, other.last_uninstall) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.fg_total += other.fg_total;
    }
}

/// The per-install streaming aggregate: one [`AppStream`] per app that has
/// produced an event or foreground observation, plus device-level event
/// totals.
#[derive(Debug, Clone, Default)]
pub struct StreamAggregates {
    per_app: HashMap<AppId, AppStream>,
    /// Total install events (equals `install_events.len()`).
    pub n_install_events: u64,
    /// Total uninstall events (equals `uninstall_events.len()`).
    pub n_uninstall_events: u64,
    /// Lockstep-detection sketch over the install events (shingle set,
    /// MinHash signature, exact event set — ARCHITECTURE.md §10). Folded
    /// at the same program point as `n_install_events`, so it is equal to
    /// the batch rebuild from the install-event column family by
    /// construction. Never enters feature vectors or fingerprints.
    campaign: CampaignSketch,
    /// Review-text sketch over the reported review events (the set of
    /// canonical per-review rows — ARCHITECTURE.md §13). Folded at the
    /// same program point as the record's review-event vector, so it
    /// equals the batch rebuild from the columnar review family by
    /// construction. Stays empty in review-off studies.
    text: TextSketch,
}

impl StreamAggregates {
    /// The empty aggregate (merge identity).
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

    /// Number of apps with any streaming signal.
    pub fn len(&self) -> usize {
        self.per_app.len()
    }

    /// Whether no signal has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.per_app.is_empty() && self.n_install_events == 0 && self.n_uninstall_events == 0
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
        self.n_install_events += 1;
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
        self.n_uninstall_events += 1;
    }

    /// Fold one foreground observation (called exactly when the record
    /// bumps the per-day foreground counter).
    pub fn note_foreground(&mut self, app: AppId) {
        self.per_app.entry(app).or_default().fg_total += 1;
    }

    /// Fold one reported review (called exactly when the record pushes
    /// onto its review-event vector).
    pub fn note_review(
        &mut self,
        app: AppId,
        reviewer: GoogleId,
        t: SimTime,
        rating: Rating,
        text: &str,
    ) {
        self.text
            .observe(app.raw(), reviewer.raw(), t.as_secs(), rating.stars(), text);
    }

    /// Merge an aggregate built over a disjoint slice of the same
    /// install's snapshots: per-app entries merge pairwise, totals add.
    /// Commutative and associative with [`StreamAggregates::new`] as
    /// identity (pinned by the property suite).
    pub fn merge(&mut self, other: &StreamAggregates) {
        for (&app, s) in &other.per_app {
            self.per_app.entry(app).or_default().merge(s);
        }
        self.n_install_events += other.n_install_events;
        self.n_uninstall_events += other.n_uninstall_events;
        self.campaign.merge(&other.campaign);
        self.text.merge(&other.text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(s.n_install_events, 2);
        assert_eq!(s.n_uninstall_events, 2);
        assert_eq!(s.len(), 2);
    }

    /// `install_time` is decoded from the socket as a raw `u64`: the
    /// largest one must fold (into the saturated last bucket) like any
    /// other, in debug builds too.
    #[test]
    fn note_install_accepts_any_wire_timestamp() {
        let mut s = StreamAggregates::new();
        s.note_install(A, SimTime::from_secs(u64::MAX));
        s.note_install(A, SimTime::from_secs(0));
        assert_eq!(s.n_install_events, 2);
        assert_eq!(
            s.campaign().shingles().collect::<Vec<_>>(),
            vec![1 << 32, (1 << 32) | u64::from(u32::MAX)]
        );
    }

    #[test]
    fn merge_is_commutative_with_identity() {
        let mut x = StreamAggregates::new();
        x.note_install(A, SimTime::from_secs(1));
        x.note_foreground(A);
        let mut y = StreamAggregates::new();
        y.note_uninstall(A, SimTime::from_secs(9));
        y.note_install(B, SimTime::from_secs(2));

        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy.app(A), yx.app(A));
        assert_eq!(xy.app(B), yx.app(B));
        assert_eq!(xy.n_install_events, yx.n_install_events);
        assert_eq!(xy.campaign(), yx.campaign());
        assert_eq!(xy.campaign().events().count(), 2);

        let mut with_id = x.clone();
        with_id.merge(&StreamAggregates::new());
        assert_eq!(with_id.app(A), x.app(A));
        assert!(StreamAggregates::new().is_empty());
    }

    #[test]
    fn review_folds_reach_the_text_sketch_and_merge() {
        let mut x = StreamAggregates::new();
        x.note_review(
            A,
            GoogleId(7),
            SimTime::from_secs(100),
            Rating::FIVE,
            "great app",
        );
        let mut y = StreamAggregates::new();
        y.note_review(
            B,
            GoogleId(8),
            SimTime::from_secs(200),
            Rating::ONE,
            "crashes a lot",
        );

        let mut both = StreamAggregates::new();
        both.note_review(
            A,
            GoogleId(7),
            SimTime::from_secs(100),
            Rating::FIVE,
            "great app",
        );
        both.note_review(
            B,
            GoogleId(8),
            SimTime::from_secs(200),
            Rating::ONE,
            "crashes a lot",
        );

        let mut xy = x.clone();
        xy.merge(&y);
        assert_eq!(xy.text(), both.text());
        assert_eq!(xy.text().n_reviews(), 2);
        // Text folds do not create per-app install aggregates.
        assert_eq!(xy.len(), 0);
    }
}
