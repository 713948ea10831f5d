//! Columnar (struct-of-arrays) projection of the ingest store.
//!
//! The row-oriented [`InstallRecord`] is what the collection server and
//! the protocol paths mutate, and what every §6 statistic and §7/§8
//! feature reads. Two batch rebuilds want a different shape — every
//! install's events back to back: the campaign detector's shingle rebuild
//! scans the monitored install events, the text engine's sketch rebuild
//! scans the reported reviews. A [`ColumnarSnapshots`] store is exactly
//! those two families in CSR layout (offsets + values).
//! ARCHITECTURE.md §9 documents the layout.
//!
//! The store is **derived, append-only and lossy by design**: it carries
//! only what the two rebuilds read, never the full protocol state, and
//! it is rebuilt from records rather than updated in place:
//! [`ColumnarSnapshots::from_records`] over
//! [`crate::ShardedIngest::into_records`] output, whose ascending-install
//! order is the store's install order.

use crate::server::InstallRecord;
use racket_types::{AppId, GoogleId, InstallId, Rating, SimTime};

/// Struct-of-arrays store of two per-install event families.
///
/// Install `i` is the `i`-th record adopted; its entries in a family live
/// at `offsets[i] .. offsets[i + 1]` of that family's value columns
/// (standard offsets-array encoding).
#[derive(Debug, Clone, Default)]
pub struct ColumnarSnapshots {
    installs: Vec<InstallId>,

    // CSR per-(install, monitored install event), in event-vector order.
    // The campaign detector's batch path rebuilds its shingle sets from
    // these two parallel columns (ARCHITECTURE.md §10).
    ev_offsets: Vec<usize>,
    ev_apps: Vec<AppId>,
    ev_times: Vec<SimTime>,

    // CSR per-(install, reported review event), in report order. The text
    // engine's batch path re-derives per-install `TextSketch`es from these
    // columns (ARCHITECTURE.md §13). Review text lives in one arena
    // sliced by `rev_text_offsets` (one entry per review plus the leading
    // zero), each slice one review's whole text.
    rev_offsets: Vec<usize>,
    rev_apps: Vec<AppId>,
    rev_reviewers: Vec<GoogleId>,
    rev_times: Vec<SimTime>,
    rev_ratings: Vec<Rating>,
    rev_text_offsets: Vec<usize>,
    rev_text: String,
}

/// One decoded per-(install, review) entry, as returned by
/// [`ColumnarSnapshots::reviews_of`]. Borrows its text from the store's
/// arena — no per-review allocation on the batch-rebuild scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReviewEntry<'a> {
    /// The reviewed app.
    pub app: AppId,
    /// The Google identity that posted.
    pub reviewer: GoogleId,
    /// Posting time.
    pub time: SimTime,
    /// The star rating.
    pub rating: Rating,
    /// The review text.
    pub text: &'a str,
}

impl ColumnarSnapshots {
    /// Build the store from merged records, in the given order.
    ///
    /// # Panics
    /// If the records are not strictly ascending by install ID (a record
    /// must be fully merged before it is projected;
    /// [`crate::ShardedIngest::into_records`] returns them in this order).
    pub fn from_records(records: &[InstallRecord]) -> ColumnarSnapshots {
        let mut s = ColumnarSnapshots {
            ev_offsets: vec![0],
            rev_offsets: vec![0],
            rev_text_offsets: vec![0],
            ..ColumnarSnapshots::default()
        };
        for r in records {
            s.adopt(r);
        }
        s
    }

    /// Append one merged install record's columns.
    fn adopt(&mut self, r: &InstallRecord) {
        assert!(
            self.installs.last() < Some(&r.install_id),
            "install adopted twice or out of order: {}",
            r.install_id
        );
        self.installs.push(r.install_id);

        // Monitored install events, in event-vector (arrival) order.
        for &(app, t) in &r.install_events {
            self.ev_apps.push(app);
            self.ev_times.push(t);
        }
        self.ev_offsets.push(self.ev_apps.len());

        // Reported review events, in report order.
        for review in &r.review_events {
            self.rev_apps.push(review.app);
            self.rev_reviewers.push(review.reviewer);
            self.rev_times.push(review.time);
            self.rev_ratings.push(review.rating);
            self.rev_text.push_str(&review.text);
            self.rev_text_offsets.push(self.rev_text.len());
        }
        self.rev_offsets.push(self.rev_apps.len());
    }

    /// Number of installs adopted.
    pub fn n_installs(&self) -> usize {
        self.installs.len()
    }

    /// The `i`-th install adopted.
    ///
    /// # Panics
    /// If `i >= n_installs()`.
    pub fn install_id(&self, i: usize) -> InstallId {
        self.installs[i]
    }

    /// Monitored install events of the `i`-th install, in event-vector
    /// order — the batch input to campaign-sketch rebuilds.
    pub fn install_events_of(&self, i: usize) -> impl Iterator<Item = (AppId, SimTime)> + '_ {
        let span = self.ev_offsets[i]..self.ev_offsets[i + 1];
        self.ev_apps[span.clone()]
            .iter()
            .copied()
            .zip(self.ev_times[span].iter().copied())
    }

    /// Reported review events of the `i`-th install, in report order — the
    /// batch input to text-sketch rebuilds (ARCHITECTURE.md §13).
    pub fn reviews_of(&self, i: usize) -> impl Iterator<Item = ReviewEntry<'_>> + '_ {
        (self.rev_offsets[i]..self.rev_offsets[i + 1]).map(move |k| ReviewEntry {
            app: self.rev_apps[k],
            reviewer: self.rev_reviewers[k],
            time: self.rev_times[k],
            rating: self.rev_ratings[k],
            text: &self.rev_text[self.rev_text_offsets[k]..self.rev_text_offsets[k + 1]],
        })
    }

    /// Approximate heap footprint of the columns, in bytes — what the
    /// study summary reports next to the row-store size.
    pub fn column_bytes(&self) -> usize {
        use std::mem::size_of;
        self.installs.len() * size_of::<InstallId>()
            + (self.ev_offsets.len() + self.rev_offsets.len() + self.rev_text_offsets.len())
                * size_of::<usize>()
            + self.ev_apps.len() * (size_of::<AppId>() + size_of::<SimTime>())
            + self.rev_apps.len()
                * (size_of::<AppId>()
                    + size_of::<GoogleId>()
                    + size_of::<SimTime>()
                    + size_of::<Rating>())
            + self.rev_text.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedIngest;
    use racket_types::{
        ApkHash, FastSnapshot, InstallDelta, InstalledApp, ParticipantId, PermissionProfile,
        ReviewEvent, SlowSnapshot, Snapshot,
    };

    fn snap(install: u64, t: u64, foreground: Option<AppId>, installs: Vec<AppId>) -> Snapshot {
        Snapshot::Fast(FastSnapshot {
            install_id: InstallId(install),
            participant_id: ParticipantId(100_000),
            time: SimTime::from_secs(t),
            foreground_app: foreground,
            screen_on: foreground.is_some(),
            battery_pct: 80,
            install_events: installs
                .into_iter()
                .map(|app| {
                    InstallDelta::Installed(InstalledApp::fresh(
                        app,
                        SimTime::from_secs(t),
                        PermissionProfile::default(),
                        ApkHash([app.0 as u8; 16]),
                    ))
                })
                .collect(),
        })
    }

    fn review(app: AppId, reviewer: u64, t: u64, stars: u8, text: &str) -> ReviewEvent {
        ReviewEvent {
            app,
            reviewer: GoogleId(reviewer),
            time: SimTime::from_secs(t),
            rating: Rating::new(stars).unwrap(),
            text: text.to_owned(),
        }
    }

    fn slow(install: u64, t: u64, reviews: Vec<ReviewEvent>) -> Snapshot {
        Snapshot::Slow(SlowSnapshot {
            install_id: InstallId(install),
            participant_id: ParticipantId(100_000),
            android_id: None,
            time: SimTime::from_secs(t),
            accounts: vec![],
            save_mode: false,
            stopped_apps: vec![],
            review_events: reviews,
        })
    }

    /// Two installs' records, drained in canonical order, and their store.
    fn fixture() -> (Vec<InstallRecord>, ColumnarSnapshots) {
        let ingest = ShardedIngest::new(4);
        ingest.ingest_batch(&[
            snap(2_000_000_001, 10, None, vec![AppId(7), AppId(3)]),
            snap(2_000_000_001, 86_410, Some(AppId(7)), vec![]),
            snap(2_000_000_001, 86_420, None, vec![]),
            slow(
                2_000_000_001,
                86_430,
                vec![
                    review(AppId(7), 42, 86_400, 5, "great app works perfectly"),
                    // An app never installed during monitoring: review
                    // columns carry it like any other.
                    review(AppId(99), 42, 400, 1, "crashes a lot"),
                ],
            ),
        ]);
        ingest.ingest_batch(&[
            snap(1_000_000_002, 50, Some(AppId(3)), vec![AppId(3)]),
            slow(
                1_000_000_002,
                60,
                vec![review(AppId(3), 77, 55, 4, "good app overall")],
            ),
        ]);
        let records = ingest.into_records();
        let columnar = ColumnarSnapshots::from_records(&records);
        (records, columnar)
    }

    #[test]
    fn columns_mirror_the_records() {
        let (records, columnar) = fixture();
        assert_eq!(records.len(), 2);
        assert_eq!(columnar.n_installs(), 2);
        // Records come back ascending by install id; indexes follow.
        assert!(records[0].install_id < records[1].install_id);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(columnar.install_id(i), r.install_id);
            let events: Vec<(AppId, SimTime)> = columnar.install_events_of(i).collect();
            assert_eq!(events, r.install_events);
            let reviews: Vec<ReviewEvent> = columnar
                .reviews_of(i)
                .map(|e| ReviewEvent {
                    app: e.app,
                    reviewer: e.reviewer,
                    time: e.time,
                    rating: e.rating,
                    text: e.text.to_owned(),
                })
                .collect();
            assert_eq!(reviews, r.review_events);
        }
        assert_eq!(columnar.rev_apps.len(), 3);
    }

    /// A campaign sketch rebuilt from the install-event columns equals
    /// the sketch the streaming fold maintained inside the record — the
    /// batch side of the batch ≡ incremental contract, at the unit level.
    #[test]
    fn event_columns_rebuild_the_streaming_sketch() {
        let (records, columnar) = fixture();
        for (i, r) in records.iter().enumerate() {
            let mut rebuilt = racket_campaign::CampaignSketch::default();
            for (app, t) in columnar.install_events_of(i) {
                rebuilt.observe(app, t);
            }
            assert_eq!(&rebuilt, r.stream.campaign());
        }
        assert!(!columnar.ev_apps.is_empty());
    }

    /// The text analog: a `TextSketch` rebuilt from the review columns
    /// equals the sketch the streaming fold maintained inside the record —
    /// the unit-level half of the streaming ≡ batch text contract.
    #[test]
    fn review_columns_rebuild_the_streaming_text_sketch() {
        let (records, columnar) = fixture();
        for (i, r) in records.iter().enumerate() {
            let mut rebuilt = racket_text::TextSketch::default();
            for e in columnar.reviews_of(i) {
                rebuilt.observe(
                    e.app.raw(),
                    e.reviewer.raw(),
                    e.time.as_secs(),
                    e.rating.stars(),
                    e.text,
                );
            }
            assert_eq!(&rebuilt, r.stream.text());
        }
        assert!(!columnar.rev_apps.is_empty());
    }

    #[test]
    #[should_panic(expected = "install adopted twice")]
    fn a_repeated_install_is_rejected() {
        let (records, _) = fixture();
        ColumnarSnapshots::from_records(&[records[0].clone(), records[0].clone()]);
    }

    #[test]
    fn empty_store_is_well_formed() {
        let s = ColumnarSnapshots::from_records(&[]);
        assert_eq!(s.n_installs(), 0);
        assert_eq!(s.ev_apps.len(), 0);
        assert_eq!(s.rev_text, "");
        assert!(s.column_bytes() < 64);
    }
}
