//! Columnar (struct-of-arrays) projection of the ingest store.
//!
//! The row-oriented [`InstallRecord`] is what the collection server and
//! the protocol paths mutate: per-install `HashMap`s of `BTreeMap`s,
//! optimized for idempotent snapshot ingest. Analyze-side passes want the
//! opposite shape — every install's value for one field, contiguous. A
//! [`ColumnarSnapshots`] store is that projection: dictionary-encoded
//! identifiers, one dense column per scalar field, and CSR (offsets +
//! values) layouts for the per-`(install, app)` and per-`(install,
//! account)` families. ARCHITECTURE.md §9 documents the layout in full.
//!
//! The store is **derived, append-only and lossy by design**: it carries
//! exactly the fields the analyze stages read (activity columns, per-app
//! streaming aggregates, account services), never the full protocol
//! state, and it is rebuilt from records rather than updated in place:
//! [`ColumnarSnapshots::from_records`] over
//! [`crate::ShardedIngest::into_records`] output, whose ascending-install
//! order is what makes dictionary codes deterministic run to run.

use crate::server::InstallRecord;
use racket_columnar::Dict;
use racket_types::{AccountService, AppId, GoogleId, InstallId, ParticipantId, Rating, SimTime};

/// Struct-of-arrays snapshot store over dictionary-encoded identifiers.
///
/// Row `code` of every per-install column describes the install with
/// dictionary code `code`; the CSR families hang off `app_offsets` /
/// `account_offsets` (standard offsets-array encoding: the entries of
/// install `c` live at `offsets[c] .. offsets[c + 1]`). Within one
/// install the app entries are sorted by ascending [`AppId`] — the same
/// canonical order the batch feature builders iterate apps in.
#[derive(Debug, Clone, Default)]
pub struct ColumnarSnapshots {
    installs: Dict<InstallId>,
    apps: Dict<AppId>,
    services: Dict<AccountService>,

    // Per-install scalar columns, indexed by install code.
    participant: Vec<ParticipantId>,
    n_fast: Vec<u64>,
    n_slow: Vec<u64>,
    active_days: Vec<u32>,
    avg_snapshots_per_day: Vec<f64>,
    n_install_events: Vec<u64>,
    n_uninstall_events: Vec<u64>,

    // CSR per-(install, app), ascending AppId within each install.
    app_offsets: Vec<u32>,
    app_codes: Vec<u32>,
    fg_total: Vec<u64>,
    app_installs: Vec<u64>,
    app_uninstalls: Vec<u64>,
    last_uninstall: Vec<u64>,

    // CSR per-(install, monitored install event), in event-vector order.
    // The campaign detector's batch path rebuilds its shingle sets from
    // these two parallel columns (ARCHITECTURE.md §10).
    ev_offsets: Vec<u32>,
    ev_app_codes: Vec<u32>,
    ev_times: Vec<u64>,

    // CSR per-(install, account): the service of each registered account.
    account_offsets: Vec<u32>,
    service_codes: Vec<u32>,

    // CSR per-(install, reported review event), in report order. The text
    // engine's batch path re-derives per-install `TextSketch`es from these
    // columns (ARCHITECTURE.md §13). Review text lives in one contiguous
    // UTF-8 arena sliced by `rev_text_offsets` (offsets-array encoding
    // like the CSR families, one entry per review plus the leading zero).
    rev_offsets: Vec<u32>,
    rev_app_codes: Vec<u32>,
    rev_reviewers: Vec<u64>,
    rev_times: Vec<u64>,
    rev_ratings: Vec<u8>,
    rev_text_offsets: Vec<u32>,
    rev_text_bytes: Vec<u8>,
}

/// Sentinel in the `last_uninstall` column for "never uninstalled".
///
/// Uninstall times are simulation seconds (small); `u64::MAX` cannot be
/// a real timestamp.
pub const NEVER_UNINSTALLED: u64 = u64::MAX;

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

/// One decoded per-(install, app) entry, as returned by
/// [`ColumnarSnapshots::apps_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppEntry {
    /// The app.
    pub app: AppId,
    /// Fast snapshots with the app on screen (streaming `fg_total`).
    pub fg_total: u64,
    /// Monitored install events for the app.
    pub n_installs: u64,
    /// Monitored uninstall events for the app.
    pub n_uninstalls: u64,
    /// Latest uninstall time in seconds, or [`NEVER_UNINSTALLED`].
    pub last_uninstall: u64,
}

impl ColumnarSnapshots {
    /// Build the store from merged records, in the given order.
    ///
    /// Callers that need deterministic dictionary codes pass records in
    /// ascending-install order ([`crate::ShardedIngest::into_records`]
    /// already does).
    ///
    /// # Panics
    /// If an install appears twice (a record must be fully merged before
    /// it is projected), or if a dictionary or offset column would
    /// overflow `u32`.
    pub fn from_records(records: &[InstallRecord]) -> ColumnarSnapshots {
        let mut s = ColumnarSnapshots::default();
        s.app_offsets.push(0);
        s.account_offsets.push(0);
        s.ev_offsets.push(0);
        s.rev_offsets.push(0);
        s.rev_text_offsets.push(0);
        for r in records {
            s.adopt(r);
        }
        s
    }

    /// Append one merged install record's columns.
    fn adopt(&mut self, r: &InstallRecord) {
        let code = self.installs.encode(r.install_id);
        assert_eq!(
            code as usize,
            self.participant.len(),
            "install adopted twice: {}",
            r.install_id
        );

        self.participant.push(r.participant);
        self.n_fast.push(r.n_fast);
        self.n_slow.push(r.n_slow);
        self.active_days
            .push(u32::try_from(r.active_days()).expect("active days overflow"));
        self.avg_snapshots_per_day.push(r.avg_snapshots_per_day());
        self.n_install_events.push(r.stream.n_install_events);
        self.n_uninstall_events.push(r.stream.n_uninstall_events);

        // Per-app entries in ascending AppId order — the canonical order
        // the batch feature builders use.
        let mut app_ids: Vec<AppId> = r.apps.keys().copied().collect();
        app_ids.sort_unstable();
        for app in app_ids {
            self.app_codes.push(self.apps.encode(app));
            let stream = r.stream.app(app).copied().unwrap_or_default();
            self.fg_total.push(stream.fg_total);
            self.app_installs.push(stream.n_installs);
            self.app_uninstalls.push(stream.n_uninstalls);
            self.last_uninstall.push(
                stream
                    .last_uninstall
                    .map_or(NEVER_UNINSTALLED, |t| t.as_secs()),
            );
        }
        self.app_offsets
            .push(u32::try_from(self.app_codes.len()).expect("app column overflow"));

        // Monitored install events, in event-vector (arrival) order. The
        // apps are already in the dictionary: every event's app has an
        // entry in `r.apps` and was encoded by the loop above.
        for &(app, t) in &r.install_events {
            self.ev_app_codes.push(self.apps.encode(app));
            self.ev_times.push(t.as_secs());
        }
        self.ev_offsets
            .push(u32::try_from(self.ev_app_codes.len()).expect("event column overflow"));

        for account in &r.accounts {
            self.service_codes
                .push(self.services.encode(account.service));
        }
        self.account_offsets
            .push(u32::try_from(self.service_codes.len()).expect("account column overflow"));

        // Reported review events, in report order. A reviewed app may be
        // absent from `r.apps` (e.g. reviewed before monitoring and since
        // uninstalled), so this loop can extend the app dictionary — in
        // review order, which is deterministic like everything above.
        for review in &r.review_events {
            self.rev_app_codes.push(self.apps.encode(review.app));
            self.rev_reviewers.push(review.reviewer.raw());
            self.rev_times.push(review.time.as_secs());
            self.rev_ratings.push(review.rating.stars());
            self.rev_text_bytes
                .extend_from_slice(review.text.as_bytes());
            self.rev_text_offsets.push(
                u32::try_from(self.rev_text_bytes.len()).expect("review text arena overflow"),
            );
        }
        self.rev_offsets
            .push(u32::try_from(self.rev_app_codes.len()).expect("review column overflow"));
    }

    /// Number of installs adopted.
    pub fn n_installs(&self) -> usize {
        self.participant.len()
    }

    /// The dictionary code for an install, if adopted.
    pub fn install_code(&self, id: InstallId) -> Option<u32> {
        self.installs.code(id)
    }

    /// The install behind a dictionary code.
    ///
    /// # Panics
    /// If `code` was never assigned.
    pub fn install_id(&self, code: u32) -> InstallId {
        self.installs.value(code)
    }

    /// Participant column entry for an install code.
    pub fn participant(&self, code: u32) -> ParticipantId {
        self.participant[code as usize]
    }

    /// Fast/slow snapshot counts for an install code.
    pub fn snapshot_counts(&self, code: u32) -> (u64, u64) {
        (self.n_fast[code as usize], self.n_slow[code as usize])
    }

    /// Days with at least one snapshot, for an install code.
    pub fn active_days(&self, code: u32) -> u32 {
        self.active_days[code as usize]
    }

    /// Average snapshots per active day, for an install code.
    pub fn avg_snapshots_per_day(&self, code: u32) -> f64 {
        self.avg_snapshots_per_day[code as usize]
    }

    /// Device-level (install event, uninstall event) totals.
    pub fn event_totals(&self, code: u32) -> (u64, u64) {
        (
            self.n_install_events[code as usize],
            self.n_uninstall_events[code as usize],
        )
    }

    /// Decoded per-app entries of one install, ascending by [`AppId`].
    pub fn apps_of(&self, code: u32) -> impl Iterator<Item = AppEntry> + '_ {
        let lo = self.app_offsets[code as usize] as usize;
        let hi = self.app_offsets[code as usize + 1] as usize;
        (lo..hi).map(move |k| AppEntry {
            app: self.apps.value(self.app_codes[k]),
            fg_total: self.fg_total[k],
            n_installs: self.app_installs[k],
            n_uninstalls: self.app_uninstalls[k],
            last_uninstall: self.last_uninstall[k],
        })
    }

    /// Monitored install events of one install, in event-vector order —
    /// the batch input to campaign-sketch rebuilds.
    pub fn install_events_of(&self, code: u32) -> impl Iterator<Item = (AppId, SimTime)> + '_ {
        let lo = self.ev_offsets[code as usize] as usize;
        let hi = self.ev_offsets[code as usize + 1] as usize;
        (lo..hi).map(move |k| {
            (
                self.apps.value(self.ev_app_codes[k]),
                SimTime::from_secs(self.ev_times[k]),
            )
        })
    }

    /// Total monitored install events across all installs (event CSR
    /// payload length).
    pub fn n_install_events(&self) -> usize {
        self.ev_app_codes.len()
    }

    /// Reported review events of one install, in report order — the batch
    /// input to text-sketch rebuilds (ARCHITECTURE.md §13).
    pub fn reviews_of(&self, code: u32) -> impl Iterator<Item = ReviewEntry<'_>> + '_ {
        let lo = self.rev_offsets[code as usize] as usize;
        let hi = self.rev_offsets[code as usize + 1] as usize;
        (lo..hi).map(move |k| ReviewEntry {
            app: self.apps.value(self.rev_app_codes[k]),
            reviewer: GoogleId(self.rev_reviewers[k]),
            time: SimTime::from_secs(self.rev_times[k]),
            rating: Rating::new(self.rev_ratings[k]).expect("columns store valid ratings"),
            text: std::str::from_utf8(
                &self.rev_text_bytes
                    [self.rev_text_offsets[k] as usize..self.rev_text_offsets[k + 1] as usize],
            )
            .expect("columns store valid UTF-8"),
        })
    }

    /// Account services registered on one install, in snapshot order.
    pub fn services_of(&self, code: u32) -> impl Iterator<Item = AccountService> + '_ {
        let lo = self.account_offsets[code as usize] as usize;
        let hi = self.account_offsets[code as usize + 1] as usize;
        (lo..hi).map(move |k| self.services.value(self.service_codes[k]))
    }

    /// Approximate heap footprint of the columns, in bytes — what the
    /// study summary reports next to the row-store size.
    pub fn column_bytes(&self) -> usize {
        use std::mem::size_of;
        self.participant.len()
            * (size_of::<ParticipantId>()
                + 2 * size_of::<u64>()
                + size_of::<u32>()
                + size_of::<f64>()
                + 2 * size_of::<u64>())
            + (self.app_offsets.len() + self.account_offsets.len() + self.ev_offsets.len())
                * size_of::<u32>()
            + self.app_codes.len() * (size_of::<u32>() + 4 * size_of::<u64>())
            + self.ev_app_codes.len() * (size_of::<u32>() + size_of::<u64>())
            + self.service_codes.len() * size_of::<u32>()
            + (self.rev_offsets.len() + self.rev_text_offsets.len()) * size_of::<u32>()
            + self.rev_app_codes.len() * (2 * size_of::<u32>() + 2 * size_of::<u64>() + 1)
            + self.rev_text_bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedIngest;
    use racket_types::{
        ApkHash, FastSnapshot, InstallDelta, InstalledApp, PermissionProfile, ReviewEvent, SimTime,
        SlowSnapshot, Snapshot,
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
                    // columns must extend the app dictionary, not panic.
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
        // Records come back ascending by install id; codes follow.
        assert!(records[0].install_id < records[1].install_id);
        for (code, r) in records.iter().enumerate() {
            let code = code as u32;
            assert_eq!(columnar.install_code(r.install_id), Some(code));
            assert_eq!(columnar.install_id(code), r.install_id);
            assert_eq!(columnar.participant(code), r.participant);
            assert_eq!(columnar.snapshot_counts(code), (r.n_fast, r.n_slow));
            assert_eq!(columnar.active_days(code) as usize, r.active_days());
            assert_eq!(
                columnar.avg_snapshots_per_day(code).to_bits(),
                r.avg_snapshots_per_day().to_bits()
            );
            assert_eq!(
                columnar.event_totals(code),
                (r.stream.n_install_events, r.stream.n_uninstall_events)
            );
            let events: Vec<(AppId, SimTime)> = columnar.install_events_of(code).collect();
            assert_eq!(events, r.install_events);
            let reviews: Vec<ReviewEvent> = columnar
                .reviews_of(code)
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
        assert_eq!(columnar.rev_app_codes.len(), 3);
    }

    /// A campaign sketch rebuilt from the install-event columns equals
    /// the sketch the streaming fold maintained inside the record — the
    /// batch side of the batch ≡ incremental contract, at the unit level.
    #[test]
    fn event_columns_rebuild_the_streaming_sketch() {
        let (records, columnar) = fixture();
        for (code, r) in records.iter().enumerate() {
            let mut rebuilt = racket_campaign::CampaignSketch::default();
            for (app, t) in columnar.install_events_of(code as u32) {
                rebuilt.observe(app, t);
            }
            assert_eq!(&rebuilt, r.stream.campaign());
        }
        assert!(columnar.n_install_events() > 0);
    }

    /// The text analog: a `TextSketch` rebuilt from the review columns
    /// equals the sketch the streaming fold maintained inside the record —
    /// the unit-level half of the streaming ≡ batch text contract.
    #[test]
    fn review_columns_rebuild_the_streaming_text_sketch() {
        let (records, columnar) = fixture();
        for (code, r) in records.iter().enumerate() {
            let mut rebuilt = racket_text::TextSketch::default();
            for e in columnar.reviews_of(code as u32) {
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
        assert!(!columnar.rev_app_codes.is_empty());
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
        assert_eq!(s.apps.len(), 0);
        assert_eq!(s.app_codes.len(), 0);
        assert_eq!(s.install_code(InstallId(1)), None);
        assert!(s.column_bytes() < 64);
    }
}
