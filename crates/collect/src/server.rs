//! The collection server (the "web app" of Figure 3): the sans-IO upload
//! protocol core and the per-install aggregate it folds into.
//!
//! * [`ProtocolCore`] is the *only* implementation of the server's
//!   message → reply decision — sign-in gate, per-install file order,
//!   content-hash ack, replay re-ack, inflate cap, single-install rule.
//!   The contract is stated once, in `PROTOCOL.md` §6. Every driver
//!   reaches it through its connection's `Session` (`session.rs`, the
//!   bytes → messages → replies half of the same section): the async
//!   plane's reactor workers
//!   ([`crate::async_server`]), the loopback lanes of the study driver
//!   ([`crate::retry::WireLane`]), and the blocking TCP driver
//!   ([`CollectionServer::serve_tcp`]).
//! * [`InstallRecord`] is the per-install aggregate the measurement and
//!   feature pipelines read (the real backend inserted snapshots into
//!   MongoDB and aggregated at query time); the one table of them is
//!   [`ShardedIngest`].
//! * [`CollectionServer`] is a single-owner convenience over a core and
//!   its store for fixtures, examples and the TCP driver.

use crate::buffer::FAST_ROTATE_BYTES;
use crate::collector::SnapshotCollector;
use crate::hash::sha256;
use crate::lzss;
use crate::session::{Session, QUEUE_LIMIT};
use crate::shard::ShardedIngest;
use crate::stream::StreamAggregates;
use crate::wire::Message;
use parking_lot::Mutex;
use racket_types::{
    AndroidId, AppId, InstallDelta, InstallId, InstalledApp, ParticipantId, RegisteredAccount,
    ReviewEvent, SimTime, Snapshot, TimeInterval,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Server-side aggregate for one RacketStore install (one install ID).
#[derive(Debug, Clone)]
pub struct InstallRecord {
    /// The reporting install.
    pub install_id: InstallId,
    /// Participant the install signed in as.
    pub participant: ParticipantId,
    /// Android ID if any slow snapshot carried one.
    pub android_id: Option<AndroidId>,
    /// First snapshot time seen.
    pub first_seen: SimTime,
    /// Last snapshot time seen.
    pub last_seen: SimTime,
    /// Fast snapshots received.
    pub n_fast: u64,
    /// Slow snapshots received.
    pub n_slow: u64,
    /// Snapshots received per calendar day.
    pub snapshots_per_day: BTreeMap<u64, u64>,
    /// Foreground observations: app → day → count of fast snapshots with
    /// the app on screen.
    pub foreground: HashMap<AppId, BTreeMap<u64, u64>>,
    /// Latest metadata for every app ever observed installed.
    pub apps: HashMap<AppId, InstalledApp>,
    /// Apps currently installed (as of the latest delta).
    pub installed_now: HashSet<AppId>,
    /// Install events observed (app, time) — *during* monitoring.
    pub install_events: Vec<(AppId, SimTime)>,
    /// Uninstall events observed (app, time).
    pub uninstall_events: Vec<(AppId, SimTime)>,
    /// Latest registered-account list.
    pub accounts: Vec<RegisteredAccount>,
    /// Latest stopped-app list.
    pub stopped_apps: Vec<AppId>,
    /// Reviews reported by slow snapshots, in arrival order (empty unless
    /// the fleet collects reviews).
    pub review_events: Vec<ReviewEvent>,
    /// Per-app streaming aggregates folded at the same program points as
    /// the batch-visible vectors above (see [`crate::stream`]).
    pub stream: StreamAggregates,
}

impl InstallRecord {
    pub(crate) fn new(install_id: InstallId, participant: ParticipantId, t: SimTime) -> Self {
        InstallRecord {
            install_id,
            participant,
            android_id: None,
            first_seen: t,
            last_seen: t,
            n_fast: 0,
            n_slow: 0,
            snapshots_per_day: BTreeMap::new(),
            foreground: HashMap::new(),
            apps: HashMap::new(),
            installed_now: HashSet::new(),
            install_events: Vec::new(),
            uninstall_events: Vec::new(),
            accounts: Vec::new(),
            stopped_apps: Vec::new(),
            review_events: Vec::new(),
            stream: StreamAggregates::new(),
        }
    }

    /// The observed monitoring interval `[first, last]` (half-open at
    /// `last + 1 s` so single-snapshot records are non-degenerate). The end
    /// saturates: `last_seen` is a wire timestamp, and a client may send
    /// `u64::MAX`.
    pub fn observed_interval(&self) -> TimeInterval {
        TimeInterval::new(
            self.first_seen,
            self.last_seen
                .saturating_add(racket_types::SimDuration::from_secs(1)),
        )
    }

    /// Days with at least one snapshot.
    pub fn active_days(&self) -> usize {
        self.snapshots_per_day.len()
    }

    /// Average snapshots per active day (Figure 4's y-axis).
    pub fn avg_snapshots_per_day(&self) -> f64 {
        if self.snapshots_per_day.is_empty() {
            return 0.0;
        }
        self.snapshots_per_day.values().sum::<u64>() as f64 / self.snapshots_per_day.len() as f64
    }

    pub(crate) fn ingest(&mut self, snapshot: &Snapshot) {
        let t = snapshot.time();
        self.first_seen = self.first_seen.min(t);
        self.last_seen = self.last_seen.max(t);
        *self.snapshots_per_day.entry(t.day_index()).or_insert(0) += 1;
        match snapshot {
            Snapshot::Fast(f) => {
                self.n_fast += 1;
                if let Some(app) = f.foreground_app {
                    *self
                        .foreground
                        .entry(app)
                        .or_default()
                        .entry(t.day_index())
                        .or_insert(0) += 1;
                    self.stream.note_foreground(app);
                }
                for delta in &f.install_events {
                    match delta {
                        InstallDelta::Installed(info) => {
                            // The very first fast snapshot reports the whole
                            // pre-existing app set; only installs observed
                            // after monitoring began count as events.
                            if info.install_time >= self.first_seen {
                                self.install_events.push((info.app, info.install_time));
                                self.stream.note_install(info.app, info.install_time);
                            }
                            self.installed_now.insert(info.app);
                            self.apps.insert(info.app, info.clone());
                        }
                        InstallDelta::Uninstalled { app } => {
                            self.uninstall_events.push((*app, t));
                            self.stream.note_uninstall(*app, t);
                            self.installed_now.remove(app);
                        }
                    }
                }
            }
            Snapshot::Slow(s) => {
                self.n_slow += 1;
                if s.android_id.is_some() {
                    self.android_id = s.android_id;
                }
                if !s.accounts.is_empty() || self.accounts.is_empty() {
                    self.accounts.clone_from(&s.accounts);
                }
                self.stopped_apps.clone_from(&s.stopped_apps);
                for review in &s.review_events {
                    self.review_events.push(review.clone());
                    self.stream.note_review(
                        review.app,
                        review.reviewer,
                        review.time,
                        review.rating,
                        &review.text,
                    );
                }
            }
        }
    }
}

/// Ingestion statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Installs signed in (distinct installs — a retried sign-in for an
    /// already-signed-in install is idempotent and counted once).
    pub sign_ins: u64,
    /// Sign-ins rejected (bad participant code).
    pub rejected_sign_ins: u64,
    /// Snapshot files ingested (distinct `(install, file_id)` pairs).
    pub files: u64,
    /// Snapshots ingested (the store's running count).
    pub snapshots: u64,
    /// Uploads refused with a 400: failed to inflate within
    /// [`MAX_INFLATED_BYTES`], failed to parse, or carried another
    /// install's snapshots.
    pub bad_uploads: u64,
    /// Replayed uploads re-acknowledged without re-ingesting: the file's
    /// id lies below the install's next one, so it was already folded and
    /// the client's ack was lost in transit. Varies with the fault plan,
    /// so it is *excluded* from the chaos determinism fingerprint.
    pub dup_files: u64,
}

impl ServerStats {
    /// Fold another stats block into this one. Every field is a plain
    /// count, so the core's shards fold in any order to the same totals.
    fn merge(&mut self, other: &ServerStats) {
        self.sign_ins += other.sign_ins;
        self.rejected_sign_ins += other.rejected_sign_ins;
        self.files += other.files;
        self.snapshots += other.snapshots;
        self.bad_uploads += other.bad_uploads;
        self.dup_files += other.dup_files;
    }

    /// Add these ingestion counts to a registry: the canonical
    /// `ingest.snapshots` / `ingest.dup_files` counters (see
    /// [`racket_types::metrics::keys`]) plus `server.*` counters for the
    /// remaining fields.
    pub fn record_to(&self, registry: &racket_obs::Registry) {
        use racket_types::metrics::keys;
        registry.add(keys::SNAPSHOTS_INGESTED, self.snapshots);
        registry.add(keys::DUP_FILES, self.dup_files);
        registry.add("server.sign_ins", self.sign_ins);
        registry.add("server.rejected_sign_ins", self.rejected_sign_ins);
        registry.add("server.files", self.files);
        registry.add("server.bad_uploads", self.bad_uploads);
    }
}

/// Largest inflated upload the core accepts. A rotated file is the fast
/// threshold plus the one snapshot that crossed it (the largest seen in
/// the text-on test fleets is 102,417 bytes); the biggest record the
/// collector can emit is a device's first fast snapshot, which lists its
/// whole pre-existing app set. Four thresholds leaves 3×
/// [`FAST_ROTATE_BYTES`] of headroom for that one record, while bounding
/// what a 4 MB payload of match tokens (~80× expansion) can make a pooled
/// scratch grow to.
pub const MAX_INFLATED_BYTES: usize = 4 * FAST_ROTATE_BYTES;

/// Number of sign-in/dedup shards. Sized so that even a full worker pool
/// rarely contends on one lock.
const CORE_SHARDS: usize = 64;

/// One shard of the core's tables: the signed-in installs and the
/// protocol counters for the installs hashing here (`stats.snapshots`
/// stays 0 — the store counts snapshots).
#[derive(Default)]
struct CoreShard {
    /// Signed-in install → the `file_id` its next upload must carry. Client
    /// file ids are dense from 1, so this one integer is all the core
    /// remembers of an install's files, however many it has folded.
    next_file: HashMap<InstallId, u64>,
    stats: ServerStats,
}

/// The server side of the upload protocol as a sans-IO state machine:
/// one message in, at most one reply out (`PROTOCOL.md` §6 is the
/// contract). Shared by reference across however many connections and
/// threads a driver runs.
///
/// Lock discipline: hashing, inflating and parsing happen on the calling
/// thread *outside* any lock; a shard lock is held only for map probes
/// and counter bumps, and the fold takes the store's own shard lock. An
/// install's messages arrive sequentially (one install = one
/// connection), so the window between reading an install's next file id
/// and advancing it is race-free without holding a lock across the parse.
pub struct ProtocolCore {
    registered: HashSet<ParticipantId>,
    shards: Vec<Mutex<CoreShard>>,
    store: Arc<ShardedIngest>,
}

impl ProtocolCore {
    /// A core recognizing the given participant codes and folding accepted
    /// uploads into `store` (the caller keeps its own `Arc` to drain).
    pub fn new(
        participants: impl IntoIterator<Item = ParticipantId>,
        store: Arc<ShardedIngest>,
    ) -> Self {
        ProtocolCore {
            registered: participants.into_iter().collect(),
            shards: (0..CORE_SHARDS)
                .map(|_| Mutex::new(CoreShard::default()))
                .collect(),
            store,
        }
    }

    fn shard(&self, install: InstallId) -> &Mutex<CoreShard> {
        &self.shards[install.raw() as usize % self.shards.len()]
    }

    /// Handle one protocol message, producing the reply to send (if any).
    /// `scratch` is the caller's pooled inflate buffer (one per lane or
    /// worker); it never grows past [`MAX_INFLATED_BYTES`].
    pub fn handle(&self, msg: Message, scratch: &mut Vec<u8>) -> Option<Message> {
        match msg {
            Message::SignIn {
                participant,
                install,
            } => {
                let accepted = participant.is_valid() && self.registered.contains(&participant);
                let mut shard = self.shard(install).lock();
                if accepted {
                    // Idempotent: a retried sign-in (lost ack) for an
                    // already-known install must not double-count, nor
                    // move its place in the file order.
                    if let Entry::Vacant(first) = shard.next_file.entry(install) {
                        first.insert(1);
                        shard.stats.sign_ins += 1;
                    }
                } else {
                    shard.stats.rejected_sign_ins += 1;
                }
                Some(Message::SignInAck { accepted })
            }
            Message::SnapshotUpload {
                install,
                file_id,
                fast: _,
                payload,
            } => Some(self.handle_upload(install, file_id, &payload, scratch)),
            // Acks and errors addressed to clients are ignored.
            Message::SignInAck { .. } | Message::UploadAck { .. } | Message::Error { .. } => None,
        }
    }

    fn handle_upload(
        &self,
        install: InstallId,
        file_id: u64,
        payload: &[u8],
        scratch: &mut Vec<u8>,
    ) -> Message {
        let Some(next) = self.shard(install).lock().next_file.get(&install).copied() else {
            return Message::Error {
                code: 401,
                detail: "install not signed in".into(),
            };
        };
        // An install's files fold in file order or not at all: the record
        // fold is order-sensitive, so a file that overtook a lost one waits
        // for the client to rewind to the gap.
        if file_id > next {
            return Message::Error {
                code: 409,
                detail: "file out of order".into(),
            };
        }
        // Hash exactly what was received — if transit corrupted the
        // payload (and CRC somehow passed), the client's comparison fails
        // and it retries.
        let ack = Message::UploadAck {
            file_id,
            sha256: sha256(payload),
        };
        // A file whose ack was lost gets retransmitted: re-acknowledge it
        // without folding its snapshots in a second time, whatever the
        // bytes of this copy.
        if file_id < next {
            self.shard(install).lock().stats.dup_files += 1;
            return ack;
        }
        let decoded = lzss::decompress_capped(payload, scratch, MAX_INFLATED_BYTES)
            .map_err(|e| e.to_string())
            .and_then(|()| SnapshotCollector::deserialize_file(scratch).map_err(|e| e.to_string()))
            .and_then(|snapshots| {
                // The gate checked the header's install; the records must
                // name the same one, or a signed-in client could write
                // into any install's aggregate.
                if snapshots.iter().all(|s| s.install_id() == install) {
                    Ok(snapshots)
                } else {
                    Err("file holds another install's snapshots".to_string())
                }
            });
        match decoded {
            Ok(snapshots) => {
                self.store.ingest_batch(&snapshots);
                let mut shard = self.shard(install).lock();
                shard.stats.files += 1;
                shard.next_file.insert(install, next + 1);
                ack
            }
            Err(detail) => {
                self.shard(install).lock().stats.bad_uploads += 1;
                Message::Error { code: 400, detail }
            }
        }
    }

    /// Ingestion statistics so far: the shards' protocol counters plus
    /// the store's snapshot count.
    pub fn stats(&self) -> ServerStats {
        let mut stats = ServerStats::default();
        for shard in &self.shards {
            stats.merge(&shard.lock().stats);
        }
        stats.snapshots = self.store.snapshots_ingested();
        stats
    }
}

/// A [`ProtocolCore`] with its own store and inflate scratch: the
/// single-owner server that fixtures, examples and the TCP driver use.
pub struct CollectionServer {
    core: ProtocolCore,
    scratch: Vec<u8>,
}

impl CollectionServer {
    /// Create a server recognizing the given participant codes.
    pub fn new(participants: impl IntoIterator<Item = ParticipantId>) -> Self {
        CollectionServer {
            core: ProtocolCore::new(participants, Arc::new(ShardedIngest::new(8))),
            scratch: Vec::new(),
        }
    }

    /// Handle one protocol message ([`ProtocolCore::handle`]).
    pub fn handle(&mut self, msg: Message) -> Option<Message> {
        self.core.handle(msg, &mut self.scratch)
    }

    /// Fold one snapshot straight into its install record, bypassing the
    /// protocol (fixtures that need a record, not an upload).
    pub fn ingest_snapshot(&mut self, snapshot: &Snapshot) {
        self.core.store.ingest(snapshot);
    }

    /// A copy of one install's record.
    pub fn record(&self, install: InstallId) -> Option<InstallRecord> {
        self.core.store.record(install)
    }

    /// Ingestion statistics.
    pub fn stats(&self) -> ServerStats {
        self.core.stats()
    }

    /// Serve the wire protocol on a TCP listener until the listener errors
    /// or `max_connections` clients have been handled (tests bound this;
    /// pass `usize::MAX` to serve forever). One blocking thread per
    /// connection — read, feed its `Session`, write the replies — each
    /// with its own inflate scratch; the threads share only the core. A
    /// stream that fails to decode closes its connection.
    pub fn serve_tcp(
        &self,
        listener: std::net::TcpListener,
        max_connections: usize,
    ) -> std::io::Result<()> {
        use crate::transport::{TcpTransport, Transport};
        std::thread::scope(|scope| {
            for stream in listener.incoming().take(max_connections) {
                let stream = stream?;
                scope.spawn(move || {
                    let mut transport = TcpTransport::new(stream);
                    let mut session = Session::lenient(QUEUE_LIMIT);
                    let (mut scratch, mut replies) = (Vec::new(), Vec::new());
                    let mut buf = [0u8; 4096];
                    while let Ok(n @ 1..) = transport.recv(&mut buf) {
                        session.feed(&buf[..n]);
                        replies.clear();
                        let served =
                            session.service(&self.core, &mut scratch, usize::MAX, |frame| {
                                replies.extend_from_slice(frame)
                            });
                        if transport.send(&replies).is_err() || served.poisoned {
                            break;
                        }
                    }
                });
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{ApkHash, FastSnapshot, PermissionProfile, SlowSnapshot};

    const P: ParticipantId = ParticipantId(123_456);
    const I: InstallId = InstallId(1_000_000_000);

    fn server() -> CollectionServer {
        CollectionServer::new([P])
    }

    fn fast_with_install(t: u64, app: u32, installed_at: u64) -> Snapshot {
        Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_secs(t),
            foreground_app: Some(AppId(app)),
            screen_on: true,
            battery_pct: 80,
            install_events: vec![InstallDelta::Installed(InstalledApp::fresh(
                AppId(app),
                SimTime::from_secs(installed_at),
                PermissionProfile::default(),
                ApkHash([app as u8; 16]),
            ))],
        })
    }

    /// A snapshot file as the buffer module would rotate it.
    fn file_of(snapshots: &[Snapshot]) -> Vec<u8> {
        let mut raw = Vec::new();
        for snap in snapshots {
            raw.extend_from_slice(&SnapshotCollector::serialize(snap));
        }
        lzss::compress(&raw)
    }

    fn upload(file_id: u64, payload: &[u8]) -> Message {
        Message::SnapshotUpload {
            install: I,
            file_id,
            fast: true,
            payload: payload.to_vec(),
        }
    }

    /// What a row of the protocol table expects back.
    enum Reply {
        Is(Message),
        Error(u16),
        Nothing,
    }

    #[test]
    fn protocol_decision_table() {
        // The one statement of the message → reply decision (PROTOCOL.md
        // §6), run in order against one core: each row is a message, the
        // reply it must get and the full stats block afterwards. Drivers
        // only move these messages, so this runs once, here.
        const OTHER: InstallId = InstallId(2_000_000_000);
        let two = file_of(&[
            fast_with_install(100, 1, 50),
            fast_with_install(105, 2, 104),
        ]);
        let one = file_of(&[fast_with_install(200, 3, 150)]);
        // A signed-in client naming someone else's install in its records.
        let mut foreign = fast_with_install(300, 4, 250);
        if let Snapshot::Fast(f) = &mut foreign {
            f.install_id = OTHER;
        }
        let mixed = file_of(&[fast_with_install(290, 4, 250), foreign]);
        // A hand-built bomb: the literal `x`, then back-references
        // (distance 1, length byte 255 → 259 bytes each) until the output
        // would pass the cap — under 5 KB on the wire.
        let mut bomb = vec![0b1111_1110, b'x'];
        for k in 0..MAX_INFLATED_BYTES / 259 + 8 {
            if k >= 7 && (k - 7) % 8 == 0 {
                bomb.push(0xFF); // the next eight tokens are references
            }
            bomb.extend_from_slice(&[1, 0, 255]);
        }
        assert!(lzss::decompress(&bomb).unwrap().len() > MAX_INFLATED_BYTES);
        // What collectors wrote before the binary codec: one JSON object
        // per line. No client sends it any more; it is malformed input.
        let json_lines = lzss::compress(b"{\"Fast\":{\"install_id\":1000000000}}\n");
        let ack = |file_id, payload: &[u8]| {
            Reply::Is(Message::UploadAck {
                file_id,
                sha256: sha256(payload),
            })
        };
        let sign_in = |participant| Message::SignIn {
            participant,
            install: I,
        };
        let st =
            |sign_ins, rejected_sign_ins, files, snapshots, bad_uploads, dup_files| ServerStats {
                sign_ins,
                rejected_sign_ins,
                files,
                snapshots,
                bad_uploads,
                dup_files,
            };
        #[rustfmt::skip]
        let table = [
            ("upload before sign-in",            upload(1, &two),                       Reply::Error(401),                                 st(0, 0, 0, 0, 0, 0)),
            ("unknown participant code",         sign_in(ParticipantId(999_999)),       Reply::Is(Message::SignInAck { accepted: false }), st(0, 1, 0, 0, 0, 0)),
            ("rejected sign-in opens nothing",   upload(1, &two),                       Reply::Error(401),                                 st(0, 1, 0, 0, 0, 0)),
            ("sign-in",                          sign_in(P),                            Reply::Is(Message::SignInAck { accepted: true }),  st(1, 1, 0, 0, 0, 0)),
            ("a file ahead of its turn waits",   upload(2, &one),                       Reply::Error(409),                                 st(1, 1, 0, 0, 0, 0)),
            ("upload acks the content hash",     upload(1, &two),                       ack(1, &two),                                      st(1, 1, 1, 2, 0, 0)),
            ("repeated sign-in keeps the order", sign_in(P),                            Reply::Is(Message::SignInAck { accepted: true }),  st(1, 1, 1, 2, 0, 0)),
            ("replay is re-acked, not refolded", upload(1, &two),                       ack(1, &two),                                      st(1, 1, 1, 2, 0, 1)),
            ("same file_id, different content",  upload(1, &one),                       ack(1, &one),                                      st(1, 1, 1, 2, 0, 2)),
            ("...even one that would not fold",  upload(1, &bomb),                      ack(1, &bomb),                                     st(1, 1, 1, 2, 0, 3)),
            ("a gap: refused, nothing counted",  upload(4, &one),                       Reply::Error(409),                                 st(1, 1, 1, 2, 0, 3)),
            ("the next file in order",           upload(2, &one),                       ack(2, &one),                                      st(1, 1, 2, 3, 0, 3)),
            ("truncated LZSS reference",         upload(3, &[0b0000_0001, 0x01]),       Reply::Error(400),                                 st(1, 1, 2, 3, 1, 3)),
            ("another install's snapshots",      upload(3, &mixed),                     Reply::Error(400),                                 st(1, 1, 2, 3, 2, 3)),
            ("...and it takes no place in line", upload(3, &mixed),                     Reply::Error(400),                                 st(1, 1, 2, 3, 3, 3)),
            ("inflate bomb",                     upload(3, &bomb),                      Reply::Error(400),                                 st(1, 1, 2, 3, 4, 3)),
            ("a JSON-lines file",                upload(3, &json_lines),                Reply::Error(400),                                 st(1, 1, 2, 3, 5, 3)),
            ("client-addressed message",         Message::SignInAck { accepted: true }, Reply::Nothing,                                    st(1, 1, 2, 3, 5, 3)),
        ];
        let store = Arc::new(ShardedIngest::new(4));
        let core = ProtocolCore::new([P], Arc::clone(&store));
        let mut scratch = Vec::new();
        for (name, msg, want, stats) in table {
            let got = core.handle(msg, &mut scratch);
            match (want, got) {
                (Reply::Is(want), Some(got)) => assert_eq!(got, want, "{name}"),
                (Reply::Error(want), Some(Message::Error { code, .. })) => {
                    assert_eq!(code, want, "{name}")
                }
                (Reply::Nothing, None) => {}
                (_, got) => panic!("{name}: unexpected reply {got:?}"),
            }
            assert_eq!(core.stats(), stats, "{name}");
            assert!(scratch.capacity() <= MAX_INFLATED_BYTES, "{name}");
        }
        // Only the three accepted snapshots were folded, in file order and
        // all under the uploader's install.
        let rec = store.record(I).unwrap();
        assert_eq!(rec.n_fast, 3);
        assert_eq!(rec.apps.len(), 3);
        assert!(rec.installed_now.contains(&AppId(1)));
        let folded: Vec<u32> = rec.install_events.iter().map(|(app, _)| app.0).collect();
        assert_eq!(folded, [2, 3], "file 1's monitored install, then file 2's");
        assert!(store.record(OTHER).is_none());
    }

    proptest::proptest! {
        #[test]
        fn files_fold_once_each_in_file_order_whatever_arrives(
            arrivals in proptest::collection::vec(1u64..=12, 0..96),
        ) {
            // Any arrival sequence over twelve files — a window's frames
            // permuted, dropped and duplicated — against a bare core. File
            // `k` is one snapshot installing app `k` at its own timestamp,
            // so the record's install-event log is the fold sequence (and
            // a file folded ahead of file 1 would move `first_seen` past
            // file 1's install and drop it from the log).
            let files: Vec<Vec<u8>> = (0..=12u64)
                .map(|k| file_of(&[fast_with_install(100 + k, k as u32, 100 + k)]))
                .collect();
            let store = Arc::new(ShardedIngest::new(4));
            let core = ProtocolCore::new([P], Arc::clone(&store));
            let mut scratch = Vec::new();
            let sign_in = Message::SignIn { participant: P, install: I };
            core.handle(sign_in, &mut scratch);
            let mut next = 1u64;
            let mut replays = 0u64;
            for &k in &arrivals {
                let reply = core.handle(upload(k, &files[k as usize]), &mut scratch);
                let acked = matches!(reply, Some(Message::UploadAck { file_id, .. }) if file_id == k);
                let refused = matches!(reply, Some(Message::Error { code: 409, .. }));
                proptest::prop_assert!(if k > next { refused } else { acked }, "file {k} at {next}: {reply:?}");
                replays += u64::from(k < next);
                next += u64::from(k == next);
            }
            let folded: Vec<u64> = store
                .record(I)
                .map(|rec| rec.install_events.iter().map(|(app, _)| u64::from(app.0)).collect())
                .unwrap_or_default();
            proptest::prop_assert_eq!(folded, (1..next).collect::<Vec<u64>>());
            let stats = core.stats();
            proptest::prop_assert_eq!(
                (stats.files, stats.snapshots, stats.dup_files),
                (next - 1, next - 1, replays)
            );
        }
    }

    #[test]
    fn per_install_state_is_one_integer_however_many_files() {
        // 10⁵ files from one install: the core remembers the next id and
        // nothing else, and a replay of the very first file is still
        // recognized as one.
        const N: u64 = 100_000;
        let core = ProtocolCore::new([P], Arc::new(ShardedIngest::new(4)));
        let mut scratch = Vec::new();
        core.handle(
            Message::SignIn {
                participant: P,
                install: I,
            },
            &mut scratch,
        );
        let payload = file_of(&[Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_secs(7),
            foreground_app: None,
            screen_on: false,
            battery_pct: 50,
            install_events: vec![],
        })]);
        for file_id in 1..=N {
            let reply = core.handle(upload(file_id, &payload), &mut scratch);
            assert!(matches!(reply, Some(Message::UploadAck { file_id: f, .. }) if f == file_id));
        }
        core.handle(upload(1, &payload), &mut scratch);
        let stats = core.stats();
        assert_eq!((stats.files, stats.snapshots, stats.dup_files), (N, N, 1));
        let tables: Vec<(InstallId, u64)> = core
            .shards
            .iter()
            .flat_map(|shard| shard.lock().next_file.clone())
            .collect();
        assert_eq!(tables, [(I, N + 1)]);
    }

    #[test]
    fn replayed_upload_folds_streaming_state_exactly_once() {
        // Regression guard for the latent double-count hazard: a replayed
        // upload chunk walks the same server batch path as the original,
        // and every per-install counter *and* streaming aggregate must
        // fold once — never per delivery attempt.
        let mut s = server();
        s.handle(Message::SignIn {
            participant: P,
            install: I,
        });
        let mut raw = Vec::new();
        // t=0 creates the record (first_seen = 0), so installed_at = 5 is
        // a monitored install event; the t=60 snapshot uninstalls it.
        raw.extend_from_slice(&SnapshotCollector::serialize(&fast_with_install(0, 7, 5)));
        raw.extend_from_slice(&SnapshotCollector::serialize(&Snapshot::Fast(
            FastSnapshot {
                install_id: I,
                participant_id: P,
                time: SimTime::from_secs(60),
                foreground_app: Some(AppId(7)),
                screen_on: true,
                battery_pct: 79,
                install_events: vec![InstallDelta::Uninstalled { app: AppId(7) }],
            },
        )));
        let payload = lzss::compress(&raw);
        let upload = Message::SnapshotUpload {
            install: I,
            file_id: 1,
            fast: true,
            payload,
        };
        s.handle(upload.clone()).unwrap();
        let once = s.record(I).unwrap();
        for _ in 0..3 {
            s.handle(upload.clone()).unwrap();
        }
        let rec = s.record(I).unwrap();
        assert_eq!(s.stats().snapshots, 2, "snapshots counted once");
        assert_eq!(s.stats().dup_files, 3);
        assert_eq!(rec.n_fast, once.n_fast);
        assert_eq!(rec.snapshots_per_day, once.snapshots_per_day);
        assert_eq!(rec.install_events, once.install_events);
        assert_eq!(rec.uninstall_events, once.uninstall_events);
        let app = rec.stream.app(AppId(7)).unwrap();
        assert_eq!(app.n_installs, 1, "install folded once");
        assert_eq!(app.n_uninstalls, 1, "uninstall folded once");
        assert_eq!(app.last_uninstall, Some(SimTime::from_secs(60)));
        assert_eq!(app.fg_total, 2, "one foreground fold per snapshot");
        assert_eq!(rec.stream.n_install_events, 1);
        assert_eq!(rec.stream.n_uninstall_events, 1);
    }

    #[test]
    fn record_accepts_any_wire_timestamp() {
        // `time` is a client-supplied u64. A signed-in client that sends
        // the largest one is acked like any other, and the record it
        // leaves must not take the analysis down: the half-open end of
        // its interval saturates instead of overflowing.
        let mut s = server();
        s.handle(Message::SignIn {
            participant: P,
            install: I,
        });
        let payload = file_of(&[
            fast_with_install(100, 7, 50),
            fast_with_install(u64::MAX, 8, u64::MAX),
        ]);
        assert_eq!(
            s.handle(upload(1, &payload)),
            Some(Message::UploadAck {
                file_id: 1,
                sha256: sha256(&payload),
            })
        );
        let rec = s.record(I).unwrap();
        assert_eq!(rec.last_seen, SimTime::from_secs(u64::MAX));
        let interval = rec.observed_interval();
        assert_eq!(interval.start, SimTime::from_secs(100));
        assert_eq!(interval.end, SimTime::from_secs(u64::MAX));
        let devices = crate::fingerprint::coalesce_installs(vec![
            crate::fingerprint::CandidateInstall::from_record(&rec),
        ]);
        assert_eq!(devices.len(), 1);
    }

    #[test]
    fn stream_state_mirrors_batch_event_vectors() {
        // The stream aggregate is folded at the same program points as the
        // batch-visible vectors, so counts must agree by construction.
        let mut s = server();
        s.ingest_snapshot(&fast_with_install(0, 1, 0));
        s.ingest_snapshot(&fast_with_install(86_400, 2, 86_400));
        s.ingest_snapshot(&Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_secs(90_000),
            foreground_app: None,
            screen_on: false,
            battery_pct: 50,
            install_events: vec![InstallDelta::Uninstalled { app: AppId(1) }],
        }));
        let rec = s.record(I).unwrap();
        assert_eq!(
            rec.stream.n_install_events as usize,
            rec.install_events.len()
        );
        assert_eq!(
            rec.stream.n_uninstall_events as usize,
            rec.uninstall_events.len()
        );
        for (app, stream) in rec.stream.apps() {
            let batch_installs = rec.install_events.iter().filter(|(a, _)| a == app).count();
            let batch_uninstalls = rec
                .uninstall_events
                .iter()
                .filter(|(a, _)| a == app)
                .count();
            let batch_fg: u64 = rec
                .foreground
                .get(app)
                .map(|days| days.values().sum())
                .unwrap_or(0);
            assert_eq!(stream.n_installs as usize, batch_installs);
            assert_eq!(stream.n_uninstalls as usize, batch_uninstalls);
            assert_eq!(stream.fg_total, batch_fg);
            assert_eq!(
                stream.last_uninstall,
                rec.uninstall_events
                    .iter()
                    .filter(|(a, _)| a == app)
                    .map(|&(_, t)| t)
                    .max()
            );
        }
    }

    #[test]
    fn record_aggregates_days_and_foreground() {
        let mut s = server();
        s.ingest_snapshot(&fast_with_install(0, 1, 0));
        s.ingest_snapshot(&fast_with_install(5, 1, 0));
        s.ingest_snapshot(&fast_with_install(86_400 + 5, 1, 0));
        let rec = s.record(I).unwrap();
        assert_eq!(rec.active_days(), 2);
        assert_eq!(rec.avg_snapshots_per_day(), 1.5);
        let fg: u64 = rec.foreground[&AppId(1)].values().sum();
        assert_eq!(fg, 3);
    }

    #[test]
    fn uninstall_event_tracked() {
        let mut s = server();
        s.ingest_snapshot(&fast_with_install(10, 1, 5));
        s.ingest_snapshot(&Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_secs(20),
            foreground_app: None,
            screen_on: false,
            battery_pct: 80,
            install_events: vec![InstallDelta::Uninstalled { app: AppId(1) }],
        }));
        let rec = s.record(I).unwrap();
        assert_eq!(rec.uninstall_events.len(), 1);
        assert!(!rec.installed_now.contains(&AppId(1)));
        assert!(
            rec.apps.contains_key(&AppId(1)),
            "metadata retained after uninstall"
        );
    }

    #[test]
    fn slow_snapshot_updates_accounts_and_android_id() {
        let mut s = server();
        s.ingest_snapshot(&Snapshot::Slow(SlowSnapshot {
            install_id: I,
            participant_id: P,
            android_id: Some(AndroidId(77)),
            time: SimTime::from_secs(10),
            accounts: vec![RegisteredAccount::gmail(
                racket_types::AccountId(1),
                racket_types::GoogleId(1),
            )],
            save_mode: false,
            stopped_apps: vec![AppId(3)],
            review_events: vec![],
        }));
        let rec = s.record(I).unwrap();
        assert_eq!(rec.android_id, Some(AndroidId(77)));
        assert_eq!(rec.accounts.len(), 1);
        assert_eq!(rec.stopped_apps, vec![AppId(3)]);
        assert_eq!(rec.n_slow, 1);
    }

    #[test]
    fn slow_snapshot_reviews_fold_into_record_and_text_sketch() {
        let review = ReviewEvent {
            app: AppId(4),
            reviewer: racket_types::GoogleId(9),
            time: SimTime::from_secs(8),
            rating: racket_types::Rating::FIVE,
            text: "great app works perfectly".to_string(),
        };
        let slow = Snapshot::Slow(SlowSnapshot {
            install_id: I,
            participant_id: P,
            android_id: None,
            time: SimTime::from_secs(10),
            accounts: vec![],
            save_mode: false,
            stopped_apps: vec![],
            review_events: vec![review.clone()],
        });
        let mut s = server();
        s.ingest_snapshot(&slow);
        let rec = s.record(I).unwrap();
        assert_eq!(rec.review_events, vec![review]);
        assert_eq!(rec.stream.text().n_reviews(), 1);
        let row = rec.stream.text().rows().next().unwrap();
        assert_eq!(row.app, 4);
        assert_eq!(row.rating, 5);

        // The replay path (idempotent file dedup) never re-folds text —
        // same mechanism as the campaign sketch, exercised via upload.
        let mut s = server();
        s.handle(Message::SignIn {
            participant: P,
            install: I,
        });
        let mut raw = Vec::new();
        raw.extend_from_slice(&SnapshotCollector::serialize(&slow));
        let payload = lzss::compress(&raw);
        let upload = Message::SnapshotUpload {
            install: I,
            file_id: 1,
            fast: true,
            payload,
        };
        s.handle(upload.clone()).unwrap();
        let once = s.record(I).unwrap();
        s.handle(upload).unwrap();
        let rec = s.record(I).unwrap();
        assert_eq!(rec.review_events, once.review_events);
        assert_eq!(rec.stream.text(), once.stream.text());
    }

    #[test]
    fn preexisting_apps_not_counted_as_install_events() {
        let mut s = server();
        // Monitoring starts at t = 100; the app was installed at t = 50.
        s.ingest_snapshot(&fast_with_install(100, 1, 50));
        let rec = s.record(I).unwrap();
        assert!(
            rec.install_events.is_empty(),
            "old install is baseline, not event"
        );
        // An app installed during monitoring is an event.
        s.ingest_snapshot(&fast_with_install(200, 2, 150));
        assert_eq!(s.record(I).unwrap().install_events.len(), 1);
    }
}
