//! Client-side retry/backoff state machine for the upload protocol.
//!
//! §3's transfer loop keeps a rotated snapshot file queued until the
//! server acknowledges it with a matching content hash. This module
//! supplies the part the paper leaves implicit: *how* the client survives
//! a flaky link. [`WireLane`] drives one device's protocol session over an
//! in-memory loopback transport (optionally behind a seeded
//! [`FaultPlan`]), retrying every exchange with bounded exponential
//! backoff and jittered, RNG-seeded delays, and reconnecting (purge +
//! fresh sequence-checked codecs) after a connection reset or a poisoned
//! frame stream.
//!
//! Recovery is safe because the protocol is idempotent end to end:
//!
//! * every *transmission* carries a fresh frame sequence number, so the
//!   receiver's strict codec discards duplicated or reordered stale
//!   copies at the frame layer;
//! * the server deduplicates replayed upload files by `(install,
//!   file_id)` and re-acknowledges without re-ingesting, so an upload
//!   whose ack was lost can be retried without double-counting a single
//!   snapshot;
//! * sign-in is idempotent and survives reconnects server-side, so a
//!   resumed session just replays its unacknowledged files.
//!
//! Everything is deterministic given the seed: backoff jitter and fault
//! decisions come from SplitMix64 streams, and no wall-clock time is
//! involved (delays are accounted, not slept — the study driver is a
//! simulation). The full state machine is specified in `PROTOCOL.md`.
//!
//! # Backends
//!
//! A lane runs over one of two backends (`LaneBackend`, chosen at
//! construction):
//!
//! * **Loopback** ([`WireLane::new`]) — the lane owns both transport
//!   endpoints and the server half of the connection (a `Session` over
//!   the shared [`ProtocolCore`]), which it steps inline after every
//!   send: a one-connection worker without a thread. Fully deterministic;
//!   the synchronous study path.
//! * **Async** ([`WireLane::new_async`]) — the lane owns only the client
//!   half of an [`AsyncConn`] from
//!   [`crate::async_server::AsyncCollectServer::connect`]; replies are
//!   awaited with escalating deadlines and the server side runs on the
//!   async plane's reactor workers. Same state machine, same wire
//!   semantics; reconnect becomes the explicit cross-thread handshake
//!   ([`AsyncConn::request_reset`]).

use crate::async_server::AsyncConn;
use crate::buffer::{DataBuffer, StageTimers};
use crate::server::ProtocolCore;
use crate::session::{Session, QUEUE_LIMIT};
use crate::transport::{splitmix64, FaultPlan, MemTransport, Transport};
use crate::wire::{self, FrameCodec, Message};
use racket_types::{FaultCounters, InstallId, ParticipantId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Salt separating the server endpoint's fault RNG stream from the
/// client's, so the two directions of one lane fail independently. Shared
/// with the async plane's `connect`, which installs the same two streams
/// on the two ends of a connection.
pub(crate) const SERVER_FAULT_SALT: u64 = 0x9E6C_63D0_3F15_2A85;
/// Salt separating backoff jitter from fault sampling.
const JITTER_SALT: u64 = 0x4CF5_AD43_2745_937F;

/// Async backend: reply deadline for the first attempt of an exchange, in
/// milliseconds. Doubles per retry up to [`ASYNC_REPLY_CAP_MS`] — slow
/// (but alive) workers get more slack before the client retransmits.
const ASYNC_REPLY_BASE_MS: u64 = 4;
/// Async backend: ceiling on any single reply deadline, in milliseconds.
const ASYNC_REPLY_CAP_MS: u64 = 64;

/// Transmissions attempted per exchange before giving up.
const MAX_ATTEMPTS: u32 = 16;
/// Delay before the first retry, in milliseconds; doubles per retry.
const BASE_BACKOFF_MS: u64 = 40;
/// Ceiling on any single delay, in milliseconds.
const MAX_BACKOFF_MS: u64 = 5_000;
/// Jitter width as a fraction of the delay: the sampled delay is uniform
/// in `delay * [1 - JITTER/2, 1 + JITTER/2]`.
const JITTER: f64 = 0.5;
/// Timeout escalation: after this many consecutive attempts with no
/// matching reply, tear the connection down and resume fresh. This is
/// what recovers from a *silently* wedged stream — e.g. a corrupted
/// length field leaves the peer's decoder waiting for bytes that never
/// come, which produces timeouts but no decode error.
const RECONNECT_AFTER: u32 = 4;

/// Counters describing one lane's retry behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transmissions attempted (first tries and retries combined).
    pub attempts: u64,
    /// Retransmissions after a timeout, decode error or reset.
    pub retries: u64,
    /// Reconnect-and-resume cycles.
    pub reconnects: u64,
    /// Simulated backoff accumulated across retries, in milliseconds.
    pub backoff_ms: u64,
    /// Exchanges abandoned after exhausting the attempt budget.
    pub exhausted: u64,
    /// Acks whose hash did not match the local file (kept for retry).
    pub hash_mismatches: u64,
    /// Upload files acknowledged and deleted.
    pub files_acked: u64,
    /// Duplicate/stale frames discarded by this lane's strict codecs.
    pub stale_frames: u64,
}

impl RetryStats {
    /// Add this lane's counts to the canonical `wire.*` counters of a
    /// registry (see [`racket_types::metrics::keys`]). Lane aggregation
    /// is a plain counter add, so the totals are independent of lane
    /// retirement order.
    pub fn record_to(&self, registry: &racket_obs::Registry) {
        use racket_types::metrics::keys;
        registry.add(keys::UPLOAD_ATTEMPTS, self.attempts);
        registry.add(keys::UPLOAD_RETRIES, self.retries);
        registry.add(keys::RECONNECTS, self.reconnects);
        registry.add(keys::BACKOFF_MS, self.backoff_ms);
        registry.add(keys::EXCHANGES_EXHAUSTED, self.exhausted);
        registry.add(keys::STALE_FRAMES, self.stale_frames);
    }
}

/// Which kind of link a [`WireLane`] runs over.
///
/// Private enum, public concept: the lane's observable protocol behaviour
/// (sequence discipline, retry/backoff, idempotent recovery) is identical
/// across backends; only the mechanics of moving bytes and reconnecting
/// differ. The equivalence is enforced end-to-end by
/// `tests/async_equivalence.rs`.
enum LaneBackend {
    /// The lane owns both endpoints of an in-memory pair and the server
    /// half of the connection, stepped inline (the deterministic,
    /// thread-free study path).
    Loopback {
        client: MemTransport,
        server_end: MemTransport,
        /// Boxed so an async lane does not carry a loopback lane's size.
        session: Box<Session>,
        core: Arc<ProtocolCore>,
        /// Pooled inflate scratch (what a reactor worker owns on the
        /// async path).
        scratch: Vec<u8>,
    },
    /// The lane owns the client half of an async-plane connection; the
    /// server half lives on a reactor worker thread.
    Async { conn: AsyncConn },
}

/// One device's protocol session over a fault-injected link.
///
/// With the loopback backend the lane owns both transport endpoints — the
/// study driver is an in-process simulation, so the lane itself steps the
/// server half of the pipe against the shared [`ProtocolCore`]; replies
/// travel back through the same fault layer. Both directions get
/// independent seeded fault streams derived from the lane seed. With the
/// async backend the async plane's workers own the server half and
/// replies are awaited with escalating deadlines.
pub struct WireLane {
    backend: LaneBackend,
    client_codec: FrameCodec,
    client_seq: u32,
    install: InstallId,
    participant: ParticipantId,
    /// SplitMix64 state for backoff jitter.
    jitter_rng: u64,
    stats: RetryStats,
    /// Pooled frame buffer: every transmission (first tries and
    /// retransmissions alike) encodes into this one allocation.
    frame_buf: Vec<u8>,
    /// Delivery sub-stage shards this lane owns: `hash` (ack
    /// verification) and `frame` (wire encoding). The buffer's own
    /// [`StageTimers`] covers serialize + compress.
    pub timers: StageTimers,
}

impl WireLane {
    /// Create a connected lane whose server half answers from `core`.
    /// `plan` is installed on both directions with independent RNG
    /// streams derived from `seed`; pass [`FaultPlan::none`] for a clean
    /// link.
    pub fn new(
        install: InstallId,
        participant: ParticipantId,
        plan: FaultPlan,
        seed: u64,
        core: Arc<ProtocolCore>,
    ) -> Self {
        let (mut client, mut server_end) = MemTransport::pair();
        client.inject_faults(plan, seed);
        server_end.inject_faults(plan, seed ^ SERVER_FAULT_SALT);
        let backend = LaneBackend::Loopback {
            client,
            server_end,
            session: Box::new(Session::strict(QUEUE_LIMIT)),
            core,
            scratch: Vec::new(),
        };
        Self::over(backend, install, participant, seed)
    }

    /// Create a lane over an async-plane connection (from
    /// [`crate::async_server::AsyncCollectServer::connect`], which
    /// installed the fault plan on both directions). `seed` drives only
    /// the backoff jitter here — pass the same lane seed used for
    /// `connect` so a chaos run stays on comparable streams.
    pub fn new_async(
        install: InstallId,
        participant: ParticipantId,
        seed: u64,
        conn: AsyncConn,
    ) -> Self {
        Self::over(LaneBackend::Async { conn }, install, participant, seed)
    }

    fn over(
        backend: LaneBackend,
        install: InstallId,
        participant: ParticipantId,
        seed: u64,
    ) -> Self {
        WireLane {
            backend,
            client_codec: FrameCodec::strict(),
            client_seq: 0,
            install,
            participant,
            jitter_rng: seed ^ JITTER_SALT,
            stats: RetryStats::default(),
            frame_buf: Vec::new(),
            timers: StageTimers::default(),
        }
    }

    /// The lane's retry counters, including the live codecs' stale-frame
    /// discards. (The async backend counts only client-side discards
    /// here; the server side's are folded in by the worker reports at
    /// plane shutdown.)
    pub fn stats(&self) -> RetryStats {
        let mut s = self.stats;
        s.stale_frames += self.client_codec.stale_discards();
        if let LaneBackend::Loopback { session, .. } = &self.backend {
            s.stale_frames += session.stale_discards();
        }
        s
    }

    /// Faults injected on this lane so far. Loopback lanes report both
    /// directions; async lanes report the client→server direction only
    /// (the server→client direction is tallied by the worker that owns
    /// the connection and recorded at plane shutdown).
    pub fn fault_stats(&self) -> FaultCounters {
        match &self.backend {
            LaneBackend::Loopback {
                client, server_end, ..
            } => {
                let mut f = client.fault_stats();
                f.merge(&server_end.fault_stats());
                f
            }
            LaneBackend::Async { conn } => conn.fault_stats(),
        }
    }

    /// Sign in (with retries). Returns the server's verdict, or `None` if
    /// the exchange exhausted its retry budget.
    pub fn sign_in(&mut self) -> Option<bool> {
        let msg = Message::SignIn {
            participant: self.participant,
            install: self.install,
        };
        let encode = |seq: u32, out: &mut Vec<u8>| msg.encode_seq_into(seq, out);
        match self.request(encode, |m| matches!(m, Message::SignInAck { .. }))? {
            Message::SignInAck { accepted } => Some(accepted),
            _ => unreachable!("matcher admits only SignInAck"),
        }
    }

    /// Upload every pending file in the buffer, retrying each until the
    /// server's hash acknowledgement matches and the buffer deletes it.
    /// Returns compressed bytes transmitted, retransmissions included.
    /// Files whose retry budget is exhausted stay queued — a later call
    /// (next delivery tick or the final flush) resumes them.
    pub fn upload_pending(&mut self, buffer: &mut DataBuffer) -> u64 {
        let mut bytes = 0u64;
        // Ids only — payloads stay in the buffer's queue and are borrowed
        // in place per transmission, never cloned into an owned message.
        let ids: Vec<u64> = buffer.pending().map(|f| f.file_id).collect();
        for file_id in ids {
            let len = buffer.file(file_id).map_or(0, |f| f.data.len() as u64);
            let before = self.stats.attempts;
            let acked = self.upload_file(file_id, buffer);
            bytes += len * (self.stats.attempts - before);
            if acked {
                self.stats.files_acked += 1;
            }
        }
        bytes
    }

    /// Upload one file until acknowledged with a matching hash.
    fn upload_file(&mut self, file_id: u64, buffer: &mut DataBuffer) -> bool {
        let install = self.install;
        // Outer loop: hash-mismatch rounds (an ack that fails the content
        // comparison keeps the file queued; §3's retransmission rule).
        for _ in 0..MAX_ATTEMPTS {
            let Some(file) = buffer.file(file_id) else {
                return false; // already acknowledged (stale ack raced us)
            };
            let (fast, payload) = (file.fast, file.data.as_slice());
            let encode = |seq: u32, out: &mut Vec<u8>| {
                wire::encode_upload_into(seq, install, file_id, fast, payload, out);
            };
            let want =
                |m: &Message| matches!(m, Message::UploadAck { file_id: id, .. } if *id == file_id);
            let Some(Message::UploadAck {
                file_id: acked_id,
                sha256,
            }) = self.request(encode, want)
            else {
                return false; // budget exhausted
            };
            let start = Instant::now();
            let acked = buffer.acknowledge(acked_id, sha256);
            self.timers.hash.record(start.elapsed().as_nanos() as u64);
            if acked {
                return true;
            }
            self.stats.hash_mismatches += 1;
        }
        self.stats.exhausted += 1;
        false
    }

    /// One request/response exchange with retry, backoff and
    /// reconnect-on-error. `encode` writes the frame for a given sequence
    /// number into the lane's pooled buffer (callers hand it a closure so
    /// upload payloads can be borrowed straight out of the data buffer).
    /// Replies not admitted by `matcher` (stale acks from earlier
    /// exchanges, errors) are discarded.
    fn request(
        &mut self,
        encode: impl Fn(u32, &mut Vec<u8>),
        matcher: impl Fn(&Message) -> bool,
    ) -> Option<Message> {
        for attempt in 1..=MAX_ATTEMPTS {
            self.stats.attempts += 1;
            if attempt > 1 {
                self.stats.retries += 1;
                self.stats.backoff_ms += self.backoff_delay_ms(attempt - 1);
            }
            // Every transmission takes a fresh sequence number — receivers
            // discard stale copies, and the application layer (file_id
            // dedup) absorbs replays.
            let seq = self.client_seq;
            self.client_seq += 1;
            let start = Instant::now();
            encode(seq, &mut self.frame_buf);
            self.timers.frame.record(start.elapsed().as_nanos() as u64);
            let sent = match &mut self.backend {
                LaneBackend::Loopback { client, .. } => client.send(&self.frame_buf),
                LaneBackend::Async { conn } => conn.send(&self.frame_buf),
            };
            if sent.is_err() {
                self.reconnect();
                continue;
            }
            match self.exchange_replies(attempt) {
                Err(()) => {
                    self.reconnect();
                    continue;
                }
                Ok(replies) => {
                    if let Some(hit) = replies.into_iter().find(|r| matcher(r)) {
                        return Some(hit);
                    }
                    // No reply within the deadline: loss or stall — retry.
                }
            }
            // Timeout escalation: repeated silent attempts suggest a
            // wedged stream (e.g. a corrupted length field has the peer's
            // decoder waiting forever) — reconnect rather than feed it.
            if attempt % RECONNECT_AFTER == 0 {
                self.reconnect();
            }
        }
        self.stats.exhausted += 1;
        None
    }

    /// Move the exchange forward after a send: on loopback, step the
    /// server half and drain its replies; on async, await replies up to a
    /// per-attempt escalating deadline. Returns the decoded replies
    /// (possibly none — loss or stall); `Err` means a poisoned frame
    /// stream or a reset link (the caller reconnects).
    fn exchange_replies(&mut self, attempt: u32) -> Result<Vec<Message>, ()> {
        let WireLane {
            backend,
            client_codec,
            ..
        } = self;
        let mut buf = [0u8; 4096];
        let mut msgs = Vec::new();
        match backend {
            LaneBackend::Loopback {
                client,
                server_end,
                session,
                core,
                scratch,
            } => {
                // One service round of the server half over whatever the
                // fault layer let through; its replies go back through
                // the fault layer too.
                while let Ok(n @ 1..) = server_end.try_recv(&mut buf) {
                    session.feed(&buf[..n]);
                }
                let mut reply_sent = Ok(());
                let served = session.service(core, scratch, usize::MAX, |frame| {
                    if reply_sent.is_ok() {
                        reply_sent = server_end.send(frame);
                    }
                });
                // A poisoned stream is recovered from this end: the
                // client reconnects, which retires both sequence spaces.
                if served.poisoned || reply_sent.is_err() {
                    return Err(());
                }
                // Drain everything waiting on the client side.
                while let Ok(n @ 1..) = client.try_recv(&mut buf) {
                    client_codec.feed(&buf[..n]);
                }
                decode_all(client_codec, &mut msgs)?;
                Ok(msgs)
            }
            LaneBackend::Async { conn } => {
                // Await replies from the worker thread. The deadline
                // escalates with the attempt number so a slow-but-alive
                // server eventually gets enough slack; a reply batch
                // returns as soon as anything decodes (the matcher
                // decides whether it settles the exchange).
                let wait_ms = ASYNC_REPLY_BASE_MS
                    .saturating_mul(1u64 << attempt.saturating_sub(1).min(10))
                    .min(ASYNC_REPLY_CAP_MS);
                let deadline = Instant::now() + Duration::from_millis(wait_ms);
                loop {
                    decode_all(client_codec, &mut msgs)?;
                    if !msgs.is_empty() {
                        return Ok(msgs);
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(msgs); // timed out: loss or stall
                    }
                    match conn.recv_deadline(&mut buf, deadline - now) {
                        Ok(0) => return Err(()), // server closed the pipe
                        Ok(n) => client_codec.feed(&buf[..n]),
                        Err(_) => {} // deadline re-checked above
                    }
                }
            }
        }
    }

    /// Simulated reconnect: discard everything in flight, restart both
    /// codecs (fresh per-connection sequence spaces) and resume. The
    /// server keeps the install's sign-in session, so resuming is just
    /// replaying unacknowledged files. On the async backend this runs the
    /// cross-thread handshake ([`AsyncConn::request_reset`]) so the
    /// worker retires its half of the sequence space in step.
    fn reconnect(&mut self) {
        self.stats.reconnects += 1;
        match &mut self.backend {
            LaneBackend::Loopback {
                client,
                server_end,
                session,
                ..
            } => {
                client.purge();
                server_end.purge();
                session.reset();
            }
            LaneBackend::Async { conn } => conn.request_reset(),
        }
        self.client_codec.reset();
        self.client_seq = 0;
    }

    /// Jittered exponential delay for the n-th retry (1-based), in
    /// milliseconds. Never slept — the study is a simulation — but
    /// accounted, so chaos runs report how long a real deployment would
    /// have waited.
    fn backoff_delay_ms(&mut self, nth_retry: u32) -> u64 {
        let exp = nth_retry.saturating_sub(1).min(20);
        let raw = BASE_BACKOFF_MS
            .saturating_mul(1u64 << exp)
            .min(MAX_BACKOFF_MS);
        let u = (splitmix64(&mut self.jitter_rng) >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - JITTER / 2.0 + JITTER * u;
        ((raw as f64 * factor).round() as u64).max(1)
    }
}

/// Decode every complete reply buffered in `codec` onto `msgs`; `Err` is
/// a poisoned stream.
fn decode_all(codec: &mut FrameCodec, msgs: &mut Vec<Message>) -> Result<(), ()> {
    while let Some(msg) = codec.try_decode_message().map_err(drop)? {
        msgs.push(msg);
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::collector::{CollectorConfig, SnapshotCollector};
    use crate::shard::ShardedIngest;
    use racket_device::{Device, DeviceModel};
    use racket_types::{AndroidId, ApkHash, AppId, DeviceId, PermissionProfile, SimTime};

    const P: ParticipantId = ParticipantId(123_456);
    const I: InstallId = InstallId(1_000_000_000);

    /// A buffer with ~20 simulated minutes of snapshots rotated into
    /// upload files.
    fn loaded_buffer() -> (DataBuffer, u64) {
        let mut device = Device::new(DeviceId(1), DeviceModel::generic(), AndroidId(1));
        for app in 0..4u32 {
            device.install_app(
                AppId(app),
                SimTime::from_secs(u64::from(app)),
                PermissionProfile::default(),
                ApkHash([app as u8; 16]),
            );
        }
        let mut collector = SnapshotCollector::new(CollectorConfig::default(), I, P);
        let mut buffer = DataBuffer::new();
        let mut n_snapshots = 0u64;
        for minute in 0..20 {
            for snap in collector.poll(&device, SimTime::from_mins(minute)) {
                buffer.push(&snap);
                n_snapshots += 1;
            }
            // Force-rotate every minute so the fixture yields many small
            // upload files — more protocol exchanges for faults to hit.
            buffer.flush();
        }
        (buffer, n_snapshots)
    }

    /// A loopback lane and the core + store its server half answers from.
    fn loopback(plan: FaultPlan, seed: u64) -> (WireLane, Arc<ProtocolCore>, Arc<ShardedIngest>) {
        let store = Arc::new(ShardedIngest::new(4));
        let core = Arc::new(ProtocolCore::new([P], Arc::clone(&store)));
        let lane = WireLane::new(I, P, plan, seed, Arc::clone(&core));
        (lane, core, store)
    }

    /// Play raw client frames, one send and one server step each, through
    /// a loopback lane's own transports; returns the replies in arrival
    /// order (`session::tests::drivers_agree`).
    pub(crate) fn play_loopback(core: Arc<ProtocolCore>, script: &[Vec<u8>]) -> Vec<Message> {
        let mut lane = WireLane::new(I, P, FaultPlan::none(), 1, core);
        let mut replies = Vec::new();
        for frame in script {
            let LaneBackend::Loopback { client, .. } = &mut lane.backend else {
                unreachable!("WireLane::new builds a loopback lane")
            };
            client.send(frame).unwrap();
            replies.extend(lane.exchange_replies(1).expect("clean link"));
        }
        replies
    }

    #[test]
    fn clean_lane_uploads_without_retries() {
        let (mut lane, server, _store) = loopback(FaultPlan::none(), 1);
        assert_eq!(lane.sign_in(), Some(true));
        let (mut buffer, n_snapshots) = loaded_buffer();
        let n_files = buffer.pending_count() as u64;
        let bytes = lane.upload_pending(&mut buffer);
        assert_eq!(buffer.pending_count(), 0);
        assert!(bytes > 0);
        let s = lane.stats();
        assert_eq!(s.retries, 0);
        assert_eq!(s.reconnects, 0);
        assert_eq!(s.stale_frames, 0);
        assert_eq!(s.files_acked, n_files);
        assert_eq!(lane.fault_stats().total(), 0);
        assert_eq!(server.stats().snapshots, n_snapshots);
        assert_eq!(server.stats().dup_files, 0);
    }

    #[test]
    fn hostile_lane_delivers_every_snapshot_exactly_once() {
        let (mut lane, server, store) = loopback(FaultPlan::hostile(), 2021);
        assert_eq!(lane.sign_in(), Some(true));
        let (mut buffer, n_snapshots) = loaded_buffer();
        let n_files = buffer.pending_count() as u64;
        // Keep calling until drained (exhausted files resume, like the
        // study's delivery ticks + final flush).
        for _ in 0..10 {
            lane.upload_pending(&mut buffer);
            if buffer.pending_count() == 0 {
                break;
            }
        }
        assert_eq!(buffer.pending_count(), 0, "all files eventually acked");
        let s = lane.stats();
        assert!(s.retries > 0, "hostile link must force retries");
        assert!(lane.fault_stats().total() > 0);
        assert_eq!(s.files_acked, n_files);
        // The recovery guarantee: exactly-once ingestion despite replays.
        assert_eq!(server.stats().snapshots, n_snapshots);
        assert_eq!(server.stats().files, n_files);
        let rec = store.record(I).expect("record");
        assert_eq!(rec.n_fast + rec.n_slow, n_snapshots);
    }

    #[test]
    fn lost_acks_force_server_side_dedup() {
        // Faults on the ack direction only would be ideal; with the plan
        // on both directions and a fixed seed, drops still hit acks and
        // the server must re-ack replayed files without re-ingesting.
        let (mut lane, server, _store) = loopback(FaultPlan::drops(), 7);
        assert_eq!(lane.sign_in(), Some(true));
        let (mut buffer, n_snapshots) = loaded_buffer();
        for _ in 0..10 {
            lane.upload_pending(&mut buffer);
            if buffer.pending_count() == 0 {
                break;
            }
        }
        assert_eq!(buffer.pending_count(), 0);
        assert_eq!(
            server.stats().snapshots,
            n_snapshots,
            "dedup prevents double counting"
        );
        assert!(
            server.stats().dup_files > 0,
            "seed 7 drops at least one ack, forcing a replay"
        );
    }

    fn start_async(
        plan: FaultPlan,
        seed: u64,
    ) -> (
        crate::async_server::AsyncCollectServer,
        Arc<ShardedIngest>,
        WireLane,
    ) {
        use crate::async_server::{AsyncCollectServer, AsyncServerConfig};
        let sharded = Arc::new(ShardedIngest::new(4));
        let srv = AsyncCollectServer::start(
            [P],
            Arc::clone(&sharded),
            AsyncServerConfig {
                workers: 1,
                ..AsyncServerConfig::default()
            },
        );
        let conn = srv.connect(plan, seed);
        let lane = WireLane::new_async(I, P, seed, conn);
        (srv, sharded, lane)
    }

    #[test]
    fn clean_async_lane_delivers_through_the_worker() {
        let (srv, sharded, mut lane) = start_async(FaultPlan::none(), 11);
        assert_eq!(lane.sign_in(), Some(true));
        let (mut buffer, n_snapshots) = loaded_buffer();
        let n_files = buffer.pending_count() as u64;
        for _ in 0..10 {
            lane.upload_pending(&mut buffer);
            if buffer.pending_count() == 0 {
                break;
            }
        }
        assert_eq!(buffer.pending_count(), 0, "all files acked");
        assert_eq!(lane.stats().files_acked, n_files);
        let registry = racket_obs::Registry::new();
        let stats = srv.shutdown(&registry);
        assert_eq!(stats.sign_ins, 1);
        assert_eq!(stats.files, n_files);
        assert_eq!(sharded.snapshots_ingested(), n_snapshots);
    }

    #[test]
    fn hostile_async_lane_delivers_every_snapshot_exactly_once() {
        let (srv, sharded, mut lane) = start_async(FaultPlan::hostile(), 2021);
        assert_eq!(lane.sign_in(), Some(true));
        let (mut buffer, n_snapshots) = loaded_buffer();
        let n_files = buffer.pending_count() as u64;
        for _ in 0..20 {
            lane.upload_pending(&mut buffer);
            if buffer.pending_count() == 0 {
                break;
            }
        }
        assert_eq!(buffer.pending_count(), 0, "all files eventually acked");
        assert!(lane.stats().retries > 0, "hostile link must force retries");
        assert!(lane.fault_stats().total() > 0);
        let registry = racket_obs::Registry::new();
        let stats = srv.shutdown(&registry);
        // The recovery guarantee holds across threads: exactly-once
        // ingestion despite replays, resets and reconnect handshakes.
        assert_eq!(stats.files, n_files);
        assert_eq!(sharded.snapshots_ingested(), n_snapshots);
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let (mut lane, ..) = loopback(FaultPlan::none(), 9);
        // The n-th retry waits BASE · 2^(n-1), capped, within the jitter
        // band around it.
        let mut band = |nth: u32, raw: u64| {
            let delay = lane.backoff_delay_ms(nth) as f64;
            let half = raw as f64 * JITTER / 2.0;
            assert!(
                (raw as f64 - half..=raw as f64 + half).contains(&delay),
                "retry {nth}: {delay} ms outside {raw} ± {half}"
            );
        };
        band(1, BASE_BACKOFF_MS);
        band(2, 2 * BASE_BACKOFF_MS);
        band(3, 4 * BASE_BACKOFF_MS);
        band(8, MAX_BACKOFF_MS);
        band(12, MAX_BACKOFF_MS);
        band(MAX_ATTEMPTS, MAX_BACKOFF_MS);
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        let delays = |seed: u64| {
            let (mut lane, ..) = loopback(FaultPlan::none(), seed);
            (1..8).map(|n| lane.backoff_delay_ms(n)).collect::<Vec<_>>()
        };
        assert_eq!(delays(5), delays(5));
        assert_ne!(delays(5), delays(6));
    }
}
