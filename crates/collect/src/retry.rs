//! Client-side window, retry and backoff state machine for the upload
//! protocol.
//!
//! §3's transfer loop keeps a rotated snapshot file queued until the
//! server acknowledges it with a matching content hash. This module
//! supplies the part the paper leaves implicit: *how* the client keeps the
//! link busy and survives a flaky one. [`WireLane`] drives one device's
//! protocol session over an in-memory transport (optionally behind a
//! seeded [`FaultPlan`]): a sliding window of up to `WINDOW` files sent
//! and not yet acknowledged, Go-Back-N recovery — any trouble with the
//! oldest unacknowledged file rewinds the window to it — with bounded
//! exponential backoff and jittered, RNG-seeded delays, and a reconnect
//! (a fresh pair with fresh sequence-checked codecs) after a connection
//! reset, a closed link or a poisoned frame stream.
//!
//! Recovery is safe because the protocol is idempotent end to end:
//!
//! * every *transmission* carries a fresh frame sequence number, so the
//!   receiver's strict codec discards duplicated or reordered stale
//!   copies at the frame layer;
//! * the server folds an install's files in file order, each once: a file
//!   ahead of its turn is refused until the client rewinds to the gap, a
//!   file behind it is re-acknowledged without re-ingesting, so a window
//!   can be resent from its oldest file without double-counting, or
//!   reordering, a single snapshot;
//! * sign-in is idempotent and survives reconnects server-side, so a
//!   resumed session just resends its unacknowledged files.
//!
//! The loopback backend is deterministic given the seed: backoff jitter
//! and fault decisions come from SplitMix64 streams, and no wall-clock
//! time is involved (delays are accounted, not slept — the study driver is
//! a simulation). The full state machine is specified in `PROTOCOL.md` §7.
//!
//! # Backends
//!
//! A lane always owns the client half of an in-memory connection, an
//! [`AsyncConn`]; what serves the other half is chosen at construction:
//!
//! * **Loopback** ([`WireLane::new`]) — the lane also owns the server
//!   half, the same `Connection` a reactor worker serves, and steps it
//!   inline against the shared [`ProtocolCore`] whenever it looks for
//!   replies: a one-connection worker without a thread or a clock. Fully
//!   deterministic; the synchronous study path.
//! * **Async** ([`WireLane::new_async`]) — the connection comes from
//!   [`crate::async_server::AsyncCollectServer::connect`] and its server
//!   half runs on one of the async plane's reactor workers; replies are
//!   awaited up to a deadline that follows the lane's observed ack
//!   latency.
//!
//! Same state machine, same wire semantics, same reconnect: a fresh pair
//! whose server end takes the old one's place at the server half's next
//! step.

use crate::async_server::{self, AsyncConn, Connection};
use crate::buffer::{DataBuffer, StageTimers};
use crate::server::{IngestScratch, ProtocolCore};
use crate::session::QUEUE_LIMIT;
use crate::transport::{unit_f64, FaultPlan};
use crate::wire::{self, FrameCodec, Message};
use racket_types::{FaultCounters, InstallId, ParticipantId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Salt separating backoff jitter from fault sampling.
const JITTER_SALT: u64 = 0x4CF5_AD43_2745_937F;

/// Upload files a lane keeps in flight, sent and not yet acknowledged.
/// Stop-and-wait is this constant at 1.
const WINDOW: usize = 16;
// A full window must fit a connection's admission queue, or the server
// would shed an honest lane.
const _: () = assert!(WINDOW <= QUEUE_LIMIT);

/// Async backend: the shortest reply deadline, in milliseconds. The
/// deadline follows the lane's observed ack latency (smoothed latency plus
/// four mean deviations) but never drops below this, so a worker thread
/// that loses the CPU for a scheduler slice is not taken for a lost frame.
const ASYNC_REPLY_FLOOR_MS: u64 = 16;
/// Async backend: ceiling on any single reply deadline, in milliseconds,
/// and the deadline before the first latency sample. Each retransmission
/// of a file doubles its deadline up to this — slow (but alive) workers
/// get more slack before the client retransmits.
const ASYNC_REPLY_CAP_MS: u64 = 64;

/// Transmissions attempted per exchange before giving up. Under the
/// hostile fault plan about half of a window head's sends fail, and a
/// budget of 16 ran out in about one small async study in a hundred; how
/// often 32 run out is not measured. Spending the budget costs at most 32
/// reply deadlines and about 125 s of accounted backoff (45 s at 16).
const MAX_ATTEMPTS: u32 = 32;
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
    /// Retransmissions after a timeout, refusal, decode error or reset.
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

/// A loopback lane's server half: the connection a reactor worker would
/// serve, stepped inline against `core` with the lane's own scratch.
struct Loopback {
    server: Connection,
    core: Arc<ProtocolCore>,
    scratch: IngestScratch,
}

/// What [`WireLane::next_reply`] found on the link.
enum Reply {
    /// A decoded reply, and whether the lane was parked on the link when
    /// its bytes came in (only then is its arrival time known).
    Msg(Message, bool),
    /// Nothing more arrives before the deadline.
    Quiet,
    /// A poisoned frame stream or a reset link: reconnect.
    Broken,
}

/// How a round of [`WireLane::settle_replies`] ended.
enum Step {
    /// The oldest unacknowledged file was acknowledged and deleted: the
    /// window slid forward by one file.
    Acked,
    /// Nothing has arrived and nothing is overdue; the window stays in
    /// flight.
    Idle,
    /// The oldest unacknowledged file, or its ack, did not make it: resend
    /// from that file.
    Rewind,
    /// Reconnect, then resend from the oldest unacknowledged file.
    Reconnect,
}

/// One device's protocol session over a fault-injected link.
///
/// With the loopback backend the lane owns both halves of the connection
/// — the study driver is an in-process simulation, so the lane itself
/// steps the server half against the shared [`ProtocolCore`]; replies
/// travel back through the same fault layer. Both directions get
/// independent seeded fault streams derived from the lane seed. With the
/// async backend the async plane's workers own the server half and
/// replies are awaited up to a deadline that follows the observed ack
/// latency.
pub struct WireLane {
    conn: AsyncConn,
    /// The server half, if this lane steps it (boxed so an async lane
    /// does not carry a loopback lane's size). Once it closes, and the
    /// replies it wrote before are read, the link is [`Reply::Broken`]
    /// until the lane reconnects.
    loopback: Option<Box<Loopback>>,
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
    /// Most files in flight at once ([`WINDOW`]; tests narrow it).
    window: usize,
    /// How many files at the front of the buffer's queue are in flight.
    /// The server folds and acknowledges an install's files in order, so
    /// the in-flight set is always that prefix and needs no list.
    in_flight: usize,
    /// Transmissions of the oldest unacknowledged file so far.
    head_sends: u32,
    /// When the oldest unacknowledged file was last sent or, if later,
    /// became the oldest: the instant its reply deadline runs from.
    head_since: Instant,
    /// Highest file id transmitted so far; a send at or below it is a
    /// retransmission.
    sent_through: u64,
    /// Smoothed ack latency and its mean deviation (async backend; `None`
    /// before the first sample).
    ack_latency: Option<(Duration, Duration)>,
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
        let (conn, server) = async_server::open(plan, seed, QUEUE_LIMIT);
        let loopback = Loopback {
            server,
            core,
            scratch: IngestScratch::new(),
        };
        Self::over(conn, Some(Box::new(loopback)), install, participant, seed)
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
        Self::over(conn, None, install, participant, seed)
    }

    fn over(
        conn: AsyncConn,
        loopback: Option<Box<Loopback>>,
        install: InstallId,
        participant: ParticipantId,
        seed: u64,
    ) -> Self {
        WireLane {
            conn,
            loopback,
            client_codec: FrameCodec::strict(),
            client_seq: 0,
            install,
            participant,
            jitter_rng: seed ^ JITTER_SALT,
            stats: RetryStats::default(),
            frame_buf: Vec::new(),
            window: WINDOW,
            in_flight: 0,
            head_sends: 0,
            head_since: Instant::now(),
            sent_through: 0,
            ack_latency: None,
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
        if let Some(loopback) = &self.loopback {
            s.stale_frames += loopback.server.stale_discards();
        }
        s
    }

    /// Faults injected on this lane so far. Loopback lanes report both
    /// directions; async lanes report the client→server direction only
    /// (the server→client direction is tallied by the worker that owns
    /// the connection and recorded at plane shutdown).
    pub fn fault_stats(&self) -> FaultCounters {
        let mut f = self.conn.fault_stats();
        if let Some(loopback) = &self.loopback {
            f.merge(&loopback.server.fault_stats());
        }
        f
    }

    /// Sign in (with retries). Returns the server's verdict, or `None` if
    /// the exchange exhausted its retry budget.
    pub fn sign_in(&mut self) -> Option<bool> {
        let msg = Message::SignIn {
            participant: self.participant,
            install: self.install,
        };
        for attempt in 1..=MAX_ATTEMPTS {
            if attempt > 1 {
                self.stats.retries += 1;
                self.stats.backoff_ms += self.backoff_delay_ms(attempt - 1);
            }
            let start = Instant::now();
            msg.encode_seq_into(self.client_seq, &mut self.frame_buf);
            self.timers.frame.record(start.elapsed().as_nanos() as u64);
            if self.transmit().is_err() {
                self.reconnect();
                continue;
            }
            let sent = Instant::now();
            let deadline = sent + self.reply_deadline(attempt);
            loop {
                match self.next_reply(Some(deadline)) {
                    Reply::Msg(Message::SignInAck { accepted }, awaited) => {
                        if awaited && attempt == 1 {
                            self.observe_ack_latency(sent.elapsed());
                        }
                        return Some(accepted);
                    }
                    // A reply to an earlier transmission; keep waiting.
                    Reply::Msg(..) => {}
                    Reply::Broken => {
                        self.reconnect();
                        break;
                    }
                    Reply::Quiet => {
                        if attempt.is_multiple_of(RECONNECT_AFTER) {
                            self.reconnect();
                        }
                        break;
                    }
                }
            }
        }
        self.stats.exhausted += 1;
        None
    }

    /// One delivery tick of the sliding window (Go-Back-N): settle whatever
    /// acks have arrived, send queued files from the front of `buffer`
    /// while fewer than the window are unacknowledged, and wait only when
    /// the window is full — or when `buffer` is flushed (nothing is
    /// accumulating, so no later tick is implied: the final flush), in
    /// which case the call returns once the queue is empty. A file leaves
    /// the buffer only on an ack whose hash matches the buffer's own
    /// (§3's transfer validation). Any trouble with the oldest
    /// unacknowledged file — silence past its deadline, a mismatching ack,
    /// a refusal, a poisoned stream, a reset — rewinds the window to that
    /// file and resends from there, with backoff accounted per rewind. A
    /// file whose `MAX_ATTEMPTS` run out stays queued with everything
    /// behind it; a later call resumes on a fresh budget.
    ///
    /// Returns compressed bytes transmitted, retransmissions included.
    pub fn upload_pending(&mut self, buffer: &mut DataBuffer) -> u64 {
        let drain = buffer.is_flushed();
        let mut bytes = 0u64;
        // Set by a queued file no frame can hold: nothing behind it can be
        // delivered in order, so the queue ends there for this call.
        let mut unsendable = false;
        loop {
            while self.in_flight < self.window && !unsendable {
                let Some(file) = buffer.pending().nth(self.in_flight) else {
                    break;
                };
                let start = Instant::now();
                let framed = wire::encode_upload_into(
                    self.client_seq,
                    self.install,
                    file.file_id,
                    file.fast,
                    &file.data,
                    &mut self.frame_buf,
                );
                self.timers.frame.record(start.elapsed().as_nanos() as u64);
                if framed.is_err() {
                    self.stats.exhausted += 1;
                    unsendable = true;
                    break;
                }
                if self.in_flight == 0 {
                    if self.head_sends == MAX_ATTEMPTS {
                        self.stats.exhausted += 1;
                        self.head_sends = 0;
                        return bytes;
                    }
                    self.head_sends += 1;
                    if self.head_sends > 1 {
                        self.stats.backoff_ms += self.backoff_delay_ms(self.head_sends - 1);
                    }
                    self.head_since = Instant::now();
                }
                if file.file_id > self.sent_through {
                    self.sent_through = file.file_id;
                } else {
                    self.stats.retries += 1;
                }
                bytes += file.data.len() as u64;
                if self.transmit().is_ok() {
                    self.in_flight += 1;
                } else {
                    // The link reset under this frame. That loses the
                    // frame and whatever the pipes still hold, not what
                    // already reached either end: settle the acks for
                    // what the server took before reconnecting. A worker
                    // may not have read the frames sent before this one
                    // yet, so wait for each ack until its deadline (a
                    // loopback lane has stepped its server by then).
                    while let Step::Acked = self.settle_replies(buffer, true) {}
                    self.reconnect();
                    self.in_flight = 0;
                }
            }
            if self.in_flight == 0 {
                return bytes;
            }
            let wait = drain || self.in_flight == self.window;
            match self.settle_replies(buffer, wait) {
                Step::Acked => {}
                Step::Idle => return bytes,
                Step::Rewind => self.in_flight = 0,
                Step::Reconnect => {
                    self.reconnect();
                    self.in_flight = 0;
                }
            }
        }
    }

    /// Read replies until one moves the window: the oldest file's ack, or
    /// a reason to resend it. With `wait` the lane parks on the link until
    /// that file's deadline; without, it takes only what has arrived.
    fn settle_replies(&mut self, buffer: &mut DataBuffer, wait: bool) -> Step {
        let mut deadline = self.head_since + self.reply_deadline(self.head_sends);
        loop {
            match self.next_reply(wait.then_some(deadline)) {
                Reply::Msg(msg, awaited) => {
                    let first_send = self.head_sends == 1;
                    match self.settle(msg, buffer) {
                        Some(Step::Acked) => {
                            let now = Instant::now();
                            // A retransmitted file's ack may answer either
                            // copy, and an ack found waiting arrived at an
                            // unknown time: neither is a latency sample.
                            if awaited && first_send {
                                self.observe_ack_latency(now - self.head_since);
                            }
                            self.head_since = now;
                            return Step::Acked;
                        }
                        Some(step) => return step,
                        None => {}
                    }
                }
                Reply::Broken => return Step::Reconnect,
                Reply::Quiet if self.in_flight == 0 || Instant::now() < deadline => {
                    return Step::Idle
                }
                // The worker has not taken what was sent off the pipe yet:
                // the silence is its backlog (or a stolen CPU), nothing was
                // lost, and resending would only deepen the backlog. The
                // deadline starts over.
                Reply::Quiet if self.conn.worker_is_behind() => {
                    self.head_since = Instant::now();
                    deadline = self.head_since + self.reply_deadline(self.head_sends);
                    if !wait {
                        return Step::Idle;
                    }
                }
                // Silence past the deadline: loss, stall, or — when it
                // repeats — a wedged stream (a corrupted length field has
                // the peer's decoder waiting forever): reconnect rather
                // than feed it.
                Reply::Quiet if self.head_sends.is_multiple_of(RECONNECT_AFTER) => {
                    return Step::Reconnect
                }
                Reply::Quiet => return Step::Rewind,
            }
        }
    }

    /// Apply one reply to the window (`None`: a reply to an exchange that
    /// is already over). Only the oldest unacknowledged file's own ack,
    /// verified against the buffer's hash of it, deletes anything.
    fn settle(&mut self, msg: Message, buffer: &mut DataBuffer) -> Option<Step> {
        let head = buffer.pending().next().map_or(0, |f| f.file_id);
        match msg {
            Message::UploadAck { file_id, sha256 } if file_id == head => {
                let start = Instant::now();
                let deleted = buffer.acknowledge(file_id, sha256);
                self.timers.hash.record(start.elapsed().as_nanos() as u64);
                if deleted {
                    self.stats.files_acked += 1;
                    // (Nothing is in flight when a reset took the oldest
                    // file's resend and an earlier copy's ack still came.)
                    self.in_flight = self.in_flight.saturating_sub(1);
                    self.head_sends = self.in_flight.min(1) as u32;
                    Some(Step::Acked)
                } else {
                    self.stats.hash_mismatches += 1;
                    Some(Step::Rewind)
                }
            }
            // A settled file acknowledged again (a replay's re-ack).
            Message::UploadAck { file_id, .. } if file_id < head => None,
            // A later file's ack (the oldest's own was lost) or an error
            // (409: a later file overtook a lost one; 429; 400). Replies
            // keep their order, so once the oldest file has been resent,
            // more of these are answers to the copies sent before the
            // rewind: acting on each would resend the window once per
            // stale reply. From there only its ack or its deadline counts.
            Message::UploadAck { .. } | Message::Error { .. } if self.head_sends == 1 => {
                Some(Step::Rewind)
            }
            _ => None,
        }
    }

    /// Send the frame in `frame_buf`, which was encoded under `client_seq`.
    /// Every transmission takes a fresh number — receivers discard stale
    /// copies, and the server's file order absorbs replays.
    fn transmit(&mut self) -> std::io::Result<()> {
        self.stats.attempts += 1;
        self.client_seq += 1;
        self.conn.send(&self.frame_buf)
    }

    /// The next reply on the link. On loopback: step the server half over
    /// whatever the fault layer let through (its replies come back through
    /// the fault layer too) — what that step does not bring never comes,
    /// so `deadline` is not consulted. On async: take what has arrived,
    /// else park until `deadline` (`None`: do not park).
    fn next_reply(&mut self, deadline: Option<Instant>) -> Reply {
        let WireLane {
            conn,
            loopback,
            client_codec,
            ..
        } = self;
        let mut buf = [0u8; 1024];
        let mut awaited = false;
        loop {
            match client_codec.try_decode_message() {
                Ok(Some(msg)) => return Reply::Msg(msg, awaited),
                Ok(None) => {}
                Err(_) => return Reply::Broken,
            }
            let closed = loopback
                .as_mut()
                .map(|lb| lb.server.step(&lb.core, &mut lb.scratch, usize::MAX).close);
            let mut arrived = false;
            loop {
                match conn.try_recv(&mut buf) {
                    Ok(0) => return Reply::Broken, // the server closed the pipe
                    Ok(n) => client_codec.feed(&buf[..n]),
                    Err(_) => break,
                }
                arrived = true;
            }
            match (arrived, closed, deadline) {
                (true, ..) => {}
                (false, Some(true), _) => return Reply::Broken,
                (false, Some(false), _) | (false, None, None) => return Reply::Quiet,
                (false, None, Some(deadline)) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Reply::Quiet;
                    }
                    awaited = true;
                    match conn.recv_deadline(&mut buf, deadline - now) {
                        Ok(0) => return Reply::Broken,
                        Ok(n) => client_codec.feed(&buf[..n]),
                        Err(_) => {} // timed out; the deadline check above ends it
                    }
                }
            }
        }
    }

    /// How long a reply may take before its file counts as lost, for the
    /// `sends`-th transmission of that file. Loopback has no clock and
    /// needs none ([`WireLane::next_reply`]).
    fn reply_deadline(&self, sends: u32) -> Duration {
        if self.loopback.is_some() {
            return Duration::ZERO;
        }
        let cap = Duration::from_millis(ASYNC_REPLY_CAP_MS);
        let floor = Duration::from_millis(ASYNC_REPLY_FLOOR_MS);
        let base = self.ack_latency.map_or(cap, |(smoothed, deviation)| {
            (smoothed + 4 * deviation).max(floor)
        });
        base.saturating_mul(1 << sends.saturating_sub(1).min(10))
            .min(cap)
    }

    /// Fold one ack-latency sample into the smoothed estimate (the
    /// 1/8, 1/4 gains of TCP's retransmission timer).
    fn observe_ack_latency(&mut self, sample: Duration) {
        self.ack_latency = Some(match self.ack_latency {
            None => (sample, sample / 2),
            Some((smoothed, deviation)) => (
                (smoothed * 7 + sample) / 8,
                (deviation * 3 + smoothed.abs_diff(sample)) / 4,
            ),
        });
    }

    /// Reconnect: a fresh connection replaces the old one, discarding
    /// everything in flight, with fresh codecs (fresh per-connection
    /// sequence spaces) at both ends; each end keeps its fault state. The
    /// server keeps the install's sign-in session and its place in the
    /// file order, so resuming is just resending from the oldest
    /// unacknowledged file.
    fn reconnect(&mut self) {
        self.stats.reconnects += 1;
        self.conn.reconnect();
        self.stats.stale_frames += self.client_codec.stale_discards();
        self.client_codec = FrameCodec::strict();
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
        let factor = 1.0 - JITTER / 2.0 + JITTER * unit_f64(&mut self.jitter_rng);
        ((raw as f64 * factor).round() as u64).max(1)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::collector::{CollectorConfig, SnapshotBatch, SnapshotCollector};
    use crate::shard::ShardedIngest;
    use racket_device::Device;
    use racket_types::{AndroidId, ApkHash, AppId, PermissionProfile, SimTime};

    const P: ParticipantId = ParticipantId(123_456);
    const I: InstallId = InstallId(1_000_000_000);

    /// A buffer with ~20 simulated minutes of snapshots rotated into
    /// upload files.
    fn loaded_buffer() -> (DataBuffer, u64) {
        let mut device = Device::new(Some(AndroidId(1)));
        for app in 0..4u32 {
            device.install_app(
                AppId(app),
                SimTime::from_secs(u64::from(app)),
                PermissionProfile::default(),
                ApkHash([app as u8; 16]),
            );
        }
        let mut collector = SnapshotCollector::new(CollectorConfig::default(), I, P);
        let (mut buffer, mut batch) = (DataBuffer::new(), SnapshotBatch::new());
        let mut n_snapshots = 0u64;
        for minute in 0..20 {
            batch.clear();
            collector.poll_into(&device, SimTime::from_mins(minute), &mut batch);
            for snap in batch.snapshots() {
                buffer.push(snap);
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
            lane.conn.send(frame).unwrap();
            while let Reply::Msg(reply, _) = lane.next_reply(None) {
                replies.push(reply);
            }
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

    /// Queue file `k` of the window fixture as a rotated file of its own:
    /// odd `k` is one fast snapshot installing app `k` at its own
    /// timestamp, even `k` one slow snapshot whose stopped-app list is
    /// `[k]` — between them every order-sensitive part of the record fold
    /// (the event log, `first_seen`, the last-writer lists).
    fn queue_file(buffer: &mut DataBuffer, k: u32) {
        use racket_types::{FastSnapshot, InstallDelta, InstalledApp, SlowSnapshot, Snapshot};
        let time = SimTime::from_secs(1_000 + u64::from(k));
        buffer.push(&if k % 2 == 1 {
            Snapshot::Fast(FastSnapshot {
                install_id: I,
                participant_id: P,
                time,
                foreground_app: Some(AppId(k)),
                screen_on: true,
                battery_pct: 60,
                install_events: vec![InstallDelta::Installed(InstalledApp::fresh(
                    AppId(k),
                    time,
                    PermissionProfile::default(),
                    ApkHash([k as u8; 16]),
                ))],
            })
        } else {
            Snapshot::Slow(SlowSnapshot {
                install_id: I,
                participant_id: P,
                android_id: Some(AndroidId(9)),
                time,
                accounts: vec![],
                save_mode: false,
                stopped_apps: vec![AppId(k)],
                review_events: vec![],
            })
        });
        buffer.flush();
    }

    /// Deliver the window fixture through a loopback lane `window` wide
    /// under `plan`, one delivery tick at a time, holding every tick to
    /// the transfer contract; returns the server's record, rendered.
    fn run_window(plan: FaultPlan, window: usize) -> String {
        let (mut lane, core, store) = loopback(plan, 2021);
        lane.window = window;
        assert_eq!(lane.sign_in(), Some(true));
        let mut buffer = DataBuffer::new();
        let mut queued = 0u32;
        // Ticks that starve the window and ticks that overfill it.
        for batch in [1, 3, 20, 2, 40, 5, 17, 33] {
            for _ in 0..batch {
                queued += 1;
                queue_file(&mut buffer, queued);
            }
            lane.upload_pending(&mut buffer);
            let what = format!("{plan:?} window {window} after {queued} files");
            // Whatever was deleted was acknowledged with a matching hash
            // (the only way out of the buffer), oldest first, and the
            // server holds it.
            let stats = lane.stats();
            let acked = u64::from(queued) - buffer.pending_count() as u64;
            assert_eq!(stats.files_acked, acked, "{what}");
            let kept: Vec<u64> = buffer.pending().map(|f| f.file_id).collect();
            assert_eq!(kept, (acked + 1..=u64::from(queued)).collect::<Vec<u64>>());
            assert_eq!(stats.exhausted, 0, "{what}");
            // The server folded a prefix of the files, each once, in order.
            let served = core.stats();
            assert!(served.files >= acked, "{what}");
            assert_eq!(served.snapshots, served.files, "{what}");
            let rec = store.record(I).expect("record");
            let folded: Vec<u32> = rec.install_events.iter().map(|(app, _)| app.0).collect();
            let odd_files = (1..=served.files as u32).filter(|k| k % 2 == 1);
            assert_eq!(folded, odd_files.collect::<Vec<u32>>(), "{what}");
        }
        assert_eq!(buffer.pending_count(), 0, "{plan:?} window {window}");
        let r = store.record(I).expect("record");
        let installed: Vec<&AppId> = r.apps.installed().collect();
        format!(
            "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            r.n_fast,
            r.n_slow,
            r.first_seen,
            r.last_seen,
            r.android_id,
            r.snapshots_per_day,
            r.install_events,
            r.stopped_apps,
            installed
        )
    }

    #[test]
    fn window_delivers_in_file_order_under_every_fault_plan() {
        let clean = run_window(FaultPlan::none(), WINDOW);
        for plan in [
            FaultPlan::none(),
            FaultPlan::drops(),
            FaultPlan::duplicates(),
            FaultPlan::reorders(),
            FaultPlan::truncations(),
            FaultPlan::corruptions(),
            FaultPlan::disconnects(),
            FaultPlan::stalls(),
            FaultPlan::hostile(),
        ] {
            for window in [1, 2, 16] {
                assert_eq!(
                    run_window(plan, window),
                    clean,
                    "{plan:?} window {window}: record differs from the clean run's"
                );
            }
        }
    }

    #[test]
    fn a_file_no_frame_can_hold_is_reported_not_sent() {
        use racket_types::{GoogleId, Rating, ReviewEvent, SlowSnapshot, Snapshot};
        let (mut lane, core, _store) = loopback(FaultPlan::none(), 3);
        assert_eq!(lane.sign_in(), Some(true));
        let mut buffer = DataBuffer::new();
        queue_file(&mut buffer, 1);
        // One review whose text LZSS cannot shrink below the frame limit.
        let mut noise = 0x5eed_u64;
        let text: String = (0..wire::MAX_PAYLOAD + wire::MAX_PAYLOAD / 8)
            .map(|_| char::from(b'0' + (crate::transport::splitmix64(&mut noise) % 64) as u8))
            .collect();
        buffer.push(&Snapshot::Slow(SlowSnapshot {
            install_id: I,
            participant_id: P,
            android_id: None,
            time: SimTime::from_secs(2_000),
            accounts: vec![],
            save_mode: false,
            stopped_apps: vec![],
            review_events: vec![ReviewEvent {
                app: AppId(1),
                reviewer: GoogleId(1),
                time: SimTime::from_secs(1_999),
                rating: Rating::FIVE,
                text,
            }],
        }));
        queue_file(&mut buffer, 3);
        let oversized = buffer.pending().nth(1).expect("queued");
        assert!(oversized.data.len() > wire::MAX_PAYLOAD);
        assert!(matches!(
            wire::encode_upload_into(0, I, 2, false, &oversized.data, &mut Vec::new()),
            Err(wire::WireError::TooLarge(_))
        ));
        // The file ahead of it is delivered; it is counted as an exchange
        // the lane could not complete, and stays queued with the file
        // behind it (which cannot be folded ahead of it).
        lane.upload_pending(&mut buffer);
        assert_eq!(buffer.pending_count(), 2);
        assert_eq!(lane.stats().exhausted, 1);
        assert_eq!(lane.stats().files_acked, 1);
        assert_eq!(core.stats().files, 1);
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
        // ingestion despite replays, resets and reconnects.
        assert_eq!(stats.files, n_files);
        assert_eq!(sharded.snapshots_ingested(), n_snapshots);
    }

    #[test]
    fn a_lane_on_a_dead_link_gives_up_within_budget() {
        let dead = FaultPlan {
            drop: 1.0,
            ..FaultPlan::none()
        };
        let gave_up = |lane: &WireLane| {
            let s = lane.stats();
            assert_eq!(s.exhausted, 1, "one exchange abandoned");
            assert_eq!(
                s.attempts,
                u64::from(MAX_ATTEMPTS),
                "budget spent, not exceeded"
            );
            assert_eq!(s.retries, u64::from(MAX_ATTEMPTS) - 1);
            s.backoff_ms
        };
        let (mut lane, core, _store) = loopback(dead, 13);
        assert_eq!(lane.sign_in(), None);
        gave_up(&lane);
        assert_eq!(core.stats().sign_ins, 0);
        // The async lane waits out a reply deadline per send (at most
        // ASYNC_REPLY_CAP_MS each) and reconnects every RECONNECT_AFTER
        // sends, so its wall time to give up is bounded.
        let (srv, _sharded, mut lane) = start_async(dead, 13);
        let start = Instant::now();
        assert_eq!(lane.sign_in(), None);
        let wall = start.elapsed();
        let backoff_ms = gave_up(&lane);
        eprintln!("async lane gave up after {wall:?}, {backoff_ms} ms backoff accounted");
        let deadlines = Duration::from_millis(ASYNC_REPLY_CAP_MS) * MAX_ATTEMPTS;
        assert!(wall < 4 * deadlines, "gave up after {wall:?}");
        assert_eq!(srv.shutdown(&racket_obs::Registry::new()).sign_ins, 0);
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
