//! The asynchronous collection front end: a reactor-driven server that
//! multiplexes thousands of device connections over a small pool of
//! worker threads.
//!
//! The synchronous paths ([`crate::server::CollectionServer::serve_tcp`],
//! the loopback lane in [`crate::retry`]) dedicate a thread or an inline
//! pump to every connection. That is the right shape for tens of devices
//! and the wrong one for the paper's scale ambition (§5 ingested 58.3M
//! snapshots from a fleet): a million idle installs must not cost a
//! million stacks. This module is the scale path:
//!
//! * [`AsyncCollectServer::start`] spawns a thread-per-core pool of
//!   workers. Each worker owns a [`racket_reactor::Poller`] over its
//!   share of connections, a [`racket_reactor::TimerWheel`] for stall
//!   deadlines and an [`racket_reactor::IdleStrategy`] so an idle fleet
//!   costs no CPU: a worker with nothing ready parks, and every
//!   cross-thread signal that creates work for it — a client's
//!   [`AsyncConn::send`], a reconnect request, shutdown — publishes
//!   first and then unparks that worker. A request is picked up when it
//!   is sent, not at the worker's next polling tick; the park's 1 ms
//!   timeout only paces the stall timers.
//! * [`AsyncCollectServer::connect`] hands out an [`AsyncConn`] — the
//!   client half of an in-memory duplex pair, optionally behind the same
//!   seeded [`FaultPlan`] the chaos suite drives — and registers the
//!   server half with one worker. A connection lives on exactly one
//!   worker for its lifetime, so per-connection frame order is preserved
//!   without any cross-thread coordination.
//! * Each connection's bytes go through its own `Session`
//!   (`session.rs`) — the same decode / bounded-queue admission / 429
//!   shed / reply numbering as every other driver — and every admitted
//!   message through the shared [`ProtocolCore`], so this module owns no
//!   protocol state of its own: only connections, readiness and timers.
//!
//! What is specific to this driver — how much a flood overfills a queue
//! before the worker looks, stall sweeps, the reconnect handshake — is
//! timing-dependent and exists only as observability counters, excluded
//! from every output fingerprint.
//! `ARCHITECTURE.md` §8 states the driver contract;
//! `tests/async_equivalence.rs` and `tests/backpressure.rs` enforce it.

use crate::retry::SERVER_FAULT_SALT;
use crate::server::{ProtocolCore, ServerStats};
pub use crate::session::SHED_ERROR_CODE;
use crate::session::{Session, QUEUE_LIMIT};
use crate::shard::ShardedIngest;
use crate::transport::{FaultPlan, MemTransport, Transport};
use crossbeam::channel::{unbounded, Receiver, Sender};
use racket_obs::{LocalHistogram, Registry, SPAN_PREFIX};
use racket_reactor::{IdleStrategy, Poller, Source, TimerWheel, Token};
use racket_types::metrics::keys;
use racket_types::{FaultCounters, ParticipantId};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A connection buffering a partial frame with no progress for this long
/// (worker-clock milliseconds) is swept: transport purged, session
/// resynchronized. Recovers streams wedged by a corrupted length field.
const STALL_DEADLINE_MS: u64 = 50;
/// Max ready connections serviced per poll round (fairness bound; the
/// poller's rotating cursor resumes where a truncated round stopped).
const POLL_BUDGET: usize = 1024;
/// Max queued messages processed per connection per service round, so one
/// chatty device cannot starve its worker's other connections. Ignored
/// during shutdown drain (everything queued is processed).
const DRAIN_PER_CONN: usize = 32;

/// Tuning knobs for the async collection plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncServerConfig {
    /// Worker threads (thread-per-core topology; clamped to ≥ 1).
    pub workers: usize,
    /// Bound on each connection's decoded-message queue. Uploads that
    /// would overflow it are load-shed with [`SHED_ERROR_CODE`].
    pub queue_limit: usize,
}

impl Default for AsyncServerConfig {
    fn default() -> Self {
        AsyncServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_limit: QUEUE_LIMIT,
        }
    }
}

/// Client/worker rendezvous for the reconnect handshake.
///
/// A reconnect must atomically retire both sequence spaces of a
/// connection, but the two halves live on different threads. The client
/// bumps `reset_req` and waits (bounded) for the worker to acknowledge;
/// the worker, which checks the flag at the top of every service round,
/// purges its incoming direction, installs a fresh strict codec, resets
/// its outgoing sequence counter and publishes the acknowledged
/// generation in `reset_ack`.
#[derive(Debug, Default)]
struct ConnShared {
    /// Reconnect generation requested by the client.
    reset_req: AtomicU32,
    /// Latest generation the worker has acknowledged.
    reset_ack: AtomicU32,
}

/// The client half of an async-plane connection.
///
/// Handed out by [`AsyncCollectServer::connect`]; the matching server
/// half lives inside one worker's poll set. All methods are plain
/// non-blocking or deadline-bounded byte-pipe operations — the protocol
/// state machine on top of them is the caller's (normally
/// [`crate::retry::WireLane`] in async mode, or a bench client).
pub struct AsyncConn {
    transport: MemTransport,
    shared: Arc<ConnShared>,
    /// The worker thread that polls the server half. Unparked after
    /// every signal published to it (park's token makes publish-then-
    /// unpark race-free against the worker's poll-then-park).
    worker: std::thread::Thread,
}

impl AsyncConn {
    /// Send one frame towards the server and wake the worker that owns
    /// the connection. Errors surface injected connection resets exactly
    /// like the loopback lane.
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let sent = self.transport.send(bytes);
        self.worker.unpark();
        sent
    }

    /// Non-blocking receive (`WouldBlock` when nothing is waiting).
    pub fn try_recv(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.transport.try_recv(buf)
    }

    /// Receive with a deadline: parks on the reply channel up to
    /// `timeout`, so a client awaiting an ack costs no CPU.
    pub fn recv_deadline(&mut self, buf: &mut [u8], timeout: Duration) -> std::io::Result<usize> {
        self.transport.recv_deadline(buf, timeout)
    }

    /// Faults injected on the client→server direction so far.
    pub fn fault_stats(&self) -> FaultCounters {
        self.transport.fault_stats()
    }

    /// Whether the worker has yet to take frames already sent off the
    /// pipe ([`MemTransport::peer_is_behind`]).
    pub(crate) fn worker_is_behind(&self) -> bool {
        self.transport.peer_is_behind()
    }

    /// Run the reconnect handshake: request a server-side reset and wait
    /// (bounded) for the worker to acknowledge it, then purge this end.
    /// After it returns the client must install a fresh strict codec and
    /// restart its sequence numbers at 0 — the worker has done the same.
    ///
    /// The bound (1 s of yields) only matters if the worker is wedged or
    /// gone; the worker is woken for the request, so the handshake
    /// normally completes within one poll round. An unacknowledged reset
    /// is still safe: the worker applies it at its next service round,
    /// and until then the strict codec discards the client's restarted
    /// sequence numbers exactly like stale frames — the retry loop
    /// absorbs the extra round trips.
    pub fn request_reset(&mut self) {
        let generation = self.shared.reset_req.fetch_add(1, Ordering::SeqCst) + 1;
        self.worker.unpark();
        let deadline = Instant::now() + Duration::from_secs(1);
        while self.shared.reset_ack.load(Ordering::SeqCst) < generation {
            if Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
        self.transport.purge();
    }
}

/// The worker-side half of one connection: its transport, its protocol
/// [`Session`] and the handshake/stall bookkeeping that needs a clock or
/// another thread.
struct Connection {
    transport: MemTransport,
    session: Session,
    shared: Arc<ConnShared>,
    /// Last reconnect generation this worker acknowledged.
    handled_reset: u32,
    /// `(buffered_bytes, stamp)` while the session holds a partial frame:
    /// the stall detector's progress marker. A timer expiry whose stamp
    /// and byte count both still match means the stream is wedged.
    wedge: Option<(usize, u64)>,
    /// Peer closed its half (drain the queue, then deregister).
    closed: bool,
}

impl Connection {
    /// A freshly accepted connection: both sequence spaces at 0, nothing
    /// queued.
    fn new(transport: MemTransport, shared: Arc<ConnShared>, queue_limit: usize) -> Self {
        Connection {
            transport,
            session: Session::strict(queue_limit),
            shared,
            handled_reset: 0,
            wedge: None,
            closed: false,
        }
    }
}

impl Source for Connection {
    fn ready(&mut self) -> bool {
        self.shared.reset_req.load(Ordering::Acquire) != self.handled_reset
            || self.transport.has_incoming()
            || self.session.queued() > 0
    }
}

/// Per-worker counters and span histograms, returned on join and merged
/// into the study registry at shutdown. Everything here is observability
/// only — none of it enters an output fingerprint.
#[derive(Default)]
struct WorkerReport {
    load_sheds: u64,
    stall_sweeps: u64,
    queue_depth_peak: u64,
    stale_frames: u64,
    faults: FaultCounters,
    accept: LocalHistogram,
    poll: LocalHistogram,
}

/// One reactor worker: accepts connections from its intake channel,
/// polls them for readiness, decodes/admits/replies, sweeps stalls.
struct Worker {
    intake: Receiver<Connection>,
    stop: Arc<AtomicBool>,
    core: Arc<ProtocolCore>,
    poller: Poller<Connection>,
    wheel: TimerWheel,
    idle: IdleStrategy,
    /// Pooled inflate scratch shared by every upload this worker
    /// processes.
    scratch: Vec<u8>,
    /// Monotonic stamp generator for stall-timer entries.
    stamp_counter: u64,
    report: WorkerReport,
}

impl Worker {
    fn new(intake: Receiver<Connection>, stop: Arc<AtomicBool>, core: Arc<ProtocolCore>) -> Self {
        Worker {
            intake,
            stop,
            core,
            poller: Poller::new(),
            wheel: TimerWheel::new(256),
            idle: IdleStrategy::default_for_io(),
            scratch: Vec::new(),
            stamp_counter: 0,
            report: WorkerReport::default(),
        }
    }

    fn run(mut self) -> WorkerReport {
        let start = Instant::now();
        let mut ready: Vec<Token> = Vec::new();
        let mut expired: Vec<(Token, u64)> = Vec::new();
        loop {
            let mut progressed = false;
            // Accept newly connected clients into the poll set.
            let accept_start = Instant::now();
            let mut accepted = 0usize;
            while let Ok(conn) = self.intake.try_recv() {
                self.poller.register(conn);
                accepted += 1;
            }
            if accepted > 0 {
                self.report
                    .accept
                    .record(accept_start.elapsed().as_nanos() as u64);
                progressed = true;
            }
            // One poll round over this worker's share of the fleet.
            let now_ms = start.elapsed().as_millis() as u64;
            let poll_start = Instant::now();
            let n_ready = self.poller.poll(&mut ready, POLL_BUDGET);
            if n_ready > 0 {
                for &token in &ready {
                    let (progress, close) = self.service(token, now_ms);
                    progressed |= progress;
                    if close {
                        if let Some(conn) = self.poller.deregister(token) {
                            self.retire(conn);
                        }
                    }
                }
                self.report
                    .poll
                    .record(poll_start.elapsed().as_nanos() as u64);
            }
            // Fire stall deadlines.
            self.wheel.advance(now_ms, &mut expired);
            for &(token, stamp) in &expired {
                self.sweep(token, stamp);
            }
            if self.stop.load(Ordering::Acquire) && !progressed && self.intake.is_empty() {
                break;
            }
            if progressed {
                self.idle.reset();
            } else {
                self.idle.idle();
            }
        }
        // Fold the surviving connections' codec/transport tallies in.
        let mut leftovers: Vec<Token> = self.poller.iter_mut().map(|(t, _)| t).collect();
        for token in leftovers.drain(..) {
            if let Some(conn) = self.poller.deregister(token) {
                self.retire(conn);
            }
        }
        self.report
    }

    /// Service one ready connection: reconnect handshake, reads, then one
    /// round of its [`Session`] — decode, admit or shed, and a
    /// fairness-bounded drain of the queue through the core. Returns
    /// `(made_progress, should_close)`.
    fn service(&mut self, token: Token, now_ms: u64) -> (bool, bool) {
        let Some(conn) = self.poller.get_mut(token) else {
            return (false, false);
        };
        let mut progress = false;
        // Reconnect handshake: retire both sequence spaces, then publish
        // the acknowledged generation so the blocked client proceeds.
        let reset_req = conn.shared.reset_req.load(Ordering::Acquire);
        if reset_req != conn.handled_reset {
            conn.transport.purge();
            conn.session.reset();
            conn.wedge = None;
            conn.handled_reset = reset_req;
            conn.shared.reset_ack.store(reset_req, Ordering::Release);
            progress = true;
        }
        // Drain the transport into the session (bounded for fairness; any
        // remainder keeps the connection ready for the next round).
        let mut buf = [0u8; 4096];
        for _ in 0..256 {
            match conn.transport.try_recv(&mut buf) {
                Ok(0) => {
                    conn.closed = true;
                    break;
                }
                Ok(n) => {
                    conn.session.feed(&buf[..n]);
                    progress = true;
                }
                Err(_) => break, // WouldBlock: drained
            }
        }
        // Queued messages are admitted a bounded number per round for
        // fairness (the shutdown drain processes everything).
        let budget = if self.stop.load(Ordering::Acquire) {
            usize::MAX
        } else {
            DRAIN_PER_CONN
        };
        let Connection {
            transport, session, ..
        } = &mut *conn;
        let served = session.service(&self.core, &mut self.scratch, budget, |frame| {
            // A failed reply send (injected reset, client gone) is the
            // client's problem to recover: its retry loop times out and
            // retransmits.
            let _ = transport.send(frame);
        });
        progress |= served.progress;
        self.report.load_sheds += served.sheds;
        self.report.queue_depth_peak = self
            .report
            .queue_depth_peak
            .max(conn.session.queue_peak() as u64);
        if served.poisoned {
            // The session has resynchronized on the client's next
            // transmission (a fresh strict codec accepts any continuing
            // sequence number); what the pipe still holds is garbage.
            conn.transport.purge();
        }
        // Stall bookkeeping: a partial frame with no byte progress past
        // the deadline will be swept; any progress re-arms the timer.
        let buffered = conn.session.buffered();
        if buffered > 0 {
            let rearm = match conn.wedge {
                Some((len, _)) => len != buffered,
                None => true,
            };
            if rearm {
                self.stamp_counter += 1;
                conn.wedge = Some((buffered, self.stamp_counter));
                self.wheel
                    .schedule(now_ms + STALL_DEADLINE_MS, token, self.stamp_counter);
            }
        } else {
            conn.wedge = None;
        }
        let close = conn.closed && conn.session.queued() == 0;
        (progress, close)
    }

    /// Timer expiry: sweep the connection if its wedge marker still
    /// matches (same stamp, same buffered byte count — no progress since
    /// the deadline was armed).
    fn sweep(&mut self, token: Token, stamp: u64) {
        let Some(conn) = self.poller.get_mut(token) else {
            return; // connection retired; lazily cancelled timer
        };
        match conn.wedge {
            Some((len, s)) if s == stamp && conn.session.buffered() == len => {
                conn.transport.purge();
                conn.session.resync();
                conn.wedge = None;
                self.report.stall_sweeps += 1;
            }
            _ => {} // progress was made, or a newer wedge owns the timer
        }
    }

    /// Fold a retiring connection's transport and session tallies into the
    /// worker report.
    fn retire(&mut self, conn: Connection) {
        self.report.stale_frames += conn.session.stale_discards();
        self.report.faults.merge(&conn.transport.fault_stats());
    }
}

/// The async collection plane: a worker pool driving one shared
/// [`ProtocolCore`]. See the module docs for the architecture and
/// `ARCHITECTURE.md` §8 for the driver contract.
pub struct AsyncCollectServer {
    intakes: Vec<Sender<Connection>>,
    handles: Vec<std::thread::JoinHandle<WorkerReport>>,
    stop: Arc<AtomicBool>,
    core: Arc<ProtocolCore>,
    queue_limit: usize,
    /// Round-robin cursor for connection placement.
    next: AtomicUsize,
}

impl AsyncCollectServer {
    /// Start the worker pool over a fresh core. `participants` seeds the
    /// sign-in gate; parsed snapshots flow into `sharded` (the caller
    /// keeps its own `Arc` and drains it after
    /// [`AsyncCollectServer::shutdown`]).
    pub fn start(
        participants: impl IntoIterator<Item = ParticipantId>,
        sharded: Arc<ShardedIngest>,
        cfg: AsyncServerConfig,
    ) -> Self {
        Self::start_with(Arc::new(ProtocolCore::new(participants, sharded)), cfg)
    }

    /// Start the worker pool over a core the caller also holds.
    pub fn start_with(core: Arc<ProtocolCore>, cfg: AsyncServerConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let workers = cfg.workers.max(1);
        let mut intakes = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = unbounded();
            let worker = Worker::new(rx, Arc::clone(&stop), Arc::clone(&core));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("collect-worker-{w}"))
                    .spawn(move || worker.run())
                    .expect("spawn collection worker"),
            );
            intakes.push(tx);
        }
        AsyncCollectServer {
            intakes,
            handles,
            stop,
            core,
            queue_limit: cfg.queue_limit,
            next: AtomicUsize::new(0),
        }
    }

    /// Open one connection, placing its server half on a worker
    /// (round-robin). `plan` is installed on both directions with
    /// independent seeded streams — the client's from `seed`, the
    /// server's from `seed ^ SERVER_FAULT_SALT`, matching the loopback
    /// lane's convention so chaos seeds are comparable across paths.
    pub fn connect(&self, plan: FaultPlan, seed: u64) -> AsyncConn {
        let (mut client, mut server_end) = MemTransport::pair();
        client.inject_faults(plan, seed);
        server_end.inject_faults(plan, seed ^ SERVER_FAULT_SALT);
        let shared = Arc::new(ConnShared::default());
        let conn = Connection::new(server_end, Arc::clone(&shared), self.queue_limit);
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.intakes.len();
        assert!(
            self.intakes[w].send(conn).is_ok(),
            "collection worker is running"
        );
        AsyncConn {
            transport: client,
            shared,
            worker: self.handles[w].thread().clone(),
        }
    }

    /// Stop the workers (after they drain every queued message), merge
    /// their reports into `registry` (`server/*` spans, `server.*`
    /// counters, server-side fault and stale-frame tallies) and return
    /// the core's final stats.
    pub fn shutdown(self, registry: &Registry) -> ServerStats {
        self.stop.store(true, Ordering::SeqCst);
        drop(self.intakes);
        for handle in &self.handles {
            handle.thread().unpark();
        }
        let mut totals = WorkerReport::default();
        for handle in self.handles {
            let report = handle.join().expect("collection worker panicked");
            totals.load_sheds += report.load_sheds;
            totals.stall_sweeps += report.stall_sweeps;
            totals.queue_depth_peak = totals.queue_depth_peak.max(report.queue_depth_peak);
            totals.stale_frames += report.stale_frames;
            totals.faults.merge(&report.faults);
            registry
                .histogram(&format!("{SPAN_PREFIX}{}", keys::SPAN_SERVER_ACCEPT))
                .merge_local(&report.accept);
            registry
                .histogram(&format!("{SPAN_PREFIX}{}", keys::SPAN_SERVER_POLL))
                .merge_local(&report.poll);
        }
        registry.add(keys::SERVER_LOAD_SHED, totals.load_sheds);
        registry.add(keys::SERVER_STALL_SWEEPS, totals.stall_sweeps);
        registry.gauge_set(keys::SERVER_QUEUE_DEPTH_PEAK, totals.queue_depth_peak);
        registry.add(keys::STALE_FRAMES, totals.stale_frames);
        totals.faults.record_to(registry);
        self.core.stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::collector::SnapshotCollector;
    use crate::hash::sha256;
    use crate::lzss;
    use crate::wire::{FrameCodec, Message};
    use racket_types::{
        ApkHash, AppId, FastSnapshot, InstallDelta, InstallId, InstalledApp, PermissionProfile,
        SimTime, Snapshot,
    };
    use std::collections::BTreeSet;

    pub(crate) const P: ParticipantId = ParticipantId(123_456);
    pub(crate) const I: InstallId = InstallId(1_000_000_000);

    fn test_cfg() -> AsyncServerConfig {
        AsyncServerConfig {
            workers: 1,
            ..AsyncServerConfig::default()
        }
    }

    fn start(cfg: AsyncServerConfig) -> (AsyncCollectServer, Arc<ShardedIngest>) {
        let sharded = Arc::new(ShardedIngest::new(4));
        let srv = AsyncCollectServer::start([P], Arc::clone(&sharded), cfg);
        (srv, sharded)
    }

    /// One compressed single-snapshot upload payload, distinct per `t`.
    pub(crate) fn payload(t: u64) -> Vec<u8> {
        let snap = Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_secs(t),
            foreground_app: Some(AppId(1)),
            screen_on: true,
            battery_pct: 90,
            install_events: vec![InstallDelta::Installed(InstalledApp::fresh(
                AppId(1),
                SimTime::from_secs(0),
                PermissionProfile::default(),
                ApkHash([1; 16]),
            ))],
        });
        lzss::compress(&SnapshotCollector::serialize(&snap))
    }

    /// Drain replies until one decodes or the deadline passes.
    fn recv_reply(
        conn: &mut AsyncConn,
        codec: &mut FrameCodec,
        timeout: Duration,
    ) -> Option<Message> {
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 4096];
        loop {
            if let Ok(Some(m)) = codec.try_decode_message() {
                return Some(m);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            match conn.recv_deadline(&mut buf, deadline - now) {
                Ok(0) => return None,
                Ok(n) => codec.feed(&buf[..n]),
                Err(_) => {} // deadline re-checked above
            }
        }
    }

    fn sign_in(conn: &mut AsyncConn, codec: &mut FrameCodec, seq: &mut u32) {
        let msg = Message::SignIn {
            participant: P,
            install: I,
        };
        conn.send(&msg.encode_seq(*seq)).unwrap();
        *seq += 1;
        let reply = recv_reply(conn, codec, Duration::from_secs(5)).expect("sign-in ack");
        assert_eq!(reply, Message::SignInAck { accepted: true });
    }

    #[test]
    fn clean_connection_signs_in_and_uploads() {
        let (srv, sharded) = start(test_cfg());
        let mut conn = srv.connect(FaultPlan::none(), 1);
        let mut codec = FrameCodec::strict();
        let mut seq = 0u32;
        sign_in(&mut conn, &mut codec, &mut seq);
        for file_id in 1..=2u64 {
            let data = payload(file_id * 100);
            let expected = sha256(&data);
            let msg = Message::SnapshotUpload {
                install: I,
                file_id,
                fast: true,
                payload: data,
            };
            conn.send(&msg.encode_seq(seq)).unwrap();
            seq += 1;
            let reply = recv_reply(&mut conn, &mut codec, Duration::from_secs(5)).expect("ack");
            assert_eq!(
                reply,
                Message::UploadAck {
                    file_id,
                    sha256: expected
                }
            );
        }
        let registry = Registry::new();
        let stats = srv.shutdown(&registry);
        assert_eq!(stats.sign_ins, 1);
        assert_eq!(stats.files, 2);
        assert_eq!(stats.bad_uploads, 0);
        assert_eq!(sharded.snapshots_ingested(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(keys::SERVER_LOAD_SHED), 0);
        assert_eq!(snap.counter(keys::SERVER_STALL_SWEEPS), 0);
    }

    /// Play raw client frames, one send and one service round each,
    /// through a hand-stepped worker owning a single connection; returns
    /// the replies in arrival order (`session::tests::drivers_agree`).
    pub(crate) fn play_worker(core: Arc<ProtocolCore>, script: &[Vec<u8>]) -> Vec<Message> {
        let mut worker = Worker::new(unbounded().1, Arc::default(), core);
        let (mut client, server_end) = MemTransport::pair();
        let conn = Connection::new(server_end, Arc::default(), QUEUE_LIMIT);
        let token = worker.poller.register(conn);
        let mut codec = FrameCodec::strict();
        let mut buf = [0u8; 4096];
        let mut replies = Vec::new();
        for frame in script {
            client.send(frame).unwrap();
            worker.service(token, 0);
            while let Ok(n) = client.try_recv(&mut buf) {
                codec.feed(&buf[..n]);
            }
            replies.extend(std::iter::from_fn(|| {
                codec.try_decode_message().expect("clean link")
            }));
        }
        replies
    }

    #[test]
    fn overflowed_queue_sheds_uploads_without_data_loss() {
        // The worker is stepped by hand, so how far the frame-by-frame
        // flood gets ahead of it is this test's choice and not the
        // scheduler's: a whole round of sends, then one service round.
        // (Against a running worker, which every send wakes, the same
        // flood may be drained as fast as it arrives and shed nothing;
        // `tests/backpressure.rs` covers what holds either way.)
        let sharded = Arc::new(ShardedIngest::new(4));
        let core = Arc::new(ProtocolCore::new([P], Arc::clone(&sharded)));
        let mut worker = Worker::new(unbounded().1, Arc::default(), Arc::clone(&core));
        let (mut client, server_end) = MemTransport::pair();
        let token = worker
            .poller
            .register(Connection::new(server_end, Arc::default(), 1));
        let mut codec = FrameCodec::strict();
        let mut replies = |client: &mut MemTransport| -> Vec<Message> {
            let mut buf = [0u8; 4096];
            while let Ok(n) = client.try_recv(&mut buf) {
                codec.feed(&buf[..n]);
            }
            std::iter::from_fn(|| codec.try_decode_message().expect("clean link")).collect()
        };
        let sign_in = Message::SignIn {
            participant: P,
            install: I,
        };
        client.send(&sign_in.encode_seq(0)).unwrap();
        worker.service(token, 0);
        assert_eq!(
            replies(&mut client),
            [Message::SignInAck { accepted: true }]
        );
        // Flood far more uploads than the queue admits, one send per
        // frame and in file order (the core folds an install's files in
        // order, so the one upload a round admits must be the next one),
        // then keep retrying whatever was shed until every file is acked.
        let n_files = 32u64;
        let mut unacked: BTreeSet<u64> = (1..=n_files).collect();
        let mut seq = 1u32;
        let mut sheds_seen = 0u64;
        while !unacked.is_empty() {
            for &file_id in &unacked {
                let msg = Message::SnapshotUpload {
                    install: I,
                    file_id,
                    fast: true,
                    payload: payload(file_id * 10),
                };
                client.send(&msg.encode_seq(seq)).unwrap();
                seq += 1;
            }
            worker.service(token, 0);
            // Every sent frame gets exactly one reply: the one upload
            // the 1-deep queue admitted is acked, the rest get a 429.
            let round = replies(&mut client);
            assert_eq!(round.len(), unacked.len());
            for reply in round {
                match reply {
                    Message::UploadAck { file_id, .. } => assert!(unacked.remove(&file_id)),
                    Message::Error { code, .. } => {
                        assert_eq!(code, SHED_ERROR_CODE);
                        sheds_seen += 1;
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
        }
        // Rounds of 32, 31, … 1 uploads admit one each and shed the rest.
        assert_eq!(sheds_seen, n_files * (n_files - 1) / 2);
        assert_eq!(worker.report.load_sheds, sheds_seen);
        assert_eq!(worker.report.queue_depth_peak, 1);
        // Zero data loss and exactly-once ingest despite the sheds.
        assert_eq!(core.stats().files, n_files);
        assert_eq!(sharded.snapshots_ingested(), n_files);
    }

    #[test]
    fn every_cross_thread_signal_wakes_a_parked_worker() {
        // Lost-wake regression. This worker parks at once on every empty
        // round and its park tick is a minute, so nothing below can be
        // served by the tick: each exchange, the reconnect handshake and
        // the shutdown completes only because its signal unparked the
        // worker, and one lost wake fails an `expect` (or the last
        // assertion) instead of costing a millisecond nobody notices.
        const TICK: Duration = Duration::from_secs(60);
        let start_time = Instant::now();
        let sharded = Arc::new(ShardedIngest::new(4));
        let core = Arc::new(ProtocolCore::new([P], Arc::clone(&sharded)));
        let stop = Arc::new(AtomicBool::new(false));
        let (intake, rx) = unbounded();
        let mut worker = Worker::new(rx, Arc::clone(&stop), Arc::clone(&core));
        worker.idle = IdleStrategy::new(0, TICK);
        let srv = AsyncCollectServer {
            intakes: vec![intake],
            handles: vec![std::thread::spawn(move || worker.run())],
            stop,
            core,
            queue_limit: QUEUE_LIMIT,
            next: AtomicUsize::new(0),
        };
        let mut conn = srv.connect(FaultPlan::none(), 12);
        let mut codec = FrameCodec::strict();
        let mut seq = 0u32;
        // 2 000 strictly sequential exchanges: the worker is back in its
        // park between any two of them.
        let n_files = 1_500u64;
        for file_id in 1..=n_files {
            if file_id % 3 == 1 {
                sign_in(&mut conn, &mut codec, &mut seq);
            }
            let msg = Message::SnapshotUpload {
                install: I,
                file_id,
                fast: true,
                payload: payload(file_id * 10),
            };
            conn.send(&msg.encode_seq(seq)).unwrap();
            seq += 1;
            let reply = recv_reply(&mut conn, &mut codec, Duration::from_secs(5)).expect("ack");
            assert!(matches!(reply, Message::UploadAck { file_id: f, .. } if f == file_id));
        }
        // A reconnect request is acknowledged before its one-second
        // give-up bound…
        conn.request_reset();
        assert_eq!(conn.shared.reset_ack.load(Ordering::SeqCst), 1);
        // …and shutdown's stop flag is seen without a further send.
        let stats = srv.shutdown(&Registry::new());
        assert_eq!(stats.files, n_files);
        assert_eq!(sharded.snapshots_ingested(), n_files);
        assert!(
            start_time.elapsed() < TICK,
            "ran into the park tick: some signal above did not unpark the worker"
        );
    }

    #[test]
    fn reconnect_handshake_restarts_both_sequence_spaces() {
        let (srv, _sharded) = start(test_cfg());
        let mut conn = srv.connect(FaultPlan::none(), 3);
        let mut codec = FrameCodec::strict();
        let mut seq = 5u32; // pretend earlier traffic consumed 0..5
        sign_in(&mut conn, &mut codec, &mut seq);
        // Without a handshake, restarting at seq 0 would be discarded by
        // the server's strict codec as stale. The handshake must make it
        // acceptable again.
        conn.request_reset();
        let mut codec = FrameCodec::strict();
        let mut seq = 0u32;
        sign_in(&mut conn, &mut codec, &mut seq);
        let registry = Registry::new();
        let stats = srv.shutdown(&registry);
        assert_eq!(stats.sign_ins, 1, "re-sign-in is idempotent");
    }

    #[test]
    fn wedged_partial_frame_is_stall_swept() {
        let (srv, sharded) = start(test_cfg());
        let mut conn = srv.connect(FaultPlan::none(), 4);
        let mut codec = FrameCodec::strict();
        let mut seq = 0u32;
        sign_in(&mut conn, &mut codec, &mut seq);
        // A frame cut off mid-header wedges the server's decoder: it
        // waits for bytes that never come. The stall sweeper must purge
        // and resynchronize without the client reconnecting.
        let data = payload(7);
        let frame = Message::SnapshotUpload {
            install: I,
            file_id: 1,
            fast: true,
            payload: data.clone(),
        }
        .encode_seq(seq);
        seq += 1;
        conn.send(&frame[..frame.len() / 2]).unwrap();
        std::thread::sleep(Duration::from_millis(3 * STALL_DEADLINE_MS));
        // The retransmission (fresh seq) decodes on the swept codec.
        let msg = Message::SnapshotUpload {
            install: I,
            file_id: 1,
            fast: true,
            payload: data,
        };
        conn.send(&msg.encode_seq(seq)).unwrap();
        let reply = recv_reply(&mut conn, &mut codec, Duration::from_secs(5)).expect("ack");
        assert!(matches!(reply, Message::UploadAck { file_id: 1, .. }));
        let registry = Registry::new();
        let stats = srv.shutdown(&registry);
        assert_eq!(stats.files, 1);
        assert_eq!(sharded.snapshots_ingested(), 1);
        assert!(
            registry.snapshot().counter(keys::SERVER_STALL_SWEEPS) >= 1,
            "the wedged stream must be recovered by a sweep"
        );
    }
}
