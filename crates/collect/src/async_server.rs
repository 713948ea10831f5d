//! The asynchronous collection front end: a worker-pool server that
//! multiplexes thousands of device connections over a small pool of
//! worker threads, and the one connection step every server connection
//! runs.
//!
//! * `Connection::step` is the only driver of a connection's `Session`
//!   (`session.rs`, the same decode / bounded-queue admission / 429 shed /
//!   reply numbering everywhere): it reads the connection's pipe — the
//!   server end of an in-memory pair or a non-blocking TCP socket — feeds
//!   the session, services it against the shared [`ProtocolCore`],
//!   writes the replies and decides whether the connection closes. A
//!   worker steps its connections; a loopback
//!   [`crate::WireLane`] steps its own server half inline, with no
//!   thread and no clock.
//! * A connection is **replaced, never repaired** (`PROTOCOL.md` §6.2):
//!   poisoned framing, a partial frame with no progress for the stall
//!   deadline (`STALL_DEADLINE_MS` in memory, `TCP_STALL_DEADLINE_MS` on a
//!   socket), or a reply that cannot be written whole closes it, once
//!   every message it decoded whole is answered. The client
//!   reconnects on a fresh pair — fresh codecs and sequence spaces, each
//!   end's fault state carried over — and an in-memory reconnect takes
//!   the old connection's place on the same worker.
//! * [`AsyncCollectServer::start`] spawns a thread-per-core pool of
//!   workers. Each worker holds its share of connections in a plain
//!   `Vec`, and a round is one pass over it: each connection is asked
//!   whether it is ready, stepped if it is, checked against its stall
//!   deadline, and closed, replaced or retired in place. A round that did
//!   nothing hands over to the [`racket_reactor::IdleStrategy`] (spin,
//!   then park), so an idle in-memory fleet costs no CPU; every
//!   cross-thread signal that creates work for a worker — a client's
//!   [`AsyncConn::send`], a reconnect, shutdown — publishes first and
//!   then unparks it. Nothing unparks a worker for a socket: its bytes
//!   are noticed at the next round, within the park's 1 ms tick, and a
//!   worker holding sockets peeks each of them every round (`PROTOCOL.md`
//!   §10 has the measured cost).
//! * [`AsyncCollectServer::connect`] hands out an [`AsyncConn`] — the
//!   client half of an in-memory duplex pair, optionally behind the same
//!   seeded [`FaultPlan`] the chaos suite drives — and
//!   [`AsyncCollectServer::accept`] takes an accepted `TcpStream`; either
//!   is placed on one worker (round-robin), where it lives until it
//!   closes, so per-connection frame order is preserved without any
//!   cross-thread coordination.
//!
//! What is specific to this driver — how much a flood overfills a queue
//! before the worker looks, stall sweeps — is timing-dependent and exists
//! only as observability counters, excluded from every output
//! fingerprint. `ARCHITECTURE.md` §8 states the driver contract; the
//! scenario table (`tests/scenario/mod.rs`) and `tests/backpressure.rs`
//! enforce it.

use crate::server::{IngestScratch, ProtocolCore, ServerStats};
pub use crate::session::SHED_ERROR_CODE;
use crate::session::{Session, QUEUE_LIMIT};
use crate::shard::ShardedIngest;
use crate::transport::{FaultPlan, MemTransport};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use racket_obs::{LocalHistogram, Registry, SPAN_PREFIX};
use racket_reactor::IdleStrategy;
use racket_types::metrics::keys;
use racket_types::{FaultCounters, ParticipantId};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Salt separating the server end's fault RNG stream from the client's,
/// so the two directions of one connection fail independently.
const SERVER_FAULT_SALT: u64 = 0x9E6C_63D0_3F15_2A85;
/// A connection buffering a partial frame with no progress for this long
/// (worker-clock milliseconds) is closed: what a corrupted length field
/// or a client that went silent mid-frame leaves behind.
const STALL_DEADLINE_MS: u64 = 50;
/// The same deadline for a socket. A real network may hold a segment
/// back for a retransmission timeout (at least 200 ms on Linux, doubling
/// per loss), so a socket's partial frame gets the time for a segment to
/// be resent three times at the minimum RTO before it counts as wedged.
const TCP_STALL_DEADLINE_MS: u64 = 2_000;
/// Max queued messages processed per connection per worker round, so one
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

/// The byte pipe under one server connection.
pub(crate) enum Pipe {
    /// The server end of an in-memory pair: a loopback lane's, or one
    /// [`AsyncCollectServer::connect`] handed out.
    Mem(MemTransport),
    /// An accepted socket, non-blocking ([`AsyncCollectServer::accept`]).
    Tcp(TcpStream),
}

impl Pipe {
    /// How long a partial frame may sit on this pipe without progress.
    fn stall_deadline_ms(&self) -> u64 {
        match self {
            Pipe::Mem(_) => STALL_DEADLINE_MS,
            Pipe::Tcp(_) => TCP_STALL_DEADLINE_MS,
        }
    }
}

/// The server half of one connection: its pipe, its protocol [`Session`]
/// and the stall marker a worker's round checks.
pub(crate) struct Connection {
    pipe: Pipe,
    session: Session,
    /// `(buffered_bytes, since_ms)` while the session holds a partial
    /// frame: its size, and the worker-clock time it last changed. No
    /// change for the pipe's stall deadline means the stream is wedged.
    wedge: Option<(usize, u64)>,
    /// Nothing more is read: the pipe ended, or the connection broke. It
    /// closes once its queue is drained.
    done: bool,
    /// Where an [`AsyncConn`] sends the server end of its next pair when
    /// it reconnects (`None` for a socket).
    reopened: Option<Receiver<MemTransport>>,
    /// Stale frames the sessions this connection replaced discarded.
    replaced_stale: u64,
}

/// What one [`Connection::step`] did.
pub(crate) struct Stepped {
    /// Bytes were read or the session made progress.
    pub(crate) progress: bool,
    /// Uploads the session shed.
    pub(crate) sheds: u64,
    /// The connection is over: its owner replaces or retires it.
    pub(crate) close: bool,
}

impl Connection {
    pub(crate) fn new(pipe: Pipe, session: Session) -> Self {
        Connection {
            pipe,
            session,
            wedge: None,
            done: false,
            reopened: None,
            replaced_stale: 0,
        }
    }

    /// One step of the connection: take the client's new pipe if it has
    /// reconnected, read what the pipe holds (at most eight 4 KiB reads
    /// per message `budget` lets the session drain, so an unbounded budget
    /// reads everything), feed the session, service it, write each reply
    /// frame, and decide whether the connection is over (`PROTOCOL.md`
    /// §6.2 rule 5). It is once it is done — the pipe ended, framing was
    /// poisoned, or a reply could not be written whole — and every message
    /// it decoded whole has been answered.
    pub(crate) fn step(
        &mut self,
        core: &ProtocolCore,
        scratch: &mut IngestScratch,
        budget: usize,
    ) -> Stepped {
        let mut progress = false;
        // A reconnect replaces this connection once what it decoded whole
        // is answered; what the old pipe still holds is lost with it. Of
        // several reconnects since the last step only the latest is live.
        if let (0, Some(next)) = (self.session.queued(), &self.reopened) {
            if let Some(fresh) = std::iter::from_fn(|| next.try_recv().ok()).last() {
                self.replace(fresh);
                progress = true;
            }
        }
        let mut buf = [0u8; 4096];
        let mut reads = budget.saturating_mul(8);
        while !self.done && reads > 0 {
            reads -= 1;
            let read = match &mut self.pipe {
                Pipe::Mem(end) => end.try_recv(&mut buf),
                Pipe::Tcp(socket) => socket.read(&mut buf),
            };
            match read {
                Ok(0) => self.done = true,
                Ok(n) => {
                    self.session.feed(&buf[..n]);
                    progress = true;
                }
                Err(e) => {
                    self.done = e.kind() != ErrorKind::WouldBlock;
                    break;
                }
            }
        }
        let mut written = true;
        let Connection { pipe, session, .. } = self;
        let served = session.service(core, scratch, budget, |frame| {
            if written {
                written = match pipe {
                    Pipe::Mem(end) => end.send(frame),
                    Pipe::Tcp(socket) => socket.write_all(frame),
                }
                .is_ok();
            }
        });
        self.done |= served.poisoned || !written;
        Stepped {
            progress: progress || served.progress,
            sheds: served.sheds,
            close: self.done && self.session.queued() == 0,
        }
    }

    /// Take `fresh`, the server end of the client's new pair, in place of
    /// this connection's in-memory pipe: a fresh strict session, the old
    /// end's fault state carried over.
    fn replace(&mut self, fresh: MemTransport) {
        if let Pipe::Mem(end) = &mut self.pipe {
            end.rebind(fresh);
        }
        let session = Session::strict(self.session.queue_limit());
        self.replaced_stale += std::mem::replace(&mut self.session, session).stale_discards();
        self.wedge = None;
        self.done = false;
    }

    /// Close this connection in place: take the client's new pipe if it
    /// has reconnected, or shut this one so the client notices and keep
    /// the place for its reconnect. Returns `false` for a connection that
    /// is over for good: a socket, or one whose client is gone.
    fn close_in_place(&mut self) -> bool {
        match (
            self.reopened.as_ref().map(Receiver::try_recv),
            &mut self.pipe,
        ) {
            (Some(Ok(fresh)), _) => self.replace(fresh),
            (Some(Err(TryRecvError::Empty)), Pipe::Mem(end)) => drop(end.reopen()),
            _ => return false,
        }
        true
    }

    /// Duplicate/stale frames discarded on this connection.
    pub(crate) fn stale_discards(&self) -> u64 {
        self.replaced_stale + self.session.stale_discards()
    }

    /// Faults the server end injected so far (none over a socket).
    pub(crate) fn fault_stats(&self) -> FaultCounters {
        match &self.pipe {
            Pipe::Mem(end) => end.fault_stats(),
            Pipe::Tcp(_) => FaultCounters::default(),
        }
    }

    /// Whether a step would make progress now — the readiness probe a
    /// worker's round makes of every connection. Level-triggered and cheap:
    /// a queued message, a pending reconnect, or bytes (or the end) on the
    /// pipe.
    fn ready(&mut self) -> bool {
        if self.done && self.session.queued() == 0 {
            // Closed, waiting in place for the client's reconnect: ready
            // once that arrives (its pipe is taken here), or once the
            // client is gone, for the round to retire it.
            return match self.reopened.as_ref().map(Receiver::try_recv) {
                Some(Ok(fresh)) => {
                    self.replace(fresh);
                    true
                }
                Some(Err(TryRecvError::Empty)) => false,
                _ => true,
            };
        }
        self.session.queued() > 0
            || self.reopened.as_ref().is_some_and(|next| !next.is_empty())
            || !self.done
                && match &mut self.pipe {
                    Pipe::Mem(end) => end.has_incoming(),
                    // Level-triggered: bytes to read, the end of the
                    // stream, or an error — anything but "not yet".
                    Pipe::Tcp(socket) => {
                        !matches!(socket.peek(&mut [0]), Err(e) if e.kind() == ErrorKind::WouldBlock)
                    }
                }
    }
}

/// The client half of an async-plane connection.
///
/// Handed out by [`AsyncCollectServer::connect`]; the matching server
/// half lives on one worker. All methods are plain
/// non-blocking or deadline-bounded byte-pipe operations — the protocol
/// state machine on top of them is the caller's (normally
/// [`crate::retry::WireLane`] in async mode, or a bench client).
pub struct AsyncConn {
    transport: MemTransport,
    /// Where [`AsyncConn::reconnect`] sends the server end of a new pair.
    reopen: Sender<MemTransport>,
    /// The worker thread that polls the server half (`None`: a loopback
    /// lane steps it). Unparked after every signal published to it
    /// (park's token makes publish-then-unpark race-free against the
    /// worker's poll-then-park).
    worker: Option<Thread>,
}

impl AsyncConn {
    /// Send one frame towards the server and wake the worker that owns
    /// the connection. Errors surface injected connection resets exactly
    /// like the loopback lane.
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let sent = self.transport.send(bytes);
        self.wake();
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

    /// Replace the connection: move this end onto a fresh pair (its fault
    /// state kept) and hand the other end to the server half, which takes
    /// it in the old pipe's place at its next step — on the same worker.
    /// The caller starts a fresh codec and sequence space; nothing is
    /// waited for.
    pub(crate) fn reconnect(&mut self) {
        let server_end = self.transport.reopen();
        // A worker that has stopped is gone with its end of `reopen`; the
        // new pair's first send then reports the closed link.
        let _ = self.reopen.send(server_end);
        self.wake();
    }

    fn wake(&self) {
        if let Some(worker) = &self.worker {
            worker.unpark();
        }
    }
}

/// An in-memory connection: the client half, and the server half for the
/// caller to step or to place on a worker. `plan` is installed on both
/// directions with independent seeded streams — the client's from `seed`,
/// the server's from `seed ^ SERVER_FAULT_SALT` — so chaos seeds are
/// comparable across the loopback and async paths.
pub(crate) fn open(plan: FaultPlan, seed: u64, queue_limit: usize) -> (AsyncConn, Connection) {
    let (mut transport, mut server_end) = MemTransport::pair();
    transport.inject_faults(plan, seed);
    server_end.inject_faults(plan, seed ^ SERVER_FAULT_SALT);
    let (reopen, reopened) = unbounded();
    let mut conn = Connection::new(Pipe::Mem(server_end), Session::strict(queue_limit));
    conn.reopened = Some(reopened);
    let client = AsyncConn {
        transport,
        reopen,
        worker: None,
    };
    (client, conn)
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

impl WorkerReport {
    /// Fold a retiring connection's transport and session tallies in.
    fn retire(&mut self, conn: &Connection) {
        self.stale_frames += conn.stale_discards();
        self.faults.merge(&conn.fault_stats());
    }
}

/// One reactor worker: takes connections from its intake channel and
/// runs rounds over them, parking when a round finds nothing to do.
struct Worker {
    intake: Receiver<Connection>,
    stop: Arc<AtomicBool>,
    core: Arc<ProtocolCore>,
    conns: Vec<Connection>,
    idle: IdleStrategy,
    /// Inflate buffer and decode batch shared by every upload this
    /// worker processes.
    scratch: IngestScratch,
    report: WorkerReport,
}

impl Worker {
    fn new(intake: Receiver<Connection>, stop: Arc<AtomicBool>, core: Arc<ProtocolCore>) -> Self {
        Worker {
            intake,
            stop,
            core,
            conns: Vec::new(),
            idle: IdleStrategy::default_for_io(),
            scratch: IngestScratch::new(),
            report: WorkerReport::default(),
        }
    }

    fn run(mut self) -> WorkerReport {
        let start = Instant::now();
        loop {
            // Accept newly connected clients.
            let accept_start = Instant::now();
            let before = self.conns.len();
            while let Ok(conn) = self.intake.try_recv() {
                self.conns.push(conn);
            }
            let mut progressed = self.conns.len() > before;
            if progressed {
                self.report
                    .accept
                    .record(accept_start.elapsed().as_nanos() as u64);
            }
            progressed |= self.round(start.elapsed().as_millis() as u64);
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
        for conn in &self.conns {
            self.report.retire(conn);
        }
        self.report
    }

    /// One pass over this worker's connections at worker-clock `now_ms`.
    /// Each ready connection is stepped with a fairness-bounded drain (the
    /// shutdown drain processes everything); a connection whose partial
    /// frame has made no progress for its pipe's stall deadline is swept
    /// (done, closing once its queue is drained); and one the step or the
    /// sweep closes is replaced or retired in place. Returns whether
    /// anything progressed (a close is progress: a new pipe may be waiting
    /// to be read).
    fn round(&mut self, now_ms: u64) -> bool {
        let budget = if self.stop.load(Ordering::Acquire) {
            usize::MAX
        } else {
            DRAIN_PER_CONN
        };
        let poll_start = Instant::now();
        let (mut stepped_any, mut progressed) = (false, false);
        let Worker {
            conns,
            core,
            scratch,
            report,
            ..
        } = self;
        conns.retain_mut(|conn| {
            let mut close = false;
            if conn.ready() {
                let stepped = conn.step(core, scratch, budget);
                report.load_sheds += stepped.sheds;
                report.queue_depth_peak = report
                    .queue_depth_peak
                    .max(conn.session.queue_peak() as u64);
                // The partial frame changes only in a step: a new size is
                // progress and restarts the stall clock.
                let buffered = conn.session.buffered();
                if buffered == 0 || conn.done {
                    conn.wedge = None;
                } else if conn.wedge.is_none_or(|(len, _)| len != buffered) {
                    conn.wedge = Some((buffered, now_ms));
                }
                stepped_any = true;
                progressed |= stepped.progress || stepped.close;
                close = stepped.close;
            }
            if let Some((_, since)) = conn.wedge {
                if now_ms >= since + conn.pipe.stall_deadline_ms() {
                    conn.wedge = None;
                    conn.done = true;
                    report.stall_sweeps += 1;
                    progressed = true;
                    close = conn.session.queued() == 0;
                }
            }
            let keep = !close || conn.close_in_place();
            if !keep {
                report.retire(conn);
            }
            keep
        });
        if stepped_any {
            report.poll.record(poll_start.elapsed().as_nanos() as u64);
        }
        progressed
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

    /// Open one in-memory connection on the next worker (round-robin).
    /// `plan` is installed on both directions with independent seeded
    /// streams — the client's from `seed`, the server's from
    /// `seed ^ SERVER_FAULT_SALT`, matching the loopback lane's
    /// convention so chaos seeds are comparable across paths.
    pub fn connect(&self, plan: FaultPlan, seed: u64) -> AsyncConn {
        let (mut client, conn) = open(plan, seed, self.queue_limit);
        client.worker = Some(self.place(conn).clone());
        client
    }

    /// Serve an accepted TCP connection on the next worker (round-robin):
    /// the socket turns non-blocking and runs a lenient session (the
    /// stream is ordered and exactly-once). The caller runs the accept
    /// loop. Errors only if the socket cannot be made non-blocking.
    pub fn accept(&self, socket: TcpStream) -> std::io::Result<()> {
        socket.set_nonblocking(true)?;
        let session = Session::lenient(self.queue_limit);
        self.place(Connection::new(Pipe::Tcp(socket), session))
            .unpark();
        Ok(())
    }

    /// Hand a connection to the next worker (round-robin); returns that
    /// worker's thread.
    fn place(&self, conn: Connection) -> &Thread {
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.intakes.len();
        assert!(
            self.intakes[w].send(conn).is_ok(),
            "collection worker is running"
        );
        self.handles[w].thread()
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
        lzss::compress(&SnapshotCollector::serialize(&snapshot(t)))
    }

    /// The snapshot [`payload`] holds.
    pub(crate) fn snapshot(t: u64) -> Snapshot {
        Snapshot::Fast(FastSnapshot {
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
        })
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

    #[test]
    fn overflowed_queue_sheds_uploads_without_data_loss() {
        // The worker is stepped by hand, so how far the frame-by-frame
        // flood gets ahead of it is this test's choice and not the
        // scheduler's: a whole round of sends, then one worker round.
        // (Against a running worker, which every send wakes, the same
        // flood may be drained as fast as it arrives and shed nothing;
        // `tests/backpressure.rs` covers what holds either way.)
        let sharded = Arc::new(ShardedIngest::new(4));
        let core = Arc::new(ProtocolCore::new([P], Arc::clone(&sharded)));
        let mut worker = Worker::new(unbounded().1, Arc::default(), Arc::clone(&core));
        let (mut client, server_end) = MemTransport::pair();
        worker
            .conns
            .push(Connection::new(Pipe::Mem(server_end), Session::strict(1)));
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
        worker.round(0);
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
            worker.round(0);
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
        // served by the tick: each exchange, the reconnect and the
        // shutdown completes only because its signal unparked the
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
        // A reconnect is served: the worker takes the new pipe in the old
        // one's place and answers on it, from sequence number 0…
        conn.reconnect();
        let (mut codec, mut seq) = (FrameCodec::strict(), 0);
        sign_in(&mut conn, &mut codec, &mut seq);
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
    fn a_reconnect_opens_a_fresh_connection_on_the_same_worker() {
        // A hand-stepped worker holding one connection whose every chunk,
        // either way, is duplicated: whatever the reconnect opens, only
        // this worker can serve it.
        let core = Arc::new(ProtocolCore::new([P], Arc::new(ShardedIngest::new(4))));
        let mut worker = Worker::new(unbounded().1, Arc::default(), core);
        let plan = FaultPlan {
            duplicate: 1.0,
            ..FaultPlan::none()
        };
        let (mut conn, server) = open(plan, 3, QUEUE_LIMIT);
        worker.conns.push(server);
        let sign_in = Message::SignIn {
            participant: P,
            install: I,
        };
        // One exchange per connection; returns the reply frames' numbers.
        let exchange = |conn: &mut AsyncConn, worker: &mut Worker, seq: u32| {
            conn.send(&sign_in.encode_seq(seq)).unwrap();
            while worker.round(0) {}
            let mut codec = FrameCodec::new();
            let mut buf = [0u8; 4096];
            while let Ok(n @ 1..) = conn.try_recv(&mut buf) {
                codec.feed(&buf[..n]);
            }
            std::iter::from_fn(|| codec.try_decode().expect("clean frames"))
                .map(|frame| frame.seq)
                .collect::<Vec<u32>>()
        };
        assert_eq!(exchange(&mut conn, &mut worker, 5), [0, 0]);
        // Without a reconnect, sequence number 0 is stale on this
        // connection; on the new one both sequence spaces start over.
        conn.reconnect();
        assert_eq!(exchange(&mut conn, &mut worker, 0), [0, 0]);
        assert_eq!(
            worker.conns.len(),
            1,
            "the new pipe took the old one's place"
        );
        assert_eq!(worker.core.stats().sign_ins, 1, "re-sign-in is idempotent");
        // Each end's fault state carried over: both replies and both
        // sign-ins were duplicated, and each session discarded one copy.
        assert_eq!(conn.fault_stats().duplicated, 2);
        let retired = worker.conns.pop().expect("still open");
        worker.report.retire(&retired);
        assert_eq!(worker.report.faults.duplicated, 2);
        assert_eq!(worker.report.stale_frames, 2);
    }

    #[test]
    fn a_closed_connection_whose_client_is_gone_is_retired() {
        let core = Arc::new(ProtocolCore::new([P], Arc::new(ShardedIngest::new(4))));
        let mut worker = Worker::new(unbounded().1, Arc::default(), core);
        let (mut conn, server) = open(FaultPlan::none(), 5, QUEUE_LIMIT);
        worker.conns.push(server);
        // A bad magic poisons the framing: the connection closes, and it
        // waits in place for a reconnect that an idle client never sends.
        conn.send(&[0xAB; 64]).unwrap();
        worker.round(0);
        worker.round(0);
        assert!(!worker.conns[0].ready());
        assert_eq!(worker.conns.len(), 1, "it waits for the client");
        // The client goes without reconnecting: the next round retires
        // the connection.
        drop(conn);
        worker.round(0);
        assert_eq!(worker.conns.len(), 0);
    }

    /// A hand-stepped worker over a fresh core.
    fn hand_worker() -> Worker {
        let core = Arc::new(ProtocolCore::new([P], Arc::new(ShardedIngest::new(4))));
        Worker::new(unbounded().1, Arc::default(), core)
    }

    /// A new in-memory connection on `worker`; returns its client end.
    fn hand_connect(worker: &mut Worker) -> MemTransport {
        let (client, server_end) = MemTransport::pair();
        let session = Session::strict(QUEUE_LIMIT);
        worker
            .conns
            .push(Connection::new(Pipe::Mem(server_end), session));
        client
    }

    /// Every reply waiting at a client end, decoded.
    fn replies(client: &mut MemTransport, codec: &mut FrameCodec) -> Vec<Message> {
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = client.try_recv(&mut buf) {
            codec.feed(&buf[..n]);
        }
        std::iter::from_fn(|| codec.try_decode_message().expect("clean link")).collect()
    }

    const SIGN_IN: Message = Message::SignIn {
        participant: P,
        install: I,
    };
    const SIGN_IN_ACK: Message = Message::SignInAck { accepted: true };

    #[test]
    fn a_stalled_partial_frame_is_swept_at_the_deadline_after_its_last_progress() {
        // The worker is stepped by hand, so its clock is this test's.
        let mut worker = hand_worker();
        let mut client = hand_connect(&mut worker);
        let mut codec = FrameCodec::strict();
        // Four rounds' drain of sign-ins and one more (sign-ins are never
        // shed), then half an upload frame.
        let n_sign_ins = 4 * DRAIN_PER_CONN as u32 + 1;
        for seq in 0..n_sign_ins {
            client.send(&SIGN_IN.encode_seq(seq)).unwrap();
        }
        let frame = Message::SnapshotUpload {
            install: I,
            file_id: 1,
            fast: true,
            payload: payload(7),
        }
        .encode_seq(n_sign_ins);
        let half = frame.len() / 2;
        client.send(&frame[..half]).unwrap();
        worker.round(0);
        // One byte of progress restarts the stall clock.
        client.send(&frame[half..=half]).unwrap();
        worker.round(30);
        worker.round(30 + STALL_DEADLINE_MS - 1);
        assert_eq!(worker.report.stall_sweeps, 0, "swept before its deadline");
        assert!(!worker.conns[0].done);
        worker.round(30 + STALL_DEADLINE_MS);
        assert_eq!(worker.report.stall_sweeps, 1, "not swept at its deadline");
        // Swept with a whole sign-in still queued: the connection stays
        // until that is answered, and closes in the round that answers it.
        assert_eq!(replies(&mut client, &mut codec).len(), 4 * DRAIN_PER_CONN);
        assert_eq!(worker.conns.len(), 1);
        worker.round(31 + STALL_DEADLINE_MS);
        assert_eq!(replies(&mut client, &mut codec), [SIGN_IN_ACK]);
        assert!(worker.conns.is_empty());
    }

    #[test]
    fn one_round_answers_a_quiet_connection_beside_a_flooder() {
        let mut worker = hand_worker();
        let mut flooder = hand_connect(&mut worker);
        let mut quiet = hand_connect(&mut worker);
        let n_flood = 3 * DRAIN_PER_CONN;
        for seq in 0..n_flood as u32 {
            flooder.send(&SIGN_IN.encode_seq(seq)).unwrap();
        }
        quiet.send(&SIGN_IN.encode_seq(0)).unwrap();
        worker.round(0);
        // The flooder, stepped first, drains one bounded share of its
        // queue; the quiet connection is answered in the same round.
        let mut flood_codec = FrameCodec::strict();
        assert_eq!(
            replies(&mut flooder, &mut flood_codec).len(),
            DRAIN_PER_CONN
        );
        assert_eq!(
            replies(&mut quiet, &mut FrameCodec::strict()),
            [SIGN_IN_ACK]
        );
        // The rest of the flood is answered over the next rounds.
        worker.round(1);
        worker.round(2);
        assert_eq!(
            replies(&mut flooder, &mut flood_codec).len(),
            n_flood - DRAIN_PER_CONN
        );
    }

    #[test]
    fn a_wedged_partial_frame_closes_the_connection_and_the_lane_recovers() {
        let (srv, sharded) = start(test_cfg());
        let mut conn = srv.connect(FaultPlan::none(), 4);
        // A frame cut off mid-header wedges the server's decoder: it
        // waits for bytes that never come. Past the stall deadline the
        // worker closes the connection.
        let frame = Message::SnapshotUpload {
            install: I,
            file_id: 1,
            fast: true,
            payload: payload(7),
        }
        .encode_seq(0);
        conn.send(&frame[..frame.len() / 2]).unwrap();
        std::thread::sleep(Duration::from_millis(3 * STALL_DEADLINE_MS));
        // A lane on that connection finds it closed, reconnects on a
        // fresh one and delivers.
        let mut lane = crate::WireLane::new_async(I, P, 4, conn);
        assert_eq!(lane.sign_in(), Some(true));
        let mut buffer = crate::DataBuffer::new();
        buffer.push(&snapshot(7));
        buffer.flush();
        lane.upload_pending(&mut buffer);
        assert_eq!(buffer.pending_count(), 0);
        assert_eq!(lane.stats().reconnects, 1);
        let registry = Registry::new();
        let stats = srv.shutdown(&registry);
        assert_eq!(stats.files, 1);
        assert_eq!(sharded.snapshots_ingested(), 1);
        assert_eq!(registry.snapshot().counter(keys::SERVER_STALL_SWEEPS), 1);
    }
}
