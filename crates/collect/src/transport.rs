//! Byte-stream transports and the deterministic fault-injection layer.
//!
//! The frame codec is sans-IO; this module supplies the byte pipes it runs
//! over. [`MemTransport`] is a crossbeam-channel loopback used by unit
//! tests and the deterministic study driver; [`TcpTransport`] wraps a real
//! `std::net::TcpStream` and is exercised over loopback by the integration
//! tests and the `live_collection` example — the production path of the
//! real platform (TLS termination aside, which is orthogonal to the
//! protocol).
//!
//! # Fault injection
//!
//! A [`FaultPlan`] installed on a `MemTransport` endpoint
//! ([`MemTransport::inject_faults`]) perturbs outgoing chunks with a
//! seeded RNG: per-chunk probabilities of drop, duplicate, reorder,
//! truncate-mid-frame, single-bit corruption, connection reset and stall.
//! At most one fault applies per chunk; every decision comes from a
//! SplitMix64 stream derived from the supplied seed, so a chaos run is
//! exactly reproducible. Injected faults are tallied in a
//! [`racket_types::FaultCounters`] readable via
//! [`MemTransport::fault_stats`]. The fault model's semantics (and why a
//! stall is indistinguishable from a drop within one retry deadline) are
//! specified in `PROTOCOL.md`.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use racket_types::FaultCounters;
use std::io::{Read, Write};
use std::net::TcpStream;

/// A blocking, ordered, reliable byte-stream transport.
pub trait Transport {
    /// Send bytes; blocks until accepted by the transport.
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()>;

    /// Receive up to `buf.len()` bytes; returns 0 on a cleanly closed
    /// peer, blocks if no data is available.
    fn recv(&mut self, buf: &mut [u8]) -> std::io::Result<usize>;
}

/// SplitMix64 step: the canonical 64-bit finalizer, good enough to drive
/// fault sampling and backoff jitter deterministically.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a SplitMix64 stream.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-chunk fault probabilities for a lossy link.
///
/// Rates are independent probabilities in `[0, 1]`; at most one fault is
/// applied per chunk, chosen by a single uniform draw walked through the
/// rates in declaration order. [`FaultPlan::none`] (the default) disables
/// the fault layer entirely.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability a chunk is silently discarded.
    pub drop: f64,
    /// Probability a chunk is delivered twice.
    pub duplicate: f64,
    /// Probability a chunk is held back and delivered after the next one.
    pub reorder: f64,
    /// Probability a chunk is cut off mid-frame (first half delivered).
    pub truncate: f64,
    /// Probability one bit of a chunk is flipped.
    pub corrupt: f64,
    /// Probability the send fails with `ConnectionReset` (chunk lost, the
    /// sender must reconnect and resume).
    pub disconnect: f64,
    /// Probability a chunk stalls past any receive deadline. Semantically
    /// the link hung: the chunk is never delivered and the peer's timeout
    /// fires — indistinguishable from a drop except in the accounting.
    pub stall: f64,
}

impl FaultPlan {
    /// No faults (the clean-link default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether every rate is zero.
    pub fn is_none(&self) -> bool {
        self.total_rate() == 0.0
    }

    /// Sum of all class rates (the per-chunk fault probability).
    pub fn total_rate(&self) -> f64 {
        self.drop
            + self.duplicate
            + self.reorder
            + self.truncate
            + self.corrupt
            + self.disconnect
            + self.stall
    }

    /// Drop-only profile: ~15% of chunks vanish.
    pub fn drops() -> Self {
        FaultPlan {
            drop: 0.15,
            ..Self::default()
        }
    }

    /// Duplicate-only profile: ~20% of chunks arrive twice.
    pub fn duplicates() -> Self {
        FaultPlan {
            duplicate: 0.20,
            ..Self::default()
        }
    }

    /// Reorder-only profile: ~20% of chunks are delivered late.
    pub fn reorders() -> Self {
        FaultPlan {
            reorder: 0.20,
            ..Self::default()
        }
    }

    /// Truncation-only profile: ~12% of chunks are cut mid-frame.
    pub fn truncations() -> Self {
        FaultPlan {
            truncate: 0.12,
            ..Self::default()
        }
    }

    /// Corruption-only profile: ~15% of chunks get one bit flipped.
    pub fn corruptions() -> Self {
        FaultPlan {
            corrupt: 0.15,
            ..Self::default()
        }
    }

    /// Disconnect-only profile: ~8% of sends reset the connection.
    pub fn disconnects() -> Self {
        FaultPlan {
            disconnect: 0.08,
            ..Self::default()
        }
    }

    /// Stall-only profile: ~12% of chunks hang past the deadline.
    pub fn stalls() -> Self {
        FaultPlan {
            stall: 0.12,
            ..Self::default()
        }
    }

    /// The combined "hostile network" profile: every class at once.
    pub fn hostile() -> Self {
        FaultPlan {
            drop: 0.05,
            duplicate: 0.05,
            reorder: 0.05,
            truncate: 0.04,
            corrupt: 0.04,
            disconnect: 0.03,
            stall: 0.04,
        }
    }
}

/// The fault a single chunk was assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Drop,
    Duplicate,
    Reorder,
    Truncate,
    Corrupt,
    Disconnect,
    Stall,
}

/// Live state of an installed fault plan: the plan, its RNG stream and
/// the running per-class tallies.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    rng: u64,
    stats: FaultCounters,
}

impl FaultState {
    /// Sample the fault (if any) for the next chunk.
    fn sample(&mut self) -> Option<Fault> {
        let r = unit_f64(&mut self.rng);
        let p = &self.plan;
        let mut edge = p.drop;
        if r < edge {
            return Some(Fault::Drop);
        }
        edge += p.duplicate;
        if r < edge {
            return Some(Fault::Duplicate);
        }
        edge += p.reorder;
        if r < edge {
            return Some(Fault::Reorder);
        }
        edge += p.truncate;
        if r < edge {
            return Some(Fault::Truncate);
        }
        edge += p.corrupt;
        if r < edge {
            return Some(Fault::Corrupt);
        }
        edge += p.disconnect;
        if r < edge {
            return Some(Fault::Disconnect);
        }
        edge += p.stall;
        if r < edge {
            return Some(Fault::Stall);
        }
        None
    }
}

/// One endpoint of an in-memory duplex pipe.
///
/// Created in pairs by [`MemTransport::pair`]. Two fault-injection knobs
/// exist: the legacy [`MemTransport::corrupt_every`] (flip one bit of
/// every n-th send; kept for the CRC regression tests) and the full
/// seeded [`FaultPlan`] via [`MemTransport::inject_faults`].
pub struct MemTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Residue of a partially consumed incoming chunk.
    pending: Vec<u8>,
    /// Corrupt one bit in every n-th outgoing chunk (0 = never).
    corrupt_every: usize,
    sends: usize,
    /// Seeded fault-injection state (None = clean link).
    faults: Option<Box<FaultState>>,
    /// A chunk held back by a reorder fault, delivered after the next
    /// successfully sent chunk.
    held: Option<Vec<u8>>,
}

impl MemTransport {
    /// Create a connected pair of endpoints.
    pub fn pair() -> (MemTransport, MemTransport) {
        let (tx_a, rx_a) = unbounded();
        let (tx_b, rx_b) = unbounded();
        let end = |tx, rx| MemTransport {
            tx,
            rx,
            pending: Vec::new(),
            corrupt_every: 0,
            sends: 0,
            faults: None,
            held: None,
        };
        (end(tx_a, rx_b), end(tx_b, rx_a))
    }

    /// Enable fault injection: flip one bit in every `n`-th outgoing chunk.
    pub fn corrupt_every(&mut self, n: usize) {
        self.corrupt_every = n;
    }

    /// Install a seeded fault plan on this endpoint's *outgoing* direction.
    /// A no-op for [`FaultPlan::none`]. Replaces any previous plan and
    /// resets the fault tallies.
    pub fn inject_faults(&mut self, plan: FaultPlan, seed: u64) {
        self.faults = if plan.is_none() {
            None
        } else {
            Some(Box::new(FaultState {
                plan,
                rng: seed,
                stats: FaultCounters::default(),
            }))
        };
    }

    /// Faults injected by this endpoint so far (zeros on a clean link).
    pub fn fault_stats(&self) -> FaultCounters {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Discard everything in flight towards this endpoint plus any chunk
    /// held back by a reorder fault — the transport half of a simulated
    /// reconnect (both endpoints of the pair must purge). Fault RNG state
    /// and tallies survive, so a chaos run stays on one deterministic
    /// stream across reconnects.
    pub fn purge(&mut self) {
        self.pending.clear();
        self.held = None;
        while self.rx.try_recv().is_ok() {}
    }

    /// Non-blocking receive used by pollers.
    ///
    /// Returns `Err(WouldBlock)` when no data is waiting but the peer is
    /// still connected (a stall, from the caller's perspective), and
    /// `Ok(0)` only for a disconnected peer (clean close) — callers can
    /// tell the two apart, unlike the pre-v2 behaviour that returned
    /// `Ok(0)` for both.
    pub fn try_recv(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.try_recv() {
                Ok(chunk) => self.pending = chunk,
                Err(TryRecvError::Empty) => return Err(std::io::ErrorKind::WouldBlock.into()),
                Err(TryRecvError::Disconnected) => return Ok(0),
            }
        }
        Ok(self.read_pending(buf))
    }

    /// Move as much of the residue as fits into `buf` — the shared tail
    /// of the three receive calls.
    fn read_pending(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.pending.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        n
    }

    /// Whether bytes are waiting to be received — the readiness probe the
    /// async plane's poller calls once per connection per round. A `true`
    /// is definitive (residue or a queued chunk exists); a `false` may be
    /// stale by the next instruction, which level-triggered polling
    /// tolerates (the next round sees it).
    pub fn has_incoming(&self) -> bool {
        !self.pending.is_empty() || !self.rx.is_empty()
    }

    /// Whether chunks sent from this endpoint are still waiting for the
    /// peer to take them off the pipe: the peer is behind, not the link
    /// lossy. (What a fault discarded never entered the pipe.)
    pub(crate) fn peer_is_behind(&self) -> bool {
        !self.tx.is_empty()
    }

    /// Blocking receive with a timeout: the async client's reply wait.
    ///
    /// Like [`MemTransport::try_recv`] but parks on the channel's condvar
    /// up to `timeout` when nothing is waiting, so a client thread waiting
    /// for a reply from an async-plane worker costs no CPU while it waits.
    /// Returns `Err(WouldBlock)` on timeout with a live peer and `Ok(0)`
    /// for a disconnected peer.
    pub fn recv_deadline(
        &mut self,
        buf: &mut [u8],
        timeout: std::time::Duration,
    ) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.recv_timeout(timeout) {
                Ok(chunk) => self.pending = chunk,
                Err(RecvTimeoutError::Timeout) => return Err(std::io::ErrorKind::WouldBlock.into()),
                Err(RecvTimeoutError::Disconnected) => return Ok(0),
            }
        }
        Ok(self.read_pending(buf))
    }

    /// Push one chunk into the channel, flushing any reorder-held chunk
    /// behind it.
    fn deliver(&mut self, chunk: Vec<u8>) -> std::io::Result<()> {
        let gone = |_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone");
        self.tx.send(chunk).map_err(gone)?;
        if let Some(held) = self.held.take() {
            self.tx.send(held).map_err(gone)?;
        }
        Ok(())
    }
}

impl Transport for MemTransport {
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.sends += 1;
        let mut chunk = bytes.to_vec();
        if self.corrupt_every > 0
            && self.sends.is_multiple_of(self.corrupt_every)
            && !chunk.is_empty()
        {
            let idx = chunk.len() / 2;
            chunk[idx] ^= 0x40;
        }
        let Some(faults) = self.faults.as_mut() else {
            return self.deliver(chunk);
        };
        match faults.sample() {
            None => self.deliver(chunk),
            Some(Fault::Drop) => {
                faults.stats.dropped += 1;
                Ok(())
            }
            Some(Fault::Stall) => {
                faults.stats.stalled += 1;
                Ok(())
            }
            Some(Fault::Duplicate) => {
                faults.stats.duplicated += 1;
                self.deliver(chunk.clone())?;
                self.deliver(chunk)
            }
            Some(Fault::Reorder) => {
                faults.stats.reordered += 1;
                // Hold this chunk; it rides behind the next delivery. A
                // second reorder before then releases the first hold so at
                // most one chunk is ever in the late slot.
                if let Some(prev) = self.held.take() {
                    self.tx.send(prev).map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone")
                    })?;
                }
                self.held = Some(chunk);
                Ok(())
            }
            Some(Fault::Truncate) => {
                faults.stats.truncated += 1;
                let keep = (chunk.len() / 2).max(1).min(chunk.len());
                chunk.truncate(keep);
                self.deliver(chunk)
            }
            Some(Fault::Corrupt) => {
                faults.stats.corrupted += 1;
                if !chunk.is_empty() {
                    let idx = (splitmix64(&mut faults.rng) as usize) % chunk.len();
                    chunk[idx] ^= 0x40;
                }
                self.deliver(chunk)
            }
            Some(Fault::Disconnect) => {
                faults.stats.disconnected += 1;
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "injected connection reset",
                ))
            }
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.recv() {
                Ok(chunk) => self.pending = chunk,
                Err(_) => return Ok(0), // peer closed
            }
        }
        Ok(self.read_pending(buf))
    }
}

/// TCP-backed transport.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wrap an established stream.
    pub fn new(stream: TcpStream) -> Self {
        TcpTransport { stream }
    }

    /// Connect to an address.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Self> {
        Ok(TcpTransport {
            stream: TcpStream::connect(addr)?,
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.read(buf)
    }
}

/// Drive a codec until one full message arrives on `transport` (helper for
/// request/response exchanges).
pub fn recv_message(
    transport: &mut impl Transport,
    codec: &mut crate::wire::FrameCodec,
) -> std::io::Result<Option<crate::wire::Message>> {
    loop {
        match codec.try_decode_message() {
            Ok(Some(msg)) => return Ok(Some(msg)),
            Ok(None) => {}
            Err(e) => {
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
            }
        }
        let mut buf = [0u8; 4096];
        let n = transport.recv(&mut buf)?;
        if n == 0 {
            return Ok(None); // peer closed mid-message
        }
        codec.feed(&buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FrameCodec, Message};
    use racket_types::{InstallId, ParticipantId};

    #[test]
    fn mem_pair_round_trip() {
        let (mut a, mut b) = MemTransport::pair();
        a.send(b"hello").unwrap();
        a.send(b" world").unwrap();
        let mut buf = [0u8; 3];
        assert_eq!(b.recv(&mut buf).unwrap(), 3);
        assert_eq!(&buf, b"hel");
        assert_eq!(b.recv(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"lo");
        assert_eq!(b.recv(&mut buf).unwrap(), 3);
        assert_eq!(&buf, b" wo");
    }

    #[test]
    fn large_chunk_read_in_slices_keeps_bytes_and_residue() {
        // One 1 MB chunk consumed 4 KB at a time through each of the three
        // receive calls in turn: the same bytes come out, and the residue
        // stays visible to the readiness probe until the last slice.
        let data: Vec<u8> = (0..1_048_576u32).map(|i| ((i * 31) >> 3) as u8).collect();
        let (mut a, mut b) = MemTransport::pair();
        a.send(&data).unwrap();
        let mut got = Vec::with_capacity(data.len());
        let mut buf = [0u8; 4096];
        let mut reads = 0usize;
        while got.len() < data.len() {
            assert!(b.has_incoming(), "residue after {} bytes", got.len());
            let n = match reads % 3 {
                0 => b.try_recv(&mut buf),
                1 => b.recv_deadline(&mut buf, std::time::Duration::from_secs(5)),
                _ => b.recv(&mut buf),
            }
            .unwrap();
            assert_eq!(n, 4096);
            got.extend_from_slice(&buf[..n]);
            reads += 1;
        }
        assert!(got == data, "sliced reads reassemble the chunk");
        assert!(!b.has_incoming());
        // A purge mid-chunk discards the unread part; the next chunk
        // starts clean.
        a.send(&data).unwrap();
        assert_eq!(b.try_recv(&mut buf).unwrap(), 4096);
        b.purge();
        assert!(!b.has_incoming());
        a.send(b"next").unwrap();
        assert_eq!(b.try_recv(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"next");
    }

    #[test]
    fn mem_try_recv_nonblocking() {
        let (mut a, mut b) = MemTransport::pair();
        let mut buf = [0u8; 8];
        assert_eq!(
            b.try_recv(&mut buf).unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock,
            "empty pipe with live peer is a stall, not a close"
        );
        a.send(b"x").unwrap();
        assert_eq!(b.try_recv(&mut buf).unwrap(), 1);
    }

    #[test]
    fn try_recv_distinguishes_stall_from_disconnect() {
        // Regression test for the pre-v2 ambiguity where `Ok(0)` meant
        // both "empty channel" and "disconnected peer": a stalled but
        // connected peer must surface as `WouldBlock`, a dropped peer as a
        // clean `Ok(0)` close — and buffered data must still drain after
        // the peer is gone.
        let (mut a, mut b) = MemTransport::pair();
        let mut buf = [0u8; 8];
        assert_eq!(
            b.try_recv(&mut buf).unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock
        );
        a.send(b"bye").unwrap();
        drop(a);
        assert_eq!(b.try_recv(&mut buf).unwrap(), 3, "residue drains first");
        assert_eq!(b.try_recv(&mut buf).unwrap(), 0, "then clean close");
        assert_eq!(b.try_recv(&mut buf).unwrap(), 0, "close is sticky");
    }

    #[test]
    fn message_exchange_over_mem_transport() {
        let (mut client, mut server) = MemTransport::pair();
        let msg = Message::SignIn {
            participant: ParticipantId(111_111),
            install: InstallId(1_000_000_001),
        };
        client.send(&msg.encode()).unwrap();
        let mut codec = FrameCodec::new();
        let got = recv_message(&mut server, &mut codec).unwrap().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn corruption_injection_breaks_crc() {
        let (mut client, mut server) = MemTransport::pair();
        client.corrupt_every(1);
        // A payload long enough that the midpoint bit-flip lands in the
        // payload (a flip in the length field would stall the decoder
        // instead — that recovery path is exercised by the chaos tests).
        let msg = Message::SnapshotUpload {
            install: InstallId(1),
            file_id: 1,
            fast: true,
            payload: vec![0xAA; 64],
        };
        client.send(&msg.encode()).unwrap();
        let mut codec = FrameCodec::new();
        let err = recv_message(&mut server, &mut codec).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    fn drain(t: &mut MemTransport) -> Vec<Vec<u8>> {
        let mut chunks = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match t.try_recv(&mut buf) {
                Ok(0) => break,
                Ok(n) => chunks.push(buf[..n].to_vec()),
                Err(_) => break, // WouldBlock
            }
        }
        chunks
    }

    #[test]
    fn fault_plan_drop_swallows_chunks() {
        let (mut a, mut b) = MemTransport::pair();
        a.inject_faults(
            FaultPlan {
                drop: 1.0,
                ..FaultPlan::none()
            },
            7,
        );
        for _ in 0..5 {
            a.send(b"x").unwrap();
        }
        assert!(drain(&mut b).is_empty());
        assert_eq!(a.fault_stats().dropped, 5);
    }

    #[test]
    fn fault_plan_duplicate_delivers_twice() {
        let (mut a, mut b) = MemTransport::pair();
        a.inject_faults(
            FaultPlan {
                duplicate: 1.0,
                ..FaultPlan::none()
            },
            7,
        );
        a.send(b"x").unwrap();
        assert_eq!(drain(&mut b), vec![b"x".to_vec(), b"x".to_vec()]);
        assert_eq!(a.fault_stats().duplicated, 1);
    }

    #[test]
    fn fault_plan_reorder_holds_and_releases() {
        let (mut a, mut b) = MemTransport::pair();
        // Only the first send reorders (seeded stream: make every chunk
        // reorder, then disable to release deterministically).
        a.inject_faults(
            FaultPlan {
                reorder: 1.0,
                ..FaultPlan::none()
            },
            7,
        );
        a.send(b"first").unwrap();
        assert!(drain(&mut b).is_empty(), "held chunk not yet delivered");
        assert_eq!(a.fault_stats().reordered, 1);
        // A second reorder releases the first hold.
        a.send(b"second").unwrap();
        assert_eq!(drain(&mut b), vec![b"first".to_vec()]);
        // Purge clears the remaining held chunk.
        a.purge();
        a.inject_faults(FaultPlan::none(), 0);
        a.send(b"third").unwrap();
        assert_eq!(drain(&mut b), vec![b"third".to_vec()]);
    }

    #[test]
    fn fault_plan_truncate_cuts_mid_frame() {
        let (mut a, mut b) = MemTransport::pair();
        a.inject_faults(
            FaultPlan {
                truncate: 1.0,
                ..FaultPlan::none()
            },
            7,
        );
        a.send(b"12345678").unwrap();
        assert_eq!(drain(&mut b), vec![b"1234".to_vec()]);
        assert_eq!(a.fault_stats().truncated, 1);
    }

    #[test]
    fn fault_plan_disconnect_surfaces_connection_reset() {
        let (mut a, _b) = MemTransport::pair();
        a.inject_faults(
            FaultPlan {
                disconnect: 1.0,
                ..FaultPlan::none()
            },
            7,
        );
        let err = a.send(b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert_eq!(a.fault_stats().disconnected, 1);
    }

    #[test]
    fn fault_plan_corrupt_breaks_crc_detectably() {
        let (mut a, mut b) = MemTransport::pair();
        a.inject_faults(
            FaultPlan {
                corrupt: 1.0,
                ..FaultPlan::none()
            },
            7,
        );
        let msg = Message::SnapshotUpload {
            install: InstallId(1),
            file_id: 1,
            fast: true,
            payload: vec![0xAA; 64],
        };
        a.send(&msg.encode()).unwrap();
        assert_eq!(a.fault_stats().corrupted, 1);
        // Wherever the seeded flip lands — magic, header or payload — the
        // frame must never decode as a *valid* message: the codec either
        // errors out or keeps waiting for bytes that never come (which the
        // retry layer resolves as a timeout).
        let mut codec = FrameCodec::new();
        for chunk in drain(&mut b) {
            codec.feed(&chunk);
        }
        assert_ne!(
            codec.try_decode_message().ok().flatten(),
            Some(msg),
            "corruption must not yield a silently accepted frame"
        );
    }

    #[test]
    fn fault_plan_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let (mut a, mut b) = MemTransport::pair();
            a.inject_faults(FaultPlan::hostile(), seed);
            for i in 0..200u32 {
                let _ = a.send(&i.to_le_bytes());
            }
            (a.fault_stats(), drain(&mut b).concat())
        };
        assert_eq!(run(42), run(42), "same seed, same fault stream");
        assert_ne!(
            run(42).0,
            run(43).0,
            "different seeds diverge (with overwhelming probability)"
        );
        let (stats, _) = run(42);
        assert!(stats.total() > 0, "hostile profile injects faults");
    }

    #[test]
    fn closed_peer_reports_zero() {
        let (a, mut b) = MemTransport::pair();
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.recv(&mut buf).unwrap(), 0);
    }

    #[test]
    fn tcp_loopback_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let mut codec = FrameCodec::new();
            let msg = recv_message(&mut t, &mut codec).unwrap().unwrap();
            t.send(&Message::SignInAck { accepted: true }.encode())
                .unwrap();
            msg
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        let sent = Message::SignIn {
            participant: ParticipantId(222_222),
            install: InstallId(2_000_000_002),
        };
        client.send(&sent.encode()).unwrap();
        let mut codec = FrameCodec::new();
        let ack = recv_message(&mut client, &mut codec).unwrap().unwrap();
        assert_eq!(ack, Message::SignInAck { accepted: true });
        assert_eq!(handle.join().unwrap(), sent);
    }
}
