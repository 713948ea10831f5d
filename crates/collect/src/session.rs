//! The server half of one connection as a sans-IO state machine: bytes
//! in, numbered reply frames out (`PROTOCOL.md` §6, "The session").
//!
//! [`ProtocolCore`] decides what one *message* gets back; a [`Session`]
//! is everything between a connection's byte stream and that decision —
//! frame decoding, the bounded admission queue and its 429 shed, reply
//! numbering — with no transport, clock or thread of its own. Each
//! connection owns one, and one connection step drives it
//! (`async_server::Connection::step`), whether a reactor worker or a
//! loopback lane ([`crate::retry::WireLane`]) takes the step and whether
//! the pipe is in memory or a TCP socket.

use crate::server::{IngestScratch, ProtocolCore};
use crate::wire::{FrameCodec, Message};
use std::collections::VecDeque;

/// Protocol error code for a load-shed upload (the wire-visible half of
/// admission control; see `PROTOCOL.md` §6).
pub const SHED_ERROR_CODE: u16 = 429;

/// Bound on a connection's decoded-message queue unless the async plane's
/// config says otherwise.
pub(crate) const QUEUE_LIMIT: usize = 64;

/// What one [`Session::service`] round did.
#[derive(Default)]
pub(crate) struct Serviced {
    /// A frame was decoded, shed or handled, or the stream was poisoned.
    pub(crate) progress: bool,
    /// Uploads answered with [`SHED_ERROR_CODE`] instead of queued.
    pub(crate) sheds: u64,
    /// The byte stream failed to decode (bad magic/version/length/CRC or
    /// a malformed payload). Framing is lost for good: the connection
    /// closes once what was decoded before the bad frame is answered.
    pub(crate) poisoned: bool,
}

/// Server-side state of one connection.
pub(crate) struct Session {
    codec: FrameCodec,
    /// Server→client frame sequence counter.
    out_seq: u32,
    /// Decoded messages awaiting the core, at most `queue_limit` of them
    /// once uploads are involved (sign-ins are never shed).
    queue: VecDeque<Message>,
    queue_limit: usize,
    queue_peak: usize,
    /// Pooled reply-frame buffer.
    frame_buf: Vec<u8>,
}

impl Session {
    /// A session over a link that may duplicate or reorder frames:
    /// incoming sequence numbers are checked (monotonic acceptance).
    pub(crate) fn strict(queue_limit: usize) -> Self {
        Session::over(FrameCodec::strict(), queue_limit)
    }

    /// A session over an ordered exactly-once byte stream (TCP): incoming
    /// sequence numbers are decoded and ignored.
    pub(crate) fn lenient(queue_limit: usize) -> Self {
        Session::over(FrameCodec::new(), queue_limit)
    }

    fn over(codec: FrameCodec, queue_limit: usize) -> Self {
        Session {
            codec,
            out_seq: 0,
            queue: VecDeque::new(),
            queue_limit,
            queue_peak: 0,
            frame_buf: Vec::new(),
        }
    }

    /// Append bytes received from the client.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        self.codec.feed(bytes);
    }

    /// The bound on the decoded-message queue.
    pub(crate) fn queue_limit(&self) -> usize {
        self.queue_limit
    }

    /// Bytes of a partial frame waiting for the rest of it.
    pub(crate) fn buffered(&self) -> usize {
        self.codec.buffered()
    }

    /// Decoded messages not yet handed to the core.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the queue has been.
    pub(crate) fn queue_peak(&self) -> usize {
        self.queue_peak
    }

    /// Duplicate/stale frames discarded so far.
    pub(crate) fn stale_discards(&self) -> u64 {
        self.codec.stale_discards()
    }

    /// Decode everything decodable — queueing each message, or answering
    /// an upload that would overflow the queue with a 429 — then hand up
    /// to `budget` queued messages to the core. Every reply frame goes to
    /// `sink` in sequence-number order.
    pub(crate) fn service(
        &mut self,
        core: &ProtocolCore,
        scratch: &mut IngestScratch,
        budget: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> Serviced {
        let mut done = Serviced::default();
        loop {
            match self.codec.try_decode_message() {
                Ok(None) => break,
                Ok(Some(msg)) => {
                    done.progress = true;
                    let sheddable = matches!(msg, Message::SnapshotUpload { .. });
                    if sheddable && self.queue.len() >= self.queue_limit {
                        // Admission control: reply 429 instead of
                        // buffering without bound. The client retries
                        // later; idempotency makes the retry safe.
                        done.sheds += 1;
                        let reply = Message::Error {
                            code: SHED_ERROR_CODE,
                            detail: "upload queue full".into(),
                        };
                        self.reply(&reply, &mut sink);
                    } else {
                        self.queue.push_back(msg);
                        self.queue_peak = self.queue_peak.max(self.queue.len());
                    }
                }
                Err(_) => {
                    // Framing is unrecoverable after corruption: nothing
                    // behind the bad frame can be trusted.
                    done.progress = true;
                    done.poisoned = true;
                    break;
                }
            }
        }
        for _ in 0..budget {
            let Some(msg) = self.queue.pop_front() else {
                break;
            };
            done.progress = true;
            if let Some(reply) = core.handle(msg, scratch) {
                self.reply(&reply, &mut sink);
            }
        }
        done
    }

    fn reply(&mut self, reply: &Message, sink: &mut impl FnMut(&[u8])) {
        reply.encode_seq_into(self.out_seq, &mut self.frame_buf);
        self.out_seq += 1;
        sink(&self.frame_buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_server::tests::{payload, I, P};
    use crate::hash::sha256;
    use crate::retry::tests::play_loopback;
    use crate::server::{InstallRecord, ServerStats};
    use crate::shard::ShardedIngest;
    use crate::{AsyncCollectServer, AsyncConn, AsyncServerConfig, FaultPlan};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Duration;

    /// Queue bound of the table's sessions.
    const LIMIT: usize = 4;

    fn sign_in(seq: u32) -> Vec<u8> {
        Message::SignIn {
            participant: P,
            install: I,
        }
        .encode_seq(seq)
    }

    fn upload(file_id: u64, seq: u32) -> Vec<u8> {
        Message::SnapshotUpload {
            install: I,
            file_id,
            fast: true,
            payload: payload(file_id * 10),
        }
        .encode_seq(seq)
    }

    fn ack(file_id: u64) -> Message {
        Message::UploadAck {
            file_id,
            sha256: sha256(&payload(file_id * 10)),
        }
    }

    fn shed() -> Message {
        Message::Error {
            code: SHED_ERROR_CODE,
            detail: "upload queue full".into(),
        }
    }

    const SIGNED_IN: Message = Message::SignInAck { accepted: true };

    /// What a client does to its connection, one step at a time.
    enum Step {
        /// These frames arrive, in this order, as one chunk.
        Feed(Vec<Vec<u8>>),
        /// One service round with this drain budget.
        Service(usize),
    }
    use Step::{Feed, Service};

    /// What the session must have done by the end of a row.
    struct Want {
        /// Every reply frame as `(frame seq, message)`, in sink order.
        replies: Vec<(u32, Message)>,
        sheds: u64,
        poisoned: bool,
        stale: u64,
        queued: usize,
        files: u64,
    }

    #[test]
    fn connection_decision_table() {
        // The one statement of the bytes → messages → replies half of a
        // connection (PROTOCOL.md §6, "The session"). Each row scripts a
        // fresh strict session with a 4-deep queue over a fresh core.
        let mut corrupt = upload(1, 1);
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        let all = usize::MAX;
        #[rustfmt::skip]
        let table = [
            ("duplicate and stale sequence numbers are discarded and counted",
             vec![Feed(vec![sign_in(0), upload(1, 1), upload(1, 1), upload(2, 0)]), Service(all)],
             Want { replies: vec![(0, SIGNED_IN), (1, ack(1))], sheds: 0, poisoned: false, stale: 2, queued: 0, files: 1 }),
            ("a gap in the sequence numbers is accepted",
             vec![Feed(vec![sign_in(0), upload(1, 7)]), Service(all)],
             Want { replies: vec![(0, SIGNED_IN), (1, ack(1))], sheds: 0, poisoned: false, stale: 0, queued: 0, files: 1 }),
            ("a bad CRC poisons the stream: nothing behind it is handled",
             vec![Feed(vec![sign_in(0), corrupt, upload(2, 2)]), Service(all)],
             Want { replies: vec![(0, SIGNED_IN)], sheds: 0, poisoned: true, stale: 0, queued: 0, files: 0 }),
            ("LIMIT + 3 pipelined uploads: exactly 3 sheds, reply seqs strictly increasing",
             vec![Feed(vec![sign_in(0)]), Service(all),
                  Feed((1..=LIMIT as u64 + 3).map(|f| upload(f, f as u32)).collect()), Service(all)],
             Want { replies: vec![(0, SIGNED_IN), (1, shed()), (2, shed()), (3, shed()),
                                  (4, ack(1)), (5, ack(2)), (6, ack(3)), (7, ack(4))],
                    sheds: 3, poisoned: false, stale: 0, queued: 0, files: 4 }),
            ("sign-ins are never shed",
             vec![Feed(vec![sign_in(0), upload(1, 1), upload(2, 2), upload(3, 3), sign_in(4), upload(4, 5)]), Service(all)],
             Want { replies: vec![(0, shed()), (1, SIGNED_IN), (2, ack(1)), (3, ack(2)), (4, ack(3)), (5, SIGNED_IN)],
                    sheds: 1, poisoned: false, stale: 0, queued: 0, files: 3 }),
            ("a budgeted drain leaves the rest queued",
             vec![Feed(vec![sign_in(0), upload(1, 1), upload(2, 2), upload(3, 3)]), Service(2)],
             Want { replies: vec![(0, SIGNED_IN), (1, ack(1))], sheds: 0, poisoned: false, stale: 0, queued: 2, files: 1 }),
            ("...and the next round resumes it",
             vec![Feed(vec![sign_in(0), upload(1, 1), upload(2, 2), upload(3, 3)]), Service(2), Service(2)],
             Want { replies: vec![(0, SIGNED_IN), (1, ack(1)), (2, ack(2)), (3, ack(3))], sheds: 0, poisoned: false, stale: 0, queued: 0, files: 3 }),
            ("a sequence space restarted on the same connection is stale",
             vec![Feed(vec![sign_in(0), upload(1, 1)]), Service(all), Feed(vec![sign_in(0)]), Service(all)],
             Want { replies: vec![(0, SIGNED_IN), (1, ack(1))], sheds: 0, poisoned: false, stale: 1, queued: 0, files: 1 }),
        ];
        for (name, steps, want) in table {
            let core = ProtocolCore::new([P], Arc::new(ShardedIngest::new(4)));
            let mut session = Session::strict(LIMIT);
            let mut scratch = IngestScratch::new();
            let mut wire = FrameCodec::new();
            let (mut sheds, mut poisoned) = (0, false);
            for step in steps {
                match step {
                    Feed(frames) => session.feed(&frames.concat()),
                    Service(budget) => {
                        let served =
                            session.service(&core, &mut scratch, budget, |frame| wire.feed(frame));
                        sheds += served.sheds;
                        poisoned |= served.poisoned;
                    }
                }
            }
            let replies: Vec<(u32, Message)> = std::iter::from_fn(|| wire.try_decode().unwrap())
                .map(|frame| (frame.seq, Message::from_frame(&frame).unwrap()))
                .collect();
            assert_eq!(replies, want.replies, "{name}");
            assert_eq!(sheds, want.sheds, "{name}");
            assert_eq!(poisoned, want.poisoned, "{name}");
            assert_eq!(session.stale_discards(), want.stale, "{name}");
            assert_eq!(session.queued(), want.queued, "{name}");
            // A poisoned session keeps what it could not decode; its
            // connection closes (PROTOCOL.md §6.2 rule 6).
            assert_eq!(session.buffered() > 0, want.poisoned, "{name}");
            assert_eq!(core.stats().files, want.files, "{name}");
        }
    }

    #[test]
    fn resealed_hostile_frames_are_answered_or_poison_the_session() {
        // 256 seeded edits of real sign-in and upload frames — the magic,
        // version, type, sequence and declared-length fields overwritten
        // (lengths past MAX_PAYLOAD included), bits flipped, tails cut or
        // spliced — resealed with a CRC over what the header now declares
        // wherever the bytes reach that far. Each goes to a fresh strict
        // and a fresh lenient session in random chunks, followed by an
        // honest sign-in, with a service round after every chunk. Each
        // round is answered or poisons the session; where the header
        // declares more bytes than arrived, the declared rest (zeros)
        // arrives and must settle it. No panic, and a session never holds
        // more than one maximal frame.
        use crate::hash::crc32;
        use crate::wire::MAX_PAYLOAD;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const HEADER: usize = 12;
        const MAX_FRAME: usize = HEADER + MAX_PAYLOAD + 4;
        let declared = |f: &[u8]| u32::from_le_bytes(f[8..12].try_into().unwrap()) as usize;
        let real = [sign_in(0), upload(1, 1), upload(2, 7)];
        let mut rng = StdRng::seed_from_u64(0x5eed_0033);
        let (mut answered, mut poisoned, mut waited) = (0, 0, 0);
        for round in 0..256 {
            let mut frame = real[rng.gen_range(0..real.len())].clone();
            let len = declared(&frame) as u32;
            let word = |at: usize, value: u32, frame: &mut Vec<u8>| {
                frame[at..at + 4].copy_from_slice(&value.to_le_bytes())
            };
            match rng.gen_range(0..8) {
                _ if round == 0 => word(8, MAX_PAYLOAD as u32, &mut frame),
                0 => frame[0..2].copy_from_slice(&rng.gen::<u16>().to_le_bytes()),
                1 => frame[2] = rng.gen(),
                2 => frame[3] = rng.gen(),
                3 => word(4, [0, u32::MAX, rng.gen()][rng.gen_range(0..3)], &mut frame),
                // Past the bound, or more or fewer bytes than the frame
                // has (round 0 declares the bound itself, once: zero-filling
                // it is slow in a debug build).
                4 => {
                    let longer = len + rng.gen_range(1..4096);
                    let lengths = [
                        rng.gen(),
                        MAX_PAYLOAD as u32 + 1,
                        longer,
                        rng.gen_range(0..len),
                    ];
                    word(8, lengths[rng.gen_range(0..lengths.len())], &mut frame);
                }
                5 => {
                    let at = rng.gen_range(0..frame.len());
                    frame[at] ^= 1 << rng.gen_range(0..8);
                }
                6 => frame.truncate(rng.gen_range(0..frame.len())),
                _ => {
                    let other = &real[rng.gen_range(0..real.len())];
                    frame.truncate(rng.gen_range(0..frame.len()));
                    frame.extend_from_slice(&other[rng.gen_range(0..other.len())..]);
                }
            }
            if frame.len() >= HEADER && HEADER + declared(&frame) <= frame.len() {
                let end = HEADER + declared(&frame);
                frame.truncate(end);
                let crc = crc32(&frame[2..end]);
                frame.extend_from_slice(&crc.to_le_bytes());
            }
            let mut bytes = frame.clone();
            bytes.extend_from_slice(&sign_in(u32::MAX));
            for strict in [true, false] {
                let core = ProtocolCore::new([P], Arc::new(ShardedIngest::new(1)));
                let mut scratch = IngestScratch::new();
                let mut session = if strict {
                    Session::strict(LIMIT)
                } else {
                    Session::lenient(LIMIT)
                };
                let (mut replies, mut bad) = (0, false);
                let mut feed = |session: &mut Session, chunk: &[u8]| {
                    session.feed(chunk);
                    let mut n = 0;
                    let served = session.service(&core, &mut scratch, usize::MAX, |_| n += 1);
                    assert!(session.buffered() <= MAX_FRAME, "round {round}");
                    (n, served.poisoned)
                };
                let mut rest = &bytes[..];
                while !rest.is_empty() {
                    let n = rng.gen_range(1..=rest.len().min(97));
                    let (n_replies, poison) = feed(&mut session, &rest[..n]);
                    (replies, bad) = (replies + n_replies, bad || poison);
                    rest = &rest[n..];
                }
                if replies == 0 && !bad {
                    // Waiting on a frame whose header declares more than
                    // arrived (what the session holds is the tail of what
                    // was fed): the declared rest arrives.
                    let partial = session.buffered();
                    assert!(
                        partial >= HEADER,
                        "round {round}: {partial} bytes, nothing decoded"
                    );
                    let header = &bytes[bytes.len() - partial..];
                    let owed = (HEADER + declared(header) + 4).saturating_sub(partial);
                    assert!(owed > 0 && partial + owed <= MAX_FRAME, "round {round}");
                    let (n_replies, poison) = feed(&mut session, &vec![0; owed]);
                    (replies, bad) = (replies + n_replies, bad || poison);
                    waited += 1;
                }
                assert!(
                    replies > 0 || bad,
                    "round {round} strict={strict}: no answer"
                );
                answered += usize::from(replies > 0);
                poisoned += usize::from(bad);
            }
        }
        assert!(
            answered > 100 && poisoned > 100 && waited > 10,
            "{answered} answered, {poisoned} poisoned, {waited} waited"
        );
    }

    /// The fields of a record that are ordered containers or scalars.
    fn render(record: Option<InstallRecord>) -> String {
        let r = record.expect("the install uploaded");
        format!(
            "{:?}|{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}",
            r.install_id,
            r.participant,
            r.n_fast,
            r.n_slow,
            r.first_seen,
            r.last_seen,
            r.snapshots_per_day,
            r.install_events
        )
    }

    /// Send each frame of `script` through a byte pipe and read until
    /// its one reply decodes; returns the replies in arrival order.
    fn play<T>(
        script: &[Vec<u8>],
        pipe: &mut T,
        send: fn(&mut T, &[u8]),
        recv: fn(&mut T, &mut [u8]) -> usize,
    ) -> Vec<Message> {
        let mut codec = FrameCodec::new();
        let mut buf = [0u8; 4096];
        let mut replies = Vec::new();
        for frame in script {
            send(pipe, frame);
            loop {
                if let Some(reply) = codec.try_decode_message().expect("clean link") {
                    replies.push(reply);
                    break;
                }
                let n = recv(pipe, &mut buf);
                assert!(n > 0, "the server closed after {} replies", replies.len());
                codec.feed(&buf[..n]);
            }
        }
        replies
    }

    #[test]
    fn drivers_agree() {
        // One scripted client byte stream — sign-in, three uploads, a
        // replay of the second — through the connection step three ways:
        // inline in a loopback lane, on a worker thread over an in-memory
        // pair, and on a worker thread over a TCP socket. The same replies
        // in the same order, the same stats, the same record.
        let script = [
            sign_in(0),
            upload(1, 1),
            upload(2, 2),
            upload(3, 3),
            upload(2, 4),
        ];
        let loopback = || {
            let store = Arc::new(ShardedIngest::new(4));
            let core = Arc::new(ProtocolCore::new([P], Arc::clone(&store)));
            let replies = play_loopback(Arc::clone(&core), &script);
            (replies, core.stats(), render(store.record(I)))
        };
        let on_worker = |tcp: bool| {
            let store = Arc::new(ShardedIngest::new(4));
            let config = AsyncServerConfig {
                workers: 1,
                ..AsyncServerConfig::default()
            };
            let server = AsyncCollectServer::start([P], Arc::clone(&store), config);
            let replies = if tcp {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                server.accept(listener.accept().unwrap().0).unwrap();
                let send = |c: &mut TcpStream, frame: &[u8]| c.write_all(frame).unwrap();
                play(&script, &mut client, send, |c, buf| c.read(buf).unwrap())
            } else {
                let mut conn = server.connect(FaultPlan::none(), 1);
                let send = |c: &mut AsyncConn, frame: &[u8]| c.send(frame).unwrap();
                play(&script, &mut conn, send, |c, buf| {
                    c.recv_deadline(buf, Duration::from_secs(5)).unwrap()
                })
            };
            let stats = server.shutdown(&racket_obs::Registry::new());
            (replies, stats, render(store.record(I)))
        };
        let want: (Vec<Message>, ServerStats, String) = loopback();
        assert_eq!(
            want.0,
            [SIGNED_IN, ack(1), ack(2), ack(3), ack(2)],
            "loopback lane"
        );
        assert_eq!(
            (want.1.files, want.1.dup_files, want.1.snapshots),
            (3, 1, 3)
        );
        assert_eq!(on_worker(false), want, "worker over an in-memory pair");
        assert_eq!(on_worker(true), want, "worker over TCP");
    }
}
