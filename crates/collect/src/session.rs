//! The server half of one connection as a sans-IO state machine: bytes
//! in, numbered reply frames out (`PROTOCOL.md` §6, "The session").
//!
//! [`ProtocolCore`] decides what one *message* gets back; a [`Session`]
//! is everything between a connection's byte stream and that decision —
//! frame decoding, the bounded admission queue and its 429 shed, reply
//! numbering — with no transport, clock or thread of its own. Every
//! driver owns one per connection and keeps only I/O and time: the
//! reactor workers ([`crate::async_server`]), the loopback lanes
//! ([`crate::retry::WireLane`]) and the blocking TCP driver
//! ([`crate::server::CollectionServer::serve_tcp`]).

use crate::server::ProtocolCore;
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
    /// a malformed payload). The session has already resynchronized; the
    /// driver discards whatever its transport still holds (or closes
    /// the connection).
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

    /// Duplicate/stale frames discarded so far, across resyncs.
    pub(crate) fn stale_discards(&self) -> u64 {
        self.codec.stale_discards()
    }

    /// Drop the buffered bytes and accept whatever sequence number comes
    /// next, keeping the outgoing numbering: how a wedged or poisoned
    /// stream is recovered without the client's cooperation.
    pub(crate) fn resync(&mut self) {
        self.codec.reset();
    }

    /// The server half of a reconnect: both sequence spaces restart at 0.
    /// Messages already admitted stay queued — they arrived whole.
    pub(crate) fn reset(&mut self) {
        self.resync();
        self.out_seq = 0;
    }

    /// Decode everything decodable — queueing each message, or answering
    /// an upload that would overflow the queue with a 429 — then hand up
    /// to `budget` queued messages to the core. Every reply frame goes to
    /// `sink` in sequence-number order.
    pub(crate) fn service(
        &mut self,
        core: &ProtocolCore,
        scratch: &mut Vec<u8>,
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
                    self.resync();
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
    use crate::async_server::tests::{payload, play_worker, I, P};
    use crate::hash::sha256;
    use crate::retry::tests::play_loopback;
    use crate::server::{CollectionServer, InstallRecord, ServerStats};
    use crate::shard::ShardedIngest;
    use crate::transport::{recv_message, TcpTransport, Transport};
    use std::sync::Arc;

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
        /// The server half of a reconnect.
        Reset,
    }
    use Step::{Feed, Reset, Service};

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
            ("without a reset a restarted sequence space is stale",
             vec![Feed(vec![sign_in(0), upload(1, 1)]), Service(all), Feed(vec![sign_in(0)]), Service(all)],
             Want { replies: vec![(0, SIGNED_IN), (1, ack(1))], sheds: 0, poisoned: false, stale: 1, queued: 0, files: 1 }),
            ("reset restarts both sequence spaces",
             vec![Feed(vec![sign_in(0), upload(1, 1)]), Service(all), Reset, Feed(vec![sign_in(0)]), Service(all)],
             Want { replies: vec![(0, SIGNED_IN), (1, ack(1)), (0, SIGNED_IN)], sheds: 0, poisoned: false, stale: 0, queued: 0, files: 1 }),
        ];
        for (name, steps, want) in table {
            let core = ProtocolCore::new([P], Arc::new(ShardedIngest::new(4)));
            let mut session = Session::strict(LIMIT);
            let mut scratch = Vec::new();
            let mut wire = FrameCodec::new();
            let (mut sheds, mut poisoned) = (0, false);
            for step in steps {
                match step {
                    Feed(frames) => session.feed(&frames.concat()),
                    Reset => session.reset(),
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
            assert_eq!(session.buffered(), 0, "{name}");
            assert_eq!(core.stats().files, want.files, "{name}");
        }
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

    #[test]
    fn drivers_agree() {
        // One scripted client byte stream — sign-in, three uploads, a
        // replay of the second — through each driver of the session: the
        // same replies in the same order, the same stats, the same record.
        let script = [
            sign_in(0),
            upload(1, 1),
            upload(2, 2),
            upload(3, 3),
            upload(2, 4),
        ];
        let in_memory = |play: fn(Arc<ProtocolCore>, &[Vec<u8>]) -> Vec<Message>| {
            let store = Arc::new(ShardedIngest::new(4));
            let core = Arc::new(ProtocolCore::new([P], Arc::clone(&store)));
            let replies = play(Arc::clone(&core), &script);
            (replies, core.stats(), render(store.record(I)))
        };
        let over_tcp = || {
            let server = CollectionServer::new([P]);
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let replies = std::thread::scope(|scope| {
                scope.spawn(|| server.serve_tcp(listener, 1).unwrap());
                let mut client = TcpTransport::connect(addr).unwrap();
                let mut codec = FrameCodec::new();
                let mut replies = Vec::new();
                for frame in &script {
                    client.send(frame).unwrap();
                    replies.push(recv_message(&mut client, &mut codec).unwrap().unwrap());
                }
                replies
            });
            (replies, server.stats(), render(server.record(I)))
        };
        let want: (Vec<Message>, ServerStats, String) = in_memory(play_loopback);
        assert_eq!(
            want.0,
            [SIGNED_IN, ack(1), ack(2), ack(3), ack(2)],
            "loopback lane"
        );
        assert_eq!(
            (want.1.files, want.1.dup_files, want.1.snapshots),
            (3, 1, 3)
        );
        assert_eq!(in_memory(play_worker), want, "hand-stepped worker");
        assert_eq!(over_tcp(), want, "serve_tcp");
    }
}
