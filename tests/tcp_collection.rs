//! Multi-device collection over real TCP loopback: several clients sign
//! in concurrently, stream buffered snapshot files, and the async plane's
//! workers aggregate everything without loss. A pipelining client and a
//! client whose frame is damaged in transit pin the per-connection rule
//! (PROTOCOL.md §6, "The session") on this transport, and two clients
//! that stop mid-frame pin the stall deadline (§11.3) while an honest
//! client on the same worker is served.

use racket_collect::wire::{FrameCodec, Message};
use racket_collect::{
    lzss, AsyncCollectServer, AsyncServerConfig, CollectorConfig, DataBuffer, ShardedIngest,
    SnapshotBatch, SnapshotCollector,
};
use racket_device::Device;
use racket_obs::Registry;
use racket_types::metrics::keys;
use racket_types::{
    AndroidId, ApkHash, AppId, FastSnapshot, InstallId, ParticipantId, PermissionProfile, SimTime,
    Snapshot,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const N_CLIENTS: usize = 4;

fn participant(i: usize) -> ParticipantId {
    ParticipantId(100_000 + i as u32)
}

fn install(i: usize) -> InstallId {
    InstallId(1_000_000_000 + i as u64)
}

/// An async plane of `workers` over a fresh store, and a listener whose
/// connections the test hands to it.
fn serve(
    participants: impl IntoIterator<Item = ParticipantId>,
    workers: usize,
) -> (AsyncCollectServer, Arc<ShardedIngest>, TcpListener) {
    let store = Arc::new(ShardedIngest::new(8));
    let config = AsyncServerConfig {
        workers,
        ..AsyncServerConfig::default()
    };
    let server = AsyncCollectServer::start(participants, Arc::clone(&store), config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    (server, store, listener)
}

/// Connect a client and hand the accepted socket to the server: the
/// accept loop is the caller's.
fn dial(server: &AsyncCollectServer, listener: &TcpListener) -> TcpStream {
    let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let (socket, _) = listener.accept().expect("accept");
    server.accept(socket).expect("serve");
    client
}

/// Read until one message decodes: `None` once the server has closed the
/// connection (or reset it) first.
fn recv(stream: &mut TcpStream, codec: &mut FrameCodec) -> Option<Message> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(msg) = codec.try_decode_message().expect("clean stream") {
            return Some(msg);
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => codec.feed(&buf[..n]),
        }
    }
}

/// A device of client `i` with three apps, 30 simulated minutes of
/// snapshots rotated into upload files.
fn buffered_device(i: usize) -> DataBuffer {
    let mut device = Device::new(Some(AndroidId(i as u64)));
    for app in 0..3u32 {
        device.install_app(
            AppId(i as u32 * 10 + app),
            SimTime::from_secs(u64::from(app)),
            PermissionProfile::default(),
            ApkHash([app as u8; 16]),
        );
    }
    let mut collector =
        SnapshotCollector::new(CollectorConfig::default(), install(i), participant(i));
    let (mut buffer, mut batch) = (DataBuffer::new(), SnapshotBatch::new());
    for minute in 0..30 {
        batch.clear();
        collector.poll_into(&device, SimTime::from_mins(minute), &mut batch);
        for snap in batch.snapshots() {
            buffer.push(snap);
        }
    }
    buffer.flush();
    buffer
}

/// Sign client `i` in and upload its buffer file by file, deleting each
/// file on its hash ack.
fn upload_device(i: usize, mut stream: TcpStream) {
    let mut buffer = buffered_device(i);
    let mut codec = FrameCodec::new();
    let sign_in = Message::SignIn {
        participant: participant(i),
        install: install(i),
    };
    stream.write_all(&sign_in.encode()).expect("send sign-in");
    let ack = recv(&mut stream, &mut codec).expect("ack");
    assert_eq!(ack, Message::SignInAck { accepted: true });
    let files: Vec<_> = buffer.pending().cloned().collect();
    assert!(!files.is_empty());
    for f in files {
        let upload = Message::SnapshotUpload {
            install: install(i),
            file_id: f.file_id,
            fast: f.fast,
            payload: f.data.clone(),
        };
        stream.write_all(&upload.encode()).expect("send upload");
        match recv(&mut stream, &mut codec).expect("reply") {
            Message::UploadAck { file_id, sha256 } => {
                assert!(buffer.acknowledge(file_id, sha256), "hash must match");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(buffer.pending_count(), 0);
}

/// Polled each minute for 30 minutes: one snapshot at t = 0 plus every
/// 5-second tick through t = 1740 → 349 fast; every 2 minutes → 15 slow.
fn assert_device_record(store: &ShardedIngest, i: usize) {
    let rec = store.record(install(i)).expect("record");
    assert_eq!(rec.n_fast, 349, "client {i}");
    assert_eq!(rec.n_slow, 15, "client {i}");
    assert_eq!(rec.apps.len(), 3);
}

#[test]
fn concurrent_tcp_clients_are_fully_ingested() {
    let (server, store, listener) = serve((0..N_CLIENTS).map(participant), 2);
    let streams: Vec<TcpStream> = (0..N_CLIENTS).map(|_| dial(&server, &listener)).collect();
    std::thread::scope(|scope| {
        for (i, stream) in streams.into_iter().enumerate() {
            scope.spawn(move || upload_device(i, stream));
        }
    });
    let stats = server.shutdown(&Registry::new());
    assert_eq!(stats.sign_ins, N_CLIENTS as u64);
    assert_eq!(stats.bad_uploads, 0);
    for i in 0..N_CLIENTS {
        assert_device_record(&store, i);
    }
}

#[test]
fn unknown_participant_is_rejected_over_tcp() {
    let (server, _store, listener) = serve([participant(0)], 1);
    let mut stream = dial(&server, &listener);
    let mut codec = FrameCodec::new();
    let sign_in = Message::SignIn {
        participant: ParticipantId(999_999), // never recruited
        install: InstallId(1_000_000_099),
    };
    stream.write_all(&sign_in.encode()).expect("send");
    let ack = recv(&mut stream, &mut codec).expect("ack");
    assert_eq!(ack, Message::SignInAck { accepted: false });
    drop(stream);
    assert_eq!(server.shutdown(&Registry::new()).rejected_sign_ins, 1);
}

/// An upload frame holding one fast snapshot of client 0, taken at `t`.
fn upload_frame(file_id: u64, t: u64) -> Vec<u8> {
    let snap = Snapshot::Fast(FastSnapshot {
        install_id: install(0),
        participant_id: participant(0),
        time: SimTime::from_secs(t),
        foreground_app: Some(AppId(1)),
        screen_on: true,
        battery_pct: 70,
        install_events: vec![],
    });
    Message::SnapshotUpload {
        install: install(0),
        file_id,
        fast: true,
        payload: lzss::compress(&SnapshotCollector::serialize(&snap)),
    }
    .encode()
}

#[test]
fn pipelined_frames_in_one_write_are_answered_in_order() {
    // Sign-in and N uploads (N below the queue bound, so nothing is
    // shed) written with one `send`: N + 1 replies, in request order,
    // numbered 0..=N by the server whatever the client's numbering.
    const N: u64 = 8;
    let (server, _store, listener) = serve([participant(0)], 1);
    let mut stream = dial(&server, &listener);
    let mut one_write = Message::SignIn {
        participant: participant(0),
        install: install(0),
    }
    .encode();
    for file_id in 1..=N {
        one_write.extend_from_slice(&upload_frame(file_id, file_id * 5));
    }
    stream.write_all(&one_write).expect("send");

    let mut codec = FrameCodec::new();
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    while replies.len() < N as usize + 1 {
        let n = stream.read(&mut buf).expect("recv");
        assert!(n > 0, "server closed after {} replies", replies.len());
        codec.feed(&buf[..n]);
        while let Some(frame) = codec.try_decode().expect("clean stream") {
            replies.push((frame.seq, Message::from_frame(&frame).expect("message")));
        }
    }
    drop(stream);

    assert_eq!(replies[0], (0, Message::SignInAck { accepted: true }));
    for (k, (seq, reply)) in replies.iter().enumerate().skip(1) {
        assert_eq!(*seq, k as u32, "reply frames are numbered in order");
        assert!(
            matches!(reply, Message::UploadAck { file_id, .. } if *file_id == k as u64),
            "reply {k} is {reply:?}"
        );
    }
    let stats = server.shutdown(&Registry::new());
    assert_eq!((stats.files, stats.snapshots), (N, N));
}

#[test]
fn a_corrupted_frame_closes_the_connection_and_touches_nothing() {
    let (server, store, listener) = serve([participant(0)], 1);
    let mut stream = dial(&server, &listener);
    let mut codec = FrameCodec::new();
    let sign_in = Message::SignIn {
        participant: participant(0),
        install: install(0),
    };
    stream.write_all(&sign_in.encode()).expect("send sign-in");
    let ack = recv(&mut stream, &mut codec);
    assert_eq!(ack, Some(Message::SignInAck { accepted: true }));

    // One bit flipped in transit: the CRC no longer matches and framing
    // cannot be trusted past this point — the server closes the
    // connection without a reply (the client would reconnect).
    let mut frame = upload_frame(1, 5);
    let mid = frame.len() / 2;
    frame[mid] ^= 0x40;
    stream.write_all(&frame).expect("send");
    let reply = recv(&mut stream, &mut codec);
    assert_eq!(reply, None, "a poisoned stream gets no reply");

    let stats = server.shutdown(&Registry::new());
    assert_eq!(
        (stats.files, stats.snapshots, stats.bad_uploads),
        (0, 0, 0),
        "the damaged frame never reached the core"
    );
    assert!(store.record(install(0)).is_none());
}

#[test]
fn stalled_partial_frames_are_closed_while_an_honest_client_is_served() {
    // One worker serves all three connections. A slow-loris client sends
    // half a frame and goes silent; another declares the largest payload
    // a frame may carry (4 MiB) and sends 1 KB of it. Each is closed once
    // its partial frame has made no progress for the stall deadline —
    // the client reads the end of the stream — while the honest client
    // uploads every file.
    let (server, store, listener) = serve([participant(0)], 1);
    let mut loris = dial(&server, &listener);
    let half = upload_frame(1, 5);
    loris.write_all(&half[..half.len() / 2]).expect("send half");
    let mut declared = Message::SnapshotUpload {
        install: install(0),
        file_id: 1,
        fast: true,
        payload: Vec::new(),
    }
    .encode();
    declared.truncate(12); // magic, version, type, seq, length
    declared[8..12].copy_from_slice(&(4u32 << 20).to_le_bytes());
    declared.resize(12 + 1024, 0xAB);
    let mut greedy = dial(&server, &listener);
    greedy.write_all(&declared).expect("send 1 KB of 4 MiB");
    upload_device(0, dial(&server, &listener));
    for (name, mut stream) in [("slow-loris", loris), ("4 MiB declared", greedy)] {
        let mut buf = [0u8; 64];
        assert_eq!(stream.read(&mut buf).expect("EOF"), 0, "{name}");
    }
    let registry = Registry::new();
    let stats = server.shutdown(&registry);
    assert_eq!(registry.snapshot().counter(keys::SERVER_STALL_SWEEPS), 2);
    assert_eq!(stats.bad_uploads, 0);
    assert_device_record(&store, 0);
}
