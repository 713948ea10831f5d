//! Multi-device collection over real TCP loopback: several clients sign
//! in concurrently, stream buffered snapshot files, and the threaded
//! server aggregates everything without loss. A pipelining client and a
//! client whose frame is damaged in transit pin the per-connection rule
//! (PROTOCOL.md §6, "The session") on this transport.

use racket_collect::transport::recv_message;
use racket_collect::wire::{FrameCodec, Message};
use racket_collect::{
    lzss, CollectionServer, CollectorConfig, DataBuffer, SnapshotBatch, SnapshotCollector,
    TcpTransport, Transport,
};
use racket_device::{Device, DeviceModel};
use racket_types::{
    AndroidId, ApkHash, AppId, DeviceId, FastSnapshot, InstallId, ParticipantId, PermissionProfile,
    SimTime, Snapshot,
};
use std::sync::Arc;

const N_CLIENTS: usize = 4;

fn participant(i: usize) -> ParticipantId {
    ParticipantId(100_000 + i as u32)
}

fn install(i: usize) -> InstallId {
    InstallId(1_000_000_000 + i as u64)
}

#[test]
fn concurrent_tcp_clients_are_fully_ingested() {
    let server = Arc::new(CollectionServer::new((0..N_CLIENTS).map(participant)));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_bg = Arc::clone(&server);
    let server_thread = std::thread::spawn(move || server_bg.serve_tcp(listener, N_CLIENTS));

    let mut clients = Vec::new();
    for i in 0..N_CLIENTS {
        clients.push(std::thread::spawn(move || {
            let mut device = Device::new(
                DeviceId(i as u32),
                DeviceModel::generic(),
                AndroidId(i as u64),
            );
            for app in 0..3u32 {
                device.install_app(
                    AppId(i as u32 * 10 + app),
                    SimTime::from_secs(u64::from(app)),
                    PermissionProfile::default(),
                    ApkHash([app as u8; 16]),
                );
            }
            let mut transport = TcpTransport::connect(addr).expect("connect");
            let mut codec = FrameCodec::new();
            transport
                .send(
                    &Message::SignIn {
                        participant: participant(i),
                        install: install(i),
                    }
                    .encode(),
                )
                .expect("send sign-in");
            let ack = recv_message(&mut transport, &mut codec)
                .expect("recv")
                .expect("ack");
            assert_eq!(ack, Message::SignInAck { accepted: true });

            // 30 simulated minutes of snapshots.
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
            let files: Vec<_> = buffer.pending().cloned().collect();
            assert!(!files.is_empty());
            for f in files {
                transport
                    .send(
                        &Message::SnapshotUpload {
                            install: install(i),
                            file_id: f.file_id,
                            fast: f.fast,
                            payload: f.data.clone(),
                        }
                        .encode(),
                    )
                    .expect("send upload");
                match recv_message(&mut transport, &mut codec)
                    .expect("recv")
                    .expect("reply")
                {
                    Message::UploadAck { file_id, sha256 } => {
                        assert!(buffer.acknowledge(file_id, sha256), "hash must match");
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            assert_eq!(buffer.pending_count(), 0);
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    server_thread
        .join()
        .expect("server thread")
        .expect("serve_tcp");

    let stats = server.stats();
    assert_eq!(stats.sign_ins, N_CLIENTS as u64);
    assert_eq!(stats.bad_uploads, 0);
    // Polled each minute for 30 minutes: one snapshot at t = 0 plus every
    // 5-second tick through t = 1740 → 349 fast; every 2 minutes → 15 slow.
    for i in 0..N_CLIENTS {
        let rec = server.record(install(i)).expect("record");
        assert_eq!(rec.n_fast, 349, "client {i}");
        assert_eq!(rec.n_slow, 15, "client {i}");
        assert_eq!(rec.apps.len(), 3);
    }
}

#[test]
fn unknown_participant_is_rejected_over_tcp() {
    let server = Arc::new(CollectionServer::new([participant(0)]));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_bg = Arc::clone(&server);
    let handle = std::thread::spawn(move || server_bg.serve_tcp(listener, 1));

    let mut transport = TcpTransport::connect(addr).expect("connect");
    let mut codec = FrameCodec::new();
    transport
        .send(
            &Message::SignIn {
                participant: ParticipantId(999_999), // never recruited
                install: InstallId(1_000_000_099),
            }
            .encode(),
        )
        .expect("send");
    let ack = recv_message(&mut transport, &mut codec)
        .expect("recv")
        .expect("ack");
    assert_eq!(ack, Message::SignInAck { accepted: false });
    drop(transport);
    handle.join().expect("thread").expect("serve");
    assert_eq!(server.stats().rejected_sign_ins, 1);
}

/// One client's server: a listener, the serving thread and the address.
fn serve_one(
    server: &Arc<CollectionServer>,
) -> (
    std::thread::JoinHandle<std::io::Result<()>>,
    std::net::SocketAddr,
) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server_bg = Arc::clone(server);
    (
        std::thread::spawn(move || server_bg.serve_tcp(listener, 1)),
        addr,
    )
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
    let server = Arc::new(CollectionServer::new([participant(0)]));
    let (handle, addr) = serve_one(&server);
    let mut transport = TcpTransport::connect(addr).expect("connect");
    let mut one_write = Message::SignIn {
        participant: participant(0),
        install: install(0),
    }
    .encode();
    for file_id in 1..=N {
        one_write.extend_from_slice(&upload_frame(file_id, file_id * 5));
    }
    transport.send(&one_write).expect("send");

    let mut codec = FrameCodec::new();
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    while replies.len() < N as usize + 1 {
        let n = transport.recv(&mut buf).expect("recv");
        assert!(n > 0, "server closed after {} replies", replies.len());
        codec.feed(&buf[..n]);
        while let Some(frame) = codec.try_decode().expect("clean stream") {
            replies.push((frame.seq, Message::from_frame(&frame).expect("message")));
        }
    }
    drop(transport);
    handle.join().expect("thread").expect("serve");

    assert_eq!(replies[0], (0, Message::SignInAck { accepted: true }));
    for (k, (seq, reply)) in replies.iter().enumerate().skip(1) {
        assert_eq!(*seq, k as u32, "reply frames are numbered in order");
        assert!(
            matches!(reply, Message::UploadAck { file_id, .. } if *file_id == k as u64),
            "reply {k} is {reply:?}"
        );
    }
    let stats = server.stats();
    assert_eq!((stats.files, stats.snapshots), (N, N));
}

#[test]
fn a_corrupted_frame_closes_the_connection_and_touches_nothing() {
    let server = Arc::new(CollectionServer::new([participant(0)]));
    let (handle, addr) = serve_one(&server);
    let mut transport = TcpTransport::connect(addr).expect("connect");
    let mut codec = FrameCodec::new();
    let sign_in = Message::SignIn {
        participant: participant(0),
        install: install(0),
    };
    transport.send(&sign_in.encode()).expect("send sign-in");
    let ack = recv_message(&mut transport, &mut codec).expect("recv");
    assert_eq!(ack, Some(Message::SignInAck { accepted: true }));

    // One bit flipped in transit: the CRC no longer matches, framing
    // cannot be trusted past this point, and TCP has no resync — the
    // server hangs up without a reply.
    let mut frame = upload_frame(1, 5);
    let mid = frame.len() / 2;
    frame[mid] ^= 0x40;
    transport.send(&frame).expect("send");
    let reply = recv_message(&mut transport, &mut codec);
    assert!(
        !matches!(reply, Ok(Some(_))),
        "a poisoned stream gets no reply: {reply:?}"
    );
    handle.join().expect("thread").expect("serve");

    let stats = server.stats();
    assert_eq!(
        (stats.files, stats.snapshots, stats.bad_uploads),
        (0, 0, 0),
        "the damaged frame never reached the core"
    );
    assert!(server.record(install(0)).is_none());
}
