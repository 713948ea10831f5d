//! Live collection over real TCP.
//!
//! Boots the async collection plane behind a loopback socket, then runs
//! one simulated device through the complete §3 pipeline: sign-in with the
//! participant code, periodic fast/slow snapshots, on-device buffering
//! with LZSS compression and threshold rotation, framed uploads, and
//! SHA-256 hash acknowledgements that release the local files.
//!
//! ```sh
//! cargo run --release --example live_collection
//! ```

use racket_collect::wire::{FrameCodec, Message};
use racket_collect::{
    AsyncCollectServer, AsyncServerConfig, CollectorConfig, DataBuffer, ShardedIngest,
    SnapshotBatch, SnapshotCollector,
};
use racket_device::Device;
use racket_types::{
    AndroidId, ApkHash, AppId, InstallId, ParticipantId, PermissionProfile, SimTime,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

const PARTICIPANT: ParticipantId = ParticipantId(482_913);
const INSTALL: InstallId = InstallId(4_829_130_017);

fn main() {
    println!("== Live collection over TCP loopback ==\n");

    // Server side: one reactor worker; the accept loop is ours.
    let store = Arc::new(ShardedIngest::new(8));
    let config = AsyncServerConfig {
        workers: 1,
        ..AsyncServerConfig::default()
    };
    let server = AsyncCollectServer::start([PARTICIPANT], Arc::clone(&store), config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    println!("collection server listening on {addr}");

    // Client side: a device with a few apps and some activity.
    let mut device = Device::new(Some(AndroidId(0xFEED)));
    for app in 0..5u32 {
        device.install_app(
            AppId(app),
            SimTime::from_secs(u64::from(app) * 60),
            PermissionProfile::default(),
            ApkHash([app as u8; 16]),
        );
    }
    device.open_app(AppId(2));

    let mut transport = TcpStream::connect(addr).expect("connect");
    let (socket, _) = listener.accept().expect("accept");
    server.accept(socket).expect("serve the connection");
    let mut codec = FrameCodec::new();

    // 1. Sign in with the recruitment code.
    transport
        .write_all(
            &Message::SignIn {
                participant: PARTICIPANT,
                install: INSTALL,
            }
            .encode(),
        )
        .expect("send");
    let ack = recv_message(&mut transport, &mut codec).expect("ack");
    println!("sign-in: {ack:?}");
    assert_eq!(ack, Message::SignInAck { accepted: true });

    // 2. Collect snapshots for a simulated hour and buffer them.
    let mut collector = SnapshotCollector::new(CollectorConfig::default(), INSTALL, PARTICIPANT);
    let (mut buffer, mut batch) = (DataBuffer::new(), SnapshotBatch::new());
    for minute in 0..60 {
        let now = SimTime::from_mins(minute);
        batch.clear();
        collector.poll_into(&device, now, &mut batch);
        for snap in batch.snapshots() {
            buffer.push(snap);
        }
        if minute == 30 {
            device.open_app(AppId(4)); // some mid-hour activity
        }
    }
    buffer.flush();
    println!(
        "buffered one hour of snapshots: {} files ready, compression ratio {:.1}×",
        buffer.pending_count(),
        buffer.compression_ratio()
    );

    // 3. Upload each file; delete it only on a matching hash ack.
    let files: Vec<_> = buffer.pending().cloned().collect();
    for f in files {
        transport
            .write_all(
                &Message::SnapshotUpload {
                    install: INSTALL,
                    file_id: f.file_id,
                    fast: f.fast,
                    payload: f.data.clone(),
                }
                .encode(),
            )
            .expect("send");
        match recv_message(&mut transport, &mut codec).expect("reply") {
            Message::UploadAck { file_id, sha256 } => {
                let deleted = buffer.acknowledge(file_id, sha256);
                println!(
                    "file {file_id}: server hash {}…, local file {}",
                    racket_collect::hash::to_hex(&sha256[..4]),
                    if deleted { "deleted" } else { "kept for retry" }
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!(buffer.pending_count(), 0, "all files acknowledged");

    drop(transport);
    let stats = server.shutdown(&racket_obs::Registry::new());

    // 4. What the server aggregated.
    let record = store.record(INSTALL).expect("record exists");
    println!(
        "\nserver aggregate: {} fast + {} slow snapshots over {} active day(s), {} apps observed",
        record.n_fast,
        record.n_slow,
        record.active_days(),
        record.apps.len()
    );
    println!(
        "server stats: {} files, {} snapshots, {} bad uploads",
        stats.files, stats.snapshots, stats.bad_uploads
    );
}

/// Read from the socket until one reply decodes (`None`: the server closed
/// the connection first).
fn recv_message(stream: &mut TcpStream, codec: &mut FrameCodec) -> Option<Message> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(msg) = codec.try_decode_message().expect("a well-framed reply") {
            return Some(msg);
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => codec.feed(&buf[..n]),
        }
    }
}
