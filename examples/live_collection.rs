//! Live collection over real TCP.
//!
//! Boots the collection server on a loopback socket, then runs one
//! simulated device through the complete §3 pipeline: sign-in with the
//! participant code, periodic fast/slow snapshots, on-device buffering
//! with LZSS compression and threshold rotation, framed uploads, and
//! SHA-256 hash acknowledgements that release the local files.
//!
//! ```sh
//! cargo run --release --example live_collection
//! ```

use racket_collect::transport::recv_message;
use racket_collect::wire::{FrameCodec, Message};
use racket_collect::{
    CollectionServer, CollectorConfig, DataBuffer, SnapshotCollector, TcpTransport, Transport,
};
use racket_device::{Device, DeviceModel};
use racket_types::{
    AndroidId, ApkHash, AppId, DeviceId, InstallId, ParticipantId, PermissionProfile, SimTime,
};
use std::sync::Arc;

const PARTICIPANT: ParticipantId = ParticipantId(482_913);
const INSTALL: InstallId = InstallId(4_829_130_017);

fn main() {
    println!("== Live collection over TCP loopback ==\n");

    // Server side.
    let server = Arc::new(CollectionServer::new([PARTICIPANT]));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    println!("collection server listening on {addr}");
    let server_bg = Arc::clone(&server);
    let server_thread = std::thread::spawn(move || server_bg.serve_tcp(listener, 1));

    // Client side: a device with a few apps and some activity.
    let mut device = Device::new(DeviceId(1), DeviceModel::generic(), AndroidId(0xFEED));
    for app in 0..5u32 {
        device.install_app(
            AppId(app),
            SimTime::from_secs(u64::from(app) * 60),
            PermissionProfile::default(),
            ApkHash([app as u8; 16]),
        );
    }
    device.open_app(AppId(2), SimTime::from_mins(10), 300);

    let mut transport = TcpTransport::connect(addr).expect("connect");
    let mut codec = FrameCodec::new();

    // 1. Sign in with the recruitment code.
    transport
        .send(
            &Message::SignIn {
                participant: PARTICIPANT,
                install: INSTALL,
            }
            .encode(),
        )
        .expect("send");
    let ack = recv_message(&mut transport, &mut codec)
        .expect("recv")
        .expect("ack");
    println!("sign-in: {ack:?}");
    assert_eq!(ack, Message::SignInAck { accepted: true });

    // 2. Collect snapshots for a simulated hour and buffer them.
    let mut collector = SnapshotCollector::new(CollectorConfig::default(), INSTALL, PARTICIPANT);
    let mut buffer = DataBuffer::new();
    for minute in 0..60 {
        let now = SimTime::from_mins(minute);
        for snap in collector.poll(&device, now) {
            buffer.push(&snap);
        }
        if minute == 30 {
            device.open_app(AppId(4), now, 120); // some mid-hour activity
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
            .send(
                &Message::SnapshotUpload {
                    install: INSTALL,
                    file_id: f.file_id,
                    fast: f.fast,
                    payload: f.data.clone(),
                }
                .encode(),
            )
            .expect("send");
        match recv_message(&mut transport, &mut codec)
            .expect("recv")
            .expect("reply")
        {
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

    drop(transport); // close the connection so the server thread exits
    server_thread
        .join()
        .expect("server thread")
        .expect("serve_tcp");

    // 4. What the server aggregated.
    let record = server.record(INSTALL).expect("record exists");
    println!(
        "\nserver aggregate: {} fast + {} slow snapshots over {} active day(s), {} apps observed",
        record.n_fast,
        record.n_slow,
        record.active_days(),
        record.apps.len()
    );
    let stats = server.stats();
    println!(
        "server stats: {} files, {} snapshots, {} bad uploads",
        stats.files, stats.snapshots, stats.bad_uploads
    );
}
