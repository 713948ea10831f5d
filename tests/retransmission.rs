//! The resilient-transfer loop of §3 under a lossy channel: when transit
//! corrupts an upload, the CRC rejects the frame (or the hash ack
//! mismatches), the client keeps the file and retries until the server's
//! hash matches — no snapshot is ever lost or duplicated.

use racket_collect::transport::MemTransport;
use racket_collect::wire::{FrameCodec, Message};
use racket_collect::{
    CollectorConfig, DataBuffer, FaultPlan, IngestScratch, ProtocolCore, ShardedIngest,
    SnapshotBatch, SnapshotCollector,
};
use racket_device::Device;
use racket_types::{
    AndroidId, ApkHash, AppId, InstallId, ParticipantId, PermissionProfile, SimTime,
};
use std::sync::Arc;

const P: ParticipantId = ParticipantId(123_456);
const I: InstallId = InstallId(1_000_000_000);

#[test]
fn corrupted_uploads_are_retried_until_acknowledged() {
    let store = Arc::new(ShardedIngest::new(8));
    let server = ProtocolCore::new([P], Arc::clone(&store));
    let mut scratch = IngestScratch::new();
    server.handle(
        Message::SignIn {
            participant: P,
            install: I,
        },
        &mut scratch,
    );

    // A device with some snapshots buffered.
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
    for minute in 0..20 {
        batch.clear();
        collector.poll_into(&device, SimTime::from_mins(minute), &mut batch);
        for snap in batch.snapshots() {
            buffer.push(snap);
        }
    }
    buffer.flush();
    let total_files = buffer.pending_count();
    assert!(total_files >= 1);

    // Lossy channel: a seeded plan flips one bit in about half the chunks.
    let (mut client, mut server_end) = MemTransport::pair();
    client.inject_faults(
        FaultPlan {
            corrupt: 0.5,
            ..FaultPlan::none()
        },
        7,
    );

    let mut attempts = 0;
    let mut delivered = 0;
    while buffer.pending_count() > 0 {
        attempts += 1;
        assert!(attempts < 100, "retry loop did not converge");
        let f = buffer.pending().next().expect("pending file").clone();
        client
            .send(
                &Message::SnapshotUpload {
                    install: I,
                    file_id: f.file_id,
                    fast: f.fast,
                    payload: f.data.clone(),
                }
                .encode(),
            )
            .expect("send");
        // Server side, one fresh connection per attempt: a flipped bit fails
        // the CRC, or lands in the length field and leaves the frame
        // waiting for bytes that never come. Either way nothing decodes,
        // the connection is dropped and the client retries on a fresh one.
        let mut codec = FrameCodec::new();
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = server_end.try_recv(&mut chunk) {
            codec.feed(&chunk[..n]);
        }
        if let Ok(Some(msg)) = codec.try_decode_message() {
            if let Some(Message::UploadAck { file_id, sha256 }) = server.handle(msg, &mut scratch) {
                if buffer.acknowledge(file_id, sha256) {
                    delivered += 1;
                }
            }
        }
    }
    assert!(
        client.fault_stats().corrupted > 0,
        "the plan flipped no bit"
    );

    assert_eq!(delivered, total_files);
    assert!(
        attempts > total_files,
        "corruption must have forced retries"
    );
    // Every snapshot arrived exactly once despite the lossy channel.
    let rec = store.record(I).expect("record");
    assert_eq!(rec.n_fast + rec.n_slow, server.stats().snapshots);
    assert_eq!(server.stats().files as usize, total_files);
    assert_eq!(
        server.stats().bad_uploads,
        0,
        "CRC caught corruption before parsing"
    );
}
