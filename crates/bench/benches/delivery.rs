//! Microbenchmarks for the delivery fast-path kernels: the binary
//! snapshot codec, the pooled LZSS workspace, the table-driven checksums
//! and the zero-copy frame encoder. Each pooled/table-driven kernel is
//! benchmarked next to the allocation-per-call (or JSON) baseline it
//! replaced, so the EXPERIMENTS.md before/after table can be regenerated
//! from one run.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use racket_collect::collector::SnapshotCollector;
use racket_collect::wire::{self, Message};
use racket_collect::{crc32, lzss, sha256};
use racket_types::{
    ApkHash, AppId, FastSnapshot, InstallDelta, InstallId, InstalledApp, ParticipantId,
    PermissionProfile, SimTime, Snapshot,
};

fn fast_snapshot(t: u64) -> Snapshot {
    Snapshot::Fast(FastSnapshot {
        install_id: InstallId(1_234_567_890),
        participant_id: ParticipantId(123_456),
        time: SimTime::from_secs(t),
        foreground_app: Some(AppId(42)),
        screen_on: true,
        battery_pct: 87,
        install_events: if t.is_multiple_of(60) {
            vec![InstallDelta::Installed(InstalledApp::fresh(
                AppId((t / 60) as u32),
                SimTime::from_secs(t),
                PermissionProfile::default(),
                ApkHash([t as u8; 16]),
            ))]
        } else {
            Vec::new()
        },
    })
}

/// An accumulation-file-sized batch of fast snapshots (one per 5 s tick).
fn snapshot_batch() -> Vec<Snapshot> {
    (0..1_000).map(|i| fast_snapshot(i * 5)).collect()
}

fn bench_serialize(c: &mut Criterion) {
    let snaps = snapshot_batch();
    let mut g = c.benchmark_group("delivery/serialize");
    g.throughput(Throughput::Elements(snaps.len() as u64));
    g.bench_function("binary_pooled", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            for s in &snaps {
                SnapshotCollector::serialize_into(std::hint::black_box(s), &mut out);
            }
            out.len()
        })
    });
    g.bench_function("json_baseline", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for s in &snaps {
                out.extend_from_slice(&serde_json::to_vec(std::hint::black_box(s)).unwrap());
                out.push(b'\n');
            }
            out.len()
        })
    });
    g.finish();

    // Decode side: one encoded file, parsed back to snapshots.
    let mut file = Vec::new();
    for s in &snaps {
        SnapshotCollector::serialize_into(s, &mut file);
    }
    let mut g = c.benchmark_group("delivery/deserialize");
    g.throughput(Throughput::Elements(snaps.len() as u64));
    g.bench_function("binary", |b| {
        b.iter(|| SnapshotCollector::deserialize_file(std::hint::black_box(&file)).unwrap())
    });
    g.finish();
}

fn bench_compress(c: &mut Criterion) {
    let snaps = snapshot_batch();
    let mut data = Vec::new();
    for s in &snaps {
        SnapshotCollector::serialize_into(s, &mut data);
    }
    let mut g = c.benchmark_group("delivery/compress");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("workspace_pooled", |b| {
        let mut ws = lzss::Workspace::new();
        let mut out = Vec::new();
        b.iter(|| {
            ws.compress_into(std::hint::black_box(&data), &mut out);
            out.len()
        })
    });
    g.bench_function("fresh_state_baseline", |b| {
        b.iter(|| lzss::compress(std::hint::black_box(&data)).len())
    });
    g.finish();
}

fn bench_checksums(c: &mut Criterion) {
    let snaps = snapshot_batch();
    let mut data = Vec::new();
    for s in &snaps {
        SnapshotCollector::serialize_into(s, &mut data);
    }
    let mut g = c.benchmark_group("delivery/checksum");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("crc32_slice8", |b| {
        b.iter(|| crc32(std::hint::black_box(&data)))
    });
    g.bench_function("sha256", |b| b.iter(|| sha256(std::hint::black_box(&data))));
    g.finish();
}

fn bench_frame(c: &mut Criterion) {
    let payload = lzss::compress(&{
        let snaps = snapshot_batch();
        let mut data = Vec::new();
        for s in &snaps {
            SnapshotCollector::serialize_into(s, &mut data);
        }
        data
    });
    let msg = Message::SnapshotUpload {
        install: InstallId(1_234_567_890),
        file_id: 7,
        fast: true,
        payload: payload.clone(),
    };
    let mut g = c.benchmark_group("delivery/frame");
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("encode_pooled_borrowed", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            wire::encode_upload_into(
                7,
                InstallId(1_234_567_890),
                7,
                true,
                std::hint::black_box(&payload),
                &mut out,
            )
            .expect("a rotated file fits a frame");
            out.len()
        })
    });
    g.bench_function("encode_owned_baseline", |b| {
        b.iter(|| std::hint::black_box(&msg).encode_seq(7).len())
    });
    g.finish();
}

criterion_group!(
    delivery,
    bench_serialize,
    bench_compress,
    bench_checksums,
    bench_frame
);
criterion_main!(delivery);
