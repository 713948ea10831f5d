//! Upload files built through the client's public kernels, and the
//! server's public kernels replayed on those same bytes (source `K`).
//!
//! [`build_files`] is `ingest_plane`'s set-up: each lane polls a device of
//! a generated fleet through `SnapshotCollector::poll_into` — so the files
//! carry that device's own accounts, stopped apps and foreground app in
//! the collector's real fast/slow mix — then serializes, LZSS-compresses
//! and frames them exactly as `DataBuffer` + `WireLane` would, timing the
//! two costly kernels. [`replay`] runs decode → hash → decompress → parse → fold over
//! a sample of the frames, one kernel at a time on one thread.

use crate::metrics::Values;
use racket_agents::{Fleet, FleetConfig};
use racket_collect::buffer::{FAST_ROTATE_BYTES, SLOW_ROTATE_BYTES};
use racket_collect::wire::{encode_upload_into, Message};
use racket_collect::{
    crc32, lzss, sha256, CollectorConfig, FrameCodec, ShardedIngest, SnapshotBatch,
    SnapshotCollector,
};
use racket_types::{InstallId, ParticipantId, SimDuration, Snapshot};
use rayon::prelude::*;
use std::time::Instant;

/// Snapshots per upload file unless the byte threshold rotates it first.
const SNAPSHOTS_PER_FILE: usize = 64;

/// One lane's identity and its pre-encoded upload frames (seq 1.., the
/// sign-in takes seq 0).
pub struct LaneFiles {
    /// The lane's install.
    pub install: InstallId,
    /// The lane's participant code.
    pub participant: ParticipantId,
    /// Encoded `SnapshotUpload` frames, in sending order.
    pub frames: Vec<Vec<u8>>,
}

/// Every lane's files plus what building them cost.
#[derive(Default)]
pub struct Files {
    /// Lanes in ascending install order.
    pub lanes: Vec<LaneFiles>,
    /// Snapshots across all files.
    pub snapshots: u64,
    /// Upload files across all lanes.
    pub n_files: u64,
    /// Serialized (uncompressed) bytes.
    pub raw_bytes: u64,
    /// LZSS output bytes.
    pub compressed_bytes: u64,
    /// Seconds in `SnapshotCollector::serialize_into`, all threads.
    pub encode_s: f64,
    /// Seconds in `lzss::Workspace::compress_into`, all threads.
    pub compress_s: f64,
}

impl Files {
    fn absorb(&mut self, other: Files) {
        self.lanes.extend(other.lanes);
        self.snapshots += other.snapshots;
        self.n_files += other.n_files;
        self.raw_bytes += other.raw_bytes;
        self.compressed_bytes += other.compressed_bytes;
        self.encode_s += other.encode_s;
        self.compress_s += other.compress_s;
    }
}

/// Build `n_lanes` lanes of about `snaps_per_lane` snapshots each from the
/// devices of the fleet `fleet` describes: lane `i` polls device
/// `(i + seed) mod n_devices` under its own install and participant ids,
/// starting `seed mod 1440` minutes into the study window.
pub fn build_files(fleet: &FleetConfig, seed: u64, n_lanes: usize, snaps_per_lane: usize) -> Files {
    assert!(n_lanes <= 900_000, "participant codes are six digits");
    let generated = Fleet::generate(fleet.clone());
    let devices = &generated.devices;
    let cadence = CollectorConfig {
        fast_period_secs: 60,
        slow_period_secs: 120,
        collect_reviews: true,
    };
    // One fast per minute and one slow per two: 1.5 snapshots a minute.
    let minutes = (snaps_per_lane as u64 * 2 / 3).max(1);
    let start = fleet.study_start() + SimDuration::from_secs(seed % 1_440 * 60);
    let end = start + SimDuration::from_secs((minutes - 1) * cadence.fast_period_secs);

    // Each worker owns a contiguous block of lanes and one set of scratch
    // buffers, so the build allocates per file, not per snapshot.
    let blocks = (rayon::current_num_threads() * 4).max(1);
    let per_block = n_lanes.div_ceil(blocks);
    let parts: Vec<Files> = (0..blocks)
        .into_par_iter()
        .map(|b| {
            let mut part = Files::default();
            let mut scratch = Scratch::default();
            for i in (b * per_block)..((b + 1) * per_block).min(n_lanes) {
                let install = InstallId(1_000_000_000 + i as u64);
                let participant = ParticipantId(100_000 + i as u32);
                let mut collector = SnapshotCollector::new(cadence, install, participant);
                let rotation = (seed % devices.len() as u64) as usize;
                let device = &devices[(i + rotation) % devices.len()].device;
                scratch.batch.clear();
                collector.poll_into(device, start, &mut scratch.batch);
                collector.poll_into(device, end, &mut scratch.batch);
                let lane = scratch.encode_lane(install, participant, &mut part);
                part.lanes.push(lane);
            }
            part
        })
        .collect();
    let mut files = Files::default();
    for part in parts {
        files.absorb(part);
    }
    files
}

/// Reused per-worker buffers of [`build_files`].
#[derive(Default)]
struct Scratch {
    batch: SnapshotBatch,
    raw: Vec<u8>,
    compressed: Vec<u8>,
    workspace: lzss::Workspace,
}

impl Scratch {
    /// Serialize, compress and frame the polled batch: fast snapshots
    /// first, then slow, each kind rotated into a new file every
    /// [`SNAPSHOTS_PER_FILE`] snapshots or at `DataBuffer`'s byte
    /// threshold, whichever comes first.
    fn encode_lane(
        &mut self,
        install: InstallId,
        participant: ParticipantId,
        totals: &mut Files,
    ) -> LaneFiles {
        let mut lane = LaneFiles {
            install,
            participant,
            frames: Vec::new(),
        };
        for fast in [true, false] {
            let threshold = if fast {
                FAST_ROTATE_BYTES
            } else {
                SLOW_ROTATE_BYTES
            };
            let mut in_file = 0u32;
            self.raw.clear();
            let snapshots: Vec<&Snapshot> = self
                .batch
                .snapshots()
                .iter()
                .filter(|s| s.is_fast() == fast)
                .collect();
            // Serialization is timed per file, not per snapshot: two clock
            // reads cost about as much as encoding one fast snapshot.
            let mut file_started = Instant::now();
            for (k, snapshot) in snapshots.iter().enumerate() {
                if in_file == 0 {
                    file_started = Instant::now();
                }
                SnapshotCollector::serialize_into(snapshot, &mut self.raw);
                in_file += 1;
                let last = k + 1 == snapshots.len();
                if in_file as usize == SNAPSHOTS_PER_FILE || self.raw.len() >= threshold || last {
                    totals.encode_s += file_started.elapsed().as_secs_f64();
                    let t0 = Instant::now();
                    self.workspace
                        .compress_into(&self.raw, &mut self.compressed);
                    totals.compress_s += t0.elapsed().as_secs_f64();
                    let file_id = lane.frames.len() as u64 + 1;
                    let mut frame = Vec::with_capacity(self.compressed.len() + 64);
                    encode_upload_into(
                        file_id as u32,
                        install,
                        file_id,
                        fast,
                        &self.compressed,
                        &mut frame,
                    );
                    totals.snapshots += u64::from(in_file);
                    totals.n_files += 1;
                    totals.raw_bytes += self.raw.len() as u64;
                    totals.compressed_bytes += self.compressed.len() as u64;
                    lane.frames.push(frame);
                    in_file = 0;
                    self.raw.clear();
                }
            }
        }
        lane
    }
}

/// Frames the replay may touch: enough for stable rates, small enough to
/// stay a fraction of a second per kernel.
const REPLAY_FRAMES: usize = 20_000;

/// Replay the server-side kernels over a sample of `files`, and read the
/// client-side kernel *rates* off the timers [`build_files`] kept — rates
/// only: the build ran in set-up, so it is no layer's busy time inside a
/// timed window. Values already present (measured inside the workload
/// itself) are kept.
pub fn replay(files: &Files, values: &mut Values) {
    let mut put = |name: &'static str, v: f64| {
        values.entry(name).or_insert(v);
    };
    let snapshots = files.snapshots.max(1) as f64;
    let mb = |bytes: u64| bytes as f64 / 1e6;
    put(
        "collect.codec.encode_ns_per_snapshot",
        files.encode_s * 1e9 / snapshots,
    );
    put(
        "collect.lzss.compress_mb_per_s",
        mb(files.raw_bytes) / files.compress_s.max(1e-9),
    );
    put(
        "collect.lzss.ratio",
        files.raw_bytes as f64 / files.compressed_bytes.max(1) as f64,
    );

    let frames: Vec<&Vec<u8>> = files
        .lanes
        .iter()
        .flat_map(|l| &l.frames)
        .take(REPLAY_FRAMES)
        .collect();
    if frames.is_empty() {
        return;
    }
    let frame_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();

    // Frame decode: a lenient codec, since the sample mixes lanes and so
    // restarts sequence numbers.
    let t0 = Instant::now();
    let mut codec = FrameCodec::new();
    let payloads: Vec<Vec<u8>> = frames
        .iter()
        .map(|frame| {
            codec.feed(frame);
            match codec.try_decode_message() {
                Ok(Some(Message::SnapshotUpload { payload, .. })) => payload,
                other => panic!("a frame encoded in set-up decodes, got {other:?}"),
            }
        })
        .collect();
    put(
        "collect.wire.decode_ns_per_frame",
        t0.elapsed().as_secs_f64() * 1e9 / frames.len() as f64,
    );
    let payload_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();

    let t0 = Instant::now();
    for p in &payloads {
        std::hint::black_box(sha256(p));
    }
    put(
        "collect.hash.sha256_mb_per_s",
        mb(payload_bytes) / t0.elapsed().as_secs_f64().max(1e-9),
    );
    let t0 = Instant::now();
    for f in &frames {
        std::hint::black_box(crc32(f));
    }
    put(
        "collect.hash.crc32_mb_per_s",
        mb(frame_bytes) / t0.elapsed().as_secs_f64().max(1e-9),
    );

    let mut raw = Vec::new();
    let mut raws: Vec<Vec<u8>> = Vec::with_capacity(payloads.len());
    let t0 = Instant::now();
    for p in &payloads {
        lzss::decompress_into(p, &mut raw).expect("a payload compressed in set-up decompresses");
        raws.push(raw.clone());
    }
    let raw_bytes: u64 = raws.iter().map(|r| r.len() as u64).sum();
    put(
        "collect.lzss.decompress_mb_per_s",
        mb(raw_bytes) / t0.elapsed().as_secs_f64().max(1e-9),
    );

    let t0 = Instant::now();
    let decoded: Vec<Vec<Snapshot>> = raws
        .iter()
        .map(|r| SnapshotCollector::deserialize_file(r).expect("a file encoded in set-up parses"))
        .collect();
    let n: usize = decoded.iter().map(Vec::len).sum();
    put(
        "collect.codec.decode_ns_per_snapshot",
        t0.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64,
    );

    let store = ShardedIngest::new(64);
    let t0 = Instant::now();
    for file in &decoded {
        store.ingest_batch(file);
    }
    put(
        "collect.shard.ingest_ns_per_snapshot",
        t0.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64,
    );
    put("collect.shard.skew", occupancy_skew(&store.occupancy()));
}

/// Fullest shard ÷ mean shard occupancy (1.0 = perfectly even).
pub fn occupancy_skew(occupancy: &[usize]) -> f64 {
    let total: usize = occupancy.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / occupancy.len() as f64;
    occupancy.iter().copied().max().unwrap_or(0) as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_is_max_over_mean() {
        assert_eq!(occupancy_skew(&[2, 2, 2, 2]), 1.0);
        assert_eq!(occupancy_skew(&[4, 0, 0, 0]), 4.0);
        assert_eq!(occupancy_skew(&[]), 0.0);
    }

    #[test]
    fn built_files_replay_to_the_snapshots_that_went_in() {
        let mut fleet = FleetConfig::test_scale();
        fleet.history_days = 10;
        let files = build_files(&fleet, 11, 7, 30);
        assert_eq!(files.lanes.len(), 7);
        assert!(files.lanes.windows(2).all(|w| w[0].install < w[1].install));
        // 20 minutes: 20 fast + 10 slow per lane.
        assert_eq!(files.snapshots, 7 * 30);
        assert_eq!(
            files.n_files,
            files
                .lanes
                .iter()
                .map(|l| l.frames.len() as u64)
                .sum::<u64>()
        );
        let mut values = Values::new();
        replay(&files, &mut values);
        assert!(values["collect.lzss.ratio"] > 1.0);
        assert!(values["collect.codec.decode_ns_per_snapshot"] > 0.0);
        assert!(values["collect.shard.skew"] >= 1.0);
    }
}
