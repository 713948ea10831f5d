//! The on-device data buffer (§3, "Data Buffer Module: Snapshot Processor").
//!
//! Snapshots accumulate into per-type files; when the slow file reaches
//! 8 KB or the fast file 100 KB, the file is compressed (LZSS) and queued
//! for upload. The uploader sends queued files to the server; on receiving
//! an acknowledgement carrying the SHA-256 of what the server got, the
//! buffer deletes the file only if the hash matches its own — otherwise
//! the file stays queued for retransmission. This is the paper's resilient
//! transfer loop.

use crate::hash::sha256;
use crate::lzss;
use racket_obs::LocalHistogram;
use racket_types::Snapshot;
use std::collections::VecDeque;
use std::time::Instant;

/// Rotation threshold for the slow-snapshot accumulation file (§3: 8 KB).
pub const SLOW_ROTATE_BYTES: usize = 8 * 1024;
/// Rotation threshold for the fast-snapshot accumulation file (§3: 100 KB).
pub const FAST_ROTATE_BYTES: usize = 100 * 1024;

/// A compressed, upload-ready snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UploadFile {
    /// Monotonic client-side file identifier.
    pub file_id: u64,
    /// Whether the file holds fast snapshots.
    pub fast: bool,
    /// LZSS-compressed file contents.
    pub data: Vec<u8>,
}

impl UploadFile {
    /// SHA-256 of the compressed contents — what a valid ack must carry.
    pub(crate) fn expected_hash(&self) -> [u8; 32] {
        sha256(&self.data)
    }
}

/// Per-lane wall-clock shards for the delivery sub-stages. Unsynchronized
/// ([`LocalHistogram`]); the study driver merges each retiring lane's
/// shards into the shared `span.simulate/deliver/*` histograms so the
/// benchmark's per-layer metrics attribute the delivery cost per kernel.
#[derive(Debug, Default, Clone)]
pub struct StageTimers {
    /// Nanoseconds encoding snapshots into the accumulation file.
    pub serialize: LocalHistogram,
    /// Nanoseconds LZSS-compressing rotated files.
    pub compress: LocalHistogram,
    /// Nanoseconds hashing upload payloads (ack verification).
    pub hash: LocalHistogram,
    /// Nanoseconds encoding and decoding wire frames.
    pub frame: LocalHistogram,
}

/// The device-side buffer.
#[derive(Debug, Default)]
pub struct DataBuffer {
    fast_file: Vec<u8>,
    slow_file: Vec<u8>,
    ready: VecDeque<UploadFile>,
    next_file_id: u64,
    /// Persistent LZSS state: hash chains survive across rotates, so a
    /// rotate allocates nothing beyond the queued file's exact-size copy.
    workspace: lzss::Workspace,
    /// Reused compressed-output scratch (worst-case capacity after the
    /// first rotate, never regrown).
    scratch: Vec<u8>,
    /// Delivery sub-stage timing shards (serialize + compress recorded
    /// here; the wire lane records hash + frame).
    pub timers: StageTimers,
    /// Total uncompressed bytes accumulated (stat).
    pub bytes_in: u64,
    /// Total compressed bytes queued (stat).
    pub bytes_out: u64,
}

impl DataBuffer {
    /// Create an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one snapshot (encoded as a binary record) to its
    /// accumulation file, rotating if the threshold is crossed.
    pub fn push(&mut self, snapshot: &Snapshot) {
        let fast = snapshot.is_fast();
        let start = Instant::now();
        let (before, after) = {
            let file = if fast {
                &mut self.fast_file
            } else {
                &mut self.slow_file
            };
            let before = file.len();
            crate::collector::SnapshotCollector::serialize_into(snapshot, file);
            (before, file.len())
        };
        self.timers
            .serialize
            .record(start.elapsed().as_nanos() as u64);
        self.bytes_in += (after - before) as u64;
        let threshold = if fast {
            FAST_ROTATE_BYTES
        } else {
            SLOW_ROTATE_BYTES
        };
        if after >= threshold {
            self.rotate(fast);
        }
    }

    /// Force-rotate a (non-empty) accumulation file into the upload queue;
    /// called on threshold crossings and at study end (final flush).
    ///
    /// Compresses through the persistent [`lzss::Workspace`] into the
    /// reused scratch buffer; the accumulation file keeps its capacity for
    /// the next fill, so steady-state rotation allocates only the queued
    /// file's exact-size copy.
    pub(crate) fn rotate(&mut self, fast: bool) {
        let start = Instant::now();
        if fast {
            if self.fast_file.is_empty() {
                return;
            }
            self.workspace
                .compress_into(&self.fast_file, &mut self.scratch);
            self.fast_file.clear();
        } else {
            if self.slow_file.is_empty() {
                return;
            }
            self.workspace
                .compress_into(&self.slow_file, &mut self.scratch);
            self.slow_file.clear();
        }
        self.timers
            .compress
            .record(start.elapsed().as_nanos() as u64);
        let data = self.scratch.as_slice().to_vec();
        self.bytes_out += data.len() as u64;
        self.next_file_id += 1;
        self.ready.push_back(UploadFile {
            file_id: self.next_file_id,
            fast,
            data,
        });
    }

    /// Flush both accumulation files (end of study / app uninstall).
    pub fn flush(&mut self) {
        self.rotate(true);
        self.rotate(false);
    }

    /// Files ready for upload, oldest first.
    pub fn pending(&self) -> impl Iterator<Item = &UploadFile> {
        self.ready.iter()
    }

    /// Whether nothing is accumulating: every pushed snapshot sits in a
    /// queued file, so no later rotation is implied (the state
    /// [`DataBuffer::flush`] leaves behind).
    pub(crate) fn is_flushed(&self) -> bool {
        self.fast_file.is_empty() && self.slow_file.is_empty()
    }

    /// Number of files awaiting acknowledgement.
    pub fn pending_count(&self) -> usize {
        self.ready.len()
    }

    /// Handle a server acknowledgement: delete the file if the server's
    /// hash matches ours (§3's transfer validation); returns whether the
    /// file was deleted. An unknown `file_id` returns `false`.
    pub fn acknowledge(&mut self, file_id: u64, server_hash: [u8; 32]) -> bool {
        let Some(pos) = self.ready.iter().position(|f| f.file_id == file_id) else {
            return false;
        };
        if self.ready[pos].expected_hash() != server_hash {
            return false; // corrupted in transit; keep for retry
        }
        self.ready.remove(pos);
        true
    }

    /// Achieved compression ratio so far (uncompressed / compressed).
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            return 1.0;
        }
        self.bytes_in as f64 / self.bytes_out as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{FastSnapshot, InstallId, ParticipantId, SimTime, SlowSnapshot};

    fn fast(t: u64) -> Snapshot {
        Snapshot::Fast(FastSnapshot {
            install_id: InstallId(1),
            participant_id: ParticipantId(111_111),
            time: SimTime::from_secs(t),
            foreground_app: Some(racket_types::AppId(7)),
            screen_on: true,
            battery_pct: 90,
            install_events: vec![],
        })
    }

    fn slow(t: u64) -> Snapshot {
        Snapshot::Slow(SlowSnapshot {
            install_id: InstallId(1),
            participant_id: ParticipantId(111_111),
            android_id: None,
            time: SimTime::from_secs(t),
            accounts: vec![],
            save_mode: false,
            stopped_apps: vec![],
            review_events: vec![],
        })
    }

    #[test]
    fn accumulates_until_threshold() {
        let mut buf = DataBuffer::new();
        buf.push(&fast(0));
        assert_eq!(buf.pending_count(), 0, "below threshold, nothing queued");
        // Fast binary records are ~40 bytes; 4,000 pushes cross 100 KB.
        for t in 1..4000 {
            buf.push(&fast(t));
        }
        assert!(buf.pending_count() >= 1, "fast file rotated");
        // Slow threshold (8 KB) crosses much sooner.
        let mut buf2 = DataBuffer::new();
        for t in 0..300 {
            buf2.push(&slow(t));
        }
        assert!(buf2.pending_count() >= 1, "slow file rotated");
    }

    #[test]
    fn rotated_files_decompress_to_original_lines() {
        let mut buf = DataBuffer::new();
        let snaps: Vec<Snapshot> = (0..100).map(slow).collect();
        for s in &snaps {
            buf.push(s);
        }
        buf.flush();
        let mut recovered = Vec::new();
        for f in buf.pending() {
            let raw = crate::lzss::decompress(&f.data).unwrap();
            recovered.extend(crate::collector::SnapshotCollector::deserialize_file(&raw).unwrap());
        }
        assert_eq!(recovered, snaps);
    }

    #[test]
    fn ack_with_matching_hash_deletes() {
        let mut buf = DataBuffer::new();
        buf.push(&fast(0));
        buf.flush();
        let f = buf.pending().next().unwrap().clone();
        assert!(buf.acknowledge(f.file_id, f.expected_hash()));
        assert_eq!(buf.pending_count(), 0);
    }

    #[test]
    fn ack_with_wrong_hash_keeps_file_for_retry() {
        let mut buf = DataBuffer::new();
        buf.push(&fast(0));
        buf.flush();
        let f = buf.pending().next().unwrap().clone();
        assert!(!buf.acknowledge(f.file_id, [0; 32]));
        assert_eq!(buf.pending_count(), 1, "file retained for retransmission");
        assert!(!buf.acknowledge(999, f.expected_hash()), "unknown file id");
    }

    #[test]
    fn duplicate_ack_is_idempotent() {
        // A duplicated ack frame (or a re-ack of a replayed upload) may
        // reach the buffer twice; the second must be a harmless no-op.
        let mut buf = DataBuffer::new();
        buf.push(&fast(0));
        buf.flush();
        let f = buf.pending().next().unwrap().clone();
        assert!(buf.acknowledge(f.file_id, f.expected_hash()));
        assert!(
            !buf.acknowledge(f.file_id, f.expected_hash()),
            "second ack finds no file and reports false"
        );
        assert_eq!(buf.pending_count(), 0);
    }

    #[test]
    fn ack_after_reconnect_still_matches_queued_file() {
        // Files survive a transport reconnect (they live in the buffer,
        // not the connection), so a late ack for a file queued before the
        // reconnect must still delete it — and only it.
        let mut buf = DataBuffer::new();
        buf.push(&fast(0));
        buf.flush();
        buf.push(&slow(1));
        buf.flush();
        let files: Vec<UploadFile> = buf.pending().cloned().collect();
        assert_eq!(files.len(), 2);
        // "Reconnect happens here" — buffer state is connection-independent.
        assert!(buf.acknowledge(files[0].file_id, files[0].expected_hash()));
        assert_eq!(buf.pending_count(), 1);
        assert_eq!(buf.pending().next().unwrap().file_id, files[1].file_id);
    }

    #[test]
    fn flush_on_empty_is_noop() {
        let mut buf = DataBuffer::new();
        buf.flush();
        assert_eq!(buf.pending_count(), 0);
    }

    #[test]
    fn compression_ratio_tracks() {
        let mut buf = DataBuffer::new();
        for t in 0..200 {
            buf.push(&slow(t));
        }
        buf.flush();
        assert!(
            buf.compression_ratio() > 3.0,
            "ratio {}",
            buf.compression_ratio()
        );
    }

    #[test]
    fn compression_ratio_is_one_before_first_rotate() {
        // Satellite: an empty buffer (bytes_out == 0) must report a
        // neutral 1.0, not divide by zero.
        let buf = DataBuffer::new();
        assert_eq!(buf.compression_ratio(), 1.0);
        let mut buf = DataBuffer::new();
        buf.push(&fast(0)); // accumulated but not yet rotated
        assert_eq!(buf.compression_ratio(), 1.0);
    }

    #[test]
    fn serialize_and_compress_timers_record() {
        let mut buf = DataBuffer::new();
        for t in 0..300 {
            buf.push(&slow(t));
        }
        buf.flush();
        assert_eq!(buf.timers.serialize.count(), 300);
        assert!(buf.timers.compress.count() >= 1);
    }

    #[test]
    fn file_ids_are_monotonic() {
        let mut buf = DataBuffer::new();
        for t in 0..700 {
            buf.push(&slow(t));
        }
        buf.flush();
        let ids: Vec<u64> = buf.pending().map(|f| f.file_id).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
    }
}
