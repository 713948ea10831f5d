//! Canonical registry names and the chaos fault counters.
//!
//! Every stage of the simulate→collect→analyze pipeline records into the
//! study's private `racket_obs::Registry` under the names in [`keys`];
//! readers (`paper_report`'s stderr, `benchmark/`, the scenario table)
//! take a [`racket_obs::RegistrySnapshot`] and read it by the same
//! constants. The registry is the single record of counts and timings;
//! nothing in it ever enters an output fingerprint, and stage wall times
//! are the only part that varies with worker threads.

use racket_obs::{Registry, RegistrySnapshot};

/// Canonical registry names for the pipeline's counters, gauges and spans.
///
/// Every stage that records into the study registry uses these constants,
/// and every reader reads them back by name; string literals never appear
/// at call sites, so the emitters and the readers cannot drift apart.
pub mod keys {
    /// Gauge: worker threads the parallel stages ran with.
    pub const THREADS: &str = "pipeline.threads";
    /// Span: fleet generation (history simulation).
    pub const SPAN_FLEET_GEN: &str = "fleet_gen";
    /// Span: monitored-window simulation + snapshot collection loop.
    pub const SPAN_SIMULATE: &str = "simulate";
    /// Span: database assembly (coalescing, crawl joins, feature inputs).
    pub const SPAN_ASSEMBLE: &str = "assemble";
    /// Span: folding per-device streaming feature state at assemble time.
    pub const SPAN_STREAM_FOLD: &str = "assemble/stream_fold";
    /// Span: building the columnar (struct-of-arrays) snapshot store from
    /// the canonical sorted record vector (ARCHITECTURE.md §9).
    pub const SPAN_COLUMNARIZE: &str = "assemble/columnarize";
    /// Span: priming the detection service from streaming state (per-app
    /// scores + cached device vectors).
    pub const SPAN_STREAM_PRIME: &str = "analyze/stream_prime";
    /// Span: end-of-study device classification from primed streaming
    /// state (the latency the streaming engine is measured on).
    pub const SPAN_SCORE_STREAM: &str = "analyze/score_streaming";
    /// Span: device classification via the batch re-scan path (recomputes
    /// every feature from the raw record).
    pub const SPAN_SCORE_BATCH: &str = "analyze/score_batch";
    /// Span: async plane — accepting newly connected clients into a
    /// worker's connection list.
    pub const SPAN_SERVER_ACCEPT: &str = "server/accept";
    /// Span: async plane — one worker round that stepped a connection
    /// (readiness scan, stall checks, and frame decode + admission +
    /// ingest for every ready connection).
    pub const SPAN_SERVER_POLL: &str = "server/poll";
    /// Counter: async plane — uploads load-shed with a 429 because a
    /// per-connection queue was full. Varies with timing; excluded from
    /// all output fingerprints (same contract as `ingest.dup_files`).
    pub const SERVER_LOAD_SHED: &str = "server.load_shed";
    /// Counter: async plane — wedged connections recovered by a server-side
    /// stall sweep (mid-frame with no progress past the stall deadline).
    pub const SERVER_STALL_SWEEPS: &str = "server.stall_sweeps";
    /// Gauge: async plane — deepest per-connection upload queue observed
    /// by any worker (high-water mark across the run).
    pub const SERVER_QUEUE_DEPTH_PEAK: &str = "server.queue_depth_peak";
    /// Counter: snapshots ingested by the collection server.
    pub const SNAPSHOTS_INGESTED: &str = "ingest.snapshots";
    /// Counter: replayed upload files re-acked without re-ingesting.
    pub const DUP_FILES: &str = "ingest.dup_files";
    /// Gauge prefix: per-shard install-record occupancy
    /// (`ingest.shard_occupancy.0007` → records in shard 7; the index is
    /// zero-padded so gauge-name order is shard order).
    pub const SHARD_OCCUPANCY_PREFIX: &str = "ingest.shard_occupancy.";
    /// Counter: compressed bytes uploaded (incl. retransmissions).
    pub const BYTES_COMPRESSED: &str = "wire.bytes_compressed";
    /// Counter: protocol exchanges attempted (first tries + retries).
    pub const UPLOAD_ATTEMPTS: &str = "wire.attempts";
    /// Counter: exchanges retried after timeout/decode error/reset.
    pub const UPLOAD_RETRIES: &str = "wire.retries";
    /// Counter: reconnect-and-resume cycles.
    pub const RECONNECTS: &str = "wire.reconnects";
    /// Counter: simulated backoff milliseconds accumulated across retries.
    pub const BACKOFF_MS: &str = "wire.backoff_ms";
    /// Counter: exchanges abandoned after the retry budget ran out.
    pub const EXCHANGES_EXHAUSTED: &str = "wire.exhausted";
    /// Counter: duplicate/stale frames discarded by sequence-checked codecs.
    pub const STALE_FRAMES: &str = "wire.stale_frames";
    /// Counter: injected frame drops.
    pub(crate) const FAULT_DROPPED: &str = "fault.dropped";
    /// Counter: injected frame duplications.
    pub(crate) const FAULT_DUPLICATED: &str = "fault.duplicated";
    /// Counter: injected frame reorderings.
    pub(crate) const FAULT_REORDERED: &str = "fault.reordered";
    /// Counter: injected frame truncations.
    pub(crate) const FAULT_TRUNCATED: &str = "fault.truncated";
    /// Counter: injected bit corruptions.
    pub(crate) const FAULT_CORRUPTED: &str = "fault.corrupted";
    /// Counter: injected connection resets.
    pub(crate) const FAULT_DISCONNECTED: &str = "fault.disconnected";
    /// Counter: injected indefinite stalls.
    pub(crate) const FAULT_STALLED: &str = "fault.stalled";
    /// Span: campaign detection over the incremental (streaming) sketches
    /// at study-assemble time.
    pub const SPAN_CAMPAIGN_INCREMENTAL: &str = "campaign/incremental";
    /// Span: batch campaign-sketch rebuild from the install-event column
    /// family of the columnar store.
    pub const SPAN_CAMPAIGN_SHINGLE: &str = "campaign/shingle";
    /// Span: LSH banding pass proposing candidate device pairs.
    pub const SPAN_CAMPAIGN_LSH: &str = "campaign/lsh";
    /// Span: exact Jaccard + temporal co-occurrence scoring of candidates.
    pub const SPAN_CAMPAIGN_SCORE: &str = "campaign/score";
    /// Span: greedy quasi-clique mining over the co-occurrence graph.
    pub const SPAN_CAMPAIGN_MINE: &str = "campaign/mine";
    /// Span: near-duplicate review-text candidate pass (SimHash banding +
    /// Hamming verification over per-install text sketches).
    pub const SPAN_CAMPAIGN_TEXT: &str = "campaign/text";
    /// Span: batch text-sketch rebuild from the review column family of
    /// the columnar store.
    pub const SPAN_TEXT_REBUILD: &str = "campaign/text_rebuild";
    /// Counter: distinct shingles folded by campaign detection (batch
    /// rebuild path; the numerator of `benchmark/`'s
    /// `campaign.sketch.shingles_per_s`).
    pub const CAMPAIGN_SHINGLES: &str = "campaign.shingles";
}

/// Per-class counts of transport faults injected by a chaos run.
///
/// Filled in by the fault-injection layer (`racket-collect`'s
/// `FaultPlan` on `MemTransport`) and summed across all device lanes into
/// the study registry's `fault.*` counters. All zeros on a clean
/// (fault-free) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Frames silently discarded in transit.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back and delivered after a later frame.
    pub reordered: u64,
    /// Frames cut off mid-stream.
    pub truncated: u64,
    /// Frames with one bit flipped.
    pub corrupted: u64,
    /// Connection resets surfaced to the sender.
    pub disconnected: u64,
    /// Frames stalled past the receiver's deadline (indefinitely delayed;
    /// indistinguishable from loss within one retry deadline).
    pub stalled: u64,
}

impl FaultCounters {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.reordered
            + self.truncated
            + self.corrupted
            + self.disconnected
            + self.stalled
    }

    /// Fold another counter set into this one (lane aggregation).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.truncated += other.truncated;
        self.corrupted += other.corrupted;
        self.disconnected += other.disconnected;
        self.stalled += other.stalled;
    }

    /// Add these counts to the `fault.*` counters of a registry.
    pub fn record_to(&self, registry: &Registry) {
        registry.add(keys::FAULT_DROPPED, self.dropped);
        registry.add(keys::FAULT_DUPLICATED, self.duplicated);
        registry.add(keys::FAULT_REORDERED, self.reordered);
        registry.add(keys::FAULT_TRUNCATED, self.truncated);
        registry.add(keys::FAULT_CORRUPTED, self.corrupted);
        registry.add(keys::FAULT_DISCONNECTED, self.disconnected);
        registry.add(keys::FAULT_STALLED, self.stalled);
    }

    /// Read the `fault.*` counters back out of a snapshot.
    pub fn from_snapshot(snapshot: &RegistrySnapshot) -> FaultCounters {
        FaultCounters {
            dropped: snapshot.counter(keys::FAULT_DROPPED),
            duplicated: snapshot.counter(keys::FAULT_DUPLICATED),
            reordered: snapshot.counter(keys::FAULT_REORDERED),
            truncated: snapshot.counter(keys::FAULT_TRUNCATED),
            corrupted: snapshot.counter(keys::FAULT_CORRUPTED),
            disconnected: snapshot.counter(keys::FAULT_DISCONNECTED),
            stalled: snapshot.counter(keys::FAULT_STALLED),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_counters_total_and_merge() {
        let mut a = FaultCounters {
            dropped: 1,
            duplicated: 2,
            reordered: 3,
            truncated: 4,
            corrupted: 5,
            disconnected: 6,
            stalled: 7,
        };
        assert_eq!(a.total(), 28);
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 56);
        assert_eq!(a.dropped, 2);
        assert_eq!(a.stalled, 14);
    }

    #[test]
    fn fault_counters_round_trip_through_registry() {
        let reg = Registry::new();
        let f = FaultCounters {
            dropped: 1,
            duplicated: 2,
            reordered: 3,
            truncated: 4,
            corrupted: 5,
            disconnected: 6,
            stalled: 7,
        };
        f.record_to(&reg);
        f.record_to(&reg); // counters add — recording is commutative
        let back = FaultCounters::from_snapshot(&reg.snapshot());
        assert_eq!(back.total(), 2 * f.total());
        assert_eq!(back.corrupted, 10);
    }
}
