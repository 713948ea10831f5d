//! Pipeline throughput metrics.
//!
//! The paper's study ingested 58.3M snapshots from 803 devices (§5); the
//! reproduction's simulate→collect→analyze pipeline reports its own
//! throughput through [`PipelineMetrics`], printed by the `study_summary`
//! experiment binary. The struct is the observable half of the parallelism
//! contract documented in `ARCHITECTURE.md`: stage wall times shrink with
//! worker threads while every count stays bit-identical.
//!
//! Since the observability refactor the struct is a *projection*, not a
//! ledger: every stage records into the study's `racket_obs::Registry`
//! under the canonical names in [`keys`], and
//! [`PipelineMetrics::from_snapshot`] derives the report from a frozen
//! [`racket_obs::RegistrySnapshot`]. The registry is the single source of
//! truth; nothing in it ever enters an output fingerprint.

use racket_obs::{Registry, RegistrySnapshot};

/// Canonical registry names for the pipeline's counters, gauges and spans.
///
/// Every stage that records into the study registry uses these constants,
/// and [`PipelineMetrics::from_snapshot`] reads them back; string literals
/// never appear at call sites, so the emitter and the recorders cannot
/// drift apart.
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
    /// worker's poll set.
    pub const SPAN_SERVER_ACCEPT: &str = "server/accept";
    /// Span: async plane — one worker poll round (readiness scan + frame
    /// decode + admission + ingest for every ready connection).
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
    pub const FAULT_DROPPED: &str = "fault.dropped";
    /// Counter: injected frame duplications.
    pub const FAULT_DUPLICATED: &str = "fault.duplicated";
    /// Counter: injected frame reorderings.
    pub const FAULT_REORDERED: &str = "fault.reordered";
    /// Counter: injected frame truncations.
    pub const FAULT_TRUNCATED: &str = "fault.truncated";
    /// Counter: injected bit corruptions.
    pub const FAULT_CORRUPTED: &str = "fault.corrupted";
    /// Counter: injected connection resets.
    pub const FAULT_DISCONNECTED: &str = "fault.disconnected";
    /// Counter: injected indefinite stalls.
    pub const FAULT_STALLED: &str = "fault.stalled";
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
/// [`PipelineMetrics::faults`]. All zeros on a clean (fault-free) run.
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

/// Wall-clock and throughput statistics for one end-to-end study run.
///
/// All counts are thread-count independent (the pipeline's determinism
/// contract); only the `*_secs` fields vary with `threads`. The fault,
/// retry and dedup counters are the observability surface of the chaos
/// subsystem: they vary with the configured [`FaultCounters`] fault plan
/// but — by the idempotency contract — the study's *data* output does not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineMetrics {
    /// Worker threads the parallel stages ran with.
    pub threads: usize,
    /// Wall time of fleet generation (history simulation), in seconds.
    pub fleet_gen_secs: f64,
    /// Wall time of the monitored-window simulation + snapshot collection
    /// loop, in seconds.
    pub simulate_secs: f64,
    /// Wall time of database assembly (coalescing, crawl joins, feature
    /// inputs), in seconds.
    pub assemble_secs: f64,
    /// Snapshots ingested by the collection server.
    pub snapshots_ingested: u64,
    /// Compressed bytes uploaded over the wire path, including
    /// retransmissions (0 on the direct, in-process path, which skips
    /// framing and compression).
    pub bytes_compressed: u64,
    /// Install records held per ingest shard at the end of the run
    /// (empty when the run used the unsharded wire path only).
    pub shard_occupancy: Vec<usize>,
    /// Transport faults injected by the configured fault plan.
    pub faults: FaultCounters,
    /// Protocol exchanges attempted over the wire path (first tries and
    /// retries combined).
    pub upload_attempts: u64,
    /// Exchanges that were retried after a timeout, decode error or
    /// connection reset.
    pub upload_retries: u64,
    /// Connection resets followed by a reconnect-and-resume.
    pub reconnects: u64,
    /// Simulated backoff time accumulated across all retries, in
    /// milliseconds (the study driver never sleeps; delays are virtual).
    pub backoff_ms: u64,
    /// Exchanges abandoned after the retry budget was exhausted (must be 0
    /// for the recovery contract to hold).
    pub exchanges_exhausted: u64,
    /// Duplicate or stale frames discarded by the sequence-checked codec.
    pub stale_frames: u64,
    /// Replayed upload files deduplicated (re-acknowledged without
    /// re-ingesting) by the server's idempotent ingest.
    pub dup_files_deduped: u64,
    /// Uploads load-shed (rejected with a 429) by the async plane's
    /// admission control because a per-connection queue was full. Zero on
    /// the synchronous paths; timing-dependent on the async path, so —
    /// like every other field here — never part of an output fingerprint.
    pub load_sheds: u64,
    /// Deepest per-connection upload queue any async worker observed
    /// (high-water mark; 0 on the synchronous paths).
    pub queue_depth_peak: u64,
}

impl PipelineMetrics {
    /// Derive the report from a frozen registry snapshot — the only way
    /// the study driver builds one of these. Counts come from the
    /// canonical [`keys`] counters, stage wall times from the top-level
    /// `span.*` histograms, shard occupancy from the zero-padded
    /// `ingest.shard_occupancy.*` gauges (gauge-name order is shard
    /// order).
    pub fn from_snapshot(snapshot: &RegistrySnapshot) -> PipelineMetrics {
        let shard_occupancy = snapshot
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with(keys::SHARD_OCCUPANCY_PREFIX))
            .map(|(_, &v)| v as usize)
            .collect();
        PipelineMetrics {
            threads: snapshot.gauge(keys::THREADS) as usize,
            fleet_gen_secs: snapshot.span_secs(keys::SPAN_FLEET_GEN),
            simulate_secs: snapshot.span_secs(keys::SPAN_SIMULATE),
            assemble_secs: snapshot.span_secs(keys::SPAN_ASSEMBLE),
            snapshots_ingested: snapshot.counter(keys::SNAPSHOTS_INGESTED),
            bytes_compressed: snapshot.counter(keys::BYTES_COMPRESSED),
            shard_occupancy,
            faults: FaultCounters::from_snapshot(snapshot),
            upload_attempts: snapshot.counter(keys::UPLOAD_ATTEMPTS),
            upload_retries: snapshot.counter(keys::UPLOAD_RETRIES),
            reconnects: snapshot.counter(keys::RECONNECTS),
            backoff_ms: snapshot.counter(keys::BACKOFF_MS),
            exchanges_exhausted: snapshot.counter(keys::EXCHANGES_EXHAUSTED),
            stale_frames: snapshot.counter(keys::STALE_FRAMES),
            dup_files_deduped: snapshot.counter(keys::DUP_FILES),
            load_sheds: snapshot.counter(keys::SERVER_LOAD_SHED),
            queue_depth_peak: snapshot.gauge(keys::SERVER_QUEUE_DEPTH_PEAK),
        }
    }

    /// Total pipeline wall time across the three stages, in seconds.
    pub fn total_secs(&self) -> f64 {
        self.fleet_gen_secs + self.simulate_secs + self.assemble_secs
    }

    /// Ingestion throughput over the simulate stage, in snapshots/second.
    pub fn snapshots_per_sec(&self) -> f64 {
        if self.simulate_secs > 0.0 {
            self.snapshots_ingested as f64 / self.simulate_secs
        } else {
            0.0
        }
    }

    /// Multi-line human-readable report (what `study_summary` prints).
    pub fn report(&self) -> String {
        let occupancy = if self.shard_occupancy.is_empty() {
            "unsharded (wire path)".to_string()
        } else {
            let min = self.shard_occupancy.iter().min().copied().unwrap_or(0);
            let max = self.shard_occupancy.iter().max().copied().unwrap_or(0);
            format!(
                "{} shards, {min}..{max} records/shard",
                self.shard_occupancy.len()
            )
        };
        let f = &self.faults;
        format!(
            "threads: {}\n\
             fleet generation: {:.2}s\n\
             simulate+collect: {:.2}s ({:.0} snapshots/s)\n\
             assembly:         {:.2}s\n\
             total:            {:.2}s\n\
             snapshots ingested: {}\n\
             bytes compressed:   {}\n\
             shard occupancy:    {occupancy}\n\
             faults injected:    {} (drop {}, dup {}, reorder {}, truncate {}, \
             corrupt {}, disconnect {}, stall {})\n\
             upload exchanges:   {} attempts, {} retries, {} reconnects, \
             {} ms backoff (simulated), {} exhausted\n\
             dedup:              {} stale frames discarded, {} replayed files \
             re-acked\n\
             admission:          {} uploads shed, queue depth peak {}",
            self.threads,
            self.fleet_gen_secs,
            self.simulate_secs,
            self.snapshots_per_sec(),
            self.assemble_secs,
            self.total_secs(),
            self.snapshots_ingested,
            self.bytes_compressed,
            f.total(),
            f.dropped,
            f.duplicated,
            f.reordered,
            f.truncated,
            f.corrupted,
            f.disconnected,
            f.stalled,
            self.upload_attempts,
            self.upload_retries,
            self.reconnects,
            self.backoff_ms,
            self.exchanges_exhausted,
            self.stale_frames,
            self.dup_files_deduped,
            self.load_sheds,
            self.queue_depth_peak,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_throughput() {
        let m = PipelineMetrics {
            threads: 4,
            fleet_gen_secs: 1.0,
            simulate_secs: 2.0,
            assemble_secs: 0.5,
            snapshots_ingested: 10_000,
            bytes_compressed: 0,
            shard_occupancy: vec![10, 12, 9, 11],
            ..PipelineMetrics::default()
        };
        assert!((m.total_secs() - 3.5).abs() < 1e-12);
        assert!((m.snapshots_per_sec() - 5_000.0).abs() < 1e-9);
        let report = m.report();
        assert!(report.contains("4 shards"));
        assert!(report.contains("threads: 4"));
    }

    #[test]
    fn empty_metrics_do_not_divide_by_zero() {
        let m = PipelineMetrics::default();
        assert_eq!(m.snapshots_per_sec(), 0.0);
        assert!(m.report().contains("unsharded"));
    }

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
    fn from_snapshot_projects_canonical_keys() {
        let reg = Registry::new();
        reg.gauge_set(keys::THREADS, 4);
        reg.add(keys::SNAPSHOTS_INGESTED, 1_000);
        reg.add(keys::BYTES_COMPRESSED, 2_048);
        reg.add(keys::UPLOAD_ATTEMPTS, 12);
        reg.add(keys::UPLOAD_RETRIES, 2);
        reg.add(keys::RECONNECTS, 1);
        reg.add(keys::BACKOFF_MS, 80);
        reg.add(keys::STALE_FRAMES, 3);
        reg.add(keys::DUP_FILES, 1);
        reg.gauge_set(&format!("{}0000", keys::SHARD_OCCUPANCY_PREFIX), 10);
        reg.gauge_set(&format!("{}0001", keys::SHARD_OCCUPANCY_PREFIX), 12);
        FaultCounters {
            dropped: 5,
            stalled: 2,
            ..FaultCounters::default()
        }
        .record_to(&reg);
        {
            let _s = reg.span(keys::SPAN_SIMULATE);
        }

        let m = PipelineMetrics::from_snapshot(&reg.snapshot());
        assert_eq!(m.threads, 4);
        assert_eq!(m.snapshots_ingested, 1_000);
        assert_eq!(m.bytes_compressed, 2_048);
        assert_eq!(m.shard_occupancy, vec![10, 12]);
        assert_eq!(m.faults.dropped, 5);
        assert_eq!(m.faults.stalled, 2);
        assert_eq!(m.faults.total(), 7);
        assert_eq!(m.upload_attempts, 12);
        assert_eq!(m.upload_retries, 2);
        assert_eq!(m.reconnects, 1);
        assert_eq!(m.backoff_ms, 80);
        assert_eq!(m.exchanges_exhausted, 0);
        assert_eq!(m.stale_frames, 3);
        assert_eq!(m.dup_files_deduped, 1);
        assert!(m.simulate_secs >= 0.0);
        assert_eq!(m.fleet_gen_secs, 0.0);
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

    #[test]
    fn report_includes_fault_and_retry_counters() {
        let m = PipelineMetrics {
            faults: FaultCounters {
                dropped: 3,
                ..FaultCounters::default()
            },
            upload_attempts: 10,
            upload_retries: 4,
            reconnects: 1,
            stale_frames: 2,
            dup_files_deduped: 1,
            ..PipelineMetrics::default()
        };
        let report = m.report();
        assert!(report.contains("faults injected:    3 (drop 3,"));
        assert!(report.contains("10 attempts, 4 retries, 1 reconnects"));
        assert!(report.contains("2 stale frames discarded, 1 replayed files"));
    }
}
