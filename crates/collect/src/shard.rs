//! Sharded snapshot ingestion.
//!
//! The paper's backend ingested 58.3M snapshots from 803 devices (§5); one
//! global lock on the record table would serialize the whole fleet. Since
//! every snapshot carries its install ID and per-install aggregation never
//! crosses installs, the record table shards cleanly: [`ShardedIngest`]
//! spreads [`InstallRecord`]s over `N` independently locked shards keyed by
//! install ID (the simulator assigns one install per physical device, so
//! this is sharding by device). Batches from *different* devices land on
//! different shards with probability `1 − 1/N` and ingest concurrently;
//! batches from the *same* device serialize on its shard, preserving the
//! per-install aggregation order.
//!
//! Determinism: per-install state is only ever touched under its own
//! shard's lock by snapshots of that install, and the global snapshot
//! counter is a commutative atomic add — so the drained records are a pure
//! function of the multiset of snapshots ingested, never of thread timing.
//! [`ShardedIngest::into_records`] returns records sorted by install ID to
//! give downstream consumers a canonical order.

use crate::server::InstallRecord;
use parking_lot::Mutex;
use racket_types::{InstallId, Snapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Concurrently usable snapshot store: per-install aggregates spread over
/// independently locked shards. The one record table — every collection
/// path folds into it, directly or through
/// [`crate::server::ProtocolCore`].
#[derive(Debug)]
pub struct ShardedIngest {
    shards: Vec<Mutex<HashMap<InstallId, InstallRecord>>>,
    snapshots: AtomicU64,
}

impl ShardedIngest {
    /// Create a store with `n_shards` shards (at least 1).
    pub fn new(n_shards: usize) -> Self {
        let n = n_shards.max(1);
        ShardedIngest {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            snapshots: AtomicU64::new(0),
        }
    }

    /// Create a store sized for the current worker-thread count (two
    /// shards per thread keeps the collision probability low without
    /// over-allocating locks).
    pub fn for_current_threads() -> Self {
        Self::new(rayon::current_num_threads() * 2)
    }

    /// The shard an install's record lives on.
    fn shard_of(&self, install: InstallId) -> usize {
        (install.raw() as usize) % self.shards.len()
    }

    /// Ingest a batch of snapshots from one device (callable from any
    /// thread): the shard lock is taken and the record found once for the
    /// whole batch.
    pub fn ingest_batch(&self, snapshots: &[Snapshot]) {
        let Some(first) = snapshots.first() else {
            return;
        };
        self.snapshots
            .fetch_add(snapshots.len() as u64, Ordering::Relaxed);
        debug_assert!(
            snapshots
                .iter()
                .all(|s| s.install_id() == first.install_id()),
            "a batch must come from one device"
        );
        let shard = &self.shards[self.shard_of(first.install_id())];
        shard
            .lock()
            .entry(first.install_id())
            .or_insert_with(|| {
                InstallRecord::new(first.install_id(), first.participant_id(), first.time())
            })
            .ingest(snapshots);
    }

    /// Snapshots ingested so far.
    pub fn snapshots_ingested(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// A copy of one install's record.
    pub fn record(&self, install: InstallId) -> Option<InstallRecord> {
        self.shards[self.shard_of(install)]
            .lock()
            .get(&install)
            .cloned()
    }

    /// Install records held per shard, in shard order.
    pub fn occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().len()).collect()
    }

    /// Publish the occupancy series as `ingest.shard_occupancy.<idx>`
    /// gauges of the study registry (zero-padded index, so gauge-name
    /// order is shard order for whoever reads them back by the
    /// [`racket_types::metrics::keys::SHARD_OCCUPANCY_PREFIX`] prefix).
    pub fn record_occupancy_to(&self, registry: &racket_obs::Registry) {
        use racket_types::metrics::keys;
        for (i, n) in self.occupancy().into_iter().enumerate() {
            registry.gauge_set(&format!("{}{i:04}", keys::SHARD_OCCUPANCY_PREFIX), n as u64);
        }
    }

    /// Drain the store into its records, sorted by install ID (the
    /// canonical order downstream assembly relies on).
    pub fn into_records(self) -> Vec<InstallRecord> {
        let mut records: Vec<InstallRecord> = self
            .shards
            .into_iter()
            .flat_map(|s| s.into_inner().into_values())
            .collect();
        records.sort_by_key(|r| r.install_id);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{AppId, FastSnapshot, ParticipantId, SimTime};

    fn snap(install: u64, t: u64) -> Snapshot {
        Snapshot::Fast(FastSnapshot {
            install_id: InstallId(install),
            participant_id: ParticipantId(123_456),
            time: SimTime::from_secs(t),
            foreground_app: Some(AppId(1)),
            screen_on: true,
            battery_pct: 50,
            install_events: vec![],
        })
    }

    #[test]
    fn ingest_aggregates_per_install() {
        let ingest = ShardedIngest::new(4);
        ingest.ingest_batch(&[snap(1_000_000_001, 10), snap(1_000_000_001, 15)]);
        ingest.ingest_batch(&[snap(1_000_000_002, 20)]);
        assert_eq!(ingest.snapshots_ingested(), 3);
        assert_eq!(ingest.occupancy().iter().sum::<usize>(), 2);
        let records = ingest.into_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].install_id, InstallId(1_000_000_001));
        assert_eq!(records[0].n_fast, 2);
        assert_eq!(records[1].n_fast, 1);
    }

    #[test]
    fn batch_ingest_equals_singles() {
        let a = ShardedIngest::new(3);
        let b = ShardedIngest::new(3);
        let batch: Vec<Snapshot> = (0..10).map(|t| snap(1_000_000_007, t)).collect();
        for s in &batch {
            a.ingest_batch(std::slice::from_ref(s));
        }
        b.ingest_batch(&batch);
        let (ra, rb) = (a.into_records(), b.into_records());
        assert_eq!(ra.len(), 1);
        assert_eq!(ra[0].n_fast, rb[0].n_fast);
        assert_eq!(ra[0].snapshots_per_day, rb[0].snapshots_per_day);
    }

    #[test]
    fn concurrent_ingest_is_deterministic() {
        use rayon::prelude::*;
        let run = |threads: &str| {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let ingest = ShardedIngest::new(8);
            let snaps: Vec<Snapshot> = (0..64u64)
                .flat_map(|d| (0..50u64).map(move |t| snap(1_000_000_000 + d, t * 7)))
                .collect();
            snaps
                .par_iter()
                .for_each(|s| ingest.ingest_batch(std::slice::from_ref(s)));
            std::env::remove_var("RAYON_NUM_THREADS");
            ingest
                .into_records()
                .iter()
                .map(|r| (r.install_id, r.n_fast, r.first_seen, r.last_seen))
                .collect::<Vec<_>>()
        };
        assert_eq!(run("1"), run("8"));
    }
}
