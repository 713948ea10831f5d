//! Log-bucketed latency/size histograms.
//!
//! The bucket layout is HdrHistogram-style: values are grouped by octave
//! (power of two) with [`SUB`] linear sub-buckets per octave, giving a
//! worst-case relative quantile error of `1 / SUB` (12.5%) across the full
//! `u64` range with a fixed 496-slot table. Recording is a single atomic
//! increment, so concurrent recorders never contend on a lock and the
//! result is independent of interleaving — the commutativity the pipeline's
//! determinism contract relies on (metrics never enter the output
//! fingerprint, but their *counts* must still be thread-count stable).
//!
//! Three forms cooperate:
//!
//! * [`AtomicHistogram`] — the shared, registry-owned sink;
//! * [`LocalHistogram`] — an unsynchronized per-thread (or per-lane) shard,
//!   merged into an atomic histogram in one pass when the shard retires;
//! * [`HistogramSnapshot`] — a frozen copy with quantile arithmetic.
//!
//! Shard retirement order never shows in a snapshot; that is
//! property-tested in `tests/histogram_props.rs`.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave (8 → ≤ 12.5% relative quantile error).
pub const SUB: usize = 8;
const SUB_BITS: u32 = 3;
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = 61 * SUB + SUB; // indexes 0..=495

/// Bucket index for a value (monotone in `v`, exact below [`SUB`]).
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (exp - SUB_BITS + 1) as usize * SUB + sub
    }
}

/// Inclusive-exclusive `[lo, hi)` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        (i as u64, i as u64 + 1)
    } else {
        let octave = (i / SUB) as u32;
        let sub = (i % SUB) as u64;
        let exp = octave + SUB_BITS - 1;
        let width = 1u64 << (exp - SUB_BITS);
        let lo = (1u64 << exp) + sub * width;
        (lo, lo.saturating_add(width))
    }
}

/// Shared histogram: every field is an atomic, so recording from any
/// number of threads is lock-free and commutative.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold a retiring per-thread shard in (one atomic add per non-empty
    /// bucket).
    pub fn merge_local(&self, local: &LocalHistogram) {
        for (i, &n) in local.buckets.iter().enumerate() {
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        if local.count > 0 {
            self.count.fetch_add(local.count, Ordering::Relaxed);
            self.sum.fetch_add(local.sum, Ordering::Relaxed);
            self.min.fetch_min(local.min, Ordering::Relaxed);
            self.max.fetch_max(local.max, Ordering::Relaxed);
        }
    }

    /// Freeze the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Unsynchronized histogram shard for a single thread or lane; merged into
/// an [`AtomicHistogram`] when the owner retires.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty shard.
    pub fn new() -> LocalHistogram {
        LocalHistogram {
            buckets: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value (no synchronization).
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// A frozen histogram: what snapshots and reports consume. `min`/`max`
/// carry their empty-state sentinels (`u64::MAX`/`0`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (dense, [`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (`0` when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Approximate quantile (`q ∈ [0, 1]`) by linear interpolation inside
    /// the covering bucket; exact at the recorded `min`/`max` endpoints.
    /// Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            if cum >= rank {
                let (lo, hi) = bucket_bounds(i);
                let into = (rank - (cum - n)) as f64 / n as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                // The true extrema are tracked exactly; clamp the bucket
                // interpolation into them.
                return est.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Sum interpreted as nanoseconds, in seconds (span histograms record
    /// nanosecond durations).
    pub fn sum_secs(&self) -> f64 {
        self.sum as f64 / 1e9
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        let mut last = 0usize;
        for v in 0..4096u64 {
            let i = bucket_index(v);
            assert!(i >= last, "index decreased at v={v}");
            assert!(i - last <= 1, "index skipped at v={v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v < hi, "v={v} outside [{lo},{hi}) of bucket {i}");
            last = i;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn exact_below_sub() {
        for v in 0..SUB as u64 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v + 1));
        }
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        let p95 = s.quantile(0.95);
        let p99 = s.quantile(0.99);
        assert!((400.0..=620.0).contains(&p50), "p50 = {p50}");
        assert!((850.0..=1000.0).contains(&p95), "p95 = {p95}");
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p99 <= 1000.0);
    }

    #[test]
    fn local_shard_merges_into_atomic() {
        let shared = AtomicHistogram::new();
        shared.record(10);
        let mut local = LocalHistogram::new();
        local.record(20);
        local.record(30);
        shared.merge_local(&local);
        let s = shared.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 60);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0.0);
        assert_eq!(HistogramSnapshot::empty().mean(), 0.0);
    }
}
