//! The per-device campaign sketch: the state both detector paths share.
//!
//! A [`CampaignSketch`] summarises one install record's monitored install
//! activity three ways at once:
//!
//! * the exact **event set** `(app, second)` — temporal co-occurrence
//!   scoring needs real timestamps, not buckets;
//! * the exact **shingle set** (packed `(app, bucket)`) — used for exact
//!   Jaccard verification of LSH candidates;
//! * the **MinHash signature** of the shingle set — used for LSH banding.
//!
//! The incremental path folds events one at a time at snapshot-ingest
//! fold points (`racket-collect`); the batch path rebuilds sketches from
//! the install-event column family of `ColumnarSnapshots`. Both end at
//! identical sketches because every ingredient is order- and
//! duplicate-insensitive: B-tree sets absorb replays, and the MinHash
//! fold is an elementwise min. [`CampaignSketch::merge`] is commutative
//! and associative with the default sketch as identity, so sharded
//! ingest can combine partial sketches in any order.

use crate::minhash::MinHash;
use racket_types::{AppId, SimTime};
use std::collections::BTreeSet;

/// Width of one shingle time bucket: 6 hours. Coarse enough that a burst
/// campaign's workers land in the same bucket, fine enough that a day
/// still has 4 distinguishable windows.
const BUCKET_SECS: u64 = 21_600;

/// Rows of the per-device MinHash signature.
const N_HASHES: usize = 128;

/// Per-device lockstep-detection state. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSketch {
    events: BTreeSet<(AppId, u64)>,
    shingles: BTreeSet<u64>,
    minhash: MinHash,
}

impl Default for CampaignSketch {
    fn default() -> Self {
        CampaignSketch {
            events: BTreeSet::new(),
            shingles: BTreeSet::new(),
            minhash: MinHash::empty(N_HASHES),
        }
    }
}

impl CampaignSketch {
    /// Fold one monitored install event. Idempotent: replaying an event
    /// already in the set changes nothing (the MinHash fold only runs
    /// when the shingle is new, and re-folding a shingle is a no-op
    /// anyway).
    pub fn observe(&mut self, app: AppId, t: SimTime) {
        self.events.insert((app, t.as_secs()));
        let s = racket_columnar::pack_shingle(app.0, t.as_secs(), BUCKET_SECS);
        if self.shingles.insert(s) {
            self.minhash.observe(s);
        }
    }

    /// Merge a sketch built over another slice of the same install's
    /// snapshots: set unions plus a MinHash merge. Commutative and
    /// associative with [`CampaignSketch::default`] as identity.
    pub fn merge(&mut self, other: &CampaignSketch) {
        self.events.extend(other.events.iter().copied());
        self.shingles.extend(other.shingles.iter().copied());
        self.minhash.merge(&other.minhash);
    }

    /// Number of distinct shingles folded so far.
    pub fn n_shingles(&self) -> usize {
        self.shingles.len()
    }

    /// Whether no event has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The exact event set, ascending by `(app, second)`.
    pub fn events(&self) -> impl Iterator<Item = (AppId, SimTime)> + '_ {
        self.events
            .iter()
            .map(|&(app, secs)| (app, SimTime::from_secs(secs)))
    }

    /// The exact shingle set, ascending.
    pub fn shingles(&self) -> impl Iterator<Item = u64> + '_ {
        self.shingles.iter().copied()
    }

    /// The MinHash signature rows (for LSH banding).
    pub fn signature(&self) -> &[u64] {
        self.minhash.rows()
    }

    /// Exact Jaccard similarity of the two shingle sets (`J(∅, ∅) = 1`,
    /// matching [`MinHash::estimate_jaccard`]).
    pub fn exact_jaccard(&self, other: &CampaignSketch) -> f64 {
        let inter = self.shingles.intersection(&other.shingles).count();
        let union = self.shingles.len() + other.shingles.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_is_idempotent_and_order_insensitive() {
        let mut a = CampaignSketch::default();
        a.observe(AppId(1), SimTime::from_hours(2));
        a.observe(AppId(2), SimTime::from_hours(9));
        a.observe(AppId(1), SimTime::from_hours(2)); // replay

        let mut b = CampaignSketch::default();
        b.observe(AppId(2), SimTime::from_hours(9));
        b.observe(AppId(1), SimTime::from_hours(2));
        assert_eq!(a, b);
        assert_eq!(a.n_shingles(), 2);
        assert_eq!(a.events().count(), 2);
    }

    #[test]
    fn merge_equals_union_fold() {
        let mut left = CampaignSketch::default();
        left.observe(AppId(1), SimTime::from_hours(1));
        left.observe(AppId(3), SimTime::from_hours(30));
        let mut right = CampaignSketch::default();
        right.observe(AppId(3), SimTime::from_hours(30)); // overlap
        right.observe(AppId(7), SimTime::from_days(2));

        let mut merged = left.clone();
        merged.merge(&right);

        let mut direct = CampaignSketch::default();
        for (app, t) in left.events().chain(right.events()) {
            direct.observe(app, t);
        }
        assert_eq!(merged, direct);

        let mut with_id = left.clone();
        with_id.merge(&CampaignSketch::default());
        assert_eq!(with_id, left);
    }

    #[test]
    fn jaccard_exact_on_small_sets() {
        let mut a = CampaignSketch::default();
        let mut b = CampaignSketch::default();
        for h in 0..4 {
            a.observe(AppId(h), SimTime::from_days(h as u64));
            b.observe(AppId(h + 2), SimTime::from_days((h + 2) as u64));
        }
        // shingle sets {0..3} and {2..5}: |∩| = 2, |∪| = 6
        assert!((a.exact_jaccard(&b) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(a.exact_jaccard(&a), 1.0);
        assert_eq!(
            CampaignSketch::default().exact_jaccard(&CampaignSketch::default()),
            1.0
        );
    }
}
