//! A streaming near-duplicate index over review SimHashes.
//!
//! Candidates come from banding: two hashes are compared when they agree
//! on at least one of four 16-bit bands. Two hashes within Hamming
//! distance 3 of each other share at least one exact band (pigeonhole
//! over 4 bands), and copy-paste campaign templates land at distance 0–2,
//! so banding recalls them with certainty. [`NearDupIndex::scan`] then
//! *verifies* every candidate pair against a caller-chosen Hamming
//! threshold, which may exceed the banding guarantee — banding is recall
//! floor, verification is the precision gate.
//!
//! The state is one ordered set of `(simhash, owner)` entries, so the
//! index — and the scan report — is a canonical function of the inserted
//! **set**, independent of insertion order and duplicate inserts. That
//! makes "streaming index state ≡ batch-rebuilt index state" a byte-level
//! comparison. Nothing is bucketed at insert: the scan derives each band's
//! buckets by sorting a copy of the entries on that band's key and
//! sweeping the equal-key runs, and a pair that shares several bands is
//! accounted in the lowest one only, so every distinct candidate is
//! counted and verified exactly once, as it is generated. The candidates
//! themselves are never stored. Verified owner pairs gather in a buffer
//! that, whenever it is full, drops its repeats (many SimHash pairs can
//! support one owner pair) and leaves at least as much room as it keeps,
//! so memory is O(entries + distinct verified owner pairs) and the
//! sorting amortises.
//!
//! Two things a larger corpus might suggest are deliberately absent. A
//! per-bucket work cap would change `n_candidates` and `pairs`, which are
//! part of the detector's fingerprint. Verifying a row against its
//! buckets at insert would serve a caller that scans one index twice;
//! every caller builds an index, scans it once and drops it.

use crate::simhash::hamming;
use std::collections::BTreeSet;

/// Bits per band: a SimHash is four 16-bit bands.
const BAND_BITS: u32 = 16;

/// The `band`-th 16-bit field of a SimHash, or of the XOR of two.
fn band_key(bits: u64, band: u32) -> u16 {
    (bits >> (band * BAND_BITS)) as u16
}

/// Sort and drop duplicates.
fn sort_dedup(pairs: &mut Vec<(u64, u64)>) {
    pairs.sort_unstable();
    pairs.dedup();
}

/// A banded near-duplicate index over `(owner, simhash)` pairs.
///
/// `owner` is an opaque caller identity (e.g. an install/app pairing);
/// pairs sharing an owner are never reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NearDupIndex {
    entries: BTreeSet<(u64, u64)>,
}

/// The result of a verification scan over a [`NearDupIndex`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NearDupScan {
    /// Verified owner pairs (`a < b`), each within the Hamming threshold
    /// on at least one SimHash pair.
    pub pairs: BTreeSet<(u64, u64)>,
    /// Distinct cross-owner candidate pairs that shared a bucket.
    pub n_candidates: usize,
    /// Candidates that passed Hamming verification.
    pub n_verified: usize,
}

impl NearDupIndex {
    /// An empty index.
    pub fn new() -> Self {
        NearDupIndex::default()
    }

    /// Insert one `(owner, simhash)` observation. Idempotent.
    pub fn insert(&mut self, owner: u64, simhash: u64) {
        self.entries.insert((simhash, owner));
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Verify all in-bucket candidate pairs against `max_hamming`.
    ///
    /// A candidate is a cross-owner pair of distinct `(simhash, owner)`
    /// entries sharing at least one band bucket; it is counted once even
    /// when several bands propose it. A verified owner pair is reported
    /// once even when several SimHash pairs support it.
    pub fn scan(&self, max_hamming: u32) -> NearDupScan {
        let mut scan = NearDupScan::default();
        let mut verified: Vec<(u64, u64)> = Vec::new();
        let mut view: Vec<(u64, u64)> = self.entries.iter().copied().collect();
        for band in 0..u64::BITS / BAND_BITS {
            view.sort_unstable_by_key(|&(simhash, _)| band_key(simhash, band));
            for bucket in view.chunk_by(|a, b| band_key(a.0 ^ b.0, band) == 0) {
                for (i, &(sim_a, own_a)) in bucket.iter().enumerate() {
                    for &(sim_b, own_b) in &bucket[i + 1..] {
                        // Meeting in a lower band too, the pair was accounted there.
                        let diff = sim_a ^ sim_b;
                        if own_a == own_b || (0..band).any(|low| band_key(diff, low) == 0) {
                            continue;
                        }
                        scan.n_candidates += 1;
                        if hamming(sim_a, sim_b) > max_hamming {
                            continue;
                        }
                        scan.n_verified += 1;
                        // Drop repeated owner pairs before growing the buffer.
                        if verified.len() == verified.capacity() {
                            sort_dedup(&mut verified);
                            verified.reserve(verified.len().max(1024));
                        }
                        verified.push((own_a.min(own_b), own_a.max(own_b)));
                    }
                }
            }
        }
        sort_dedup(&mut verified);
        scan.pairs = verified.into_iter().collect();
        scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simhash::simhash64_of_text;

    const TEMPLATE: &str = "great app works perfectly love the new design and speed";

    #[test]
    fn identical_texts_pair_across_owners() {
        let mut idx = NearDupIndex::new();
        let h = simhash64_of_text(TEMPLATE, 2);
        idx.insert(1, h);
        idx.insert(2, h);
        idx.insert(3, h);
        let scan = idx.scan(6);
        assert_eq!(scan.pairs, BTreeSet::from([(1u64, 2u64), (1, 3), (2, 3)]));
        assert_eq!(scan.n_verified, 3);
    }

    #[test]
    fn same_owner_never_pairs_with_itself() {
        let mut idx = NearDupIndex::new();
        let h = simhash64_of_text(TEMPLATE, 2);
        idx.insert(9, h);
        idx.insert(9, h ^ 1); // 1 bit apart, same owner
        let scan = idx.scan(6);
        assert!(scan.pairs.is_empty());
        assert_eq!(scan.n_candidates, 0);
    }

    #[test]
    fn distant_bucket_collisions_are_rejected_at_verification() {
        let mut idx = NearDupIndex::new();
        let h = simhash64_of_text(TEMPLATE, 2);
        // Same low band, other 48 bits inverted: candidate, not verified.
        idx.insert(1, h);
        idx.insert(2, h ^ 0xFFFF_FFFF_FFFF_0000);
        let scan = idx.scan(6);
        assert_eq!(scan.n_candidates, 1);
        assert_eq!(scan.n_verified, 0);
        assert!(scan.pairs.is_empty());
    }

    #[test]
    fn index_is_insertion_order_and_duplicate_insensitive() {
        let hashes = [
            (1u64, 111u64),
            (2, 222),
            (3, simhash64_of_text(TEMPLATE, 2)),
        ];
        let mut fwd = NearDupIndex::new();
        for &(o, h) in &hashes {
            fwd.insert(o, h);
        }
        let mut rev = NearDupIndex::new();
        for &(o, h) in hashes.iter().rev() {
            rev.insert(o, h);
            rev.insert(o, h);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.scan(6), rev.scan(6));
    }

    #[test]
    fn pigeonhole_recall_within_three_bits() {
        let h = simhash64_of_text(TEMPLATE, 2);
        let mut idx = NearDupIndex::new();
        idx.insert(1, h);
        idx.insert(2, h ^ 0b1011); // 3 bits flipped, all in one band
        let scan = idx.scan(3);
        assert_eq!(scan.pairs, BTreeSet::from([(1u64, 2u64)]));
    }
}
