//! K-permutation MinHash signatures over shingle sets.
//!
//! Each of the K "permutations" is a seeded SplitMix64 hash of the
//! shingle; the signature keeps the minimum hash per permutation. Because
//! `min` is commutative, associative and idempotent, a signature is a
//! pure function of the *set* of shingles folded into it — fold order,
//! duplicate folds and shard merge order are all invisible, which is what
//! lets the incremental ingest-time fold match the batch rebuild
//! bit for bit (property-pinned in `tests/similarity_props.rs`).

use racket_text::mix64;

/// Salt separating the MinHash hash family from every other SplitMix64
/// use in the workspace (fleet streams, fault streams, ...).
pub const MINHASH_SALT: u64 = 0xC0_FFEE_5EED_CAFE;

/// The seed of permutation `k` (a pure function, so incremental folds
/// don't need a seed table in every record).
#[inline]
pub fn perm_seed(k: usize) -> u64 {
    mix64(MINHASH_SALT ^ (k as u64))
}

/// Hash one shingle under permutation `k`.
#[inline]
pub fn perm_hash(shingle: u64, seed: u64) -> u64 {
    mix64(shingle ^ seed)
}

/// A MinHash signature: `sig[k]` is the minimum of `perm_hash(s, seed_k)`
/// over every shingle `s` folded so far (`u64::MAX` when empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHash {
    sig: Vec<u64>,
}

impl MinHash {
    /// The empty signature of length `k` (merge identity).
    pub fn empty(k: usize) -> Self {
        MinHash {
            sig: vec![u64::MAX; k],
        }
    }

    /// Signature length.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Whether no shingle has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.sig.iter().all(|&v| v == u64::MAX)
    }

    /// The raw signature rows (for LSH banding).
    pub fn rows(&self) -> &[u64] {
        &self.sig
    }

    /// Fold one shingle into the signature.
    pub fn observe(&mut self, shingle: u64) {
        for (k, slot) in self.sig.iter_mut().enumerate() {
            let h = perm_hash(shingle, perm_seed(k));
            if h < *slot {
                *slot = h;
            }
        }
    }

    /// Merge a signature built over another shingle set: elementwise min,
    /// so the result equals the signature of the union. Commutative,
    /// associative, idempotent, with [`MinHash::empty`] as identity.
    /// Panics if the lengths differ (different `n_hashes` parameters).
    pub fn merge(&mut self, other: &MinHash) {
        assert_eq!(
            self.sig.len(),
            other.sig.len(),
            "cannot merge MinHash signatures of different lengths"
        );
        for (a, &b) in self.sig.iter_mut().zip(&other.sig) {
            if b < *a {
                *a = b;
            }
        }
    }

    /// Estimate the Jaccard similarity of the underlying sets as the
    /// fraction of agreeing signature rows. Two empty signatures agree on
    /// every row and estimate 1.0, matching the `J(∅, ∅) = 1` convention
    /// the exact computation in [`crate::CampaignSketch`] uses.
    pub fn estimate_jaccard(&self, other: &MinHash) -> f64 {
        assert_eq!(self.sig.len(), other.sig.len());
        if self.sig.is_empty() {
            return 1.0;
        }
        let agree = self
            .sig
            .iter()
            .zip(&other.sig)
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.sig.len() as f64
    }
}

/// A MinHash folder with the permutation seed table precomputed — the
/// batch-path / benchmark hot loop ([`MinHash::observe`] recomputes each
/// seed; this one doesn't, and is property-pinned to produce identical
/// signatures).
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
}

impl MinHasher {
    /// Build the seed table for signatures of length `k`.
    pub fn new(k: usize) -> Self {
        MinHasher {
            seeds: (0..k).map(perm_seed).collect(),
        }
    }

    /// Fold one shingle into `sig` (must have length `k`).
    #[inline]
    pub fn fold(&self, sig: &mut [u64], shingle: u64) {
        debug_assert_eq!(sig.len(), self.seeds.len());
        for (slot, &seed) in sig.iter_mut().zip(&self.seeds) {
            let h = perm_hash(shingle, seed);
            if h < *slot {
                *slot = h;
            }
        }
    }

    /// Signature of a whole shingle slice, starting from empty.
    pub fn signature(&self, shingles: &[u64]) -> MinHash {
        let mut m = MinHash::empty(self.seeds.len());
        for &s in shingles {
            self.fold(&mut m.sig, s);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_is_order_and_duplicate_insensitive() {
        let mut a = MinHash::empty(64);
        for s in [3u64, 1, 2, 2, 1] {
            a.observe(s);
        }
        let mut b = MinHash::empty(64);
        for s in [1u64, 2, 3] {
            b.observe(s);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn hasher_matches_observe() {
        let shingles = [17u64, 99, 4, 17, 1_000_000];
        let mut via_observe = MinHash::empty(128);
        for &s in &shingles {
            via_observe.observe(s);
        }
        assert_eq!(MinHasher::new(128).signature(&shingles), via_observe);
    }

    #[test]
    fn identical_sets_estimate_one() {
        let h = MinHasher::new(128);
        let a = h.signature(&[1, 2, 3, 4]);
        assert_eq!(a.estimate_jaccard(&a), 1.0);
        let empty = MinHash::empty(128);
        assert_eq!(empty.estimate_jaccard(&MinHash::empty(128)), 1.0);
        assert!(empty.is_empty() && !a.is_empty());
    }
}
