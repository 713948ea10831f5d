//! K-permutation MinHash over `u64` shingle sets — the one MinHash kernel
//! in the workspace.
//!
//! Permutation `k` hashes a shingle `s` to `mix64(s ^ mix64(SALT ^ k))`;
//! a signature keeps the minimum per permutation. `min` is commutative,
//! associative and idempotent, so a signature is a pure function of the
//! shingle *set*: fold order, duplicate folds and merge order are all
//! invisible — the whole batch ≡ incremental argument at the kernel level.

use racket_text::mix64;

/// Longest supported signature (the size of the seed table).
const MAX_ROWS: usize = 128;

/// Salt of the install-event MinHash family, distinct from every other
/// SplitMix64 use in the workspace (shingle chaining, fleet streams,
/// fault streams, ...).
const SALT: u64 = 0xC0_FFEE_5EED_CAFE;

/// The permutation seeds, computed at compile time.
const SEEDS: [u64; MAX_ROWS] = {
    let mut seeds = [0u64; MAX_ROWS];
    let mut k = 0;
    while k < MAX_ROWS {
        seeds[k] = mix64(SALT ^ k as u64);
        k += 1;
    }
    seeds
};

/// An install-event MinHash signature: row `k` is the minimum of
/// `mix64(s ^ mix64(SALT ^ k))` over every shingle `s` folded so far
/// (`u64::MAX` when empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHash {
    sig: Vec<u64>,
}

impl MinHash {
    /// The empty signature of length `k` (merge identity).
    ///
    /// # Panics
    /// If `k` exceeds the 128-entry seed table.
    pub fn empty(k: usize) -> Self {
        assert!(
            k <= MAX_ROWS,
            "a MinHash signature has at most {MAX_ROWS} rows"
        );
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
    #[inline]
    pub fn observe(&mut self, shingle: u64) {
        for (slot, &seed) in self.sig.iter_mut().zip(&SEEDS) {
            let h = mix64(shingle ^ seed);
            if h < *slot {
                *slot = h;
            }
        }
    }

    /// Merge a signature built over another shingle set: elementwise min,
    /// so the result equals the signature of the union. Commutative,
    /// associative, idempotent, with [`MinHash::empty`] as identity.
    ///
    /// # Panics
    /// If the signature lengths differ.
    pub fn merge(&mut self, other: &Self) {
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
    /// fraction of agreeing rows. Two empty signatures agree on every row
    /// and estimate 1.0 (the `J(∅, ∅) = 1` convention of the exact
    /// computations downstream).
    pub fn estimate_jaccard(&self, other: &Self) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_is_distinct_from_plain_mixing() {
        // The salted family must not degenerate to unsalted SplitMix64.
        let mut m = MinHash::empty(2);
        m.observe(123);
        assert_ne!(m.rows()[0], mix64(123));
        assert_ne!(m.rows()[0], m.rows()[1]);
    }

    #[test]
    #[should_panic(expected = "at most 128 rows")]
    fn oversized_signature_rejected() {
        let _ = MinHash::empty(MAX_ROWS + 1);
    }
}
