//! Locality-sensitive hashing over MinHash signatures: banding.
//!
//! A signature of `bands × rows ≤ K` rows is cut into `bands` contiguous
//! slices of `rows` rows each; two devices become a *candidate pair* if
//! any band matches exactly. With per-row match probability equal to the
//! Jaccard similarity `j`, a pair is proposed with probability
//! `1 − (1 − jʳ)ᵇ` — the classic S-curve. Candidates are verified against
//! exact event sets downstream ([`crate::detect()`]), so banding only
//! trades recall against the O(n²) scan it avoids.
//!
//! Bands are *prefixes* of the signature: band `i` covers rows
//! `[i·rows, (i+1)·rows)`. Growing `bands` with `rows` fixed therefore
//! only adds bands, so the candidate set is monotone in `bands` —
//! property-pinned in `tests/similarity_props.rs`.

use std::collections::{BTreeMap, BTreeSet};

/// Bands the detector cuts a signature into. 64 bands × 2 rows over the
/// 128-row signature is tuned for the low-Jaccard regime of campaign
/// detection, where workers share a handful of campaign shingles amid
/// larger organic activity (`j ≈ 0.15` is proposed with probability
/// ≈ 0.77, `j ≥ 0.3` essentially always).
pub const LSH_BANDS: usize = 64;

/// Rows per band.
pub const LSH_ROWS: usize = 2;

/// Propose candidate pairs from a slice of signatures.
///
/// `sigs[i]` is the signature row-slice of input `i`; the result is the
/// set of index pairs `(i, j)` with `i < j` that share at least one of
/// the first `bands` bands of `rows` rows. Bands beyond the shortest
/// signature are ignored, so short signatures degrade gracefully instead
/// of panicking.
/// Deterministic: buckets are B-tree keyed on the band slice itself and
/// the output is an ordered set — no `RandomState` anywhere.
///
/// Callers must exclude empty signatures (all `u64::MAX`): every pair of
/// empty signatures trivially matches every band.
pub fn candidate_pairs(sigs: &[&[u64]], bands: usize, rows: usize) -> BTreeSet<(usize, usize)> {
    let mut pairs = BTreeSet::new();
    if sigs.is_empty() || rows == 0 {
        return pairs;
    }
    let k = sigs.iter().map(|s| s.len()).min().unwrap_or(0);
    for band in 0..bands.min(k / rows) {
        let lo = band * rows;
        let hi = lo + rows;
        let mut buckets: BTreeMap<&[u64], Vec<usize>> = BTreeMap::new();
        for (i, sig) in sigs.iter().enumerate() {
            buckets.entry(&sig[lo..hi]).or_default().push(i);
        }
        for members in buckets.values() {
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    pairs.insert((i, j));
                }
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinHash;

    fn signature(shingles: &[u64]) -> MinHash {
        let mut m = MinHash::empty(128);
        for &s in shingles {
            m.observe(s);
        }
        m
    }

    #[test]
    fn identical_signatures_always_pair() {
        let a = signature(&[1, 2, 3]);
        let b = signature(&[1, 2, 3]);
        let c = signature(&[900, 901, 902, 903]);
        let sigs = vec![a.rows(), b.rows(), c.rows()];
        let pairs = candidate_pairs(&sigs, LSH_BANDS, LSH_ROWS);
        assert!(pairs.contains(&(0, 1)));
        // disjoint sets share a band only by hash coincidence; with 2-row
        // bands over 64-bit hashes that is ~2⁻¹²⁸ per band
        assert!(!pairs.contains(&(0, 2)));
    }

    #[test]
    fn bands_clamp_to_the_signature() {
        let a = signature(&[1, 2, 3]);
        let sigs = vec![&a.rows()[..16], &a.rows()[..16]];
        // 8 usable bands of 2 rows, none of 32 rows, none of 0 rows
        assert!(candidate_pairs(&sigs, 64, 2).contains(&(0, 1)));
        assert!(candidate_pairs(&sigs, 64, 32).is_empty());
        assert!(candidate_pairs(&sigs, 4, 0).is_empty());
    }
}
