//! Property suite for the LSH banding layer: band monotonicity and
//! identical-set recall. The MinHash laws themselves (a signature depends
//! only on the shingle set, the Jaccard error band) run in the
//! workspace-level `tests/properties.rs`.

use proptest::prelude::*;
use racket_campaign::lsh::candidate_pairs;
use racket_campaign::MinHash;
use std::collections::BTreeSet;

fn shingle_set() -> impl Strategy<Value = BTreeSet<u64>> {
    proptest::collection::vec(0u64..5_000, 0..60)
        .prop_map(|v| v.into_iter().collect::<BTreeSet<u64>>())
}

fn signature_of(set: &BTreeSet<u64>) -> MinHash {
    let mut m = MinHash::empty(128);
    for &s in set {
        m.observe(s);
    }
    m
}

proptest! {
    /// More bands (rows fixed) can only add candidate pairs: bands are
    /// signature prefixes, so pairs(b₁) ⊆ pairs(b₂) whenever b₁ ≤ b₂.
    #[test]
    fn lsh_candidates_monotone_in_bands(
        sets in proptest::collection::vec(shingle_set(), 2..10),
        b1 in 1usize..32,
        extra in 0usize..32,
        rows in 1usize..5,
    ) {
        let sigs: Vec<MinHash> = sets.iter().map(signature_of).collect();
        // exclude empty signatures, as the detector does
        let rows_of: Vec<&[u64]> = sigs
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.rows())
            .collect();
        let few = candidate_pairs(&rows_of, b1, rows);
        let many = candidate_pairs(&rows_of, b1 + extra, rows);
        prop_assert!(few.is_subset(&many));
    }

    /// Identical non-empty sets are always proposed by the first band.
    #[test]
    fn identical_sets_always_candidates(a in shingle_set()) {
        prop_assume!(!a.is_empty());
        let s1 = signature_of(&a);
        let s2 = signature_of(&a);
        let sigs = vec![s1.rows(), s2.rows()];
        let pairs = candidate_pairs(&sigs, 1, 4);
        prop_assert!(pairs.contains(&(0, 1)));
    }
}
