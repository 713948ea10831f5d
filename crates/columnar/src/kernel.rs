//! Vectorizable inner-loop kernels for the analyze hot paths.
//!
//! Each kernel replaces a row-oriented loop whose comparisons or folds
//! chased `Vec<Vec<f64>>` pointers, and each is **bit-identical** to the
//! loop it replaces: same comparator, same fold order, same panics. The
//! row→column equivalence contract (crate docs, ARCHITECTURE.md §9) rests
//! on these functions.

/// A `(feature value, row index)` pair — the unit the split-search sort
/// moves. 16 bytes, contiguous, no indirection in the comparator.
pub type SortPair = (f64, u32);

/// Stable-sort pairs by feature value.
///
/// This is the columnar form of the batch-canonical split search's
/// per-feature ordering: a stable sort by feature value over pairs whose
/// row indices are ascending, which yields exactly the `(value, row)`
/// lexicographic order the equivalence contract pins. The GBT fit sorts
/// every feature's full pair list **once**; every tree node's list is a
/// stable partition of its parent's, which preserves this order without
/// re-sorting (see `racket-ml`'s `gbt` module docs).
///
/// # Panics
/// On NaN feature values, with the row-oriented search's message.
pub fn sort_pairs(pairs: &mut [SortPair]) {
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature value"));
}

/// Squared Euclidean distance between two contiguous rows.
///
/// The exact expression (and therefore fold order) of the row-oriented
/// KNN's inner loop — `zip → map → sum`, left to right — so distances are
/// bitwise unchanged by the flat-matrix layout.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sort_is_stable_on_ties() {
        // Equal keys keep their input order — with ascending-row input
        // this is what produces the canonical (value, row) order.
        let mut pairs: Vec<SortPair> = vec![(1.0, 5), (0.0, 3), (1.0, 1), (0.0, 9), (1.0, 0)];
        sort_pairs(&mut pairs);
        let idx: Vec<u32> = pairs.iter().map(|p| p.1).collect();
        assert_eq!(idx, vec![3, 9, 5, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "NaN feature value")]
    fn nan_keys_panic_like_the_row_search() {
        let mut pairs: Vec<SortPair> = vec![(f64::NAN, 0), (1.0, 1)];
        sort_pairs(&mut pairs);
    }

    proptest! {
        /// Sorting pairs yields the same index permutation as sorting an
        /// index vector through row lookups — the equivalence the GBT
        /// split search is built on.
        #[test]
        fn pair_sort_equals_index_sort(
            values in proptest::collection::vec(-1e6f64..1e6, 1..128),
            // A shuffled starting arrangement (ties must follow it).
            seed in any::<u64>(),
        ) {
            let n = values.len();
            // Deterministic pseudo-shuffle of 0..n from the seed.
            let mut start: Vec<u32> = (0..n as u32).collect();
            let mut s = seed | 1;
            for i in (1..n).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                start.swap(i, j);
            }

            let mut idx = start.clone();
            idx.sort_by(|&a, &b| {
                values[a as usize].partial_cmp(&values[b as usize]).expect("NaN")
            });

            let mut pairs: Vec<SortPair> =
                start.iter().map(|&i| (values[i as usize], i)).collect();
            sort_pairs(&mut pairs);

            let pair_idx: Vec<u32> = pairs.iter().map(|p| p.1).collect();
            prop_assert_eq!(pair_idx, idx);
        }

        /// sq_dist folds identically to the reference expression.
        #[test]
        fn sq_dist_matches_reference(
            a in proptest::collection::vec(-1e3f64..1e3, 1..32),
            b in proptest::collection::vec(-1e3f64..1e3, 1..32),
        ) {
            let reference: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            prop_assert_eq!(sq_dist(&a, &b).to_bits(), reference.to_bits());
        }
    }
}
