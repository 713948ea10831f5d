//! Differential oracle for [`NearDupIndex`].
//!
//! `ReferenceIndex` is the index as it stood before the sorted-sweep scan
//! (commit `b7e722f`), moved here verbatim: one B-tree bucket per
//! `(band, key)`, every in-bucket cross-owner pair materialised into a
//! candidate set, verification afterwards. It is quadratic in time and
//! memory per bucket and trivially right, which is what an oracle is for.
//! The scan's contract is exactness — `pairs`, `n_candidates` and
//! `n_verified` all feed `CampaignReport::fingerprint` — so the property
//! compares all three fields, on inputs built to collide: a few base
//! hashes, a few flipped bits, few owners.

use proptest::prelude::*;
use racket_text::{hamming, NearDupIndex, NearDupScan};
use std::collections::{BTreeMap, BTreeSet};

const N_BANDS: u32 = 4;
const BAND_BITS: u32 = 64 / N_BANDS;

#[derive(Default)]
struct ReferenceIndex {
    buckets: BTreeMap<(u8, u16), BTreeSet<(u64, u64)>>,
}

impl ReferenceIndex {
    fn insert(&mut self, owner: u64, simhash: u64) {
        for band in 0..N_BANDS {
            let key = ((simhash >> (band * BAND_BITS)) & 0xFFFF) as u16;
            self.buckets
                .entry((band as u8, key))
                .or_default()
                .insert((simhash, owner));
        }
    }

    fn scan(&self, max_hamming: u32) -> NearDupScan {
        let mut candidates: BTreeSet<((u64, u64), (u64, u64))> = BTreeSet::new();
        for entries in self.buckets.values() {
            let flat: Vec<(u64, u64)> = entries.iter().copied().collect();
            for i in 0..flat.len() {
                for j in (i + 1)..flat.len() {
                    let (a, b) = (flat[i], flat[j]);
                    if a.1 == b.1 {
                        continue;
                    }
                    candidates.insert(if a <= b { (a, b) } else { (b, a) });
                }
            }
        }
        let mut scan = NearDupScan {
            n_candidates: candidates.len(),
            ..NearDupScan::default()
        };
        for ((sim_a, own_a), (sim_b, own_b)) in candidates {
            if hamming(sim_a, sim_b) <= max_hamming {
                scan.n_verified += 1;
                scan.pairs.insert(if own_a <= own_b {
                    (own_a, own_b)
                } else {
                    (own_b, own_a)
                });
            }
        }
        scan
    }
}

/// One generated row: which base hash, which bits of it to flip, a
/// uniform-random hash that replaces the lot one time in eight, an owner.
type RowSpec = ((usize, Vec<u32>), (u64, u8), u64);

fn arb_row() -> impl Strategy<Value = RowSpec> {
    (
        (0usize..30, proptest::collection::vec(0u32..64, 0..=8)),
        (any::<u64>(), 0u8..8),
        0u64..40,
    )
}

/// `(owner, simhash)` rows from the specs over `bases`.
fn rows_of(bases: &[u64], specs: &[RowSpec]) -> Vec<(u64, u64)> {
    specs
        .iter()
        .map(|((base, flips), (uniform, die), owner)| {
            let near = flips
                .iter()
                .fold(bases[base % bases.len()], |h, bit| h ^ (1u64 << bit));
            (*owner, if *die == 0 { *uniform } else { near })
        })
        .collect()
}

proptest! {
    #[test]
    fn scan_equals_the_reference_scan(
        bases in proptest::collection::vec(any::<u64>(), 1..=30),
        specs in proptest::collection::vec(arb_row(), 0..160),
    ) {
        let mut index = NearDupIndex::new();
        let mut reference = ReferenceIndex::default();
        for (owner, simhash) in rows_of(&bases, &specs) {
            index.insert(owner, simhash);
            reference.insert(owner, simhash);
        }
        prop_assert_eq!(index.is_empty(), specs.is_empty());
        for max_hamming in [0u32, 3, 6, 10, 64] {
            let scan = index.scan(max_hamming);
            prop_assert_eq!(&scan, &reference.scan(max_hamming));
            prop_assert!(scan.pairs.iter().all(|(a, b)| a < b), "an owner paired with itself");
        }
    }

    #[test]
    fn index_state_is_the_inserted_set(
        bases in proptest::collection::vec(any::<u64>(), 1..=30),
        specs in proptest::collection::vec(arb_row(), 1..160),
        shuffle_keys in proptest::collection::vec(any::<u64>(), 160),
        repeats in proptest::collection::vec(0usize..160, 0..40),
    ) {
        let rows = rows_of(&bases, &specs);
        let mut index = NearDupIndex::new();
        for &(owner, simhash) in &rows {
            index.insert(owner, simhash);
        }

        // Another order, some rows inserted again: the same index.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| shuffle_keys[i]);
        order.extend(repeats.iter().map(|r| r % rows.len()));
        let mut other = NearDupIndex::new();
        for &i in &order {
            other.insert(rows[i].0, rows[i].1);
        }
        prop_assert_eq!(&index, &other);
        prop_assert_eq!(index.scan(6), other.scan(6));

        // One distinct row fewer: another index.
        let dropped = rows[0];
        let mut smaller = NearDupIndex::new();
        for &(owner, simhash) in rows.iter().filter(|&&row| row != dropped) {
            smaller.insert(owner, simhash);
        }
        prop_assert_ne!(&index, &smaller);
    }
}
