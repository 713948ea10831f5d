//! Property tests for histogram shard retirement.
//!
//! The pipeline merges per-thread/per-lane histogram shards into the
//! shared histogram in whatever order workers retire, so determinism of
//! the merged totals requires that neither the order of retirement nor
//! the way observations were split over shards shows in the snapshot.

use proptest::prelude::*;
use racket_obs::{AtomicHistogram, HistogramSnapshot, LocalHistogram};

/// One shared histogram after the given shards retired into it, in order.
fn retired(shards: &[&[u64]]) -> HistogramSnapshot {
    let shared = AtomicHistogram::new();
    for values in shards {
        let mut local = LocalHistogram::new();
        for &v in *values {
            local.record(v);
        }
        shared.merge_local(&local);
    }
    shared.snapshot()
}

proptest! {
    #[test]
    fn retirement_order_is_invisible(
        xs in proptest::collection::vec(0u64..1_000_000_000, 0..48),
        ys in proptest::collection::vec(0u64..1_000_000_000, 0..48),
        zs in proptest::collection::vec(0u64..1_000_000_000, 0..48),
    ) {
        let forward = retired(&[&xs, &ys, &zs]);
        prop_assert_eq!(&retired(&[&zs, &xs, &ys]), &forward);
        prop_assert_eq!(&retired(&[&ys, &zs, &xs]), &forward);
    }

    #[test]
    fn sharded_recording_equals_direct_recording(
        xs in proptest::collection::vec(0u64..1_000_000_000, 0..64),
        ys in proptest::collection::vec(0u64..1_000_000_000, 0..64),
    ) {
        let direct = AtomicHistogram::new();
        for &v in xs.iter().chain(&ys) {
            direct.record(v);
        }
        prop_assert_eq!(retired(&[&xs, &ys]), direct.snapshot());
    }

    #[test]
    fn an_empty_shard_changes_nothing(
        xs in proptest::collection::vec(0u64..1_000_000_000, 0..64),
    ) {
        prop_assert_eq!(retired(&[&xs, &[]]), retired(&[&xs]));
        prop_assert_eq!(retired(&[&[], &xs]), retired(&[&xs]));
        prop_assert_eq!(retired(&[&[]]), HistogramSnapshot::empty());
    }

    #[test]
    fn quantiles_stay_within_observed_range(
        xs in proptest::collection::vec(1u64..1_000_000_000, 1..128),
        q in 0.0f64..=1.0,
    ) {
        let s = retired(&[&xs]);
        let est = s.quantile(q);
        let lo = *xs.iter().min().unwrap() as f64;
        let hi = *xs.iter().max().unwrap() as f64;
        prop_assert!(est >= lo && est <= hi, "q={q} est={est} range=[{lo},{hi}]");
    }
}
