//! Property suite for the online aggregators behind the streaming engine.
//!
//! The streaming feature state (ARCHITECTURE.md §7) is built from the
//! aggregators in `racket_types::online` and the per-app ingest-time
//! aggregates in `racket_collect::stream`. These properties pin the two
//! algebraic laws the engine depends on:
//!
//! * **fold is order-insensitive after coalescing** — exact (bitwise)
//!   under any permutation of the input;
//! * **merge is associative with the empty aggregate as identity** (and
//!   commutative for everything except [`GapAccum`], whose append is
//!   defined on adjacent time ranges) — so state built over shards can be
//!   combined in any grouping.

use proptest::prelude::*;
use racket_collect::{AppStream, StreamAggregates};
use racket_types::{AppId, Distinct, GapAccum, GoogleId, MinMax, Rating, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn shuffled(values: &[f64], seed: u64) -> Vec<f64> {
    let mut v = values.to_vec();
    v.shuffle(&mut StdRng::seed_from_u64(seed));
    v
}

fn fold_minmax(values: &[f64]) -> MinMax {
    let mut m = MinMax::new();
    for &v in values {
        m.fold(v);
    }
    m
}

fn fold_distinct(values: &[u32]) -> Distinct<u32> {
    let mut d = Distinct::new();
    for &v in values {
        d.fold(v);
    }
    d
}

proptest! {
    #[test]
    fn minmax_is_exact_under_permutation_and_shard_split(
        values in collection::vec(-1e12f64..1e12, 0..64),
        seed in any::<u64>(),
        cut in any::<u16>(),
    ) {
        let whole = fold_minmax(&values);

        // Any permutation folds to the bitwise-identical aggregate.
        prop_assert_eq!(fold_minmax(&shuffled(&values, seed)), whole);

        // Any shard split merges back to the whole, and merge commutes.
        let i = cut as usize % (values.len() + 1);
        let (lo, hi) = (fold_minmax(&values[..i]), fold_minmax(&values[i..]));
        let mut merged = lo;
        merged.merge(&hi);
        prop_assert_eq!(merged, whole);
        let mut swapped = hi;
        swapped.merge(&lo);
        prop_assert_eq!(swapped, whole);

        // Empty identity.
        let mut id = MinMax::new();
        id.merge(&whole);
        prop_assert_eq!(id, whole);
    }

    #[test]
    fn distinct_is_exact_under_permutation_and_shard_split(
        values in collection::vec(0u32..200, 0..96),
        seed in any::<u64>(),
        cut in any::<u16>(),
    ) {
        let whole = fold_distinct(&values);
        let mut v = values.clone();
        v.shuffle(&mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(fold_distinct(&v), whole.clone());

        let i = cut as usize % (values.len() + 1);
        let (lo, hi) = (fold_distinct(&values[..i]), fold_distinct(&values[i..]));
        let mut merged = lo.clone();
        merged.merge(&hi);
        prop_assert_eq!(merged, whole.clone());
        let mut swapped = hi;
        swapped.merge(&lo);
        prop_assert_eq!(swapped, whole);
    }

    #[test]
    fn gap_append_is_associative_over_any_three_way_split(
        mut times in collection::vec(0u64..1_000_000, 0..64),
        cut_a in any::<u16>(),
        cut_b in any::<u16>(),
    ) {
        times.sort_unstable();
        let n = times.len();
        let (mut i, mut j) = (cut_a as usize % (n + 1), cut_b as usize % (n + 1));
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let fold = |ts: &[u64]| {
            let mut g = GapAccum::new();
            for &t in ts {
                g.fold(t);
            }
            g
        };
        let (a, b, c) = (fold(&times[..i]), fold(&times[i..j]), fold(&times[j..]));
        let whole = fold(&times);

        // ((a + b) + c) == (a + (b + c)) == whole fold, exactly.
        let mut left = a;
        left.append(&b);
        left.append(&c);
        prop_assert_eq!(left, whole);
        let mut bc = b;
        bc.append(&c);
        let mut right = a;
        right.append(&bc);
        prop_assert_eq!(right, whole);

        // Empty identity on both sides.
        let mut id = GapAccum::new();
        id.append(&whole);
        prop_assert_eq!(id, whole);
        let mut right_id = whole;
        right_id.append(&GapAccum::new());
        prop_assert_eq!(right_id, whole);
    }
}

/// `GapAccum::append` is deliberately *not* commutative: gaps are defined
/// on the coalesced event order, so appending ranges out of order is a
/// caller bug and panics rather than silently producing a wrong aggregate.
#[test]
#[should_panic(expected = "start after")]
fn gap_append_rejects_out_of_order_ranges() {
    let mut early = GapAccum::new();
    early.fold(10);
    early.fold(20);
    let mut late = GapAccum::new();
    late.fold(100);
    late.append(&early);
}

/// Canonical view of a [`StreamAggregates`] for equality checks (its
/// internal map is a `HashMap`; render in sorted order). The campaign
/// and text sketches ride along so the merge algebra is pinned for both
/// lockstep-detection families (install events and review text).
fn canon(
    s: &StreamAggregates,
) -> (
    Vec<(AppId, AppStream)>,
    u64,
    u64,
    racket_campaign::CampaignSketch,
    racket_text::TextSketch,
) {
    let per_app: BTreeMap<AppId, AppStream> = s.apps().map(|(k, v)| (*k, *v)).collect();
    (
        per_app.into_iter().collect(),
        s.n_install_events,
        s.n_uninstall_events,
        s.campaign().clone(),
        s.text().clone(),
    )
}

/// Review-text pool for [`Op::Review`]: a small fixed vocabulary so
/// shards frequently fold *identical* reviews (exercising the text
/// sketch's set semantics under merge), with near-duplicates and an
/// empty text in the mix.
const REVIEW_TEXTS: [&str; 6] = [
    "great app works perfectly",
    "great app works perfectly!",
    "crashes a lot, one star",
    "does what it says",
    "best app ever best app ever",
    "",
];

/// One ingest-time event against a [`StreamAggregates`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Install(u8, u32),
    Uninstall(u8, u32),
    Foreground(u8),
    Review(u8, u8, u32, u8, u8),
}

fn apply(s: &mut StreamAggregates, op: Op) {
    match op {
        Op::Install(app, t) => s.note_install(AppId(app as u32), SimTime::from_secs(t as u64)),
        Op::Uninstall(app, t) => s.note_uninstall(AppId(app as u32), SimTime::from_secs(t as u64)),
        Op::Foreground(app) => s.note_foreground(AppId(app as u32)),
        Op::Review(app, who, t, stars, text) => s.note_review(
            AppId(app as u32),
            GoogleId(who as u64),
            SimTime::from_secs(t as u64),
            Rating::new(stars).expect("strategy stays in 1..=5"),
            REVIEW_TEXTS[text as usize % REVIEW_TEXTS.len()],
        ),
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, any::<u32>()).prop_map(|(a, t)| Op::Install(a, t)),
        (0u8..6, any::<u32>()).prop_map(|(a, t)| Op::Uninstall(a, t)),
        (0u8..6).prop_map(Op::Foreground),
        (0u8..6, 0u8..4, any::<u32>(), 1u8..=5, 0u8..8)
            .prop_map(|(a, w, t, r, x)| Op::Review(a, w, t, r, x)),
    ]
}

proptest! {
    #[test]
    fn stream_aggregates_merge_is_associative_commutative_with_identity(
        ops in collection::vec(arb_op(), 0..64),
        cut_a in any::<u16>(),
        cut_b in any::<u16>(),
    ) {
        let n = ops.len();
        let (mut i, mut j) = (cut_a as usize % (n + 1), cut_b as usize % (n + 1));
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let fold = |slice: &[Op]| {
            let mut s = StreamAggregates::new();
            for &op in slice {
                apply(&mut s, op);
            }
            s
        };
        let (a, b, c) = (fold(&ops[..i]), fold(&ops[i..j]), fold(&ops[j..]));
        let whole = fold(&ops);

        // Sharded folding merges back to the single-pass aggregate…
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        prop_assert_eq!(canon(&left), canon(&whole));

        // …in any grouping…
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(canon(&right), canon(&whole));

        // …and any order (counters add, the uninstall latch takes max).
        let mut reversed = c;
        reversed.merge(&b);
        reversed.merge(&a);
        prop_assert_eq!(canon(&reversed), canon(&whole));

        // Empty identity on both sides.
        let mut id = StreamAggregates::new();
        id.merge(&whole);
        prop_assert_eq!(canon(&id), canon(&whole));
        let mut right_id = whole.clone();
        right_id.merge(&StreamAggregates::new());
        prop_assert_eq!(canon(&right_id), canon(&whole));
    }
}
