//! Cross-crate property-based tests (proptest).
//!
//! Invariants pinned here:
//! * the wire codec round-trips arbitrary messages, in arbitrary chunkings,
//!   and never accepts a frame with single-bit corruption anywhere the
//!   CRC covers (header fields and payload alike);
//! * LZSS round-trips arbitrary byte strings;
//! * SMOTE balances exactly and synthesizes points inside the minority
//!   class's bounding box;
//! * stratified folds partition every index exactly once and preserve the
//!   class ratio within one sample;
//! * descriptive statistics are order-invariant;
//! * install coalescing never merges overlapping intervals and is
//!   permutation-stable in group count;
//! * the review-text kernels (ARCHITECTURE.md §13): SimHash is
//!   permutation-insensitive and multiset-scale-invariant, Hamming
//!   distance is a metric, and the deterministic review-text generator is
//!   a pure function of its keys;
//! * the MinHash kernel (ARCHITECTURE.md "Sketch kernel"): signatures
//!   distribute over set union, merge is associative, and the Jaccard
//!   estimate is bounded, symmetric and inside a statistical error band.

use proptest::prelude::*;
use racket_collect::wire::{FrameCodec, Message};
use racket_collect::{coalesce_installs, CandidateInstall};
use racket_ml::{smote, stratified_folds, Dataset};
use racket_types::{AccountId, AndroidId, AppId, InstallId, ParticipantId, SimTime, TimeInterval};
use std::collections::HashSet;

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (100_000u32..=999_999, 1_000_000_000u64..=9_999_999_999).prop_map(|(p, i)| {
            Message::SignIn {
                participant: ParticipantId(p),
                install: InstallId(i),
            }
        }),
        any::<bool>().prop_map(|accepted| Message::SignInAck { accepted }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..2048)
        )
            .prop_map(|(i, f, fast, payload)| Message::SnapshotUpload {
                install: InstallId(i),
                file_id: f,
                fast,
                payload,
            }),
        (any::<u64>(), any::<[u8; 32]>()).prop_map(|(f, h)| Message::UploadAck {
            file_id: f,
            sha256: h
        }),
        (any::<u16>(), ".{0,64}").prop_map(|(code, detail)| Message::Error { code, detail }),
    ]
}

proptest! {
    #[test]
    fn codec_round_trips_any_message(msg in arb_message()) {
        let bytes = msg.encode();
        let mut codec = FrameCodec::new();
        codec.feed(&bytes);
        let decoded = codec.try_decode_message().unwrap().expect("complete");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn codec_round_trips_under_any_chunking(
        msg in arb_message(),
        chunk in 1usize..64,
    ) {
        let bytes = msg.encode();
        let mut codec = FrameCodec::new();
        let mut decoded = None;
        for part in bytes.chunks(chunk) {
            codec.feed(part);
            if let Some(m) = codec.try_decode_message().unwrap() {
                decoded = Some(m);
            }
        }
        prop_assert_eq!(decoded.expect("complete"), msg);
    }

    #[test]
    fn codec_detects_payload_corruption(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        flip_byte: usize,
        flip_bit in 0u8..8,
    ) {
        let msg = Message::SnapshotUpload {
            install: InstallId(1),
            file_id: 1,
            fast: true,
            payload,
        };
        let mut bytes = msg.encode();
        // Corrupt one bit anywhere the v2 CRC covers: version, type, seq,
        // length or payload (bytes 2.. of the 12-byte header; trailer 4).
        let crc_covered_start = 2;
        let payload_end = bytes.len() - 4;
        let idx = crc_covered_start + flip_byte % (payload_end - crc_covered_start);
        bytes[idx] ^= 1 << flip_bit;
        let mut codec = FrameCodec::new();
        codec.feed(&bytes);
        // A flip in the length field may leave the decoder waiting for
        // bytes that never come (resolved by retry timeouts at the session
        // layer); every other flip errors. Either way, corruption must
        // never yield an accepted frame.
        prop_assert!(
            !matches!(codec.try_decode(), Ok(Some(_))),
            "corruption must not pass CRC"
        );
    }

    #[test]
    fn lzss_round_trips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = racket_collect::lzss::compress(&data);
        prop_assert_eq!(racket_collect::lzss::decompress(&c).unwrap(), data);
    }

    #[test]
    fn sha256_distinguishes_any_two_unequal_inputs(
        a in proptest::collection::vec(any::<u8>(), 0..256),
        b in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(racket_collect::sha256(&a), racket_collect::sha256(&b));
    }

    #[test]
    fn smote_balances_and_stays_in_minority_box(
        seed in any::<u64>(),
        n_minority in 2usize..8,
        n_majority in 8usize..30,
    ) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_majority {
            x.push(vec![i as f64, 0.0]);
            y.push(0u8);
        }
        for i in 0..n_minority {
            x.push(vec![100.0 + i as f64, 50.0 + (i % 3) as f64]);
            y.push(1u8);
        }
        let data = Dataset::new(x, y, vec!["a".into(), "b".into()]);
        let balanced = smote(&data, 3, seed);
        prop_assert_eq!(balanced.n_positive(), balanced.n_negative());
        // Synthetic rows interpolate minority points: inside the box.
        for row in &balanced.x[data.len()..] {
            prop_assert!(row[0] >= 100.0 - 1e-9 && row[0] <= 100.0 + n_minority as f64);
            prop_assert!(row[1] >= 50.0 - 1e-9 && row[1] <= 52.0 + 1e-9);
        }
    }

    #[test]
    fn stratified_folds_partition_exactly(
        seed in any::<u64>(),
        n in 10usize..200,
        k in 2usize..8,
    ) {
        let y: Vec<u8> = (0..n).map(|i| u8::from(i % 3 == 0)).collect();
        let folds = stratified_folds(&y, k, seed);
        prop_assert_eq!(folds.len(), n);
        prop_assert!(folds.iter().all(|&f| f < k));
        // Every class is spread across folds as evenly as possible.
        for class in [0u8, 1u8] {
            let mut counts = vec![0usize; k];
            for i in 0..n {
                if y[i] == class {
                    counts[folds[i]] += 1;
                }
            }
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            prop_assert!(max - min <= 1, "class {class} spread {counts:?}");
        }
    }

    #[test]
    fn summary_is_order_invariant(mut data in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let a = racket_stats::Summary::of(&data).unwrap();
        data.reverse();
        let b = racket_stats::Summary::of(&data).unwrap();
        prop_assert!((a.mean - b.mean).abs() < 1e-6);
        prop_assert_eq!(a.median, b.median);
        prop_assert_eq!(a.min, b.min);
        prop_assert_eq!(a.max, b.max);
    }

    #[test]
    fn coalescing_respects_interval_overlap(
        starts in proptest::collection::vec(0u64..100, 2..12),
    ) {
        // All candidates share one Android ID; only interval overlap can
        // keep them apart.
        let candidates: Vec<CandidateInstall> = starts
            .iter()
            .enumerate()
            .map(|(i, &s)| CandidateInstall {
                install_id: InstallId(i as u64),
                participant: ParticipantId(100_000 + i as u32),
                android_id: Some(AndroidId(1)),
                interval: TimeInterval::new(
                    SimTime::from_days(s),
                    SimTime::from_days(s + 5),
                ),
                apps: [(AppId(1), SimTime::EPOCH)].into_iter().collect(),
                accounts: [AccountId(1)].into_iter().collect(),
            })
            .collect();
        let groups = coalesce_installs(candidates.clone());
        // Within every group, intervals must be pairwise disjoint.
        for g in &groups {
            for i in 0..g.installs.len() {
                for j in i + 1..g.installs.len() {
                    prop_assert!(
                        !g.installs[i].interval.overlaps(&g.installs[j].interval),
                        "merged overlapping installs"
                    );
                }
            }
        }
        // Total installs preserved.
        let total: usize = groups.iter().map(|g| g.installs.len()).sum();
        prop_assert_eq!(total, candidates.len());
    }

    #[test]
    fn jaccard_bounded_and_symmetric(
        a in proptest::collection::hash_set(0u32..50, 0..20),
        b in proptest::collection::hash_set(0u32..50, 0..20),
    ) {
        let ab = racket_stats::jaccard(&a, &b);
        let ba = racket_stats::jaccard(&b, &a);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert_eq!(ab, ba);
        if a == b {
            prop_assert_eq!(ab, 1.0);
        }
    }
}

#[test]
fn coalescing_group_count_is_permutation_stable() {
    let make = |id: u64, start: u64, android: u64| CandidateInstall {
        install_id: InstallId(id),
        participant: ParticipantId(100_000 + id as u32),
        android_id: Some(AndroidId(android)),
        interval: TimeInterval::new(SimTime::from_days(start), SimTime::from_days(start + 2)),
        apps: HashSet::new(),
        accounts: HashSet::new(),
    };
    let forward = vec![make(1, 0, 7), make(2, 3, 7), make(3, 6, 8), make(4, 9, 8)];
    let mut reversed = forward.clone();
    reversed.reverse();
    assert_eq!(
        coalesce_installs(forward).len(),
        coalesce_installs(reversed).len()
    );
}

// ---------------------------------------------------------------------------
// Review-text kernels (racket-text; ARCHITECTURE.md §13).
// ---------------------------------------------------------------------------

proptest! {
    /// SimHash is a per-bit majority vote over the shingle multiset, so
    /// it cannot see the order of the shingles, and repeating the whole
    /// multiset `m` times scales every vote tally by `m` without moving
    /// any sign — the two insensitivities the near-duplicate index
    /// relies on when reviews arrive in arbitrary ingest order.
    #[test]
    fn simhash_ignores_order_and_multiset_scaling(
        shingles in proptest::collection::vec(any::<u64>(), 0..48),
        seed in any::<u64>(),
        m in 1usize..4,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let base = racket_text::simhash64(shingles.iter().copied());
        let mut shuffled = shingles.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(racket_text::simhash64(shuffled.iter().copied()), base);
        let repeated: Vec<u64> = std::iter::repeat_n(shingles.clone(), m).flatten().collect();
        prop_assert_eq!(racket_text::simhash64(repeated), base);
    }

    /// Hamming distance over 64-bit SimHashes is a metric: identity,
    /// symmetry, the 64-bit range bound, and the triangle inequality
    /// (which justifies the banded LSH candidate recall argument).
    #[test]
    fn hamming_is_a_metric(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        use racket_text::hamming;
        prop_assert_eq!(hamming(a, a), 0);
        prop_assert_eq!(hamming(a, b), hamming(b, a));
        prop_assert!(hamming(a, b) <= 64);
        prop_assert!(hamming(a, c) <= hamming(a, b) + hamming(b, c));
    }

    /// The review-text generator is a pure function of its keys: two
    /// independently constructed generators agree byte-for-byte, and a
    /// different master seed moves the personal text (so studies at
    /// different seeds don't share review text verbatim).
    #[test]
    fn textgen_is_a_pure_function_of_its_keys(
        seed in any::<u64>(),
        google_id in any::<u64>(),
        app in any::<u64>(),
        stars in 1u8..=5,
    ) {
        let rating = racket_types::Rating::new(stars).unwrap();
        let g1 = racket_agents::TextGen::new(seed);
        let g2 = racket_agents::TextGen::new(seed);
        let text = g1.personal(google_id, app, rating);
        prop_assert_eq!(&g2.personal(google_id, app, rating), &text);
        prop_assert!(!text.is_empty());
        prop_assert_eq!(
            g1.campaign(7, app, 3, rating),
            g2.campaign(7, app, 3, rating)
        );
    }
}

/// The MinHash laws, against the workspace's one kernel
/// (`racket_campaign::MinHash`) at the campaign sketch's 128 rows and the
/// mean-error band that length buys.
mod campaign_family {
    use proptest::prelude::*;
    use racket_campaign::MinHash;

    const K: usize = 128;
    const MAX_MEAN_ERR: f64 = 0.04;

    fn sig(shingles: impl IntoIterator<Item = u64>) -> MinHash {
        let mut m = MinHash::empty(K);
        for s in shingles {
            m.observe(s);
        }
        m
    }

    proptest! {
        /// Signatures distribute over set union — the exact algebra the
        /// streaming fold depends on: observing shingles one at a time,
        /// in any order, with any duplication, then merging shard
        /// signatures, lands on the signature of the union.
        #[test]
        fn minhash_distributes_over_union(
            a in proptest::collection::vec(any::<u64>(), 0..40),
            b in proptest::collection::vec(any::<u64>(), 0..40),
            seed in any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let (sa, sb) = (sig(a.iter().copied()), sig(b.iter().copied()));
            let mut union: Vec<u64> = a.iter().chain(&b).copied().collect();
            union.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            // Duplicates are invisible: double every element.
            let su = sig(union.iter().flat_map(|&s| [s, s]));
            let mut merged = sa.clone();
            merged.merge(&sb);
            prop_assert_eq!(&merged, &su);
            // Merge commutes and the empty signature is an identity.
            let mut swapped = sb.clone();
            swapped.merge(&sa);
            prop_assert_eq!(&swapped, &su);
            let mut id = sig([]);
            id.merge(&su);
            prop_assert_eq!(&id, &su);
        }

        /// Merge is associative, so sharded ingest may combine partial
        /// signatures in any grouping.
        #[test]
        fn minhash_merge_is_associative(
            a in proptest::collection::vec(any::<u64>(), 0..40),
            b in proptest::collection::vec(any::<u64>(), 0..40),
            c in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            let (sa, sb, sc) = (sig(a), sig(b), sig(c));
            let mut ab_c = sa.clone();
            ab_c.merge(&sb);
            ab_c.merge(&sc);
            let mut bc = sb.clone();
            bc.merge(&sc);
            let mut a_bc = sa.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c, &a_bc);
        }

        /// The Jaccard estimate is bounded, symmetric, and exact at the
        /// extremes (identical sets estimate 1.0).
        #[test]
        fn minhash_jaccard_estimate_is_bounded_and_symmetric(
            a in proptest::collection::hash_set(0u64..200, 1..30),
            b in proptest::collection::hash_set(0u64..200, 1..30),
        ) {
            let (sa, sb) = (sig(a.iter().copied()), sig(b.iter().copied()));
            let ab = sa.estimate_jaccard(&sb);
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert_eq!(sb.estimate_jaccard(&sa), ab);
            prop_assert_eq!(sa.estimate_jaccard(&sa), 1.0);
            if a == b {
                prop_assert_eq!(ab, 1.0);
            }
        }
    }

    /// The Jaccard estimator is unbiased with per-row match probability
    /// equal to the true Jaccard similarity, so one K-row estimate has a
    /// standard error of at most `sqrt(0.25/K)` (0.044 at 128 rows).
    /// Averaged over 300 deterministic set pairs the mean absolute error
    /// must sit well inside that band — which a constant or correlated
    /// hash family (estimate pinned at 1.0) cannot. Fully seeded, so this
    /// is a regression pin, not a flaky statistical assertion.
    #[test]
    fn minhash_jaccard_mean_error_stays_in_band() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2021);
        let mut total_err = 0.0;
        let n_pairs = 300;
        for _ in 0..n_pairs {
            let n_shared = rng.gen_range(0..20);
            let n_only_a = rng.gen_range(1..15);
            let n_only_b = rng.gen_range(1..15);
            let mut draw = |n: usize| -> Vec<u64> { (0..n).map(|_| rng.gen()).collect() };
            let shared = draw(n_shared);
            let ma = sig(shared.iter().copied().chain(draw(n_only_a)));
            let mb = sig(shared.iter().copied().chain(draw(n_only_b)));
            // 64-bit draws collide with negligible probability: the
            // true Jaccard is the shared count over the union count.
            let truth = n_shared as f64 / (n_shared + n_only_a + n_only_b) as f64;
            total_err += (ma.estimate_jaccard(&mb) - truth).abs();
        }
        let mean_err = total_err / n_pairs as f64;
        assert!(
            mean_err < MAX_MEAN_ERR,
            "MinHash({K}) mean |estimate - true Jaccard| = {mean_err:.4}, outside the error band"
        );
    }
}
