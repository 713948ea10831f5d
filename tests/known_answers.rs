//! Known-answer pins for the sketch kernels and the boosted-tree fit.
//!
//! Every other check on these kernels is differential (batch ≡
//! incremental, N threads ≡ 1 thread, columnar ≡ row reference), so a
//! slipped salt, seed order or empty-row value moves both sides together
//! and nothing fails. The sketch literals were computed at `beaa3f2`, when
//! the campaign and text MinHash were two separate types (the others name
//! their commit), and must never be re-baselined: they are what "every
//! signature is bit-identical to the parent" means.

use racket_campaign::CampaignSketch;
use racket_text::TextSketch;
use racket_types::{AppId, SimTime};

/// The MinHash kernel at K = 128, shingle set {1, 2, 3}.
#[test]
fn campaign_family_rows_are_pinned() {
    let mut m = racket_campaign::MinHash::empty(128);
    for s in [3u64, 1, 2, 1] {
        m.observe(s);
    }
    assert_eq!(m.len(), 128);
    assert_eq!(m.rows()[0], 0x2761_d252_c03c_0677);
    assert_eq!(m.rows()[1], 0x49fc_e1c6_f617_9b21);
    assert_eq!(m.rows()[64], 0x3a8f_d4d4_3f87_7c15);
    assert_eq!(m.rows()[127], 0x1d3c_fac7_6092_4421);
}

/// The empty row is `u64::MAX` and `J(∅, ∅) = 1`.
#[test]
fn empty_signatures_are_pinned() {
    let c = racket_campaign::MinHash::empty(128);
    assert!(c.rows().iter().all(|&r| r == u64::MAX));
    assert_eq!(c.estimate_jaccard(&c), 1.0);
}

/// Two install events through the default campaign sketch: 6-hour
/// buckets, `app << 32 | bucket` packing, 128 rows.
#[test]
fn campaign_sketch_signature_is_pinned() {
    let mut s = CampaignSketch::default();
    s.observe(AppId(7), SimTime::from_hours(13));
    s.observe(AppId(9), SimTime::from_days(3));
    assert_eq!(
        s.shingles().collect::<Vec<_>>(),
        vec![(7 << 32) | 2, (9 << 32) | 12]
    );
    assert_eq!(s.signature().len(), 128);
    assert_eq!(s.signature()[0], 0x0ed5_5b3d_3caa_78c6);
    assert_eq!(s.signature()[127], 0x04cd_e619_601a_fec5);
}

/// One fixed review through the default text sketch: 2-word shingles,
/// lexicon sentiment, SimHash row digest.
#[test]
fn text_sketch_digests_are_pinned() {
    let mut s = TextSketch::default();
    s.observe(7, 1_001, 86_400, 5, "Great app, works perfectly. Love it!");
    let row = *s.rows().next().unwrap();
    assert_eq!((row.len, row.sentiment), (36, 3));
    assert_eq!(row.simhash, 0xf7ff_5322_6728_0116);
}

/// A dozen literal `(owner, simhash)` rows through the near-duplicate
/// index at the detector's default threshold (6). Computed at `b7e722f`,
/// when the index was nested B-tree buckets and the scan a materialised
/// candidate set; the counts are part of `CampaignReport::fingerprint`
/// (`text_candidates=`), so they are pinned exactly. `H` shares, by row:
/// everything (another owner, and once more as a duplicate insert), three
/// bands at distance 1, no band at distance 4 (inside the threshold yet
/// never a candidate: banding is the recall floor), one band at distance
/// 48, and three bands at distances 7 and 6 from one owner.
#[test]
fn near_dup_scan_is_pinned() {
    const H: u64 = 0x1234_5678_9abc_def0;
    const G: u64 = 0x0fed_cba9_8765_4321;
    let mut index = racket_text::NearDupIndex::new();
    for (owner, simhash) in [
        (1u64, H),
        (2, H),
        (3, H ^ 0x0001),
        (1, H ^ 0x0001_0001_0001_0001),
        (4, H ^ 0xffff_ffff_ffff_0000),
        (5, H ^ 0x0000_0000_007f_0000),
        (5, H ^ 0x0000_0000_003f_0000),
        (6, G),
        (7, G ^ 0x8000_0000_0000_0000),
        (7, G ^ 0x0000_00ff_0000_0000),
        (8, 0xaaaa_bbbb_cccc_dddd),
        (2, H),
    ] {
        index.insert(owner, simhash);
    }
    let scan = index.scan(6);
    assert_eq!(
        scan.pairs.iter().copied().collect::<Vec<_>>(),
        vec![(1u64, 2u64), (1, 3), (1, 5), (2, 3), (2, 5), (6, 7)]
    );
    assert_eq!((scan.n_candidates, scan.n_verified), (16, 7));
}

/// An LCG-drawn 200 × 6 matrix covering every column shape the split
/// search distinguishes: two high-cardinality columns, two with at most
/// four values, one constant, and one that duplicates column 0 (every
/// gain on it ties with the original, so the first-scanned feature must
/// keep winning).
fn gbt_matrix() -> (Vec<Vec<f64>>, Vec<u8>) {
    let mut s: u64 = 0x2021_0c0d_e5ee_d001;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 33
    };
    let mut x = Vec::new();
    let mut y = Vec::new();
    for _ in 0..200 {
        let a = (next() % 1000) as f64 / 8.0;
        let b = (next() % 4096) as f64 - 2048.0;
        let c = (next() % 4) as f64;
        let d = (next() % 3) as f64 * 0.5;
        let label = u8::from(a + 25.0 * c + b / 64.0 > 90.0);
        y.push(if next() % 10 == 0 { 1 - label } else { label });
        x.push(vec![a, b, c, d, 2.5, a]);
    }
    (x, y)
}

/// The boosted ensemble's bytes, pinned as literals. The differential
/// tests (`fit` ≡ `fit_reference`, `racket-ml`'s `gbt.rs` unit tests) run
/// both searches through one `fit_with`, so a slip in the shared
/// scaffolding — the RNG stream, the canonical row order, the margin
/// update — moves both sides together; this does not move. Computed at
/// `f8365cb`, when every node owned a `Vec` of sorted pair lists, and
/// never re-baselined. Two parameter sets: the default (row and column
/// subsampling, depth 4) and an unsampled deeper fit with a
/// `min_child_weight` that rejects candidates.
#[test]
fn gbt_model_bytes_are_pinned() {
    use racket_ml::{Classifier, GradientBoosting, GradientBoostingParams};
    let (x, y) = gbt_matrix();
    let pinned = |params: GradientBoostingParams| {
        let mut m = GradientBoosting::new(params);
        m.fit(&x, &y);
        let proba = m.predict_proba(&x[17]).to_bits();
        let bytes = m.to_bytes();
        let checksum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        (bytes.len(), checksum, proba)
    };
    assert_eq!(
        pinned(GradientBoostingParams::default()),
        (32_115, 0xabff_4c40_617a_3be2, 0x3fed_f6e8_e4ba_9962)
    );
    assert_eq!(
        pinned(GradientBoostingParams {
            n_rounds: 30,
            max_depth: 6,
            min_child_weight: 5.0,
            subsample: 1.0,
            colsample: 1.0,
            ..GradientBoostingParams::default()
        }),
        (5_347, 0x93c4_ab4a_f8e7_0964, 0x3fe9_3a4c_de62_0cba)
    );
}
