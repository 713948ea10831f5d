//! The per-install streaming text sketch.
//!
//! A [`TextSketch`] is folded one review at a time at snapshot-ingest
//! time (inside `StreamAggregates`) and rebuilt in batch from the
//! columnar review family; both paths must produce identical sketches.
//! The state is engineered for exactly that contract: each review reduces
//! to one canonical [`ReviewRow`] (a pure function of the review fields)
//! and the sketch is the B-tree *set* of those rows. Folding is therefore
//! order-insensitive and idempotent, and [`TextSketch::merge`] (set
//! union) is commutative and associative with the default sketch as
//! identity, so sharded ingest merges freely.

use crate::sentiment::token_vote;
use crate::shingle::for_each_token_and_shingle;
use crate::simhash::Votes;
use std::collections::BTreeSet;

/// Words per shingle: short review texts need narrow shingles to overlap.
const SHINGLE_K: usize = 2;

/// One review, reduced to the canonical fixed-width row the sketch keeps.
///
/// The row is a pure function of the review: raw identity fields plus
/// the three content digests (length, sentiment, SimHash) every text
/// feature and the near-duplicate index read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReviewRow {
    /// Raw app identifier.
    pub app: u32,
    /// Raw reviewer (Google) identity.
    pub reviewer: u64,
    /// Posting time in seconds.
    pub time: u64,
    /// Star rating, 1–5.
    pub rating: u8,
    /// Text length in bytes.
    pub len: u32,
    /// Lexicon sentiment score of the text.
    pub sentiment: i32,
    /// 64-bit SimHash of the text's shingle set.
    pub simhash: u64,
}

impl ReviewRow {
    /// Reduce one review to its canonical row in exactly one scan of the
    /// text: each token hash votes the sentiment and each shingle hash
    /// ripples straight into the SimHash tally, with nothing buffered.
    /// This is the ingest hot path (`benchmark/`'s
    /// `text.sketch.observe_ns_per_review`); it equals the public
    /// two-scan kernels `sentiment_score` and `simhash64_of_text` field
    /// for field, which the crate's proptests hold it to.
    fn of(app: u32, reviewer: u64, time: u64, rating: u8, text: &str) -> Self {
        let mut sentiment = 0i32;
        let mut votes = Votes::default();
        for_each_token_and_shingle(
            text,
            SHINGLE_K,
            |h| sentiment += token_vote(h),
            |sh| votes.observe(sh),
        );
        ReviewRow {
            app,
            reviewer,
            time,
            rating,
            len: text.len().min(u32::MAX as usize) as u32,
            sentiment,
            simhash: votes.finish(),
        }
    }
}

/// Streaming per-install text state: the set of canonical review rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TextSketch {
    rows: BTreeSet<ReviewRow>,
}

impl TextSketch {
    /// The canonical review rows, ascending.
    pub fn rows(&self) -> impl Iterator<Item = &ReviewRow> {
        self.rows.iter()
    }

    /// Number of distinct reviews folded.
    pub fn n_reviews(&self) -> usize {
        self.rows.len()
    }

    /// Whether no review has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Fold one review. Idempotent: re-folding an identical review leaves
    /// the sketch unchanged (the row set dedups it).
    pub fn observe(&mut self, app: u32, reviewer: u64, time: u64, rating: u8, text: &str) {
        self.rows
            .insert(ReviewRow::of(app, reviewer, time, rating, text));
    }

    /// Merge another sketch (row-set union). Commutative, associative,
    /// idempotent; the default sketch is the identity.
    pub fn merge(&mut self, other: &TextSketch) {
        self.rows.extend(other.rows.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sentiment_score, shingle_hashes, simhash64};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A text of `n_pieces` pieces: lexicon and filler words in random
    /// letter case, random alphanumeric runs, and separators that include
    /// multi-byte characters (every non-ASCII byte separates tokens).
    fn arbitrary_text(n_pieces: usize, seed: u64) -> String {
        const WORDS: [&str; 8] = [
            "great", "love", "works", "bad", "crashes", "refund", "app", "the",
        ];
        const SEPARATORS: [&str; 8] = [" ", ", ", "!", "\n", "é", "日本", "👍", "-"];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = String::new();
        for _ in 0..n_pieces {
            match rng.gen_range(0..4u32) {
                0 => {
                    for c in WORDS[rng.gen_range(0..WORDS.len())].chars() {
                        text.push(if rng.gen() { c.to_ascii_uppercase() } else { c });
                    }
                }
                1 => {
                    for _ in 0..rng.gen_range(1..6u32) {
                        text.push(rng.gen_range(b'0'..=b'z') as char);
                    }
                }
                _ => {}
            }
            text.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
        }
        text
    }

    proptest! {
        /// The one-pass row against the public two-scan kernels, from
        /// empty and one-token texts up to more than 255 shingles, where
        /// the SimHash tally crosses its chunk flush. `check.sh` runs it
        /// optimised, the way every matrix runs this crate.
        #[test]
        fn one_pass_row_equals_the_two_scan_kernels(
            n_pieces in prop_oneof![0usize..4, 0usize..60, 380usize..700],
            seed in any::<u64>(),
        ) {
            let text = arbitrary_text(n_pieces, seed);
            let mut s = TextSketch::default();
            s.observe(7, 11, 13, 5, &text);
            let row = *s.rows().next().expect("one review folded");
            prop_assert_eq!(
                (row.app, row.reviewer, row.time, row.rating, row.len as usize),
                (7, 11, 13, 5, text.len())
            );
            prop_assert_eq!(row.sentiment, sentiment_score(&text));
            prop_assert_eq!(row.simhash, simhash64(shingle_hashes(&text, SHINGLE_K)));
        }
    }

    /// The size classes of the property above reach what they claim to.
    #[test]
    fn arbitrary_texts_cover_short_and_chunk_crossing_inputs() {
        let shingles = |n, seed| shingle_hashes(&arbitrary_text(n, seed), SHINGLE_K).len();
        assert_eq!(shingles(0, 1), 0);
        assert!((0..64).any(|seed| shingles(2, seed) == 1));
        assert!((0..64).all(|seed| shingles(699, seed) > 255));
        assert!((0..64).any(|seed| shingles(380, seed) < 255));
    }

    fn sketch_of(reviews: &[(u32, u64, u64, u8, &str)]) -> TextSketch {
        let mut s = TextSketch::default();
        for &(app, who, t, stars, text) in reviews {
            s.observe(app, who, t, stars, text);
        }
        s
    }

    #[test]
    fn observe_is_idempotent_and_order_insensitive() {
        let a = sketch_of(&[
            (1, 10, 100, 5, "great app"),
            (2, 11, 200, 1, "crashes a lot"),
            (1, 10, 100, 5, "great app"),
        ]);
        let b = sketch_of(&[
            (2, 11, 200, 1, "crashes a lot"),
            (1, 10, 100, 5, "great app"),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.n_reviews(), 2);
    }

    #[test]
    fn merge_equals_observing_the_union() {
        let all = sketch_of(&[
            (1, 10, 100, 5, "great app works well"),
            (2, 11, 200, 2, "slow and buggy"),
            (3, 12, 300, 4, "nice design"),
        ]);
        let mut left = sketch_of(&[(1, 10, 100, 5, "great app works well")]);
        let right = sketch_of(&[
            (2, 11, 200, 2, "slow and buggy"),
            (3, 12, 300, 4, "nice design"),
        ]);
        left.merge(&right);
        assert_eq!(left, all);
        // Identity + idempotence.
        left.merge(&TextSketch::default());
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn rows_carry_content_digests() {
        let s = sketch_of(&[(7, 1, 50, 5, "Great app, love it!")]);
        let row = s.rows().next().unwrap();
        assert_eq!(row.app, 7);
        assert_eq!(row.len, 19);
        assert!(row.sentiment >= 2);
        assert_ne!(row.simhash, 0);
    }
}
