//! The per-install streaming text sketch.
//!
//! A [`TextSketch`] is folded one review at a time at snapshot-ingest
//! time (inside `StreamAggregates`) and rebuilt in batch from the
//! columnar review family; both paths must produce identical sketches.
//! The state is engineered for exactly that contract, mirroring the
//! campaign sketch's algebra:
//!
//! * each review reduces to one canonical [`ReviewRow`] (pure function of
//!   the review fields) kept in a B-tree set — fold **order-insensitive**
//!   and **idempotent**;
//! * the install-level MinHash folds each inserted row's shingles, and
//!   `min` makes duplicate and out-of-order folds invisible;
//! * [`TextSketch::merge`] is commutative and associative with the
//!   default sketch as identity, so sharded ingest merges freely.

use crate::minhash::TextMinHash;
use crate::sentiment::{sentiment_score, token_vote};
use crate::shingle::for_each_token_and_shingle;
use crate::simhash::{simhash64, simhash64_of_text};

/// Words per shingle: short review texts need narrow shingles to overlap.
const SHINGLE_K: usize = 2;

/// Rows of the install-level MinHash: 32 rows estimate Jaccard to ±0.09
/// at one standard error — plenty for a *feature*, cheap enough for the
/// per-review ingest fold.
const N_HASHES: usize = 32;

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
    /// Reduce one review to its canonical row: the definition
    /// [`TextSketch::observe`]'s single-scan fold is checked against.
    fn of(app: u32, reviewer: u64, time: u64, rating: u8, text: &str) -> Self {
        ReviewRow {
            app,
            reviewer,
            time,
            rating,
            len: text.len().min(u32::MAX as usize) as u32,
            sentiment: sentiment_score(text),
            simhash: simhash64_of_text(text, SHINGLE_K),
        }
    }
}

/// Streaming per-install text state: canonical review rows plus an
/// install-level MinHash over all review shingles.
#[derive(Debug, Clone, PartialEq)]
pub struct TextSketch {
    rows: std::collections::BTreeSet<ReviewRow>,
    minhash: TextMinHash,
}

impl Default for TextSketch {
    fn default() -> Self {
        TextSketch {
            rows: std::collections::BTreeSet::new(),
            minhash: TextMinHash::empty(N_HASHES),
        }
    }
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

    /// The install-level MinHash over all review shingles.
    pub fn minhash(&self) -> &TextMinHash {
        &self.minhash
    }

    /// Fold one review. Idempotent: re-folding an identical review leaves
    /// the sketch unchanged (the row set dedups it and `min` makes the
    /// MinHash refold a no-op).
    ///
    /// Equivalent to building `ReviewRow::of` and refolding the text's
    /// shingles, but scans the text exactly once: token votes accumulate
    /// the sentiment while the shingle hashes buffer for the SimHash vote
    /// and (for newly inserted rows) the MinHash fold. This is the ingest
    /// hot path (`benchmark/`'s `text.sketch.observe_ns_per_review`).
    pub fn observe(&mut self, app: u32, reviewer: u64, time: u64, rating: u8, text: &str) {
        // Review texts are short; a stack buffer covers them, the spill
        // vector keeps arbitrary inputs correct.
        const STACK_SHINGLES: usize = 64;
        let mut stack = [0u64; STACK_SHINGLES];
        let mut spill: Vec<u64> = Vec::new();
        let mut count = 0usize;
        let mut sentiment = 0i32;
        for_each_token_and_shingle(
            text,
            SHINGLE_K,
            |h| sentiment += token_vote(h),
            |sh| {
                if count < STACK_SHINGLES {
                    stack[count] = sh;
                } else {
                    spill.push(sh);
                }
                count += 1;
            },
        );
        let buffered = &stack[..count.min(STACK_SHINGLES)];
        let shingles = || buffered.iter().copied().chain(spill.iter().copied());
        let row = ReviewRow {
            app,
            reviewer,
            time,
            rating,
            len: text.len().min(u32::MAX as usize) as u32,
            sentiment,
            simhash: simhash64(shingles()),
        };
        debug_assert_eq!(
            row,
            ReviewRow::of(app, reviewer, time, rating, text),
            "single-scan fold must agree with the canonical row reduction"
        );
        if !self.rows.insert(row) {
            return;
        }
        for sh in shingles() {
            self.minhash.observe(sh);
        }
    }

    /// Merge another sketch (row-set union + MinHash min). Commutative,
    /// associative, idempotent; the default sketch is the identity.
    pub fn merge(&mut self, other: &TextSketch) {
        self.rows.extend(other.rows.iter().copied());
        self.minhash.merge(&other.minhash);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!s.minhash().is_empty());
    }
}
