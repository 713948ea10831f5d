//! A compile-time hashed positive/negative lexicon.
//!
//! The rating–text divergence feature needs only a sign-and-magnitude
//! sentiment estimate, so the lexicon is two short word lists hashed at
//! compile time with the same case-folded token hash the tokenizer uses —
//! scoring is a pure token scan, no allocation, no tables built at
//! runtime.

use crate::token::{fnv1a_folded, for_each_token_hash};

/// Words counted as positive evidence.
const POSITIVE: [&str; 24] = [
    "great",
    "love",
    "awesome",
    "amazing",
    "perfect",
    "excellent",
    "fantastic",
    "helpful",
    "smooth",
    "best",
    "nice",
    "good",
    "useful",
    "fun",
    "easy",
    "works",
    "recommend",
    "superb",
    "brilliant",
    "wonderful",
    "fast",
    "simple",
    "beautiful",
    "reliable",
];

/// Words counted as negative evidence.
const NEGATIVE: [&str; 24] = [
    "bad", "terrible", "awful", "crash", "crashes", "broken", "worst", "hate", "useless", "slow",
    "bug", "buggy", "scam", "spam", "annoying", "ads", "waste", "poor", "fake", "horrible",
    "freezes", "laggy", "unusable", "refund",
];

const fn hash_list<const N: usize>(words: [&str; N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut i = 0;
    while i < N {
        out[i] = fnv1a_folded(words[i].as_bytes());
        i += 1;
    }
    out
}

const POSITIVE_HASHES: [u64; 24] = hash_list(POSITIVE);
const NEGATIVE_HASHES: [u64; 24] = hash_list(NEGATIVE);

/// Slots of the open-addressed vote table: a power of two, so a hash's
/// top bits are its home slot. 48 entries load it to 3/16, which leaves
/// four home slots in five free (128 slots read 5 % slower on the fold).
const SLOTS: usize = 256;

/// Home slot of a token hash: its top eight bits, the best-mixed end of
/// an FNV-1a product.
#[inline]
const fn home(h: u64) -> usize {
    (h >> 56) as usize
}

/// Two hash lists as one open-addressed table: each hash sits at the
/// first free slot at or after its home slot (linear probing, wrapping
/// past the last slot), carrying its list's vote sign; a free slot has
/// sign 0.
const fn vote_table(positive: &[u64], negative: &[u64]) -> [(u64, i32); SLOTS] {
    assert!(positive.len() + negative.len() < SLOTS);
    let mut table = [(0u64, 0i32); SLOTS];
    let mut n = 0;
    while n < positive.len() + negative.len() {
        let entry = if n < positive.len() {
            (positive[n], 1)
        } else {
            (negative[n - positive.len()], -1)
        };
        let mut slot = home(entry.0);
        while table[slot].1 != 0 {
            slot = (slot + 1) % SLOTS;
        }
        table[slot] = entry;
        n += 1;
    }
    table
}

/// Both lexica, built at compile time. The word lists are disjoint, so
/// the 48 hashes are distinct and a lookup is exactly equivalent to
/// probing the two lists in order.
static VOTE_TABLE: [(u64, i32); SLOTS] = vote_table(&POSITIVE_HASHES, &NEGATIVE_HASHES);

/// The sign `table` holds for `h`, 0 when it holds none: probe from the
/// home slot until a hit or a free slot (which ends the probe with its 0).
#[inline]
fn lookup(table: &[(u64, i32); SLOTS], h: u64) -> i32 {
    let mut slot = home(h);
    loop {
        let (hash, sign) = table[slot];
        if hash == h || sign == 0 {
            return sign;
        }
        slot = (slot + 1) % SLOTS;
    }
}

/// The vote of one case-folded token hash: +1 positive, −1 negative,
/// 0 outside the lexicon. The per-token kernel of [`sentiment_score`],
/// exposed to the crate so the one-pass review fold can reuse it. Most
/// tokens are outside the lexicon and stop at their (free) home slot.
#[inline]
pub(crate) fn token_vote(h: u64) -> i32 {
    lookup(&VOTE_TABLE, h)
}

/// Sentiment score of a text: positive-lexicon hits minus
/// negative-lexicon hits over its tokens.
pub fn sentiment_score(text: &str) -> i32 {
    let mut score = 0i32;
    for_each_token_hash(text, |h| score += token_vote(h));
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition the table must match: probe the positive list, then
    /// the negative one.
    fn list_vote(h: u64) -> i32 {
        if POSITIVE_HASHES.contains(&h) {
            1
        } else if NEGATIVE_HASHES.contains(&h) {
            -1
        } else {
            0
        }
    }

    proptest! {
        /// Arbitrary hashes, and the same bits re-homed at every slot of
        /// the table, so misses start inside every occupied run.
        #[test]
        fn table_vote_equals_list_vote_for_any_hash(h in any::<u64>()) {
            prop_assert_eq!(token_vote(h), list_vote(h));
            for slot in 0..SLOTS as u64 {
                let rehomed = (slot << 56) | (h >> 8);
                prop_assert_eq!(home(rehomed), slot as usize);
                prop_assert_eq!(token_vote(rehomed), list_vote(rehomed));
            }
        }

        /// Every lexicon word votes its list's sign in any letter case.
        #[test]
        fn every_lexicon_word_votes_in_any_letter_case(case_bits in any::<u64>()) {
            for (words, sign) in [(POSITIVE, 1), (NEGATIVE, -1)] {
                for word in words {
                    let cased: Vec<u8> = word
                        .bytes()
                        .enumerate()
                        .map(|(i, b)| if (case_bits >> i) & 1 == 1 { b.to_ascii_uppercase() } else { b })
                        .collect();
                    let h = fnv1a_folded(&cased);
                    prop_assert_eq!(token_vote(h), sign);
                    prop_assert_eq!(list_vote(h), sign);
                }
            }
        }
    }

    /// The real table leaves its last slot free, so no lookup in it ever
    /// wraps; three hashes homed at the last slot make one that does.
    #[test]
    fn probes_wrap_past_the_last_slot() {
        let last = (SLOTS as u64 - 1) << 56;
        let table = vote_table(&[last | 1, last | 2], &[last | 3]);
        assert_eq!(table[SLOTS - 1], (last | 1, 1));
        assert_eq!(table[0], (last | 2, 1));
        assert_eq!(table[1], (last | 3, -1));
        for (h, sign) in [(last | 1, 1), (last | 2, 1), (last | 3, -1), (last | 4, 0)] {
            assert_eq!(lookup(&table, h), sign);
        }
    }

    #[test]
    fn praise_scores_positive() {
        assert!(sentiment_score("Great app, works perfectly. Love it!") >= 3);
    }

    #[test]
    fn complaints_score_negative() {
        assert!(sentiment_score("terrible update, crashes and freezes") <= -3);
    }

    #[test]
    fn neutral_text_scores_zero() {
        assert_eq!(sentiment_score("opened the settings menu twice"), 0);
        assert_eq!(sentiment_score(""), 0);
    }

    #[test]
    fn scoring_is_case_insensitive() {
        assert_eq!(
            sentiment_score("GREAT and AWFUL"),
            sentiment_score("great and awful")
        );
        assert_eq!(sentiment_score("great and awful"), 0);
    }

    #[test]
    fn lexicons_do_not_overlap() {
        for p in POSITIVE_HASHES {
            assert!(!NEGATIVE_HASHES.contains(&p));
        }
    }
}
