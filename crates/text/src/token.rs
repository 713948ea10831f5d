//! ASCII word tokenization with case-folded token hashing.
//!
//! A *token* is a maximal run of ASCII alphanumeric bytes; every other
//! byte is a separator. Tokens are hashed with FNV-1a over their
//! lower-cased bytes, so `"Great"`, `"great"` and `"GREAT"` hash
//! identically while never allocating — the whole tokenizer is a single
//! pass over the input bytes.

/// FNV-1a offset basis, doubling as the seed of the token hash family.
const TOKEN_HASH_SEED: u64 = 0xCBF2_9CE4_8422_2325;

const FNV_PRIME: u64 = 0x1_0000_0000_01B3;

/// FNV-1a over case-folded bytes; `const` so the sentiment lexicon can be
/// hashed at compile time.
pub(crate) const fn fnv1a_folded(bytes: &[u8]) -> u64 {
    let mut h = TOKEN_HASH_SEED;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i].to_ascii_lowercase() as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// Call `f` with the case-folded hash of every token of `text`, in order.
///
/// The closure-based shape keeps the per-review hot path allocation-free:
/// shingling, sentiment and SimHash voting all run off this single
/// byte scan.
#[inline]
pub(crate) fn for_each_token_hash(text: &str, mut f: impl FnMut(u64)) {
    let mut h = TOKEN_HASH_SEED;
    let mut in_token = false;
    for &b in text.as_bytes() {
        if b.is_ascii_alphanumeric() {
            h ^= b.to_ascii_lowercase() as u64;
            h = h.wrapping_mul(FNV_PRIME);
            in_token = true;
        } else if in_token {
            f(h);
            h = TOKEN_HASH_SEED;
            in_token = false;
        }
    }
    if in_token {
        f(h);
    }
}

/// The token hashes of `text`, collected (test/diagnostic convenience;
/// hot paths fold the scan without collecting).
pub fn token_hashes(text: &str) -> Vec<u64> {
    let mut out = Vec::new();
    for_each_token_hash(text, |h| out.push(h));
    out
}

/// Number of tokens in `text`.
pub fn token_count(text: &str) -> usize {
    let mut n = 0;
    for_each_token_hash(text, |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_alphanumeric_runs() {
        assert_eq!(token_count("great app, works well!"), 4);
        assert_eq!(token_count(""), 0);
        assert_eq!(token_count("   ...   "), 0);
        assert_eq!(token_count("a1b2"), 1);
    }

    #[test]
    fn hashing_is_case_insensitive() {
        assert_eq!(token_hashes("Great App"), token_hashes("gReAt aPp"));
        assert_ne!(token_hashes("great"), token_hashes("grate"));
    }

    #[test]
    fn punctuation_only_separates() {
        assert_eq!(token_hashes("works-well"), token_hashes("works well"));
        assert_eq!(token_hashes("works  well"), token_hashes("works\nwell"));
    }

    #[test]
    fn const_hash_matches_runtime_hash() {
        const H: u64 = fnv1a_folded(b"Great");
        assert_eq!(token_hashes("great"), vec![H]);
    }
}
