//! `k`-word shingle hashes over the token stream.
//!
//! A shingle is the combined hash of `k` consecutive token hashes,
//! chained through the SplitMix64 finalizer under [`SHINGLE_SALT`]. Texts
//! with fewer than `k` tokens still emit one shingle over all their
//! tokens, so even one-word reviews participate in similarity.

use crate::token::for_each_token_hash;

/// Salt separating the shingle-combination hash family from every other
/// SplitMix64 use in the workspace.
const SHINGLE_SALT: u64 = 0x5819_57E1_7E87_51ED;

/// SplitMix64 finalizer (golden-ratio increment, then the two
/// multiply-xorshift rounds): the bit mixer every sketch hash family here
/// and in `racket-campaign` is salted over.
#[inline]
pub const fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Longest shingle width supported by the fixed-size rolling window.
const MAX_SHINGLE_K: usize = 8;

/// Call `f` with the hash of every `k`-word shingle of `text`, in order.
///
/// `k` is clamped to `1..=`[`MAX_SHINGLE_K`]. The window is a fixed stack
/// ring, so the scan allocates nothing.
#[inline]
pub(crate) fn for_each_shingle(text: &str, k: usize, f: impl FnMut(u64)) {
    for_each_token_and_shingle(text, k, |_| {}, f);
}

/// One combined scan: call `on_token` with every case-folded token hash
/// and `on_shingle` with every `k`-word shingle hash, in order. The
/// single definition [`for_each_shingle`] and the sketch's one-pass
/// review fold both run on, so the shingle sequence can never diverge
/// between them.
#[inline]
pub(crate) fn for_each_token_and_shingle(
    text: &str,
    k: usize,
    mut on_token: impl FnMut(u64),
    mut on_shingle: impl FnMut(u64),
) {
    let k = k.clamp(1, MAX_SHINGLE_K);
    let mut ring = [0u64; MAX_SHINGLE_K];
    let mut n = 0usize;
    for_each_token_hash(text, |h| {
        on_token(h);
        ring[n % MAX_SHINGLE_K] = h;
        n += 1;
        if n >= k {
            let mut s = SHINGLE_SALT ^ (k as u64);
            for back in (0..k).rev() {
                s = mix64(s ^ ring[(n - 1 - back) % MAX_SHINGLE_K]);
            }
            on_shingle(s);
        }
    });
    // Short text: one shingle over everything it has.
    if n > 0 && n < k {
        let mut s = SHINGLE_SALT ^ (k as u64);
        for &h in ring.iter().take(n) {
            s = mix64(s ^ h);
        }
        on_shingle(s);
    }
}

/// The shingle hashes of `text`, collected (test/diagnostic convenience;
/// hot paths fold the scan without collecting).
#[cfg(test)]
pub(crate) fn shingle_hashes(text: &str, k: usize) -> Vec<u64> {
    let mut out = Vec::new();
    for_each_shingle(text, k, |s| out.push(s));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_follow_the_window() {
        assert_eq!(shingle_hashes("a b c d", 2).len(), 3);
        assert_eq!(shingle_hashes("a b c d", 3).len(), 2);
        assert_eq!(shingle_hashes("a b c d", 1).len(), 4);
    }

    #[test]
    fn short_texts_emit_one_shingle() {
        assert_eq!(shingle_hashes("solo", 3).len(), 1);
        assert_eq!(shingle_hashes("two words", 3).len(), 1);
        assert!(shingle_hashes("", 3).is_empty());
    }

    #[test]
    fn order_matters_within_a_shingle() {
        assert_ne!(shingle_hashes("good app", 2), shingle_hashes("app good", 2));
    }

    #[test]
    fn identical_texts_share_all_shingles() {
        assert_eq!(
            shingle_hashes("Really great app, works!", 2),
            shingle_hashes("really GREAT app works", 2)
        );
    }

    #[test]
    fn width_is_part_of_the_hash() {
        // A 1-shingle of one token and a clamped short-text shingle of the
        // same token under a different k must not collide by construction.
        assert_ne!(shingle_hashes("solo", 1), shingle_hashes("solo", 2));
    }
}
