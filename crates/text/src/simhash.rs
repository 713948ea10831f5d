//! 64-bit SimHash over shingle sets.
//!
//! Every shingle votes its bit pattern (+1 where the shingle hash has a
//! 1-bit, −1 where it has a 0-bit); the SimHash keeps the sign of each
//! bit's tally. Similar shingle multisets therefore land at small Hamming
//! distance — the property the near-duplicate index verifies candidates
//! against.
//!
//! The tally is bit-sliced: instead of 64 scalar counters updated with a
//! per-lane shift (which no SIMD unit can vectorize), each shingle
//! ripple-carries into eight 64-lane bit planes (~3 word ops per shingle),
//! and the final sign test is a 64-lane bit-sliced comparator against
//! ⌊n/2⌋. The result is identical to the naive ±1 vote loop — `votes[b] >
//! 0` iff the ones-count of bit `b` strictly exceeds `n/2` — which the
//! tests pin against a reference implementation.

use crate::shingle::for_each_shingle;

/// Bit planes per chunk: counts up to 255 shingles before a flush.
const PLANES: usize = 8;
/// Shingles per chunk (the largest count eight planes can hold).
const CHUNK: u32 = 255;

/// Streaming 64-lane majority-vote accumulator.
///
/// `planes[j]` holds bit `j` of every lane's ones-counter; folding a
/// shingle is a ripple-carry increment of the lanes where the shingle has
/// a 1-bit. Inputs longer than one chunk spill into the 64 scalar
/// counters, so arbitrary iterator lengths stay exact.
pub(crate) struct Votes {
    planes: [u64; PLANES],
    counts: [u64; 64],
    chunk: u32,
    flushed: bool,
    n: u64,
}

impl Default for Votes {
    fn default() -> Self {
        Votes {
            planes: [0; PLANES],
            counts: [0; 64],
            chunk: 0,
            flushed: false,
            n: 0,
        }
    }
}

impl Votes {
    #[inline]
    pub(crate) fn observe(&mut self, s: u64) {
        let mut x = s;
        for p in &mut self.planes {
            let carry = *p & x;
            *p ^= x;
            x = carry;
            if x == 0 {
                break;
            }
        }
        self.n += 1;
        self.chunk += 1;
        if self.chunk == CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for (b, c) in self.counts.iter_mut().enumerate() {
            let mut v = 0u64;
            for (j, p) in self.planes.iter().enumerate() {
                v += ((p >> b) & 1) << j;
            }
            *c += v;
        }
        self.planes = [0; PLANES];
        self.chunk = 0;
        self.flushed = true;
    }

    pub(crate) fn finish(mut self) -> u64 {
        if !self.flushed {
            // Single chunk: 64-lane bit-sliced `count > ⌊n/2⌋`, MSB-first.
            // `votes[b] > 0` ⟺ `2·ones > n` ⟺ `ones > ⌊n/2⌋` (both
            // parities), and ⌊n/2⌋ ≤ 127 fits the planes' width.
            let t = self.n / 2;
            let mut gt = 0u64;
            let mut eq = !0u64;
            for j in (0..PLANES).rev() {
                let tb = if (t >> j) & 1 == 1 { !0u64 } else { 0u64 };
                gt |= eq & self.planes[j] & !tb;
                eq &= !(self.planes[j] ^ tb);
            }
            return gt;
        }
        self.flush();
        let n = self.n;
        self.counts
            .iter()
            .enumerate()
            .fold(0u64, |acc, (b, &c)| acc | (u64::from(2 * c > n) << b))
    }
}

/// SimHash of a shingle-hash iterator: per-bit majority vote (+1/−1 per
/// shingle), ties resolving to 0.
pub fn simhash64(shingles: impl IntoIterator<Item = u64>) -> u64 {
    let mut votes = Votes::default();
    for s in shingles {
        votes.observe(s);
    }
    votes.finish()
}

/// SimHash of a text under `k`-word shingling — the per-review kernel.
pub fn simhash64_of_text(text: &str, k: usize) -> u64 {
    let mut votes = Votes::default();
    for_each_shingle(text, k, |s| votes.observe(s));
    votes.finish()
}

/// Hamming distance between two SimHashes.
#[inline]
pub fn hamming(a: u64, b: u64) -> u32 {
    (a ^ b).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shingle::shingle_hashes;

    /// The definitional ±1 vote loop the bit-sliced kernel must match.
    fn simhash64_reference(shingles: impl IntoIterator<Item = u64>) -> u64 {
        let mut votes = [0i64; 64];
        for s in shingles {
            for (b, v) in votes.iter_mut().enumerate() {
                *v += if (s >> b) & 1 == 1 { 1 } else { -1 };
            }
        }
        votes
            .iter()
            .enumerate()
            .fold(0u64, |acc, (b, &v)| acc | (u64::from(v > 0) << b))
    }

    #[test]
    fn bit_sliced_kernel_matches_reference_votes() {
        // Deterministic pseudo-random shingles (SplitMix64 stream), at
        // lengths straddling the chunk flush boundary.
        let stream = |len: usize| {
            let mut z = 0x9E37_79B9u64;
            (0..len).map(move |_| {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            })
        };
        for len in [0, 1, 2, 3, 13, 64, 254, 255, 256, 511, 1000] {
            assert_eq!(
                simhash64(stream(len)),
                simhash64_reference(stream(len)),
                "length {len}"
            );
        }
        // Adversarial tie-heavy inputs.
        for input in [
            vec![u64::MAX; 254],
            vec![0u64; 300],
            vec![u64::MAX, 0, u64::MAX, 0],
            vec![0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555],
        ] {
            assert_eq!(
                simhash64(input.iter().copied()),
                simhash64_reference(input.iter().copied())
            );
        }
    }

    #[test]
    fn text_kernel_matches_iterator_kernel() {
        let text = "really great app works well every day";
        assert_eq!(
            simhash64_of_text(text, 2),
            simhash64(shingle_hashes(text, 2))
        );
    }

    #[test]
    fn identical_texts_are_at_distance_zero() {
        let a = simhash64_of_text("Great app, very useful and smooth!", 2);
        let b = simhash64_of_text("great APP very useful and smooth", 2);
        assert_eq!(hamming(a, b), 0);
    }

    #[test]
    fn near_duplicates_are_closer_than_unrelated_texts() {
        let base = "great app works perfectly love the new design and speed";
        let near = "great app works perfectly love the new design and speed today";
        let far = "terrible update crashes constantly and drains my battery fast";
        let (hb, hn, hf) = (
            simhash64_of_text(base, 2),
            simhash64_of_text(near, 2),
            simhash64_of_text(far, 2),
        );
        assert!(hamming(hb, hn) < hamming(hb, hf));
        assert!(hamming(hb, hn) <= 12);
        assert!(hamming(hb, hf) > 12);
    }

    #[test]
    fn empty_text_hashes_to_zero() {
        assert_eq!(simhash64_of_text("", 2), 0);
        assert_eq!(simhash64(std::iter::empty()), 0);
    }
}
