//! LZSS compression for rotated snapshot files.
//!
//! §3: the data-buffer module *compresses* each accumulation file before
//! upload, to minimize bandwidth. Snapshot streams are extremely
//! repetitive (consecutive fast snapshots differ in a handful of bytes),
//! so a simple LZ77-family scheme recovers most of the redundancy.
//!
//! Format: a stream of tokens introduced by flag bytes. Each flag byte
//! covers the next 8 tokens, LSB first; bit = 0 means a literal byte,
//! bit = 1 means a back-reference of `(distance: u16 LE, length: u8)`
//! with real length `length + MIN_MATCH`. Window 64 KiB, match lengths
//! 4..=258.

/// Minimum back-reference length (shorter matches are stored literally).
const MIN_MATCH: usize = 4;
/// Maximum back-reference length (255 + MIN_MATCH).
const MAX_MATCH: usize = 255 + MIN_MATCH;
/// Sliding-window size (maximum back-reference distance).
const WINDOW: usize = 65_535;

// Chained hash table over 4-byte prefixes for match finding.
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Maximum candidates examined per position before giving up.
const CHAIN_LIMIT: u32 = 32;
/// Empty-slot sentinel in the hash chains.
const NIL: u32 = u32::MAX;

/// Worst-case compressed size for `n` input bytes: an all-literal stream
/// costs one flag byte per 8 literals, plus a small cushion. Reserving
/// this up front means [`Workspace::compress_into`] never regrows its
/// output, even on incompressible input.
pub const fn max_compressed_len(n: usize) -> usize {
    n + n / 8 + 16
}

#[inline]
fn hash4(d: &[u8]) -> usize {
    let v = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[c..]` and `data[i..]`, capped at
/// `max_len`. Requires `c < i` and `i + max_len <= data.len()`.
///
/// With `WIDE` the comparison runs eight bytes at a time: both reads stay
/// in bounds (`l + 8 <= max_len` implies `i + l + 8 <= data.len()`, and
/// `c < i` keeps the candidate read strictly earlier), and on a mismatch
/// the first differing byte is recovered from the trailing zeros of the
/// little-endian XOR — so the result is byte-for-byte the scalar answer,
/// just computed a word at a time. The scalar variant is kept as the
/// reference the property tests pin the wide path against.
#[inline]
fn match_len<const WIDE: bool>(data: &[u8], c: usize, i: usize, max_len: usize) -> usize {
    debug_assert!(c < i && i + max_len <= data.len());
    let mut l = 0usize;
    if WIDE {
        while l + 8 <= max_len {
            let a = u64::from_le_bytes(data[c + l..c + l + 8].try_into().unwrap());
            let b = u64::from_le_bytes(data[i + l..i + l + 8].try_into().unwrap());
            let diff = a ^ b;
            if diff != 0 {
                return l + (diff.trailing_zeros() / 8) as usize;
            }
            l += 8;
        }
    }
    while l < max_len && data[c + l] == data[i + l] {
        l += 1;
    }
    l
}

/// Reusable compression state: the hash-chain `head`/`prev` arrays and a
/// generation counter that invalidates `head` entries between runs without
/// touching memory.
///
/// A fresh pair of chain arrays costs ~384 KiB of allocation + memset per
/// call at the buffer module's rotate sizes; a per-lane `Workspace` pays
/// that once and then compresses allocation-free forever: `head` slots are
/// lazily reset by comparing their generation stamp against the current
/// run's, and `prev` needs no reset at all (a `prev[i]` is only ever read
/// by walking a chain rooted in a current-generation `head` slot, and
/// every position on such a chain was written during the current run).
///
/// Output is a pure function of the input bytes: a reused workspace
/// produces byte-identical streams to a fresh one (property-tested in
/// `tests/codec_props.rs`).
#[derive(Debug, Clone)]
pub struct Workspace {
    head: Vec<u32>,
    head_gen: Vec<u32>,
    prev: Vec<u32>,
    gen: u32,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// A fresh workspace. The chain arrays are sized on first use.
    pub fn new() -> Workspace {
        Workspace {
            head: vec![0; HASH_SIZE],
            head_gen: vec![0; HASH_SIZE],
            prev: Vec::new(),
            gen: 0,
        }
    }

    /// Start a new compression run: bump the generation (staling every
    /// `head` slot in O(1)) and make sure `prev` covers the input.
    fn begin(&mut self, n: usize) {
        if self.prev.len() < n {
            self.prev.resize(n, 0);
        }
        if self.gen == u32::MAX {
            // Generation wrap: one hard reset every 2^32 - 1 runs.
            self.head_gen.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    #[inline]
    fn chain_head(&self, h: usize) -> u32 {
        if self.head_gen[h] == self.gen {
            self.head[h]
        } else {
            NIL
        }
    }

    #[inline]
    fn insert(&mut self, h: usize, pos: usize) {
        self.prev[pos] = self.chain_head(h);
        self.head[h] = pos as u32;
        self.head_gen[h] = self.gen;
    }

    /// Longest match for `data[i..]` among chained earlier positions.
    /// Returns `(length, distance)`; length 0 means no candidate.
    ///
    /// With `WIDE`, a candidate is first tested on the single byte at
    /// offset `best_len`: to replace the best match it must be strictly
    /// longer, so it must match there. Rejected candidates still count
    /// against the chain limit, so the search visits the same candidates
    /// and returns the same answer as the scalar walk.
    #[inline]
    fn find_match<const WIDE: bool>(&self, data: &[u8], i: usize) -> (usize, usize) {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH > data.len() {
            return (0, 0);
        }
        let max_len = (data.len() - i).min(MAX_MATCH);
        let mut cand = self.chain_head(hash4(&data[i..]));
        let mut chain = 0;
        while cand != NIL && i - cand as usize <= WINDOW && chain < CHAIN_LIMIT {
            let c = cand as usize;
            // `best_len < max_len` here (a full-length match broke out),
            // so `i + best_len` is in bounds.
            if !WIDE || data[c + best_len] == data[i + best_len] {
                let l = match_len::<WIDE>(data, c, i, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l == max_len {
                        break;
                    }
                }
            }
            cand = self.prev[c];
            chain += 1;
        }
        (best_len, best_dist)
    }

    /// Compress `data`, replacing the contents of `out`.
    ///
    /// `out` is cleared and reserved to [`max_compressed_len`] up front,
    /// so a buffer that already has that capacity is never reallocated.
    /// Uses one-step lazy matching: when the position after a match start
    /// holds a strictly longer match, the first byte is emitted as a
    /// literal instead, improving ratio on snapshot streams at equal
    /// speed. Match comparison runs eight bytes at a time, chain
    /// candidates that cannot win are skipped on one byte, and a winning
    /// look-ahead is carried into the next step instead of searched for
    /// again; the output is byte-identical to
    /// [`Workspace::compress_into_scalar`] (property-tested in
    /// `tests/codec_props.rs`).
    pub fn compress_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        self.compress_impl::<true>(data, out);
    }

    /// Byte-at-a-time reference implementation of
    /// [`Workspace::compress_into`]: same tokenizer, scalar match loop,
    /// every candidate compared in full, every search run afresh. Exists
    /// so the fast path has an in-tree oracle; not used on any hot path.
    pub fn compress_into_scalar(&mut self, data: &[u8], out: &mut Vec<u8>) {
        self.compress_impl::<false>(data, out);
    }

    fn compress_impl<const WIDE: bool>(&mut self, data: &[u8], out: &mut Vec<u8>) {
        out.clear();
        if data.is_empty() {
            return;
        }
        out.reserve(max_compressed_len(data.len()));
        self.begin(data.len());

        let mut i = 0;
        let mut flag_pos = out.len();
        out.push(0);
        let mut flag_bit = 0u8;

        macro_rules! emit_token {
            ($is_ref:expr, $body:expr) => {{
                if flag_bit == 8 {
                    flag_pos = out.len();
                    out.push(0);
                    flag_bit = 0;
                }
                if $is_ref {
                    out[flag_pos] |= 1 << flag_bit;
                }
                flag_bit += 1;
                let bytes: &[u8] = $body;
                out.extend_from_slice(bytes);
            }};
        }

        // A look-ahead match that beat the current one, kept for the step
        // that emits it (wide path only; the scalar oracle searches again).
        let mut deferred: Option<(usize, usize)> = None;
        while i < data.len() {
            let (best_len, best_dist) = match deferred.take() {
                Some(found) => found,
                None => self.find_match::<WIDE>(data, i),
            };

            if best_len >= MIN_MATCH {
                // One-step lazy matching: peek at i + 1 before committing.
                // `i` must be inserted first so the peek can chain to it.
                if i + MIN_MATCH <= data.len() {
                    self.insert(hash4(&data[i..]), i);
                }
                if best_len < MAX_MATCH {
                    let next = self.find_match::<WIDE>(data, i + 1);
                    if next.0 > best_len {
                        // The deferred match is strictly better: spend a
                        // literal and take it up on the next iteration
                        // (nothing is inserted in between, so searching
                        // again would find exactly `next`).
                        emit_token!(false, &data[i..=i]);
                        i += 1;
                        if WIDE {
                            deferred = Some(next);
                        }
                        continue;
                    }
                }
                let dist = best_dist as u16;
                let len_code = (best_len - MIN_MATCH) as u8;
                emit_token!(
                    true,
                    &[dist.to_le_bytes()[0], dist.to_le_bytes()[1], len_code]
                );
                // Insert hash entries for the remaining covered positions
                // (`i` itself is already in).
                let end = i + best_len;
                i += 1;
                while i < end {
                    if i + MIN_MATCH <= data.len() {
                        self.insert(hash4(&data[i..]), i);
                    }
                    i += 1;
                }
            } else {
                emit_token!(false, &data[i..=i]);
                if i + MIN_MATCH <= data.len() {
                    self.insert(hash4(&data[i..]), i);
                }
                i += 1;
            }
        }
    }

    /// Compress `data` into a freshly allocated `Vec`.
    pub fn compress(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out);
        out
    }
}

/// Compress a byte slice with a throwaway [`Workspace`].
///
/// Convenience for one-shot callers and tests; hot paths (the per-lane
/// buffer rotate) hold a persistent workspace instead.
///
/// ```
/// let data = b"snapshot;snapshot;snapshot;snapshot;".repeat(50);
/// let packed = racket_collect::lzss::compress(&data);
/// assert!(packed.len() < data.len() / 4);
/// assert_eq!(racket_collect::lzss::decompress(&packed).unwrap(), data);
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    Workspace::new().compress(data)
}

/// Decompression errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// A token was cut off mid-stream.
    Truncated,
    /// A back-reference pointed before the start of the output.
    BadReference {
        /// Output length when the bad reference was hit.
        at: usize,
        /// The offending distance.
        distance: usize,
    },
    /// The stream inflates past the caller's output cap.
    TooLarge {
        /// The cap that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadReference { at, distance } => {
                write!(
                    f,
                    "back-reference distance {distance} at output offset {at}"
                )
            }
            DecompressError::TooLarge { limit } => {
                write!(f, "stream inflates past the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(data.len() * 3);
    decompress_into(data, &mut out)?;
    Ok(out)
}

/// Decompress into a caller-supplied buffer (cleared first), letting hot
/// ingest paths reuse one scratch allocation across files. No output cap:
/// for streams the caller compressed itself.
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), DecompressError> {
    decompress_capped(data, out, usize::MAX)
}

/// Make room for `n` more bytes without `out` ever exceeding `limit`, in
/// length or capacity: growth doubles like `Vec`'s own, clamped to the
/// limit.
#[inline]
fn reserve_within(out: &mut Vec<u8>, n: usize, limit: usize) -> Result<(), DecompressError> {
    let need = out.len() + n;
    if need > limit {
        return Err(DecompressError::TooLarge { limit });
    }
    if need > out.capacity() {
        let target = need.max(out.capacity().saturating_mul(2)).min(limit);
        out.reserve_exact(target - out.len());
    }
    Ok(())
}

/// [`decompress_into`] for streams from outside the program: fails with
/// [`DecompressError::TooLarge`] before `out` would pass `limit` bytes. A
/// match token inflates 3 bytes to up to 259, so an uncapped inflate of a
/// maximal wire payload is an ~80× allocation the sender chooses.
pub fn decompress_capped(
    data: &[u8],
    out: &mut Vec<u8>,
    limit: usize,
) -> Result<(), DecompressError> {
    out.clear();
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        if flags == 0 && i + 8 <= data.len() {
            // All eight tokens are literals: one bulk copy instead of
            // eight pushes. (The tail of the stream may cover fewer than
            // eight tokens, so the slow loop handles that case.)
            reserve_within(out, 8, limit)?;
            out.extend_from_slice(&data[i..i + 8]);
            i += 8;
            continue;
        }
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) == 0 {
                reserve_within(out, 1, limit)?;
                out.push(data[i]);
                i += 1;
            } else {
                if i + 3 > data.len() {
                    return Err(DecompressError::Truncated);
                }
                let dist = u16::from_le_bytes([data[i], data[i + 1]]) as usize;
                let len = data[i + 2] as usize + MIN_MATCH;
                i += 3;
                if dist == 0 || dist > out.len() {
                    return Err(DecompressError::BadReference {
                        at: out.len(),
                        distance: dist,
                    });
                }
                reserve_within(out, len, limit)?;
                let start = out.len() - dist;
                if dist >= len {
                    // Non-overlapping back-reference: one block copy.
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copy (run-length style): the output is
                    // periodic with period `dist` from `start` on, so any
                    // already-written chunk whose length is a multiple of
                    // `dist` can be replayed. Doubling the chunk gives
                    // O(log(len/dist)) block copies instead of `len`
                    // byte-wise pushes.
                    let mut remaining = len;
                    let mut chunk = dist;
                    while chunk < remaining {
                        out.extend_from_within(start..start + chunk);
                        remaining -= chunk;
                        chunk *= 2;
                    }
                    out.extend_from_within(start..start + remaining);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        decompress(&c).expect("round trip must decompress")
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(round_trip(b""), b"");
        assert_eq!(round_trip(b"a"), b"a");
        assert_eq!(round_trip(b"abc"), b"abc");
    }

    #[test]
    fn repetitive_input_round_trips_and_shrinks() {
        let data: Vec<u8> = b"fast_snapshot{install:123,fg:com.app,screen:1};"
            .iter()
            .copied()
            .cycle()
            .take(20_000)
            .collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 5,
            "compressed {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn run_length_overlapping_match() {
        let data = vec![0x41u8; 1000];
        let c = compress(&data);
        assert!(c.len() < 40, "pure run compresses hard, got {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn run_longer_than_window_round_trips() {
        // A uniform run longer than the 64 KiB search window: every match
        // candidate distance must stay clamped to the window even though
        // identical bytes continue far beyond it.
        let data = vec![0x42u8; WINDOW + 10_000];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() / 50, "long run still compresses");
    }

    #[test]
    fn repeat_exactly_at_window_distance_round_trips() {
        // A motif that recurs at exactly the maximum representable
        // distance, with incompressible noise in between: exercises the
        // `i - cand <= WINDOW` boundary on both sides.
        let motif = b"racketstore-window-boundary-motif";
        let mut data = Vec::new();
        data.extend_from_slice(motif);
        // Pseudo-random filler (SplitMix-ish) that won't form long matches.
        let mut x = 0x9E37_79B9u32;
        while data.len() < WINDOW {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            data.push(x as u8);
        }
        data.truncate(WINDOW);
        data.extend_from_slice(motif); // second copy, distance == WINDOW
        assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn incompressible_input_round_trips() {
        // Pseudo-random bytes: no matches, pure literal stream.
        let mut x: u32 = 0x12345678;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        assert_eq!(round_trip(&data), data);
        // Overhead is bounded by 1 flag byte per 8 literals.
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 8 + 2);
    }

    #[test]
    fn truncated_stream_rejected() {
        let c = compress(&[7u8; 100]);
        assert!(matches!(
            decompress(&c[..c.len() - 1]),
            Err(DecompressError::Truncated) | Ok(_)
        ));
        // A reference token cut exactly is definitely Truncated.
        let mut bad = vec![0b0000_0001u8]; // first token is a reference
        bad.push(0x01); // half a distance
        assert_eq!(decompress(&bad), Err(DecompressError::Truncated));
    }

    #[test]
    fn bad_reference_rejected() {
        // Flag says reference, distance 9999 with empty output so far.
        let bad = vec![0b0000_0001u8, 0x0f, 0x27, 0x00];
        match decompress(&bad) {
            Err(DecompressError::BadReference { distance, .. }) => {
                assert_eq!(distance, 9999);
            }
            other => panic!("expected BadReference, got {other:?}"),
        }
    }

    #[test]
    fn capped_decompress_stops_at_the_limit_without_outgrowing_it() {
        // A long run is a legitimate bomb: ~9 KB of match tokens for
        // 800 KB of output.
        let data = vec![b'x'; 800_000];
        let c = compress(&data);
        assert!(c.len() < data.len() / 80);
        let mut out = Vec::new();
        assert_eq!(decompress_capped(&c, &mut out, data.len()), Ok(()));
        assert_eq!(out, data);
        for limit in [0, 1, 4096, data.len() - 1] {
            let mut out = Vec::new();
            assert_eq!(
                decompress_capped(&c, &mut out, limit),
                Err(DecompressError::TooLarge { limit })
            );
            assert!(out.capacity() <= limit, "grew to {}", out.capacity());
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_state() {
        // One workspace across many inputs must produce the same bytes as
        // a throwaway workspace per input (the generation-stamp contract).
        let inputs: Vec<Vec<u8>> = vec![
            b"aaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"abcdefgh".repeat(100),
            (0..5000u32).flat_map(|i| i.to_le_bytes()).collect(),
            vec![],
            b"x".repeat(3),
        ];
        let mut ws = Workspace::new();
        for data in &inputs {
            assert_eq!(ws.compress(data), compress(data));
        }
        // And again in reverse order, on the same (now dirty) workspace.
        for data in inputs.iter().rev() {
            assert_eq!(ws.compress(data), compress(data));
        }
    }

    #[test]
    fn incompressible_input_never_regrows_preallocated_output() {
        // Satellite: the old `data.len() / 2 + 16` preallocation forced
        // regrows on incompressible input. With the worst-case reserve, a
        // buffer at `max_compressed_len` capacity is never reallocated.
        let mut x: u32 = 0xDEAD_BEEF;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        let mut out = Vec::with_capacity(max_compressed_len(data.len()));
        let before = out.as_ptr();
        Workspace::new().compress_into(&data, &mut out);
        assert_eq!(out.as_ptr(), before, "output buffer was reallocated");
        assert!(
            out.len() <= max_compressed_len(data.len()),
            "compressed {} exceeds worst case {}",
            out.len(),
            max_compressed_len(data.len())
        );
        assert_eq!(decompress(&out).unwrap(), data);
    }

    #[test]
    fn json_snapshot_payload_compresses_well() {
        // Realistic payload shape: many similar JSON records.
        let mut data = Vec::new();
        for i in 0..500 {
            data.extend_from_slice(
                format!(
                    "{{\"install_id\":1234567890,\"participant_id\":111111,\
                     \"time\":{},\"foreground_app\":\"app-42\",\"screen_on\":true,\
                     \"battery_pct\":87}}\n",
                    i * 5
                )
                .as_bytes(),
            );
        }
        let c = compress(&data);
        assert!(
            c.len() * 4 < data.len(),
            "expected ≥4× ratio, got {}/{}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }
}
