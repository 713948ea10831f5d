//! Cryptographic and checksum hashes, implemented from scratch.
//!
//! The platform computes two digests (§3): **SHA-256** for the resilient
//! upload protocol (the server returns the hash of received data and the
//! app deletes its local file only on a match) and **CRC32** for
//! wire-frame integrity. Both are pinned against their published test
//! vectors below. The paper's third digest, the MD5 apk hash that the fast
//! collector reports and VirusTotal keys on, is never computed here: a
//! simulated app has no apk bytes, so its `ApkHash` is a synthetic 16-byte
//! value drawn by the catalog.
//!
//! SHA-256 has one padding routine ([`sha256`] → `digest`) over one of two
//! block-compression steps, chosen per call by `compress`: `compress_sha_ni`
//! on an x86-64 CPU that reports the SHA extensions at run time,
//! `compress_portable` on every other CPU and target. Both return the same
//! bytes for every input (the differential tests below); nothing selects
//! between them but the CPU.

// FIPS 180-4 round constants.
const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA256_INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The portable compression step: every 64-byte block of `blocks` folded
/// into `h`. The round loop is unrolled 8-wide with statically rotated
/// registers, so each round is a straight-line dependency chain with no
/// shuffle of the working state.
fn compress_portable(h: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {{
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ (!$e & $g);
                let t1 = $h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(SHA256_K[$i])
                    .wrapping_add(w[$i]);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0).wrapping_add(maj);
            }};
        }
        let mut i = 0;
        while i < 64 {
            round!(a, b, c, d, e, f, g, hh, i);
            round!(hh, a, b, c, d, e, f, g, i + 1);
            round!(g, hh, a, b, c, d, e, f, i + 2);
            round!(f, g, hh, a, b, c, d, e, i + 3);
            round!(e, f, g, hh, a, b, c, d, i + 4);
            round!(d, e, f, g, hh, a, b, c, i + 5);
            round!(c, d, e, f, g, hh, a, b, i + 6);
            round!(b, c, d, e, f, g, hh, a, i + 7);
            i += 8;
        }
        for (word, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The same step on the x86 SHA extensions: `sha256rnds2` runs two rounds
/// of the state update per instruction, `sha256msg1`/`msg2` the message
/// schedule four words at a time. The instructions want the working state
/// as the lane pairs `abef`/`cdgh`, so it is packed once on entry, kept in
/// registers across every block of `blocks` and unpacked once on exit.
///
/// Only value intrinsics are used (no pointer loads or stores), so the body
/// is safe code; the call is not, because the CPU must have the features
/// named here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(h: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };
    debug_assert_eq!(blocks.len() % 64, 0);
    let lanes = |w3: u32, w2: u32, w1: u32, w0: u32| -> __m128i {
        _mm_set_epi32(w3 as i32, w2 as i32, w1 as i32, w0 as i32)
    };
    let [a, b, c, d, e, f, g, hh] = *h;
    let mut abef = lanes(a, b, e, f);
    let mut cdgh = lanes(c, d, g, hh);
    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // w[j % 4] holds message words 4j..4j+4, lowest word in lane 0.
        let mut w = [lanes(0, 0, 0, 0); 4];
        for (quad, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
            let word = |i: usize| u32::from_be_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
            *quad = lanes(word(12), word(8), word(4), word(0));
        }
        for j in 0..16 {
            let k = &SHA256_K[4 * j..4 * j + 4];
            let wk = _mm_add_epi32(w[j % 4], lanes(k[3], k[2], k[1], k[0]));
            // Rounds 4j, 4j+1 from the low two lanes, then 4j+2, 4j+3
            // from the high two moved down.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            if j + 4 < 16 {
                // Words 4(j+4).. from the four quads before them; the new
                // quad replaces the oldest, which is the one just consumed.
                let (w0, w1, w2, w3) = (w[j % 4], w[(j + 1) % 4], w[(j + 2) % 4], w[(j + 3) % 4]);
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                w[j % 4] = _mm_sha256msg2_epu32(partial, w3);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    *h = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|lane| lane as u32);
}

/// Whether `compress` takes the SHA-extension step on this CPU.
#[cfg(target_arch = "x86_64")]
fn has_sha_ni() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
}

/// The compression step [`sha256`] runs: the SHA-extension kernel where the
/// CPU reports it, the portable rounds everywhere else.
#[allow(unsafe_code)]
fn compress(h: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if has_sha_ni() {
        // SAFETY: `has_sha_ni` just detected `sha`, `sse4.1` and `ssse3` on
        // the running CPU, and `sse2` is part of the x86-64 baseline: every
        // feature `compress_sha_ni` is compiled with is present.
        return unsafe { compress_sha_ni(h, blocks) };
    }
    compress_portable(h, blocks)
}

/// FIPS 180-4 padding and output over a compression step: whole blocks are
/// compressed straight out of `data`, and only the final partial block plus
/// padding goes through a 128-byte stack buffer.
fn digest(data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
    let mut h = SHA256_INIT;
    let (body, rem) = data.split_at(data.len() - data.len() % 64);
    compress(&mut h, body);

    // Padding: 0x80, zeros, 64-bit big-endian bit length — at most two
    // trailing blocks, built on the stack.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut h, &tail[..tail_len]);

    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 digest of a byte slice. Allocation-free.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    digest(data, compress)
}

/// The eight slicing tables for CRC-32, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[t]`
/// advances a byte's contribution `t` further positions through the
/// polynomial, which lets the kernel fold 8 input bytes per iteration.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            k += 1;
        }
        tables[0][n] = crc;
        n += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            n += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of a byte slice.
///
/// Slicing-by-8: the hot loop consumes 8 bytes per iteration with eight
/// independent table lookups instead of 64 data-dependent shift/XOR steps,
/// ~8–10× the bitwise version's throughput on frame-sized payloads.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

/// Render a digest as lowercase hex.
pub fn to_hex(digest: &[u8]) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        write!(s, "{b:02x}").expect("writing to String cannot fail");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digest through the portable step alone, whatever the CPU.
    fn portable(data: &[u8]) -> [u8; 32] {
        digest(data, compress_portable)
    }

    /// Both steps against one published digest: `sha256` is whichever step
    /// the dispatch picks on this CPU (the other one only where the CPU has
    /// the extensions), `portable` always the portable rounds.
    fn assert_both_steps(data: &[u8], hex: &str) {
        assert_eq!(to_hex(&sha256(data)), hex, "dispatched step");
        assert_eq!(to_hex(&portable(data)), hex, "portable step");
    }

    #[test]
    fn sha256_test_vectors() {
        #[cfg(target_arch = "x86_64")]
        let sha_ni = has_sha_ni();
        #[cfg(not(target_arch = "x86_64"))]
        let sha_ni = false;
        println!(
            "sha256 dispatch on this CPU: {}",
            if sha_ni {
                "compress_sha_ni"
            } else {
                "compress_portable"
            }
        );
        // FIPS 180-4 / NIST CAVS: empty, 24-bit, 448-bit, 896-bit.
        assert_both_steps(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
        assert_both_steps(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
        assert_both_steps(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
        assert_both_steps(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn sha256_one_million_a() {
        // The FIPS 180-4 long message: 15,625 blocks through one call of
        // the step, so the state stays packed across every one of them.
        assert_both_steps(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn sha256_padding_boundaries() {
        // Lengths straddling the 55/56-byte padding boundary must not panic
        // and must produce distinct digests.
        let a = sha256(&[0x61; 55]);
        let b = sha256(&[0x61; 56]);
        let c = sha256(&[0x61; 64]);
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn sha256_steps_agree_at_every_short_length_and_alignment() {
        // Every length 0..=200 crosses the 55/56, 63/64 and 119/120-byte
        // padding edges and one- to three-block bodies; every start offset
        // 0..16 of one buffer makes the block loads unaligned.
        let buf: Vec<u8> = (0..216u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for offset in 0..16 {
            for len in 0..=200 {
                let data = &buf[offset..offset + len];
                assert_eq!(sha256(data), portable(data), "offset {offset} len {len}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn sha256_steps_agree_on_arbitrary_bytes(
            buf in proptest::collection::vec(proptest::any::<u8>(), 0..=4_096),
            start: usize,
            len: usize,
        ) {
            // An arbitrary sub-slice of an arbitrary buffer: any length up
            // to 64 blocks, at any alignment.
            let start = start % (buf.len() + 1);
            let data = &buf[start..start + len % (buf.len() - start + 1)];
            proptest::prop_assert_eq!(sha256(data), portable(data));
            proptest::prop_assert_eq!(sha256(&buf), portable(&buf));
        }
    }

    #[test]
    fn crc32_test_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let data = b"snapshot payload".to_vec();
        let original = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&corrupted),
                    original,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_alignment() {
        // The slicing kernel folds 8 bytes at a time; lengths 0..=40 cover
        // every remainder length and several full iterations.
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc: u32 = 0xFFFF_FFFF;
            for &byte in data {
                crc ^= u32::from(byte);
                for _ in 0..8 {
                    let lsb = crc & 1;
                    crc >>= 1;
                    if lsb != 0 {
                        crc ^= 0xEDB8_8320;
                    }
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..40u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn sha256_every_tail_length() {
        // One digest per remainder length 0..=129: covers the 1-block and
        // 2-block padding tails and both sides of the 56-byte boundary.
        let data = [0xA5u8; 130];
        let mut seen = std::collections::HashSet::new();
        for len in 0..=129 {
            assert!(seen.insert(sha256(&data[..len])), "collision at len {len}");
        }
    }

    #[test]
    fn digests_are_deterministic() {
        let data = b"same input";
        assert_eq!(sha256(data), sha256(data));
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x0a]), "00ff0a");
        assert_eq!(to_hex(&[]), "");
    }
}
