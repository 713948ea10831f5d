//! RKML: the versioned, checksummed byte form of a fitted
//! [`GradientBoosting`] ensemble — the model the live detection service
//! stores, ships and scores with.
//!
//! # Format
//!
//! ```text
//! [ magic "RKML" | version u16 LE | model tag u8 = 1 | payload len u64 LE |
//!   payload … | FNV-1a-64 checksum u64 LE ]
//! ```
//!
//! Tag 1 names gradient-boosted trees, the one model the codec encodes;
//! any other tag is [`PersistError::BadTag`]. The payload is the nine
//! parameters, the trees (each a node count, then its nodes depth-first:
//! `0` + feature, threshold, left, right for a split, `1` + weight for a
//! leaf), the base score, the per-feature gain importances and the
//! feature count.
//!
//! The checksum covers every byte before it, so arbitrary corruption is
//! detected before the payload is decoded; all reads are length-checked,
//! so truncated input yields [`PersistError::Truncated`] — decoding
//! returns `Err`, it never panics and never trusts a length field beyond
//! the bytes actually present.
//!
//! A round-tripped ensemble produces bit-identical predictions: every
//! `f64` is stored via [`f64::to_bits`], and the fitted state is encoded
//! exactly.

use crate::GradientBoosting;

/// File magic for serialized models.
const MAGIC: [u8; 4] = *b"RKML";
/// Current codec version.
const VERSION: u16 = 1;
/// The model tag of gradient-boosted trees.
const TAG: u8 = 1;
/// Magic, version, tag and payload length precede the payload.
const HEADER: usize = 4 + 2 + 1 + 8;

/// Why a model failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Input ended before the announced structure did.
    Truncated,
    /// The input does not start with the `RKML` magic.
    BadMagic,
    /// The codec version is not supported.
    BadVersion(u16),
    /// The model tag byte does not name gradient-boosted trees.
    BadTag(u8),
    /// The trailing checksum does not match the bytes.
    Checksum,
    /// A decoded field violates a model invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "model bytes truncated"),
            PersistError::BadMagic => write!(f, "missing RKML magic"),
            PersistError::BadVersion(v) => write!(f, "unsupported model codec version {v}"),
            PersistError::BadTag(t) => write!(f, "unknown model tag {t}"),
            PersistError::Checksum => write!(f, "model checksum mismatch"),
            PersistError::Malformed(what) => write!(f, "malformed model: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// FNV-1a 64-bit hash over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl GradientBoosting {
    /// Serialize to the `RKML` byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.buf.extend_from_slice(&MAGIC);
        w.buf.extend_from_slice(&VERSION.to_le_bytes());
        w.u8(TAG);
        // The payload length, patched once the payload is written.
        w.u64(0);
        self.write_to(&mut w);
        let mut out = w.buf;
        let payload_len = (out.len() - HEADER) as u64;
        out[HEADER - 8..HEADER].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserialize an ensemble produced by [`GradientBoosting::to_bytes`].
    ///
    /// Returns `Err` — never panics — on truncated, corrupted or
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<GradientBoosting, PersistError> {
        let (body, stored) = match bytes.split_last_chunk::<8>() {
            Some(split) if bytes.len() >= HEADER + 8 => split,
            _ => return Err(PersistError::Truncated),
        };
        if fnv1a64(body) != u64::from_le_bytes(*stored) {
            return Err(PersistError::Checksum);
        }
        let mut r = Reader::new(body);
        if r.array()? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u16::from_le_bytes(r.array()?);
        if version != VERSION {
            return Err(PersistError::BadVersion(version));
        }
        let tag = r.u8()?;
        if tag != TAG {
            return Err(PersistError::BadTag(tag));
        }
        if r.usize()? != r.remaining() {
            return Err(PersistError::Malformed("payload length mismatch"));
        }
        let model = GradientBoosting::read_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(PersistError::Malformed("trailing bytes after payload"));
        }
        Ok(model)
    }
}

/// Little-endian byte sink the payload encoder writes into.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }
}

/// Length-checked little-endian byte source: every read verifies the
/// bytes exist, so truncated or hostile input errors instead of
/// panicking or over-allocating.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `N` bytes.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let bytes = *self.buf[self.pos..]
            .first_chunk::<N>()
            .ok_or(PersistError::Truncated)?;
        self.pos += N;
        Ok(bytes)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `usize` that will index in-memory structures.
    pub(crate) fn usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.u64()?).map_err(|_| PersistError::Malformed("usize overflow"))
    }

    /// A collection length about to drive an allocation of elements at
    /// least `elem_size` bytes each: bounded by the bytes remaining, so a
    /// corrupted length cannot trigger a huge allocation.
    pub(crate) fn len(&mut self, elem_size: usize) -> Result<usize, PersistError> {
        let n = self.usize()?;
        if n.saturating_mul(elem_size.max(1)) > self.remaining() {
            return Err(PersistError::Truncated);
        }
        Ok(n)
    }

    /// The child indices of the split in slot `at` of an `n_nodes` tree.
    /// Every tree is written depth-first, so a child always follows its
    /// parent — which is also what makes every descent end.
    pub(crate) fn children(
        &mut self,
        at: usize,
        n_nodes: usize,
    ) -> Result<(usize, usize), PersistError> {
        let (left, right) = (self.usize()?, self.usize()?);
        if left.min(right) <= at || left.max(right) >= n_nodes {
            return Err(PersistError::Malformed("tree child index out of range"));
        }
        Ok((left, right))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Classifier, FeatureImportance, GradientBoostingParams};

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn reader_guards_lengths() {
        let mut r = Reader::new(&[3, 0, 0, 0, 0, 0, 0, 0, 1, 2]);
        // 3 elements of 8 bytes each cannot fit in 2 remaining bytes.
        assert_eq!(r.len(8), Err(PersistError::Truncated));
    }

    /// A body (envelope minus checksum) after an edit: payload length
    /// rewritten, checksum recomputed — what a hostile writer would ship.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        let payload_len = (body.len() - HEADER) as u64;
        body[HEADER - 8..HEADER].copy_from_slice(&payload_len.to_le_bytes());
        let checksum = fnv1a64(&body);
        body.extend_from_slice(&checksum.to_le_bytes());
        body
    }

    fn body_of(model: &GradientBoosting) -> Vec<u8> {
        let mut bytes = model.to_bytes();
        bytes.truncate(bytes.len() - 8);
        assert!(GradientBoosting::from_bytes(&reseal(bytes.clone())).is_ok());
        bytes
    }

    fn u64_at(body: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(body[at..at + 8].try_into().unwrap())
    }

    fn with_u64(body: &[u8], at: usize, v: u64) -> Vec<u8> {
        let mut out = body.to_vec();
        out[at..at + 8].copy_from_slice(&v.to_le_bytes());
        out
    }

    /// A one-round ensemble of depth `max_depth` over eight rows the
    /// first split separates; three features.
    fn stump(max_depth: usize) -> GradientBoosting {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![f64::from(i), 1.0, 2.0]).collect();
        let y: Vec<u8> = (0..8).map(|i| u8::from(i >= 4)).collect();
        let mut m = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 1,
            max_depth,
            subsample: 1.0,
            colsample: 1.0,
            ..GradientBoostingParams::default()
        });
        m.fit(&x, &y);
        m
    }

    fn assert_malformed(what: &str, body: Vec<u8>) {
        assert!(
            matches!(
                GradientBoosting::from_bytes(&reseal(body)),
                Err(PersistError::Malformed(_))
            ),
            "{what}: a correctly sealed model that cannot be scored must not decode"
        );
    }

    /// Fields the checksum cannot vouch for: the writer that forged them
    /// recomputed it. Each case is one edit of a real fitted ensemble.
    #[test]
    fn sealed_models_that_cannot_be_scored_are_rejected() {
        // Nine 8-byte parameters, the tree count, then tree 0: node
        // count, root tag, feature, threshold, left, right.
        let n_nodes = HEADER + 9 * 8 + 8;
        let (feature, left, right) = (n_nodes + 9, n_nodes + 25, n_nodes + 33);
        let body = body_of(&stump(1));
        assert_eq!(
            (
                u64_at(&body, n_nodes),
                body[n_nodes + 8],
                u64_at(&body, feature)
            ),
            (3, 0, 0)
        );
        assert_eq!((u64_at(&body, left), u64_at(&body, right)), (1, 2));

        assert_malformed("split feature = n_features", with_u64(&body, feature, 3));
        assert_malformed("left child = own slot", with_u64(&body, left, 0));
        assert_malformed("right child = own slot", with_u64(&body, right, 0));

        // [importance len | 3 × f64 | n_features] end the payload.
        let imp_len = body.len() - 8 - 3 * 8 - 8;
        assert_eq!(u64_at(&body, imp_len), 3);
        let mut short = with_u64(&body, imp_len, 2);
        short.drain(imp_len + 8..imp_len + 16);
        assert_malformed("importance vector shorter than n_features", short);

        // A depth-0 fit is one leaf (tag + value): cut it out, so the tree
        // is empty and scoring would index node 0 of nothing.
        let leaf_only = body_of(&stump(0));
        assert_eq!(u64_at(&leaf_only, n_nodes), 1);
        let mut empty = with_u64(&leaf_only, n_nodes, 0);
        empty.drain(n_nodes + 8..n_nodes + 8 + 9);
        assert_malformed("zero-node tree", empty);

        // What `to_bytes` seals for an ensemble that was never fitted.
        let unfitted = GradientBoosting::new(GradientBoostingParams::default());
        assert!(matches!(
            GradientBoosting::from_bytes(&unfitted.to_bytes()),
            Err(PersistError::Malformed("ensemble without trees"))
        ));
    }

    /// The tag byte admits gradient-boosted trees only: a sealed blob
    /// under any other tag is refused before its payload is read.
    #[test]
    fn sealed_blobs_under_another_tag_are_rejected() {
        let body = body_of(&stump(1));
        for tag in [0, 2, 3, 4, 5, 6, 0xff] {
            let mut other = body.clone();
            other[HEADER - 9] = tag;
            assert_eq!(
                GradientBoosting::from_bytes(&reseal(other)).unwrap_err(),
                PersistError::BadTag(tag)
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// `(offset, end)` of every node count and of the tree count in a
        /// body whose tree section still parses: where the count's word
        /// sits and where the bytes it covers end. `None` once an earlier
        /// edit broke that section.
        fn count_spans(body: &[u8]) -> Option<Vec<(usize, usize)>> {
            let word = |at: usize| Some(u64::from_le_bytes(body.get(at..at + 8)?.try_into().ok()?));
            // Nine 8-byte parameters, then the tree count.
            let trees_at = HEADER + 9 * 8;
            let mut spans = Vec::new();
            let mut p = trees_at + 8;
            for _ in 0..word(trees_at)? {
                let nodes_at = p;
                p += 8;
                for _ in 0..word(nodes_at)? {
                    // A split is tag, feature, threshold, left and right;
                    // a leaf is tag and weight.
                    p += if *body.get(p)? == 0 { 33 } else { 9 };
                }
                spans.push((nodes_at, p));
            }
            spans.push((trees_at, p));
            (p <= body.len()).then_some(spans)
        }

        proptest! {
            /// Up to three edits of a real ensemble's body — a word
            /// overwritten with a small count, an index, `u64::MAX` or
            /// noise; a bit flipped; the tail cut; the tail of the other
            /// ensemble spliced on; the tree count or a node count set to
            /// 0 and the bytes it covered cut — resealed the way a hostile
            /// writer would. Each decodes to `Err`, or to a model that
            /// scores without panicking and re-encodes to exactly the
            /// bytes it came from.
            #[test]
            fn resealed_edits_decode_to_err_or_a_scorable_model(
                base in 0usize..2,
                edits in proptest::collection::vec((0u8..5, any::<usize>(), any::<u64>()), 1..=3),
            ) {
                let bodies = [body_of(&stump(1)), body_of(&stump(3))];
                let mut body = bodies[base].clone();
                for (kind, at, v) in edits {
                    if body.len() <= HEADER {
                        break;
                    }
                    let at = HEADER + at % (body.len() - HEADER);
                    match kind {
                        0 => {
                            let word = match v % 4 {
                                0 => v >> 60,
                                1 => u64::MAX,
                                2 => (v >> 32) % body.len() as u64,
                                _ => v,
                            };
                            let end = body.len().min(at + 8);
                            body[at..end].copy_from_slice(&word.to_le_bytes()[..end - at]);
                        }
                        1 => body[at] ^= 1 << (v % 8),
                        2 => body.truncate(at),
                        3 => {
                            let other = &bodies[1 - base];
                            let from = HEADER + v as usize % (other.len() - HEADER);
                            body.truncate(at);
                            body.extend_from_slice(&other[from..]);
                        }
                        _ => {
                            if let Some(spans) = count_spans(&body) {
                                let (count_at, end) = spans[v as usize % spans.len()];
                                body[count_at..count_at + 8].copy_from_slice(&[0; 8]);
                                body.drain(count_at + 8..end);
                            }
                        }
                    }
                }
                let sealed = reseal(body);
                if let Ok(m) = GradientBoosting::from_bytes(&sealed) {
                    let row = vec![0.5; m.feature_importances().len()];
                    let _ = m.predict_proba(&row);
                    prop_assert_eq!(m.to_bytes(), sealed);
                }
            }
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(matches!(
            GradientBoosting::from_bytes(&[]),
            Err(PersistError::Truncated)
        ));
        assert!(matches!(
            GradientBoosting::from_bytes(&[0u8; 64]),
            Err(PersistError::Checksum)
        ));
    }
}
