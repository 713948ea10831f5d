//! Model serialization: a versioned, checksummed binary codec for every
//! fitted learner, powering the live detection service.
//!
//! # Format
//!
//! ```text
//! [ magic "RKML" | version u16 LE | model tag u8 | payload len u64 LE |
//!   payload … | FNV-1a-64 checksum u64 LE ]
//! ```
//!
//! The checksum covers every byte before it, so arbitrary corruption is
//! detected before the payload is decoded; all reads are length-checked,
//! so truncated input yields [`PersistError::Truncated`] — decoding
//! returns `Err`, it never panics and never trusts a length field beyond
//! the bytes actually present.
//!
//! A round-tripped model produces bit-identical predictions: every `f64`
//! is stored via [`f64::to_bits`], and the fitted state (trees, weights,
//! prototypes, training set, scaler) is encoded exactly.

use crate::{
    Classifier, GradientBoosting, KNearestNeighbors, LinearSvm, LogisticRegression, Lvq,
    RandomForest, Standardizer,
};
use racket_columnar::FlatMatrix;

/// File magic for serialized models.
pub const MAGIC: [u8; 4] = *b"RKML";
/// Current codec version.
pub const VERSION: u16 = 1;

/// Why a model failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Input ended before the announced structure did.
    Truncated,
    /// The input does not start with the `RKML` magic.
    BadMagic,
    /// The codec version is not supported.
    BadVersion(u16),
    /// The model tag byte names no known learner.
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

/// Little-endian byte sink used by the per-model encoders.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer::default()
    }

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

    pub(crate) fn opt_usize(&mut self, v: Option<usize>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.usize(x);
            }
            None => self.u8(0),
        }
    }

    pub(crate) fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    pub(crate) fn scaler(&mut self, scaler: &Option<Standardizer>) {
        match scaler {
            Some(s) => {
                self.u8(1);
                self.f64s(&s.means);
                self.f64s(&s.sds);
            }
            None => self.u8(0),
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
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.buf.len() {
            return Err(PersistError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
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

    pub(crate) fn opt_usize(&mut self) -> Result<Option<usize>, PersistError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.usize()?)),
            _ => Err(PersistError::Malformed("option discriminant")),
        }
    }

    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    pub(crate) fn scaler(&mut self) -> Result<Option<Standardizer>, PersistError> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let means = self.f64s()?;
                let sds = self.f64s()?;
                if means.len() != sds.len() {
                    return Err(PersistError::Malformed("scaler dimension mismatch"));
                }
                Ok(Some(Standardizer { means, sds }))
            }
            _ => Err(PersistError::Malformed("scaler discriminant")),
        }
    }
}

/// A fitted learner behind one serializable type — what the live
/// detection service stores, ships and scores with.
#[derive(Debug, Clone)]
pub enum Model {
    /// Gradient-boosted trees (the paper's XGB, Table 1/2 best).
    Xgb(GradientBoosting),
    /// Random forest.
    Rf(RandomForest),
    /// Logistic regression.
    Lr(LogisticRegression),
    /// Linear (Pegasos) SVM.
    Svm(LinearSvm),
    /// K-nearest neighbours.
    Knn(KNearestNeighbors),
    /// Learning vector quantization.
    Lvq(Lvq),
}

impl Model {
    fn tag(&self) -> u8 {
        match self {
            Model::Xgb(_) => 1,
            Model::Rf(_) => 2,
            Model::Lr(_) => 3,
            Model::Svm(_) => 4,
            Model::Knn(_) => 5,
            Model::Lvq(_) => 6,
        }
    }

    /// The wrapped learner's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Xgb(m) => m.name(),
            Model::Rf(m) => m.name(),
            Model::Lr(m) => m.name(),
            Model::Svm(m) => m.name(),
            Model::Knn(m) => m.name(),
            Model::Lvq(m) => m.name(),
        }
    }

    /// Probability that `row` belongs to class 1 — the `score` fast path
    /// of the detection service.
    pub fn score(&self, row: &[f64]) -> f64 {
        match self {
            Model::Xgb(m) => m.predict_proba(row),
            Model::Rf(m) => m.predict_proba(row),
            Model::Lr(m) => m.predict_proba(row),
            Model::Svm(m) => m.predict_proba(row),
            Model::Knn(m) => m.predict_proba(row),
            Model::Lvq(m) => m.predict_proba(row),
        }
    }

    /// Hard prediction at the 0.5 threshold.
    pub fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.score(row) >= 0.5)
    }

    /// Probabilities for every row of a flat feature matrix.
    ///
    /// The boosted-tree model dispatches to its columnar batch kernel
    /// ([`GradientBoosting::predict_proba_batch`]); every other learner
    /// scores row by row over the same contiguous buffer. Either way the
    /// result is bitwise equal to calling [`Model::score`] per row.
    pub fn score_batch(&self, x: &FlatMatrix) -> Vec<f64> {
        match self {
            Model::Xgb(m) => m.predict_proba_batch(x),
            other => x.rows().map(|row| other.score(row)).collect(),
        }
    }

    /// Serialize to the `RKML` wire form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Writer::new();
        match self {
            Model::Xgb(m) => m.write_to(&mut payload),
            Model::Rf(m) => m.write_to(&mut payload),
            Model::Lr(m) => m.write_to(&mut payload),
            Model::Svm(m) => m.write_to(&mut payload),
            Model::Knn(m) => m.write_to(&mut payload),
            Model::Lvq(m) => m.write_to(&mut payload),
        }
        let mut out = Vec::with_capacity(payload.buf.len() + 23);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.tag());
        out.extend_from_slice(&(payload.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload.buf);
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Deserialize a model previously produced by [`Model::to_bytes`].
    ///
    /// Returns `Err` — never panics — on truncated, corrupted or
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Model, PersistError> {
        // Envelope: magic/version/tag/len + trailing checksum.
        if bytes.len() < MAGIC.len() + 2 + 1 + 8 + 8 {
            return Err(PersistError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a64(body) != stored {
            return Err(PersistError::Checksum);
        }
        let mut r = Reader::new(body);
        if r.take(4)? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().unwrap());
        if version != VERSION {
            return Err(PersistError::BadVersion(version));
        }
        let tag = r.u8()?;
        let payload_len = r.usize()?;
        if payload_len != r.remaining() {
            return Err(PersistError::Malformed("payload length mismatch"));
        }
        let model = match tag {
            1 => Model::Xgb(GradientBoosting::read_from(&mut r)?),
            2 => Model::Rf(RandomForest::read_from(&mut r)?),
            3 => Model::Lr(LogisticRegression::read_from(&mut r)?),
            4 => Model::Svm(LinearSvm::read_from(&mut r)?),
            5 => Model::Knn(KNearestNeighbors::read_from(&mut r)?),
            6 => Model::Lvq(Lvq::read_from(&mut r)?),
            t => return Err(PersistError::BadTag(t)),
        };
        if r.remaining() != 0 {
            return Err(PersistError::Malformed("trailing bytes after payload"));
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Magic, version, tag and payload length precede the payload.
    const HEADER: usize = 4 + 2 + 1 + 8;

    fn body_of(model: Model) -> Vec<u8> {
        let mut bytes = model.to_bytes();
        bytes.truncate(bytes.len() - 8);
        assert!(Model::from_bytes(&reseal(bytes.clone())).is_ok());
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

    /// Eight rows the first split separates; three features.
    fn stump_data() -> (Vec<Vec<f64>>, Vec<u8>) {
        let x = (0..8).map(|i| vec![f64::from(i), 1.0, 2.0]).collect();
        (x, (0..8).map(|i| u8::from(i >= 4)).collect())
    }

    /// `leaf_only`'s first tree is one leaf (tag + value): cut it out, so
    /// the tree is empty and scoring would index node 0 of nothing.
    fn without_its_only_node(leaf_only: &[u8], n_nodes: usize) -> Vec<u8> {
        assert_eq!(u64_at(leaf_only, n_nodes), 1);
        let mut empty = with_u64(leaf_only, n_nodes, 0);
        empty.drain(n_nodes + 8..n_nodes + 8 + 9);
        empty
    }

    fn assert_malformed(what: &str, body: Vec<u8>) {
        assert!(
            matches!(
                Model::from_bytes(&reseal(body)),
                Err(PersistError::Malformed(_))
            ),
            "{what}: a correctly sealed model that cannot be scored must not decode"
        );
    }

    /// Fields the checksum cannot vouch for: the writer that forged them
    /// recomputed it. Each case is one edit of a real fitted ensemble.
    #[test]
    fn sealed_xgb_models_that_cannot_be_scored_are_rejected() {
        use crate::{GradientBoosting, GradientBoostingParams};
        let (x, y) = stump_data();
        let fit = |max_depth| {
            let mut m = GradientBoosting::new(GradientBoostingParams {
                n_rounds: 1,
                max_depth,
                subsample: 1.0,
                colsample: 1.0,
                ..GradientBoostingParams::default()
            });
            m.fit(&x, &y);
            body_of(Model::Xgb(m))
        };
        // Nine 8-byte parameters, the tree count, then tree 0: node
        // count, root tag, feature, threshold, left, right.
        let n_nodes = HEADER + 9 * 8 + 8;
        let (feature, left, right) = (n_nodes + 9, n_nodes + 25, n_nodes + 33);
        let body = fit(1);
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

        // A depth-0 fit is one leaf.
        assert_malformed("zero-node tree", without_its_only_node(&fit(0), n_nodes));

        // What `to_bytes` seals for an ensemble that was never fitted.
        let unfitted = Model::Xgb(GradientBoosting::new(GradientBoostingParams::default()));
        assert!(matches!(
            Model::from_bytes(&unfitted.to_bytes()),
            Err(PersistError::Malformed("ensemble without trees"))
        ));
    }

    #[test]
    fn sealed_forests_that_cannot_be_scored_are_rejected() {
        use crate::RandomForestParams;
        let (x, y) = stump_data();
        let fit = |max_depth| {
            let mut m = RandomForest::new(RandomForestParams {
                n_trees: 1,
                max_depth,
                // Every feature at every node: the root must find column 0.
                max_features: Some(3),
                ..RandomForestParams::default()
            });
            m.fit(&x, &y);
            body_of(Model::Rf(m))
        };
        // Forest: four sizes, `Some(max_features)`, seed, tree count;
        // tree 0: three sizes, `Some(max_features)`, seed, node count.
        let n_nodes = HEADER + (4 * 8 + 9 + 8 + 8) + (3 * 8 + 9 + 8);
        let (left, right) = (n_nodes + 25, n_nodes + 33);
        let body = fit(1);
        assert_eq!((u64_at(&body, n_nodes), body[n_nodes + 8]), (3, 0));
        assert_eq!((u64_at(&body, left), u64_at(&body, right)), (1, 2));

        assert_malformed("left child = own slot", with_u64(&body, left, 0));
        assert_malformed("right child = own slot", with_u64(&body, right, 0));

        assert_malformed("zero-node tree", without_its_only_node(&fit(0), n_nodes));

        // What `to_bytes` seals for a forest that was never fitted.
        let unfitted = Model::Rf(RandomForest::new(RandomForestParams::default()));
        assert!(matches!(
            Model::from_bytes(&unfitted.to_bytes()),
            Err(PersistError::Malformed("forest without trees"))
        ));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(matches!(
            Model::from_bytes(&[]),
            Err(PersistError::Truncated)
        ));
        assert!(matches!(
            Model::from_bytes(&[0u8; 64]),
            Err(PersistError::Checksum)
        ));
    }
}
