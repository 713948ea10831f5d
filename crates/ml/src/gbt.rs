//! Gradient-boosted decision trees in the XGBoost style.
//!
//! "XGB" — the best performer in both Table 1 (F1 = 99.72% for the app
//! classifier) and Table 2 (F1 = 95.29% for the device classifier). The
//! implementation follows the XGBoost paper's exact greedy algorithm:
//!
//! * second-order Taylor expansion of the logistic loss — per-row gradient
//!   `g = p − y` and hessian `h = p (1 − p)`;
//! * split gain `½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ`;
//! * regularized leaf weights `w = −G / (H + λ)`;
//! * shrinkage `η`, row subsampling and column subsampling per tree.
//!
//! Feature importance is total split gain per feature, the analogue of the
//! Gini importance used for Figures 13 and 14.
//!
//! # Columnar split search and the batch-canonical order
//!
//! Training runs on `racket-columnar` storage. The feature matrix is
//! transposed once per fit into a [`ColumnMatrix`] and each column is
//! argsorted **once per fit** into contiguous `(value, row)` pairs. The
//! search then moves pairs between two flat buffers sized once per fit
//! and never sorts or allocates again: a tree node is a range of the
//! buffer its depth reads, a split is one branch-free stable partition
//! of that range into the other buffer (`SplitBuffers`).
//!
//! That presorting demands a canonical tie order, so the split search
//! defines the **batch-canonical order**: row sets are kept ascending by
//! row index, gradient/hessian sums fold in ascending row order, and a
//! feature's scan visits rows by `(feature value, row index)` — ties
//! always break toward the lower row. The fit is generic over its
//! tree-growing step (`GrowTree`): every fit grows with the columnar
//! search, and this file's tests hold a row-oriented reference grower
//! that implements exactly the same order by re-sorting at every node.
//! It is the executable specification: the differential tests run the
//! same fit scaffolding with either grower, serialize both models and
//! compare bytes. ARCHITECTURE.md §9 spells out the equivalence
//! argument.

use crate::persist::{PersistError, Reader, Writer};
use crate::{Classifier, FeatureImportance};
use racket_columnar::{sort_pairs, ColumnMatrix, FlatMatrix, SortPair};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Hyperparameters of a [`GradientBoosting`] ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoostingParams {
    /// Number of boosting rounds (trees).
    pub n_rounds: usize,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// Learning rate (shrinkage) η.
    pub learning_rate: f64,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum sum of hessians per child (xgboost's `min_child_weight`).
    pub min_child_weight: f64,
    /// Row subsample fraction per tree, in (0, 1].
    pub subsample: f64,
    /// Column subsample fraction per tree, in (0, 1].
    pub colsample: f64,
    /// RNG seed for row/column subsampling.
    pub seed: u64,
}

impl Default for GradientBoostingParams {
    fn default() -> Self {
        GradientBoostingParams {
            n_rounds: 100,
            max_depth: 4,
            learning_rate: 0.2,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 0.9,
            colsample: 0.8,
            seed: 42,
        }
    }
}

/// A node of a fitted regression tree.
#[derive(Debug, Clone)]
enum RegNode {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        weight: f64,
    },
}

/// One regression tree of the boosted ensemble.
#[derive(Debug, Clone)]
struct RegTree {
    nodes: Vec<RegNode>,
}

impl RegTree {
    fn predict(&self, row: &[f64]) -> f64 {
        let mut at = 0usize;
        loop {
            match self.nodes[at] {
                RegNode::Leaf { weight } => return weight,
                RegNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[feature] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

/// Working memory of the columnar split search: everything a fit moves,
/// sized once per fit.
///
/// A node at depth `d` is a range `[lo, hi)` of the buffers with index
/// `d % 2`: of the ascending row list in `rows`, and of one
/// `(value, row)`-sorted stripe per sampled feature in `pairs` (the k-th
/// stripe starts at `k * n`). Its children are `[lo, lo + n_left)` and
/// `[lo + n_left, hi)` of the other buffer. Trees grow depth-first, left
/// then right, and a subtree writes only inside its own range of either
/// buffer — so the right child's lists are intact when the left subtree
/// returns, and no node allocates, takes or returns anything.
struct SplitBuffers {
    cols: ColumnMatrix,
    /// Every column's pair list, sorted once per fit, back to back.
    presorted: Vec<SortPair>,
    pairs: [Vec<SortPair>; 2],
    rows: [Vec<u32>; 2],
    /// Per row, 1 when the partition in progress sends it left.
    side: Vec<u8>,
    /// Per row, the weight of the leaf that took it this round.
    leaf_weight: Vec<f64>,
}

impl SplitBuffers {
    /// Transpose and argsort `x`, and size the buffers for `n_feats`
    /// sampled features. (Columns containing NaN are rejected here, up
    /// front, with the reference search's panic message.)
    fn new(x: &[Vec<f64>], n_feats: usize) -> SplitBuffers {
        let n = x.len();
        assert!(
            u32::try_from(n).is_ok(),
            "columnar split search indexes rows with u32"
        );
        let cols = ColumnMatrix::from_rows(x);
        let mut presorted = Vec::with_capacity(n * cols.n_cols());
        for f in 0..cols.n_cols() {
            presorted.extend(cols.col(f).iter().zip(0u32..).map(|(&v, i)| (v, i)));
            sort_pairs(&mut presorted[f * n..]);
        }
        SplitBuffers {
            cols,
            presorted,
            pairs: [vec![(0.0, 0); n_feats * n], vec![(0.0, 0); n_feats * n]],
            rows: [vec![0; n], vec![0; n]],
            side: vec![0; n],
            leaf_weight: vec![0.0; n],
        }
    }

    /// Load the root node `[0, idx.len())`: the ascending sampled rows,
    /// and per feature the presorted list with the rows outside the
    /// sample partitioned away behind the node (a filter of a sorted
    /// list is sorted) — a plain copy when nothing is subsampled.
    fn load_root(&mut self, idx: &[usize], feats: &[usize], in_sample: &[u8]) {
        let n = self.side.len();
        for (slot, &i) in self.rows[0].iter_mut().zip(idx) {
            *slot = i as u32;
        }
        for (stripe, &f) in self.pairs[0].chunks_exact_mut(n).zip(feats) {
            let sorted = &self.presorted[f * n..(f + 1) * n];
            if idx.len() == n {
                stripe.copy_from_slice(sorted);
            } else {
                stable_partition(sorted, stripe, idx.len(), |p| in_sample[p.1 as usize]);
            }
        }
    }
}

/// Stable partition of `src` into `dst`: elements whose `side` is 1 fill
/// `dst[..n_left]`, the rest `dst[n_left..]`, each in source order.
/// Branch-free on purpose: in a list sorted by anything but the split
/// feature the side is a coin flip, and a branch on it would mispredict
/// about every other element.
fn stable_partition<T: Copy>(src: &[T], dst: &mut [T], n_left: usize, side: impl Fn(T) -> u8) {
    let (mut li, mut ri) = (0, n_left);
    for &item in src {
        let left = usize::from(side(item));
        dst[if left == 1 { li } else { ri }] = item;
        li += left;
        ri += 1 - left;
    }
}

/// The `(read, write)` halves of a ping-pong buffer pair at `depth`.
fn ping_pong<T>(pair: &mut [Vec<T>; 2], depth: usize) -> (&[T], &mut [T]) {
    let [even, odd] = pair;
    if depth.is_multiple_of(2) {
        (even, odd)
    } else {
        (odd, even)
    }
}

/// One round's tree growth, the step [`GradientBoosting::fit_with`] is
/// generic over: [`SplitBuffers`] in every fit, the row-oriented reference
/// in this file's tests. Static dispatch, so the fit pays no indirection.
trait GrowTree {
    /// Grow one tree on the gradients `g` and hessians `h` over the
    /// round's ascending row sample `idx` (`in_sample` is its mask over
    /// every row) and the round's sampled features `feats`.
    fn grow(
        &mut self,
        gbt: &mut GradientBoosting,
        g: &[f64],
        h: &[f64],
        idx: &[usize],
        feats: &[usize],
        in_sample: &[u8],
    ) -> RegTree;

    /// Per row, the weight of the leaf that took it in the tree just
    /// grown, if the grower kept it (read for sampled rows only).
    fn leaf_weights(&self) -> Option<&[f64]>;
}

impl GrowTree for SplitBuffers {
    fn grow(
        &mut self,
        gbt: &mut GradientBoosting,
        g: &[f64],
        h: &[f64],
        idx: &[usize],
        feats: &[usize],
        in_sample: &[u8],
    ) -> RegTree {
        let mut nodes = Vec::new();
        self.load_root(idx, feats, in_sample);
        gbt.grow_buffers(&mut nodes, self, g, h, feats, (0, idx.len()), 0);
        RegTree { nodes }
    }

    fn leaf_weights(&self) -> Option<&[f64]> {
        Some(&self.leaf_weight)
    }
}

/// Gradient-boosted tree ensemble with logistic loss.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    params: GradientBoostingParams,
    trees: Vec<RegTree>,
    base_score: f64,
    /// Total split gain accumulated per feature.
    gain_importance: Vec<f64>,
    n_features: usize,
}

impl GradientBoosting {
    /// Create an unfitted ensemble.
    pub fn new(params: GradientBoostingParams) -> Self {
        assert!(
            params.subsample > 0.0 && params.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        assert!(
            params.colsample > 0.0 && params.colsample <= 1.0,
            "colsample must be in (0, 1]"
        );
        GradientBoosting {
            params,
            trees: Vec::new(),
            base_score: 0.0,
            gain_importance: Vec::new(),
            n_features: 0,
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    fn sigmoid(z: f64) -> f64 {
        1.0 / (1.0 + (-z).exp())
    }

    /// Whether a node of `n_rows` rows at `depth` searches for a split;
    /// one that does not is a leaf, and never reads its pair stripes.
    fn scans(&self, depth: usize, n_rows: usize) -> bool {
        depth < self.params.max_depth && n_rows >= 2
    }

    /// Grow the node `[lo, hi)` at `depth` (see [`SplitBuffers`]) and its
    /// subtree — the default path.
    ///
    /// Bit-identical to the tests' row-oriented reference grower, which
    /// re-sorts at every node and folds in ascending row order: the node's
    /// rows are ascending and each stripe is sorted by
    /// `(value, row index)`, a stable partition by the split predicate
    /// keeps both true for the children, and a fresh stable sort of
    /// ascending rows — what the reference does at every node — yields
    /// exactly that order. So `g_sum`/`h_sum` and every scan's partial
    /// sums fold in the reference's order, and nothing below skips or
    /// reorders an addition whose result is read: a stripe whose first
    /// and last values are equal has no candidate to evaluate, and a
    /// node that will not scan needs only its rows.
    #[allow(clippy::too_many_arguments)]
    fn grow_buffers(
        &mut self,
        tree: &mut Vec<RegNode>,
        bufs: &mut SplitBuffers,
        g: &[f64],
        h: &[f64],
        feats: &[usize],
        (lo, hi): (usize, usize),
        depth: usize,
    ) -> usize {
        let n = bufs.side.len();
        let rows = &bufs.rows[depth % 2][lo..hi];
        let g_sum: f64 = rows.iter().map(|&i| g[i as usize]).sum();
        let h_sum: f64 = rows.iter().map(|&i| h[i as usize]).sum();
        let lambda = self.params.lambda;

        let mut best: Option<(usize, f64, f64)> = None;
        if self.scans(depth, hi - lo) {
            let parent_score = g_sum * g_sum / (h_sum + lambda);
            for (k, &f) in feats.iter().enumerate() {
                let pairs = &bufs.pairs[depth % 2][k * n + lo..k * n + hi];
                if pairs[0].0 == pairs[pairs.len() - 1].0 {
                    continue;
                }
                let mut gl = 0.0;
                let mut hl = 0.0;
                for w in 0..pairs.len() - 1 {
                    let i = pairs[w].1 as usize;
                    gl += g[i];
                    hl += h[i];
                    if pairs[w].0 == pairs[w + 1].0 {
                        continue;
                    }
                    let hr = h_sum - hl;
                    if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                        continue;
                    }
                    let gr = g_sum - gl;
                    let gain = 0.5
                        * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                        - self.params.gamma;
                    if gain > best.map_or(1e-12, |(_, _, bg)| bg) {
                        let threshold = (pairs[w].0 + pairs[w + 1].0) / 2.0;
                        best = Some((f, threshold, gain));
                    }
                }
            }
        }

        let Some((feature, threshold, gain)) = best else {
            let weight = -g_sum / (h_sum + lambda);
            for &i in rows {
                bufs.leaf_weight[i as usize] = weight;
            }
            tree.push(RegNode::Leaf { weight });
            return tree.len() - 1;
        };
        self.gain_importance[feature] += gain;

        // One side byte per row from the predicate `RegTree::predict`
        // applies, then every list the children will read is partitioned
        // by looking that byte up.
        let col = bufs.cols.col(feature);
        let mut n_left = 0;
        for &i in rows {
            let left = u8::from(col[i as usize] <= threshold);
            bufs.side[i as usize] = left;
            n_left += usize::from(left);
        }
        let side = &bufs.side;
        let (src, dst) = ping_pong(&mut bufs.rows, depth);
        stable_partition(&src[lo..hi], &mut dst[lo..hi], n_left, |i| side[i as usize]);
        if self.scans(depth + 1, n_left.max(hi - lo - n_left)) {
            let (src, dst) = ping_pong(&mut bufs.pairs, depth);
            for k in 0..feats.len() {
                let at = k * n + lo..k * n + hi;
                stable_partition(&src[at.clone()], &mut dst[at], n_left, |p| {
                    side[p.1 as usize]
                });
            }
        }

        let slot = tree.len();
        tree.push(RegNode::Leaf { weight: 0.0 }); // placeholder
        let mid = lo + n_left;
        let left = self.grow_buffers(tree, bufs, g, h, feats, (lo, mid), depth + 1);
        let right = self.grow_buffers(tree, bufs, g, h, feats, (mid, hi), depth + 1);
        tree[slot] = RegNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Raw margin (log-odds) for a row.
    fn margin(&self, row: &[f64]) -> f64 {
        let mut z = self.base_score;
        for t in &self.trees {
            z += self.params.learning_rate * t.predict(row);
        }
        z
    }

    /// Probabilities for every row of a flat feature matrix.
    ///
    /// The batch-scoring kernel: trees outer, rows inner, so tree nodes
    /// stay hot while rows stream through one contiguous buffer. Per row
    /// the margin accumulates in tree order — the same operation sequence
    /// as [`Classifier::predict_proba`] — so results are bitwise equal to
    /// scoring row by row.
    ///
    /// # Panics
    /// If the ensemble is unfitted.
    pub fn predict_proba_batch(&self, x: &FlatMatrix) -> Vec<f64> {
        assert!(!self.trees.is_empty(), "predict on unfitted ensemble");
        let mut z = vec![self.base_score; x.n_rows()];
        for t in &self.trees {
            for (zi, row) in z.iter_mut().zip(x.rows()) {
                *zi += self.params.learning_rate * t.predict(row);
            }
        }
        z.into_iter().map(Self::sigmoid).collect()
    }

    /// The fit's scaffolding around a tree grower: base score, per-round
    /// gradients, subsampling (one RNG stream whatever the grower), one
    /// tree a round, margin updates. `grower` builds the grower from the
    /// number of features each round samples.
    fn fit_with<G: GrowTree>(&mut self, x: &[Vec<f64>], y: &[u8], grower: impl FnOnce(usize) -> G) {
        crate::validate_xy(x, y);
        self.n_features = x[0].len();
        self.trees.clear();
        self.gain_importance = vec![0.0; self.n_features];

        let n = x.len();
        // Base score: log-odds of the positive rate, clamped away from ±∞.
        let pos_rate =
            (y.iter().filter(|&&l| l == 1).count() as f64 / n as f64).clamp(1e-6, 1.0 - 1e-6);
        self.base_score = (pos_rate / (1.0 - pos_rate)).ln();

        let mut margins = vec![self.base_score; n];
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let n_cols = ((self.n_features as f64) * self.params.colsample).ceil() as usize;
        let n_rows = ((n as f64) * self.params.subsample).ceil() as usize;
        let mut grower = grower(n_cols);

        let (mut g, mut h) = (vec![0.0; n], vec![0.0; n]);
        // The round's row sample: as a mask, and ascending (the
        // batch-canonical fold order).
        let mut in_sample = vec![1u8; n];
        let mut idx: Vec<usize> = (0..n).collect();
        let mut shuffled: Vec<usize> = Vec::new();

        for _ in 0..self.params.n_rounds {
            // Gradients / hessians of the logistic loss at current margins.
            for i in 0..n {
                let p = Self::sigmoid(margins[i]);
                g[i] = p - f64::from(y[i]);
                h[i] = (p * (1.0 - p)).max(1e-16);
            }

            // Row subsample (without replacement) and column subsample.
            // The draw is a shuffle, but the trained-on set is a *set*:
            // read back off the mask it is ascending whatever the draw.
            if n_rows < n {
                shuffled.clear();
                shuffled.extend(0..n);
                shuffled.shuffle(&mut rng);
                in_sample.fill(0);
                for &i in &shuffled[..n_rows] {
                    in_sample[i] = 1;
                }
                idx.clear();
                idx.extend((0..n).filter(|&i| in_sample[i] == 1));
            }
            let feats: Vec<usize> = if n_cols < self.n_features {
                let mut all: Vec<usize> = (0..self.n_features).collect();
                all.shuffle(&mut rng);
                all.truncate(n_cols);
                all
            } else {
                (0..self.n_features).collect()
            };
            // Advance the RNG even when not subsampling so seeds matter
            // uniformly across configurations.
            let _: u32 = rng.gen();

            let tree = grower.grow(self, &g, &h, &idx, &feats, &in_sample);

            // The search already knows the leaf of every row it trained
            // on; only the rows left out of the round walk the tree.
            let leaf_weight = grower.leaf_weights();
            for i in 0..n {
                let weight = match leaf_weight {
                    Some(known) if in_sample[i] == 1 => known[i],
                    _ => tree.predict(&x[i]),
                };
                margins[i] += self.params.learning_rate * weight;
            }
            self.trees.push(tree);
        }
    }
}

impl Classifier for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        self.fit_with(x, y, |n_cols| SplitBuffers::new(x, n_cols));
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict on unfitted ensemble");
        Self::sigmoid(self.margin(row))
    }

    fn name(&self) -> &'static str {
        "XGB"
    }
}

impl FeatureImportance for GradientBoosting {
    fn feature_importances(&self) -> Vec<f64> {
        let total: f64 = self.gain_importance.iter().sum();
        if total == 0.0 {
            return vec![0.0; self.gain_importance.len()];
        }
        self.gain_importance.iter().map(|v| v / total).collect()
    }
}

impl GradientBoosting {
    /// Encode the fitted ensemble as the RKML payload (params, trees,
    /// base score, importances).
    pub(crate) fn write_to(&self, w: &mut Writer) {
        w.usize(self.params.n_rounds);
        w.usize(self.params.max_depth);
        w.f64(self.params.learning_rate);
        w.f64(self.params.lambda);
        w.f64(self.params.gamma);
        w.f64(self.params.min_child_weight);
        w.f64(self.params.subsample);
        w.f64(self.params.colsample);
        w.u64(self.params.seed);
        w.usize(self.trees.len());
        for tree in &self.trees {
            w.usize(tree.nodes.len());
            for node in &tree.nodes {
                match *node {
                    RegNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        w.u8(0);
                        w.usize(feature);
                        w.f64(threshold);
                        w.usize(left);
                        w.usize(right);
                    }
                    RegNode::Leaf { weight } => {
                        w.u8(1);
                        w.f64(weight);
                    }
                }
            }
        }
        w.f64(self.base_score);
        w.f64s(&self.gain_importance);
        w.usize(self.n_features);
    }

    /// Decode an RKML payload written by [`GradientBoosting::write_to`],
    /// re-validating the constructor invariants so hostile bytes error
    /// instead of panicking.
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let params = GradientBoostingParams {
            n_rounds: r.usize()?,
            max_depth: r.usize()?,
            learning_rate: r.f64()?,
            lambda: r.f64()?,
            gamma: r.f64()?,
            min_child_weight: r.f64()?,
            subsample: r.f64()?,
            colsample: r.f64()?,
            seed: r.u64()?,
        };
        if !(params.subsample > 0.0 && params.subsample <= 1.0) {
            return Err(PersistError::Malformed("subsample out of (0, 1]"));
        }
        if !(params.colsample > 0.0 && params.colsample <= 1.0) {
            return Err(PersistError::Malformed("colsample out of (0, 1]"));
        }
        let n_trees = r.len(9)?;
        if n_trees == 0 {
            return Err(PersistError::Malformed("ensemble without trees"));
        }
        let mut trees = Vec::with_capacity(n_trees);
        let mut max_feature = None;
        for _ in 0..n_trees {
            let n_nodes = r.len(9)?;
            if n_nodes == 0 {
                return Err(PersistError::Malformed("regression tree without nodes"));
            }
            let mut nodes = Vec::with_capacity(n_nodes);
            for at in 0..n_nodes {
                nodes.push(match r.u8()? {
                    0 => {
                        let feature = r.usize()?;
                        let threshold = r.f64()?;
                        let (left, right) = r.children(at, n_nodes)?;
                        max_feature = max_feature.max(Some(feature));
                        RegNode::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        }
                    }
                    1 => RegNode::Leaf { weight: r.f64()? },
                    _ => return Err(PersistError::Malformed("regression-node discriminant")),
                });
            }
            trees.push(RegTree { nodes });
        }
        let base_score = r.f64()?;
        let gain_importance = r.f64s()?;
        let n_features = r.usize()?;
        if max_feature.is_some_and(|f| f >= n_features) {
            return Err(PersistError::Malformed("split feature out of range"));
        }
        if gain_importance.len() != n_features {
            return Err(PersistError::Malformed("importance length mismatch"));
        }
        Ok(GradientBoosting {
            params,
            trees,
            base_score,
            gain_importance,
            n_features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference grower: [`grow_reference`] from the root over the
    /// round's sample. It keeps no leaf weights, so every row's margin
    /// update walks the tree.
    struct Reference<'a> {
        x: &'a [Vec<f64>],
    }

    impl GrowTree for Reference<'_> {
        fn grow(
            &mut self,
            gbt: &mut GradientBoosting,
            g: &[f64],
            h: &[f64],
            idx: &[usize],
            feats: &[usize],
            _in_sample: &[u8],
        ) -> RegTree {
            let mut nodes = Vec::new();
            grow_reference(gbt, &mut nodes, self.x, g, h, idx, feats, 0);
            RegTree { nodes }
        }

        fn leaf_weights(&self) -> Option<&[f64]> {
            None
        }
    }

    /// Fit with the row-oriented reference split search: the fit's own
    /// scaffolding, so the same RNG stream, gradients and margins.
    fn fit_reference(gbt: &mut GradientBoosting, x: &[Vec<f64>], y: &[u8]) {
        gbt.fit_with(x, y, |_| Reference { x });
    }

    /// Grow one regression tree on gradients/hessians over `rows` —
    /// row-oriented **reference** implementation.
    ///
    /// This is the executable specification of the split search: the
    /// columnar [`GradientBoosting::grow_buffers`] must produce bit-identical
    /// trees (`columnar_fit_matches_reference_bitwise` and
    /// `columnar_fit_is_bitwise_reference` enforce it). Everything folds in
    /// the batch-canonical order:
    ///
    /// * `rows` is ascending by row index and the gradient/hessian sums
    ///   fold in that order;
    /// * each feature's scan order is a fresh stable sort of `rows` by
    ///   feature value, so ties are visited in ascending row order;
    /// * children partition `rows`, preserving ascending order.
    #[allow(clippy::too_many_arguments)]
    fn grow_reference(
        gbt: &mut GradientBoosting,
        tree: &mut Vec<RegNode>,
        x: &[Vec<f64>],
        g: &[f64],
        h: &[f64],
        rows: &[usize],
        feats: &[usize],
        depth: usize,
    ) -> usize {
        let g_sum: f64 = rows.iter().map(|&i| g[i]).sum();
        let h_sum: f64 = rows.iter().map(|&i| h[i]).sum();
        let lambda = gbt.params.lambda;

        let leaf = |tree: &mut Vec<RegNode>| {
            tree.push(RegNode::Leaf {
                weight: -g_sum / (h_sum + lambda),
            });
            tree.len() - 1
        };

        if depth >= gbt.params.max_depth || rows.len() < 2 {
            return leaf(tree);
        }

        let parent_score = g_sum * g_sum / (h_sum + lambda);
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in feats {
            let mut order: Vec<usize> = rows.to_vec();
            order.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).expect("NaN feature value"));
            let mut gl = 0.0;
            let mut hl = 0.0;
            for w in 0..order.len() - 1 {
                let i = order[w];
                gl += g[i];
                hl += h[i];
                if x[order[w]][f] == x[order[w + 1]][f] {
                    continue;
                }
                let hr = h_sum - hl;
                if hl < gbt.params.min_child_weight || hr < gbt.params.min_child_weight {
                    continue;
                }
                let gr = g_sum - gl;
                let gain = 0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score)
                    - gbt.params.gamma;
                if gain > best.map_or(1e-12, |(_, _, bg)| bg) {
                    let threshold = (x[order[w]][f] + x[order[w + 1]][f]) / 2.0;
                    best = Some((f, threshold, gain));
                }
            }
        }

        let Some((feature, threshold, gain)) = best else {
            return leaf(tree);
        };
        gbt.gain_importance[feature] += gain;

        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&i| x[i][feature] <= threshold);

        let slot = tree.len();
        tree.push(RegNode::Leaf { weight: 0.0 }); // placeholder
        let left = grow_reference(gbt, tree, x, g, h, &left_rows, feats, depth + 1);
        let right = grow_reference(gbt, tree, x, g, h, &right_rows, feats, depth + 1);
        tree[slot] = RegNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    fn two_moons_like(n: usize) -> (Vec<Vec<f64>>, Vec<u8>) {
        // Deterministic non-linear boundary: label = (x0² + x1 > 4).
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let a = (i % 13) as f64 / 3.0 - 2.0;
            let b = (i % 7) as f64 - 3.0;
            x.push(vec![a, b]);
            y.push(u8::from(a * a + b > 4.0));
        }
        (x, y)
    }

    #[test]
    fn fits_nonlinear_boundary() {
        let (x, y) = two_moons_like(120);
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 60,
            ..GradientBoostingParams::default()
        });
        gbt.fit(&x, &y);
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(row, &label)| gbt.predict(row) == label)
            .count();
        assert!(
            correct as f64 / x.len() as f64 > 0.98,
            "acc = {correct}/{}",
            x.len()
        );
    }

    #[test]
    fn margin_moves_with_rounds() {
        let (x, y) = two_moons_like(60);
        let mut small = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 1,
            ..GradientBoostingParams::default()
        });
        let mut big = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 50,
            ..GradientBoostingParams::default()
        });
        small.fit(&x, &y);
        big.fit(&x, &y);
        assert_eq!(small.n_trees(), 1);
        assert_eq!(big.n_trees(), 50);
        // More rounds → sharper probabilities on training points.
        let sharp = |m: &GradientBoosting| {
            x.iter()
                .map(|r| (m.predict_proba(r) - 0.5).abs())
                .sum::<f64>()
        };
        assert!(sharp(&big) > sharp(&small));
    }

    #[test]
    fn importances_sum_to_one_and_rank_signal() {
        // Feature 1 is pure noise (constant), feature 0 decides the label.
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64, 3.0]).collect();
        let y: Vec<u8> = (0..40).map(|i| u8::from(i >= 20)).collect();
        let mut gbt = GradientBoosting::new(GradientBoostingParams::default());
        gbt.fit(&x, &y);
        let imp = gbt.feature_importances();
        assert!(imp[0] > 0.99);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn subsampling_still_learns() {
        let (x, y) = two_moons_like(200);
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 80,
            subsample: 0.7,
            colsample: 0.5,
            ..GradientBoostingParams::default()
        });
        gbt.fit(&x, &y);
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(r, &l)| gbt.predict(r) == l)
            .count();
        assert!(correct as f64 / x.len() as f64 > 0.9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = two_moons_like(80);
        let params = GradientBoostingParams {
            n_rounds: 20,
            subsample: 0.8,
            ..GradientBoostingParams::default()
        };
        let mut a = GradientBoosting::new(params.clone());
        let mut b = GradientBoosting::new(params);
        a.fit(&x, &y);
        b.fit(&x, &y);
        for row in &x {
            assert_eq!(a.predict_proba(row), b.predict_proba(row));
        }
    }

    #[test]
    #[should_panic(expected = "subsample must be in (0, 1]")]
    fn rejects_bad_subsample() {
        GradientBoosting::new(GradientBoostingParams {
            subsample: 0.0,
            ..GradientBoostingParams::default()
        });
    }

    /// A matrix shaped like the app-usage dataset the study trains on
    /// (half-mid scale, seed 7): 1,520 rows, 21 columns holding exactly
    /// these numbers of distinct values — one constant column, several
    /// binary ones, and near-unique ones with up to 893 values — and about
    /// three positives in four.
    fn app_matrix_like() -> (Vec<Vec<f64>>, Vec<u8>) {
        const DISTINCT: [u64; 21] = [
            14, 6, 1, 893, 892, 632, 631, 632, 2, 158, 35, 754, 2, 2, 4, 10, 10, 5, 17, 3, 3,
        ];
        let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut x = Vec::with_capacity(1520);
        let mut y = Vec::with_capacity(1520);
        for i in 0..1520u64 {
            // The first k rows of a k-valued column walk all k values (101
            // is coprime to every k), so each occurs; the rest are drawn.
            let row: Vec<f64> = DISTINCT
                .iter()
                .zip(0u64..)
                .map(|(&k, f)| if i < k { (i * 101 + f * 37) % k } else { next() % k } as f64)
                .collect();
            let score = row[3] / 893.0 + row[9] / 158.0 + row[10] / 35.0;
            let label = u8::from(score > 1.1);
            y.push(if next() % 200 == 0 { 1 - label } else { label });
            x.push(row);
        }
        (x, y)
    }

    #[test]
    fn columnar_fit_matches_reference_bitwise() {
        // Integer-ish features force heavy ties — the case where the
        // stable-sort tie-order argument actually matters — and the
        // app-shaped matrix at default params is the realistic case.
        let cases = [
            (
                two_moons_like(150),
                GradientBoostingParams {
                    n_rounds: 40,
                    subsample: 0.8,
                    colsample: 0.5,
                    ..GradientBoostingParams::default()
                },
            ),
            (app_matrix_like(), GradientBoostingParams::default()),
        ];
        for ((x, y), params) in cases {
            let mut columnar = GradientBoosting::new(params.clone());
            let mut reference = GradientBoosting::new(params);
            columnar.fit(&x, &y);
            fit_reference(&mut reference, &x, &y);
            assert_eq!(
                columnar.to_bytes(),
                reference.to_bytes(),
                "columnar and reference fits must serialize identically"
            );
            for row in &x {
                assert_eq!(
                    columnar.predict_proba(row).to_bits(),
                    reference.predict_proba(row).to_bits()
                );
            }
            assert_eq!(
                columnar.feature_importances(),
                reference.feature_importances()
            );
        }
    }

    #[test]
    fn batch_scoring_matches_per_row_bitwise() {
        let (x, y) = two_moons_like(90);
        let mut gbt = GradientBoosting::new(GradientBoostingParams {
            n_rounds: 25,
            ..GradientBoostingParams::default()
        });
        gbt.fit(&x, &y);
        let flat = FlatMatrix::from_rows(&x);
        let batch = gbt.predict_proba_batch(&flat);
        assert_eq!(batch.len(), x.len());
        for (row, p) in x.iter().zip(&batch) {
            assert_eq!(p.to_bits(), gbt.predict_proba(row).to_bits());
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// fit ≡ fit_reference on arbitrary small datasets: dense
            /// ties, all-distinct, constant and duplicated columns, with
            /// and without either subsample, from stumps to trees deep
            /// enough for one-row children, and `min_child_weight`s
            /// that leave nodes without an admissible split.
            #[test]
            fn columnar_fit_is_bitwise_reference(
                cells in proptest::collection::vec(
                    proptest::collection::vec(-4i8..4, 6), 4..=120),
                labels in proptest::collection::vec(0u8..2, 120),
                // Per column: 0–1 the drawn cell (eight levels), 2 eight
                // adjacent floats (a midpoint threshold rounds onto one
                // of its neighbours, so the predicate and the scan
                // position disagree about where the split falls), 3 made
                // distinct per row, 4 constant, 5 a copy of column 0.
                shapes in proptest::collection::vec(0usize..6, 1..=6),
                knobs in (0usize..4, 0usize..3, 0usize..3, 0usize..3),
                seed in 0u64..1000,
            ) {
                let x: Vec<Vec<f64>> = cells
                    .iter()
                    .enumerate()
                    .map(|(i, row)| {
                        let cell = |f: usize| f64::from(row[f]);
                        (0..shapes.len())
                            .map(|f| match shapes[f] {
                                2 => f64::from_bits(1f64.to_bits() + (row[f] + 4) as u64),
                                3 => cell(f) + i as f64 / 128.0,
                                4 => 1.0,
                                5 => cell(0),
                                _ => cell(f),
                            })
                            .collect()
                    })
                    .collect();
                let y: Vec<u8> = labels[..x.len()].to_vec();
                let params = GradientBoostingParams {
                    n_rounds: 8,
                    max_depth: [1, 2, 4, 6][knobs.0],
                    subsample: [0.5, 0.75, 1.0][knobs.1],
                    colsample: [0.34, 0.67, 1.0][knobs.2],
                    // 0 admits one-row children (a row's hessian is at most ¼).
                    min_child_weight: [0.0, 1.0, 5.0][knobs.3],
                    seed,
                    ..GradientBoostingParams::default()
                };
                let mut columnar = GradientBoosting::new(params.clone());
                let mut reference = GradientBoosting::new(params);
                columnar.fit(&x, &y);
                fit_reference(&mut reference, &x, &y);
                prop_assert_eq!(columnar.to_bytes(), reference.to_bytes());
                let bits = |m: &GradientBoosting| -> Vec<u64> {
                    m.feature_importances().iter().map(|v| v.to_bits()).collect()
                };
                prop_assert_eq!(bits(&columnar), bits(&reference));
            }
        }
    }
}
