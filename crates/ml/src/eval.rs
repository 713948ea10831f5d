//! Evaluation: stratified k-fold cross-validation and the paper's metrics.
//!
//! Tables 1 and 2 report precision, recall and F1 under (repeated) 10-fold
//! cross-validation; §7.2/§8.2 additionally report AUC and false-positive
//! rate, and apply class re-balancing (SMOTE / random over- and
//! undersampling) — *to the training folds only*, never the validation
//! fold, which is what [`cross_validate`] implements.

use crate::dataset::Dataset;
use crate::sampling::{random_oversample, random_undersample, smote};
use crate::Classifier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// Binary confusion counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Record one (truth, prediction) pair.
    pub fn record(&mut self, truth: u8, pred: u8) {
        match (truth, pred) {
            (1, 1) => self.tp += 1,
            (0, 1) => self.fp += 1,
            (0, 0) => self.tn += 1,
            (1, 0) => self.fn_ += 1,
            _ => panic!("labels must be binary"),
        }
    }

    /// Total observations recorded.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fold another matrix's counts into this one (pooling across folds).
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Precision `tp / (tp + fp)`; 1.0 when nothing was predicted positive
    /// (the vacuous-truth convention, so a conservative classifier is not
    /// penalized on a fold without positive predictions).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 1.0 when there are no positives.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1, the harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False-positive rate `fp / (fp + tn)`; 0.0 when there are no negatives.
    pub fn fpr(&self) -> f64 {
        if self.fp + self.tn == 0 {
            0.0
        } else {
            self.fp as f64 / (self.fp + self.tn) as f64
        }
    }

    /// Accuracy `(tp + tn) / total`.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / self.total() as f64
        }
    }
}

/// The metric set the paper reports per classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Precision (positive predictive value).
    pub precision: f64,
    /// Recall (true-positive rate).
    pub recall: f64,
    /// F1 measure.
    pub f1: f64,
    /// Area under the ROC curve.
    pub auc: f64,
    /// False-positive rate at the 0.5 threshold.
    pub fpr: f64,
    /// Accuracy at the 0.5 threshold.
    pub accuracy: f64,
}

/// ROC-AUC via the Mann–Whitney rank statistic (tie-aware midranks).
///
/// Returns 0.5 when either class is absent (no ranking information).
pub fn roc_auc(truths: &[u8], scores: &[f64]) -> f64 {
    assert_eq!(truths.len(), scores.len(), "truths and scores must align");
    let n_pos = truths.iter().filter(|&&t| t == 1).count();
    let n_neg = truths.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let ranks = crate::eval::average_ranks_f64(scores);
    let pos_rank_sum: f64 = truths
        .iter()
        .zip(&ranks)
        .filter(|(&t, _)| t == 1)
        .map(|(_, &r)| r)
        .sum();
    let u = pos_rank_sum - (n_pos * (n_pos + 1)) as f64 / 2.0;
    u / (n_pos * n_neg) as f64
}

/// Midranks with tie averaging (local copy so racket-ml stays independent
/// of racket-stats).
pub(crate) fn average_ranks_f64(data: &[f64]) -> Vec<f64> {
    let n = data.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| data[a].partial_cmp(&data[b]).expect("NaN score"));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && data[idx[j + 1]] == data[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Class re-balancing strategy applied to training folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Resampling {
    /// Use the training fold as-is.
    #[default]
    None,
    /// SMOTE with the given neighbourhood size (§8.2 uses SMOTE).
    Smote {
        /// Nearest-neighbour count for interpolation.
        k: usize,
    },
    /// Random oversampling of the minority class (§7.2 ablation).
    Oversample,
    /// Random undersampling of the majority class (§7.2 ablation).
    Undersample,
}

/// Stratified k-fold assignment: returns for each row its fold index in
/// `0..k`, preserving the class ratio within every fold.
///
/// # Panics
/// If `k < 2` or `k` exceeds the size of either class... folds are still
/// produced if a class is smaller than `k`, but will then be missing that
/// class in some folds.
pub fn stratified_folds(y: &[u8], k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least 2 folds");
    assert!(!y.is_empty(), "cannot fold an empty label vector");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fold = vec![0usize; y.len()];
    for class in [0u8, 1u8] {
        let mut members: Vec<usize> = (0..y.len()).filter(|&i| y[i] == class).collect();
        members.shuffle(&mut rng);
        for (pos, &i) in members.iter().enumerate() {
            fold[i] = pos % k;
        }
    }
    fold
}

/// Pooled cross-validation report.
#[derive(Debug, Clone)]
pub struct CvReport {
    /// Pooled confusion matrix over all validation folds and repeats.
    pub confusion: ConfusionMatrix,
    /// Pooled metrics.
    pub metrics: Metrics,
    /// Number of folds × repeats evaluated.
    pub n_evaluations: usize,
}

/// Repeated stratified k-fold cross-validation.
///
/// `factory` builds a fresh, unfitted classifier per fold. Resampling is
/// applied only to the training split. Predictions from every validation
/// fold (across all `repeats`) are pooled into one confusion matrix and
/// one ROC-AUC, the aggregation the paper's tables report.
///
/// Every `(repeat, fold)` pair trains and scores independently, so the
/// pairs fan out across worker threads; their per-fold results are merged
/// back in `(repeat, fold)` order, which makes the pooled report
/// bit-identical to the serial loop regardless of thread count.
pub fn cross_validate<F>(
    factory: F,
    data: &Dataset,
    k: usize,
    repeats: usize,
    resampling: Resampling,
    seed: u64,
) -> CvReport
where
    F: Fn() -> Box<dyn Classifier> + Sync,
{
    assert!(repeats >= 1, "need at least one repeat");
    let rep_folds: Vec<Vec<usize>> = (0..repeats)
        .map(|rep| stratified_folds(&data.y, k, seed.wrapping_add(rep as u64)))
        .collect();
    let pairs: Vec<(usize, usize)> = (0..repeats)
        .flat_map(|rep| (0..k).map(move |fold_id| (rep, fold_id)))
        .collect();

    // Per-fold train/score timing goes to the process-default registry
    // (`span.ml/cv_fold`, with rep/fold trace fields) — the library has no
    // study registry in scope, and harnesses that want isolated per-run
    // numbers swap the global with `racket_obs::install_global`.
    let obs = racket_obs::global();
    type FoldResult = Option<(ConfusionMatrix, Vec<u8>, Vec<f64>)>;
    let fold_results: Vec<FoldResult> = pairs
        .into_par_iter()
        .map(|(rep, fold_id)| {
            let _span = obs.span("ml/cv_fold");
            let folds = &rep_folds[rep];
            let train_idx: Vec<usize> = (0..data.len()).filter(|&i| folds[i] != fold_id).collect();
            let valid_idx: Vec<usize> = (0..data.len()).filter(|&i| folds[i] == fold_id).collect();
            if valid_idx.is_empty() || train_idx.is_empty() {
                return None;
            }
            let mut train = data.select(&train_idx);
            // A fold can end up single-class on tiny datasets; resampling
            // requires both classes, so skip it in that case.
            if train.n_positive() > 0 && train.n_negative() > 0 {
                train = match resampling {
                    Resampling::None => train,
                    Resampling::Smote { k: sk } => {
                        smote(&train, sk, seed.wrapping_add(1000 + rep as u64))
                    }
                    Resampling::Oversample => {
                        random_oversample(&train, seed.wrapping_add(2000 + rep as u64))
                    }
                    Resampling::Undersample => {
                        random_undersample(&train, seed.wrapping_add(3000 + rep as u64))
                    }
                };
            }
            let mut model = factory();
            model.fit(&train.x, &train.y);
            let mut fold_cm = ConfusionMatrix::default();
            let mut fold_truths = Vec::with_capacity(valid_idx.len());
            let mut fold_scores = Vec::with_capacity(valid_idx.len());
            for &i in &valid_idx {
                let p = model.predict_proba(&data.x[i]);
                fold_cm.record(data.y[i], u8::from(p >= 0.5));
                fold_truths.push(data.y[i]);
                fold_scores.push(p);
            }
            Some((fold_cm, fold_truths, fold_scores))
        })
        .collect();

    let mut confusion = ConfusionMatrix::default();
    let mut truths = Vec::new();
    let mut scores = Vec::new();
    let mut n_evaluations = 0;
    for result in fold_results.into_iter().flatten() {
        let (fold_cm, fold_truths, fold_scores) = result;
        confusion.merge(&fold_cm);
        truths.extend(fold_truths);
        scores.extend(fold_scores);
        n_evaluations += 1;
    }

    let metrics = Metrics {
        precision: confusion.precision(),
        recall: confusion.recall(),
        f1: confusion.f1(),
        auc: roc_auc(&truths, &scores),
        fpr: confusion.fpr(),
        accuracy: confusion.accuracy(),
    };
    CvReport {
        confusion,
        metrics,
        n_evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{DecisionTree, DecisionTreeParams};

    #[test]
    fn confusion_metrics() {
        let mut cm = ConfusionMatrix::default();
        // 8 TP, 2 FP, 88 TN, 2 FN.
        for _ in 0..8 {
            cm.record(1, 1);
        }
        for _ in 0..2 {
            cm.record(0, 1);
        }
        for _ in 0..88 {
            cm.record(0, 0);
        }
        for _ in 0..2 {
            cm.record(1, 0);
        }
        assert_eq!(cm.total(), 100);
        assert!((cm.precision() - 0.8).abs() < 1e-12);
        assert!((cm.recall() - 0.8).abs() < 1e-12);
        assert!((cm.f1() - 0.8).abs() < 1e-12);
        assert!((cm.fpr() - 2.0 / 90.0).abs() < 1e-12);
        assert!((cm.accuracy() - 0.96).abs() < 1e-12);
    }

    #[test]
    fn confusion_vacuous_conventions() {
        let cm = ConfusionMatrix::default();
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.fpr(), 0.0);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let truths = [0, 0, 1, 1];
        assert_eq!(roc_auc(&truths, &[0.1, 0.2, 0.8, 0.9]), 1.0);
        assert_eq!(roc_auc(&truths, &[0.9, 0.8, 0.2, 0.1]), 0.0);
        assert_eq!(roc_auc(&truths, &[0.5, 0.5, 0.5, 0.5]), 0.5);
    }

    #[test]
    fn auc_with_ties_matches_hand_value() {
        // scores: pos {0.9, 0.5}, neg {0.5, 0.1}: one win, one tie, so
        // AUC = (1 + 0.5 + 1 + 1) pairs… compute directly: pairs (p,n):
        // (0.9,0.5)=1, (0.9,0.1)=1, (0.5,0.5)=0.5, (0.5,0.1)=1 → 3.5/4.
        let auc = roc_auc(&[1, 1, 0, 0], &[0.9, 0.5, 0.5, 0.1]);
        assert!((auc - 0.875).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(roc_auc(&[1, 1], &[0.1, 0.9]), 0.5);
    }

    #[test]
    fn stratified_folds_preserve_ratio() {
        // 40 negatives, 20 positives, 4 folds → each fold gets 10 neg, 5 pos.
        let y: Vec<u8> = (0..60).map(|i| u8::from(i % 3 == 0)).collect();
        let folds = stratified_folds(&y, 4, 9);
        for f in 0..4 {
            let members: Vec<usize> = (0..60).filter(|&i| folds[i] == f).collect();
            let pos = members.iter().filter(|&&i| y[i] == 1).count();
            assert_eq!(members.len(), 15);
            assert_eq!(pos, 5);
        }
    }

    #[test]
    fn stratified_folds_deterministic() {
        let y: Vec<u8> = (0..30).map(|i| u8::from(i % 2 == 0)).collect();
        assert_eq!(stratified_folds(&y, 5, 1), stratified_folds(&y, 5, 1));
        assert_ne!(stratified_folds(&y, 5, 1), stratified_folds(&y, 5, 2));
    }

    fn separable_dataset(n: usize) -> Dataset {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = u8::from(i % 2 == 1);
            let base = if label == 1 { 10.0 } else { 0.0 };
            x.push(vec![base + (i % 5) as f64 * 0.1]);
            y.push(label);
        }
        Dataset::new(x, y, vec!["f0".into()])
    }

    #[test]
    fn cv_on_separable_data_is_perfect() {
        let data = separable_dataset(100);
        let report = cross_validate(
            || Box::new(DecisionTree::new(DecisionTreeParams::default())),
            &data,
            10,
            1,
            Resampling::None,
            7,
        );
        assert_eq!(report.n_evaluations, 10);
        assert_eq!(report.confusion.total(), 100);
        assert!(report.metrics.f1 > 0.99, "f1 = {}", report.metrics.f1);
        assert!(report.metrics.auc > 0.99);
    }

    #[test]
    fn cv_with_smote_on_imbalanced_data() {
        // 90/10 imbalance; SMOTE on the train folds must not crash and the
        // minority class must still be recallable.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..90 {
            x.push(vec![(i % 9) as f64 * 0.1]);
            y.push(0);
        }
        for i in 0..10 {
            x.push(vec![8.0 + (i % 3) as f64 * 0.1]);
            y.push(1);
        }
        let data = Dataset::new(x, y, vec!["f0".into()]);
        let report = cross_validate(
            || Box::new(DecisionTree::new(DecisionTreeParams::default())),
            &data,
            5,
            2,
            Resampling::Smote { k: 3 },
            11,
        );
        assert_eq!(report.n_evaluations, 10);
        assert!(
            report.metrics.recall > 0.9,
            "recall = {}",
            report.metrics.recall
        );
    }

    #[test]
    fn cv_repeats_pool_more_predictions() {
        let data = separable_dataset(40);
        let factory =
            || Box::new(DecisionTree::new(DecisionTreeParams::default())) as Box<dyn Classifier>;
        let r1 = cross_validate(factory, &data, 4, 1, Resampling::None, 3);
        let factory =
            || Box::new(DecisionTree::new(DecisionTreeParams::default())) as Box<dyn Classifier>;
        let r3 = cross_validate(factory, &data, 4, 3, Resampling::None, 3);
        assert_eq!(r1.confusion.total(), 40);
        assert_eq!(r3.confusion.total(), 120);
    }

    /// Bug-check for repeated-CV fold assignment: within every repeat,
    /// the fold vector must place each row in exactly one validation fold
    /// — i.e. it is a total assignment into `0..k` whose per-fold
    /// validation sets partition the rows. A fold id ≥ k, or two repeats
    /// sharing an RNG stream and degenerating into identical assignments,
    /// would silently skew every pooled table in the paper reproduction.
    #[test]
    fn every_row_lands_in_exactly_one_validation_fold_per_repeat() {
        let n = 103;
        let k = 10;
        let y: Vec<u8> = (0..n).map(|i| u8::from(i % 3 == 0)).collect();
        let repeats = 5;
        let seed = 42u64;
        let mut assignments = Vec::new();
        for rep in 0..repeats {
            let fold = stratified_folds(&y, k, seed.wrapping_add(rep));
            assert_eq!(fold.len(), n, "total assignment: one fold id per row");
            let mut seen = vec![0usize; k];
            for &f in &fold {
                assert!(f < k, "fold id {f} out of range");
                seen[f] += 1;
            }
            assert_eq!(seen.iter().sum::<usize>(), n, "folds partition the rows");
            for (f, &count) in seen.iter().enumerate() {
                assert!(count > 0, "fold {f} would be an empty validation set");
            }
            // The union of validation index sets, taken fold by fold, must
            // recover every row exactly once (what cross_validate iterates).
            let mut covered = vec![false; n];
            for fold_id in 0..k {
                for i in (0..n).filter(|&i| fold[i] == fold_id) {
                    assert!(!covered[i], "row {i} validated twice in one repeat");
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "every row validates once");
            assignments.push(fold);
        }
        // Distinct repeats must reshuffle: identical assignments would
        // make "repeated" CV a no-op and shrink the pooled sample.
        for rep in 1..repeats as usize {
            assert_ne!(
                assignments[0], assignments[rep],
                "repeat {rep} reused repeat 0's folds"
            );
        }
    }

    /// Stratification: each fold's class counts may deviate from a
    /// perfectly proportional split by at most one row per class (the
    /// round-robin remainder).
    #[test]
    fn stratified_folds_preserve_class_ratio_within_one_row() {
        for (n, pos_every, k, seed) in [(103, 3, 10, 7u64), (64, 4, 5, 11), (200, 2, 10, 13)] {
            let y: Vec<u8> = (0..n).map(|i| u8::from(i % pos_every == 0)).collect();
            let n_pos = y.iter().filter(|&&v| v == 1).count();
            let n_neg = n - n_pos;
            let fold = stratified_folds(&y, k, seed);
            for fold_id in 0..k {
                let pos_in_fold = (0..n).filter(|&i| fold[i] == fold_id && y[i] == 1).count();
                let neg_in_fold = (0..n).filter(|&i| fold[i] == fold_id && y[i] == 0).count();
                let pos_lo = n_pos / k;
                let neg_lo = n_neg / k;
                assert!(
                    pos_in_fold == pos_lo || pos_in_fold == pos_lo + 1,
                    "fold {fold_id}: {pos_in_fold} positives, expected {pos_lo} or {}",
                    pos_lo + 1
                );
                assert!(
                    neg_in_fold == neg_lo || neg_in_fold == neg_lo + 1,
                    "fold {fold_id}: {neg_in_fold} negatives, expected {neg_lo} or {}",
                    neg_lo + 1
                );
            }
        }
    }
}
