//! From-scratch supervised-learning stack for the RacketStore detectors.
//!
//! §7 and §8 of the paper train Extreme Gradient Boosting (XGB), Random
//! Forest (RF), Logistic Regression (LR), Support Vector Machines (SVM),
//! K-Nearest Neighbours (KNN, k = 5) and Learning Vector Quantization (LVQ)
//! on app-usage and device-usage features, evaluate them with (repeated)
//! stratified 10-fold cross-validation, balance classes with SMOTE and
//! random over/undersampling, and rank features by mean decrease in Gini.
//!
//! This crate implements all of that with no external ML dependencies:
//!
//! * [`DecisionTree`] — CART decision trees with Gini impurity,
//! * [`RandomForest`] — bagged random forests with feature subsampling,
//! * [`GradientBoosting`] — second-order gradient-boosted trees
//!   (XGBoost-style exact greedy split finding with regularized leaf
//!   weights); the one learner with a persisted byte form, RKML
//!   ([`GradientBoosting::to_bytes`] / [`GradientBoosting::from_bytes`]),
//!   which the detection service ships,
//! * [`LogisticRegression`] and [`LinearSvm`] — logistic regression and a
//!   Pegasos linear SVM,
//! * [`KNearestNeighbors`] / [`Lvq`] — instance-based learners,
//! * [`smote`] and [`random_oversample`] / [`random_undersample`] — SMOTE
//!   and random resampling,
//! * [`cross_validate`] — stratified k-fold CV and the metric set the paper
//!   reports (precision, recall, F1, FPR, ROC-AUC).
//!
//! All learners are deterministic given their seed, implement the common
//! [`Classifier`] trait, and operate on a plain [`Dataset`].

#![deny(missing_docs)]

mod dataset;
mod eval;
mod forest;
mod gbt;
mod knn;
mod linear;
mod lvq;
mod persist;
mod sampling;
mod tree;

pub use dataset::{Dataset, Standardizer};
pub use eval::{
    cross_validate, roc_auc, stratified_folds, ConfusionMatrix, CvReport, Metrics, Resampling,
};
pub use forest::{RandomForest, RandomForestParams};
pub use gbt::{GradientBoosting, GradientBoostingParams};
pub use knn::KNearestNeighbors;
pub use linear::{LinearSvm, LinearSvmParams, LogisticRegression, LogisticRegressionParams};
pub use lvq::{Lvq, LvqParams};
pub use persist::PersistError;
pub use sampling::{random_oversample, random_undersample, smote};
pub use tree::{DecisionTree, DecisionTreeParams};

/// A binary classifier over dense `f64` feature rows.
///
/// Labels are `0` (negative — personal use / regular device) or `1`
/// (positive — promotion use / worker device), following the paper's class
/// encoding in §7.2.
///
/// ```
/// use racket_ml::{Classifier, GradientBoosting, GradientBoostingParams};
///
/// let x: Vec<Vec<f64>> = (0..20).map(|i| vec![f64::from(i)]).collect();
/// let y: Vec<u8> = (0..20).map(|i| u8::from(i >= 10)).collect();
/// let mut model = GradientBoosting::new(GradientBoostingParams::default());
/// model.fit(&x, &y);
/// assert_eq!(model.predict(&[2.0]), 0);
/// assert_eq!(model.predict(&[17.0]), 1);
/// ```
pub trait Classifier {
    /// Fit the model on feature rows `x` and labels `y`.
    ///
    /// # Panics
    /// Implementations panic if `x` is empty, rows are ragged, or `x` and
    /// `y` lengths differ.
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]);

    /// Probability (or score in `[0, 1]`) that `row` belongs to class 1.
    fn predict_proba(&self, row: &[f64]) -> f64;

    /// Hard prediction at the 0.5 threshold.
    fn predict(&self, row: &[f64]) -> u8 {
        u8::from(self.predict_proba(row) >= 0.5)
    }

    /// Short display name used by the experiment tables.
    fn name(&self) -> &'static str;
}

/// Classifiers that can rank features by importance.
pub trait FeatureImportance {
    /// Per-feature importance scores, normalized to sum to 1 (all zeros if
    /// the model is untrained or found no useful split).
    ///
    /// For tree ensembles this is the *mean decrease in Gini* (impurity)
    /// the paper uses for Figures 13 and 14.
    fn feature_importances(&self) -> Vec<f64>;
}

/// Validate a feature matrix / label vector pair; used by every learner.
pub(crate) fn validate_xy(x: &[Vec<f64>], y: &[u8]) {
    assert!(!x.is_empty(), "training set must not be empty");
    assert_eq!(x.len(), y.len(), "feature rows and labels must align");
    let d = x[0].len();
    assert!(d > 0, "feature rows must be non-empty");
    assert!(x.iter().all(|r| r.len() == d), "ragged feature matrix");
    assert!(y.iter().all(|&l| l <= 1), "labels must be binary (0/1)");
}
