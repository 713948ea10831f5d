//! Linear models: logistic regression and a Pegasos linear SVM.
//!
//! "LR" appears in Table 1 and "SVM" in Table 2 of the paper. Both models
//! standardize features internally (fit on training data), since the
//! RacketStore features span wildly different scales (counts of snapshots
//! per day vs. ratios in `[0, 1]`).

use crate::dataset::Standardizer;
use crate::Classifier;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Hyperparameters of [`LogisticRegression`].
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionParams {
    /// Full-batch gradient-descent iterations.
    pub n_iters: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 penalty strength.
    pub l2: f64,
}

impl Default for LogisticRegressionParams {
    fn default() -> Self {
        LogisticRegressionParams {
            n_iters: 500,
            learning_rate: 0.5,
            l2: 1e-4,
        }
    }
}

/// L2-regularized logistic regression trained by batch gradient descent on
/// standardized features.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    params: LogisticRegressionParams,
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<Standardizer>,
}

impl LogisticRegression {
    /// Create an unfitted model.
    pub fn new(params: LogisticRegressionParams) -> Self {
        LogisticRegression {
            params,
            weights: Vec::new(),
            bias: 0.0,
            scaler: None,
        }
    }

    fn sigmoid(z: f64) -> f64 {
        1.0 / (1.0 + (-z).exp())
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        crate::validate_xy(x, y);
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        self.scaler = Some(scaler);
        let n = xs.len();
        let d = xs[0].len();
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        let lr = self.params.learning_rate;
        for _ in 0..self.params.n_iters {
            let mut grad_w = vec![0.0; d];
            let mut grad_b = 0.0;
            for (row, &label) in xs.iter().zip(y) {
                let z = self.bias
                    + row
                        .iter()
                        .zip(&self.weights)
                        .map(|(a, b)| a * b)
                        .sum::<f64>();
                let err = Self::sigmoid(z) - f64::from(label);
                for (g, v) in grad_w.iter_mut().zip(row) {
                    *g += err * v;
                }
                grad_b += err;
            }
            let scale = lr / n as f64;
            for (w, g) in self.weights.iter_mut().zip(&grad_w) {
                *w -= scale * (g + self.params.l2 * *w * n as f64);
            }
            self.bias -= scale * grad_b;
        }
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("predict on unfitted model");
        let mut r = row.to_vec();
        scaler.transform_row(&mut r);
        let z = self.bias + r.iter().zip(&self.weights).map(|(a, b)| a * b).sum::<f64>();
        Self::sigmoid(z)
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

/// Hyperparameters of [`LinearSvm`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvmParams {
    /// Number of Pegasos SGD epochs over the data.
    pub n_epochs: usize,
    /// Regularization strength λ (inverse of the usual `C`).
    pub lambda: f64,
    /// RNG seed for sample order.
    pub seed: u64,
}

impl Default for LinearSvmParams {
    fn default() -> Self {
        LinearSvmParams {
            n_epochs: 60,
            lambda: 1e-3,
            seed: 42,
        }
    }
}

/// Linear SVM trained with the Pegasos stochastic sub-gradient algorithm
/// (Shalev-Shwartz et al.) on standardized features.
///
/// `predict_proba` maps the signed margin through a logistic link so the
/// common [`Classifier`] interface (and ROC-AUC computation) applies; the
/// decision boundary is the usual `margin >= 0`.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    params: LinearSvmParams,
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<Standardizer>,
}

impl LinearSvm {
    /// Create an unfitted model.
    pub fn new(params: LinearSvmParams) -> Self {
        LinearSvm {
            params,
            weights: Vec::new(),
            bias: 0.0,
            scaler: None,
        }
    }

    /// Signed margin for a (raw, unstandardized) row.
    pub(crate) fn margin(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("margin on unfitted model");
        let mut r = row.to_vec();
        scaler.transform_row(&mut r);
        self.bias + r.iter().zip(&self.weights).map(|(a, b)| a * b).sum::<f64>()
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        crate::validate_xy(x, y);
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        self.scaler = Some(scaler);
        let n = xs.len();
        let d = xs[0].len();
        self.weights = vec![0.0; d];
        self.bias = 0.0;
        let lambda = self.params.lambda;
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut t = 0u64;
        for _ in 0..self.params.n_epochs {
            for _ in 0..n {
                t += 1;
                let i = rng.gen_range(0..n);
                let label = if y[i] == 1 { 1.0 } else { -1.0 };
                let eta = 1.0 / (lambda * t as f64);
                let z = self.bias
                    + xs[i]
                        .iter()
                        .zip(&self.weights)
                        .map(|(a, b)| a * b)
                        .sum::<f64>();
                // Sub-gradient step: shrink weights, and on margin violation
                // also step toward the violating example.
                for w in self.weights.iter_mut() {
                    *w *= 1.0 - eta * lambda;
                }
                if label * z < 1.0 {
                    for (w, v) in self.weights.iter_mut().zip(&xs[i]) {
                        *w += eta * label * v;
                    }
                    self.bias += eta * label;
                }
            }
        }
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        1.0 / (1.0 + (-self.margin(row)).exp())
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = u8::from(i % 2 == 1);
            let offset = if label == 1 { 4.0 } else { -4.0 };
            x.push(vec![offset + (i % 5) as f64 * 0.2, (i % 3) as f64]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn lr_separable() {
        let (x, y) = separable(60);
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y);
        for (row, &label) in x.iter().zip(&y) {
            assert_eq!(lr.predict(row), label);
        }
        // Weight on the informative feature dominates.
        assert!(lr.weights[0].abs() > lr.weights[1].abs());
    }

    #[test]
    fn lr_probabilities_ordered_by_distance() {
        let (x, y) = separable(60);
        let mut lr = LogisticRegression::new(LogisticRegressionParams::default());
        lr.fit(&x, &y);
        let far_pos = lr.predict_proba(&[10.0, 0.0]);
        let near_pos = lr.predict_proba(&[1.0, 0.0]);
        let far_neg = lr.predict_proba(&[-10.0, 0.0]);
        assert!(far_pos > near_pos && near_pos > far_neg);
    }

    #[test]
    fn svm_separable() {
        let (x, y) = separable(60);
        let mut svm = LinearSvm::new(LinearSvmParams::default());
        svm.fit(&x, &y);
        for (row, &label) in x.iter().zip(&y) {
            assert_eq!(svm.predict(row), label);
        }
    }

    #[test]
    fn svm_margin_sign_matches_prediction() {
        let (x, y) = separable(40);
        let mut svm = LinearSvm::new(LinearSvmParams::default());
        svm.fit(&x, &y);
        for row in &x {
            assert_eq!(u8::from(svm.margin(row) >= 0.0), svm.predict(row));
        }
    }

    #[test]
    fn svm_deterministic_given_seed() {
        let (x, y) = separable(40);
        let mut a = LinearSvm::new(LinearSvmParams::default());
        let mut b = LinearSvm::new(LinearSvmParams::default());
        a.fit(&x, &y);
        b.fit(&x, &y);
        for row in &x {
            assert_eq!(a.margin(row), b.margin(row));
        }
    }

    #[test]
    #[should_panic(expected = "predict on unfitted model")]
    fn lr_unfitted_panics() {
        LogisticRegression::new(LogisticRegressionParams::default()).predict_proba(&[1.0]);
    }
}
