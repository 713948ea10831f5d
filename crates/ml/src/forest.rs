//! Random forests: bagged CART trees with per-node feature subsampling.
//!
//! "RF" in Tables 1 and 2 of the paper. Importance is the mean decrease in
//! Gini across trees, the measure plotted in Figures 13 and 14.

use crate::persist::{PersistError, Reader, Writer};
use crate::tree::{DecisionTree, DecisionTreeParams};
use crate::{Classifier, FeatureImportance};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Hyperparameters of a [`RandomForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Minimum samples to split a node.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Features per split; `None` uses `sqrt(n_features)` (the RF default).
    pub max_features: Option<usize>,
    /// RNG seed for bootstrapping and feature subsampling.
    pub seed: u64,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            n_trees: 100,
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 42,
        }
    }
}

/// A bagged ensemble of CART trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    params: RandomForestParams,
    trees: Vec<DecisionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Create an unfitted forest.
    pub fn new(params: RandomForestParams) -> Self {
        RandomForest {
            params,
            trees: Vec::new(),
            n_features: 0,
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        crate::validate_xy(x, y);
        self.n_features = x[0].len();
        self.trees.clear();
        let n = x.len();
        let mtry = self
            .params
            .max_features
            .unwrap_or_else(|| (self.n_features as f64).sqrt().ceil() as usize)
            .max(1);
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        for t in 0..self.params.n_trees {
            // Bootstrap resample.
            let bx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let sample_x: Vec<Vec<f64>> = bx.iter().map(|&i| x[i].clone()).collect();
            let sample_y: Vec<u8> = bx.iter().map(|&i| y[i]).collect();
            let mut tree = DecisionTree::new(DecisionTreeParams {
                max_depth: self.params.max_depth,
                min_samples_split: self.params.min_samples_split,
                min_samples_leaf: self.params.min_samples_leaf,
                max_features: Some(mtry),
                seed: self
                    .params
                    .seed
                    .wrapping_add(t as u64)
                    .wrapping_mul(0x9E3779B9),
            });
            tree.fit(&sample_x, &sample_y);
            self.trees.push(tree);
        }
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict on unfitted forest");
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(row)).sum();
        sum / self.trees.len() as f64
    }

    fn name(&self) -> &'static str {
        "RF"
    }
}

impl FeatureImportance for RandomForest {
    fn feature_importances(&self) -> Vec<f64> {
        if self.trees.is_empty() {
            return Vec::new();
        }
        let mut acc = vec![0.0; self.n_features];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.feature_importances()) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total == 0.0 {
            return acc;
        }
        acc.iter().map(|v| v / total).collect()
    }
}

impl RandomForest {
    /// Encode the fitted forest (params + member trees).
    pub(crate) fn write_to(&self, w: &mut Writer) {
        w.usize(self.params.n_trees);
        w.usize(self.params.max_depth);
        w.usize(self.params.min_samples_split);
        w.usize(self.params.min_samples_leaf);
        w.opt_usize(self.params.max_features);
        w.u64(self.params.seed);
        w.usize(self.trees.len());
        for tree in &self.trees {
            tree.write_to(w);
        }
        w.usize(self.n_features);
    }

    /// Decode a forest written by [`RandomForest::write_to`].
    pub(crate) fn read_from(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let params = RandomForestParams {
            n_trees: r.usize()?,
            max_depth: r.usize()?,
            min_samples_split: r.usize()?,
            min_samples_leaf: r.usize()?,
            max_features: r.opt_usize()?,
            seed: r.u64()?,
        };
        let n_trees = r.len(1)?;
        if n_trees == 0 {
            return Err(PersistError::Malformed("forest without trees"));
        }
        let trees = (0..n_trees)
            .map(|_| DecisionTree::read_from(r))
            .collect::<Result<Vec<_>, _>>()?;
        let n_features = r.usize()?;
        Ok(RandomForest {
            params,
            trees,
            n_features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linearly_separable(n: usize) -> (Vec<Vec<f64>>, Vec<u8>) {
        // Two clusters offset on feature 0, noise on feature 1.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = u8::from(i % 2 == 1);
            let base = if label == 1 { 10.0 } else { 0.0 };
            x.push(vec![base + (i % 5) as f64 * 0.1, (i % 7) as f64]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn separable_data_classified_perfectly() {
        let (x, y) = linearly_separable(60);
        let mut rf = RandomForest::new(RandomForestParams {
            n_trees: 25,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y);
        assert_eq!(rf.n_trees(), 25);
        for (row, &label) in x.iter().zip(&y) {
            assert_eq!(rf.predict(row), label);
        }
    }

    #[test]
    fn probabilities_are_calibrated_to_extremes() {
        let (x, y) = linearly_separable(60);
        let mut rf = RandomForest::new(RandomForestParams {
            n_trees: 25,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y);
        assert!(rf.predict_proba(&[12.0, 0.0]) > 0.9);
        assert!(rf.predict_proba(&[-2.0, 0.0]) < 0.1);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = linearly_separable(40);
        let params = RandomForestParams {
            n_trees: 10,
            ..RandomForestParams::default()
        };
        let mut a = RandomForest::new(params.clone());
        let mut b = RandomForest::new(params);
        a.fit(&x, &y);
        b.fit(&x, &y);
        for row in &x {
            assert_eq!(a.predict_proba(row), b.predict_proba(row));
        }
    }

    #[test]
    fn importances_favor_signal_feature() {
        let (x, y) = linearly_separable(80);
        let mut rf = RandomForest::new(RandomForestParams {
            n_trees: 30,
            ..RandomForestParams::default()
        });
        rf.fit(&x, &y);
        let imp = rf.feature_importances();
        assert!(imp[0] > imp[1], "signal feature should dominate: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
