//! CART decision trees with Gini impurity.
//!
//! The tree is the building block of the random forest ([`crate::forest`])
//! and, in its weighted regression form, of the gradient-boosted ensemble
//! ([`crate::gbt`]). Split finding is exact: every feature's unique values
//! are scanned in sorted order and the split maximizing the weighted Gini
//! impurity decrease is taken. The per-feature impurity decreases are
//! accumulated so ensembles can report *mean decrease in Gini* — the
//! feature-importance measure of Figures 13 and 14.

use crate::{Classifier, FeatureImportance};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters of a [`DecisionTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples each child must retain.
    pub min_samples_leaf: usize,
    /// Number of features considered per split; `None` means all (plain
    /// CART), `Some(k)` draws a random subset of size `k` per node (the
    /// random-forest behaviour).
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for DecisionTreeParams {
    fn default() -> Self {
        DecisionTreeParams {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
        }
    }
}

/// A node of the fitted tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Internal split: `feature <= threshold` goes left.
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf: probability of class 1.
    Leaf { proba: f64 },
}

/// A CART binary classification tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    params: DecisionTreeParams,
    nodes: Vec<Node>,
    /// Accumulated (weighted) impurity decrease per feature.
    importances: Vec<f64>,
    n_features: usize,
}

impl DecisionTree {
    /// Create an unfitted tree with the given parameters.
    pub fn new(params: DecisionTreeParams) -> Self {
        DecisionTree {
            params,
            nodes: Vec::new(),
            importances: Vec::new(),
            n_features: 0,
        }
    }

    /// Gini impurity of a (weighted) class distribution.
    fn gini(pos: f64, total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        let p = pos / total;
        2.0 * p * (1.0 - p)
    }

    /// Recursively grow the tree over the sample indices `idx`.
    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[u8],
        idx: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let n = idx.len() as f64;
        let pos = idx.iter().filter(|&&i| y[i] == 1).count() as f64;
        let node_gini = Self::gini(pos, n);

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { proba: pos / n });
            nodes.len() - 1
        };

        if depth >= self.params.max_depth
            || idx.len() < self.params.min_samples_split
            || node_gini == 0.0
        {
            return make_leaf(&mut self.nodes);
        }

        // Candidate features for this node.
        let all: Vec<usize> = (0..self.n_features).collect();
        let feats: Vec<usize> = match self.params.max_features {
            Some(k) if k < self.n_features => {
                let mut f = all;
                f.shuffle(rng);
                f.truncate(k);
                f
            }
            _ => all,
        };

        // Exact greedy: best (feature, threshold) by impurity decrease.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, decrease)
        let mut order: Vec<usize> = idx.to_vec();
        for &f in &feats {
            order.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).expect("NaN feature value"));
            let mut left_n = 0.0;
            let mut left_pos = 0.0;
            for w in 0..order.len() - 1 {
                let i = order[w];
                left_n += 1.0;
                if y[i] == 1 {
                    left_pos += 1.0;
                }
                // Can't split between equal values.
                if x[order[w]][f] == x[order[w + 1]][f] {
                    continue;
                }
                let right_n = n - left_n;
                if (left_n as usize) < self.params.min_samples_leaf
                    || (right_n as usize) < self.params.min_samples_leaf
                {
                    continue;
                }
                let right_pos = pos - left_pos;
                let child_gini = (left_n / n) * Self::gini(left_pos, left_n)
                    + (right_n / n) * Self::gini(right_pos, right_n);
                // Accept the best split even at zero gain (an XOR-style
                // parity node needs a gainless split before depth 2 can
                // separate it); recursion stays bounded by depth and purity.
                let decrease = node_gini - child_gini;
                if decrease > best.map_or(-1.0, |(_, _, d)| d) {
                    let threshold = (x[order[w]][f] + x[order[w + 1]][f]) / 2.0;
                    best = Some((f, threshold, decrease));
                }
            }
        }

        let Some((feature, threshold, decrease)) = best else {
            return make_leaf(&mut self.nodes);
        };

        // Weight the importance by the fraction of samples reaching the node.
        self.importances[feature] += decrease * n;

        // Partition indices in place.
        let mut left_idx: Vec<usize> = Vec::new();
        let mut right_idx: Vec<usize> = Vec::new();
        for &i in idx.iter() {
            if x[i][feature] <= threshold {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }

        let node_slot = self.nodes.len();
        self.nodes.push(Node::Leaf { proba: 0.0 }); // placeholder
        let left = self.grow(x, y, &mut left_idx, depth + 1, rng);
        let right = self.grow(x, y, &mut right_idx, depth + 1, rng);
        self.nodes[node_slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_slot
    }

    /// Depth of the fitted tree (leaves have depth 0); 0 if unfitted.
    pub fn depth(&self) -> usize {
        fn node_depth(nodes: &[Node], at: usize) -> usize {
            match nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + node_depth(nodes, left).max(node_depth(nodes, right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            node_depth(&self.nodes, 0)
        }
    }
}

impl Classifier for DecisionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        crate::validate_xy(x, y);
        self.n_features = x[0].len();
        self.nodes.clear();
        self.importances = vec![0.0; self.n_features];
        let mut idx: Vec<usize> = (0..x.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        self.grow(x, y, &mut idx, 0, &mut rng);
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "predict on unfitted tree");
        let mut at = 0usize;
        loop {
            match self.nodes[at] {
                Node::Leaf { proba } => return proba,
                Node::Split {
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

    fn name(&self) -> &'static str {
        "CART"
    }
}

impl FeatureImportance for DecisionTree {
    fn feature_importances(&self) -> Vec<f64> {
        let total: f64 = self.importances.iter().sum();
        if total == 0.0 {
            return vec![0.0; self.importances.len()];
        }
        self.importances.iter().map(|v| v / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XOR-ish dataset that a depth-2 tree separates perfectly.
    fn xor_data() -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let a = i as f64;
                let b = j as f64;
                x.push(vec![a, b]);
                y.push(u8::from((a < 2.0) != (b < 2.0)));
            }
        }
        (x, y)
    }

    #[test]
    fn fits_xor_exactly() {
        let (x, y) = xor_data();
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y);
        for (row, &label) in x.iter().zip(&y) {
            assert_eq!(t.predict(row), label);
        }
        assert!(t.depth() >= 2);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y);
        assert_eq!(t.nodes.len(), 1, "pure data trains a single leaf");
        assert_eq!(t.predict_proba(&[5.0]), 1.0);
    }

    #[test]
    fn max_depth_zero_is_prior() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0, 0, 0, 1];
        let mut t = DecisionTree::new(DecisionTreeParams {
            max_depth: 0,
            ..DecisionTreeParams::default()
        });
        t.fit(&x, &y);
        assert_eq!(t.predict_proba(&[0.0]), 0.25);
    }

    #[test]
    fn min_samples_leaf_respected() {
        // With min_samples_leaf = 3 and 4 points, only 3|1 splits are barred;
        // no valid split exists, so the tree is a single leaf.
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![0, 0, 1, 1];
        let mut t = DecisionTree::new(DecisionTreeParams {
            min_samples_leaf: 3,
            ..DecisionTreeParams::default()
        });
        t.fit(&x, &y);
        assert_eq!(t.nodes.len(), 1);
    }

    #[test]
    fn importances_concentrate_on_informative_feature() {
        // Feature 0 is decisive; feature 1 is constant noise.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 7.0]).collect();
        let y: Vec<u8> = (0..20).map(|i| u8::from(i >= 10)).collect();
        let mut t = DecisionTree::new(DecisionTreeParams::default());
        t.fit(&x, &y);
        let imp = t.feature_importances();
        assert!(imp[0] > 0.99, "informative feature dominates: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gini_values() {
        assert_eq!(DecisionTree::gini(0.0, 10.0), 0.0);
        assert_eq!(DecisionTree::gini(5.0, 10.0), 0.5);
        assert_eq!(DecisionTree::gini(0.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "predict on unfitted tree")]
    fn predict_unfitted_panics() {
        DecisionTree::new(DecisionTreeParams::default()).predict_proba(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "training set must not be empty")]
    fn fit_empty_panics() {
        DecisionTree::new(DecisionTreeParams::default()).fit(&[], &[]);
    }
}
