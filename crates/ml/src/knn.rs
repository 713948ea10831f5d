//! K-nearest-neighbours classification.
//!
//! "KNN" in Tables 1 and 2; the paper reports best performance at `k = 5`.
//! Features are standardized internally (Euclidean distance is otherwise
//! dominated by large-scale features like snapshots-per-day).
//!
//! The training set is held as a `racket-columnar` [`FlatMatrix`] — one
//! contiguous row-major buffer — so the distance loop streams through
//! memory instead of chasing a `Vec<Vec<f64>>` pointer per neighbour.
//! Distances use [`racket_columnar::sq_dist`], whose fold order is the
//! row-oriented expression's, so predictions are unchanged by the layout.

use crate::dataset::Standardizer;
use crate::Classifier;
use racket_columnar::{sq_dist, FlatMatrix};

/// Brute-force KNN classifier with internal standardization.
#[derive(Debug, Clone)]
pub struct KNearestNeighbors {
    k: usize,
    train_x: FlatMatrix,
    train_y: Vec<u8>,
    scaler: Option<Standardizer>,
}

impl KNearestNeighbors {
    /// Create a classifier with the given neighbourhood size.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KNearestNeighbors {
            k,
            train_x: FlatMatrix::new(0),
            train_y: Vec::new(),
            scaler: None,
        }
    }

    /// The paper's configuration (`k = 5`).
    pub fn paper_default() -> Self {
        Self::new(5)
    }
}

impl Classifier for KNearestNeighbors {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        crate::validate_xy(x, y);
        let scaler = Standardizer::fit(x);
        self.train_x = FlatMatrix::from_rows(&scaler.transform(x));
        self.train_y = y.to_vec();
        self.scaler = Some(scaler);
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("predict on unfitted model");
        let mut r = row.to_vec();
        scaler.transform_row(&mut r);
        let k = self.k.min(self.train_x.n_rows());
        // Partial selection of the k smallest distances.
        let mut dists: Vec<(f64, u8)> = self
            .train_x
            .rows()
            .zip(&self.train_y)
            .map(|(t, &l)| (sq_dist(&r, t), l))
            .collect();
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.partial_cmp(&b.0).expect("NaN distance"));
        let votes: u32 = dists[..k].iter().map(|&(_, l)| u32::from(l)).sum();
        f64::from(votes) / k as f64
    }

    fn name(&self) -> &'static str {
        "KNN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters() -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            x.push(vec![(i % 5) as f64 * 0.1, 0.0]);
            y.push(0);
            x.push(vec![10.0 + (i % 5) as f64 * 0.1, 0.0]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn classifies_clusters() {
        let (x, y) = clusters();
        let mut knn = KNearestNeighbors::paper_default();
        knn.fit(&x, &y);
        assert_eq!(knn.predict(&[0.2, 0.0]), 0);
        assert_eq!(knn.predict(&[10.2, 0.0]), 1);
    }

    #[test]
    fn proba_is_vote_fraction() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0], vec![11.0]];
        let y = vec![0, 0, 0, 1, 1];
        let mut knn = KNearestNeighbors::new(5);
        knn.fit(&x, &y);
        // All 5 points vote: 2/5 positive.
        assert!((knn.predict_proba(&[5.0]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_train_set_is_clamped() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![0, 1];
        let mut knn = KNearestNeighbors::new(10);
        knn.fit(&x, &y);
        assert!((knn.predict_proba(&[0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn standardization_balances_feature_scales() {
        // Feature 1 is informative but tiny; feature 0 is noise but huge.
        // Without standardization the noise dominates the distance.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..30 {
            let label = u8::from(i % 2 == 1);
            let informative = if label == 1 { 0.01 } else { -0.01 };
            let noise = ((i * 7919) % 100) as f64 * 100.0;
            x.push(vec![noise, informative]);
            y.push(label);
        }
        let mut knn = KNearestNeighbors::new(3);
        knn.fit(&x, &y);
        let acc = x
            .iter()
            .zip(&y)
            .filter(|(r, &l)| knn.predict(r) == l)
            .count();
        assert!(acc as f64 / x.len() as f64 > 0.9, "acc = {acc}/30");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        KNearestNeighbors::new(0);
    }
}
