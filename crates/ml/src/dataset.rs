//! Datasets and feature standardization.

/// A labelled dataset: dense feature rows, binary labels and feature names.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Row-major feature matrix.
    pub x: Vec<Vec<f64>>,
    /// Binary labels aligned with `x` (1 = promotion/worker).
    pub y: Vec<u8>,
    /// Human-readable feature names, aligned with the columns of `x`.
    pub feature_names: Vec<String>,
}

impl Dataset {
    /// Build a dataset, validating alignment.
    ///
    /// # Panics
    /// If rows are ragged, labels misalign, or names don't match columns.
    pub fn new(x: Vec<Vec<f64>>, y: Vec<u8>, feature_names: Vec<String>) -> Self {
        assert_eq!(x.len(), y.len(), "rows and labels must align");
        if let Some(first) = x.first() {
            assert!(
                x.iter().all(|r| r.len() == first.len()),
                "ragged feature matrix"
            );
            assert_eq!(feature_names.len(), first.len(), "names must match columns");
        }
        assert!(y.iter().all(|&l| l <= 1), "labels must be binary");
        Dataset {
            x,
            y,
            feature_names,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of feature columns (0 if empty).
    pub fn n_features(&self) -> usize {
        self.x.first().map_or(0, Vec::len)
    }

    /// Count of positive (class 1) rows.
    pub fn n_positive(&self) -> usize {
        self.y.iter().filter(|&&l| l == 1).count()
    }

    /// Count of negative (class 0) rows.
    pub fn n_negative(&self) -> usize {
        self.len() - self.n_positive()
    }

    /// Select a subset of rows by index (indices may repeat, enabling
    /// bootstrap resamples).
    pub(crate) fn select(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: indices.iter().map(|&i| self.x[i].clone()).collect(),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            feature_names: self.feature_names.clone(),
        }
    }
}

/// Per-feature z-score standardizer, fit on training data only.
///
/// Distance-based learners (KNN, LVQ, SVM) are scale-sensitive; the paper's
/// pipeline standardizes features before them. Constant columns get unit
/// scale so they standardize to zero rather than NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    /// Column means.
    pub means: Vec<f64>,
    /// Column standard deviations (1.0 where the column is constant).
    pub sds: Vec<f64>,
}

impl Standardizer {
    /// Fit on the rows of `x`.
    ///
    /// # Panics
    /// If `x` is empty or ragged.
    pub fn fit(x: &[Vec<f64>]) -> Self {
        assert!(!x.is_empty(), "cannot fit standardizer on empty data");
        let d = x[0].len();
        assert!(x.iter().all(|r| r.len() == d), "ragged feature matrix");
        let n = x.len() as f64;
        let mut means = vec![0.0; d];
        for row in x {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut sds = vec![0.0; d];
        for row in x {
            for ((s, v), m) in sds.iter_mut().zip(row).zip(&means) {
                *s += (v - m).powi(2);
            }
        }
        for s in &mut sds {
            *s = (*s / n).sqrt();
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        Standardizer { means, sds }
    }

    /// Standardize one row in place.
    pub(crate) fn transform_row(&self, row: &mut [f64]) {
        for ((v, m), s) in row.iter_mut().zip(&self.means).zip(&self.sds) {
            *v = (*v - m) / s;
        }
    }

    /// Standardize a copy of the matrix.
    pub(crate) fn transform(&self, x: &[Vec<f64>]) -> Vec<Vec<f64>> {
        x.iter()
            .map(|row| {
                let mut r = row.clone();
                self.transform_row(&mut r);
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]],
            vec![0, 1, 1],
            vec!["a".into(), "b".into()],
        )
    }

    #[test]
    fn dataset_accessors() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_positive(), 2);
        assert_eq!(d.n_negative(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn dataset_select_with_repeats() {
        let d = toy();
        let s = d.select(&[0, 0, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.x[0], s.x[1]);
        assert_eq!(s.y, vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "rows and labels must align")]
    fn dataset_rejects_misaligned_labels() {
        Dataset::new(vec![vec![1.0]], vec![0, 1], vec!["a".into()]);
    }

    #[test]
    #[should_panic(expected = "ragged feature matrix")]
    fn dataset_rejects_ragged_rows() {
        Dataset::new(
            vec![vec![1.0], vec![1.0, 2.0]],
            vec![0, 1],
            vec!["a".into()],
        );
    }

    #[test]
    fn standardizer_zero_mean_unit_sd() {
        let x = vec![vec![1.0, 5.0], vec![3.0, 5.0], vec![5.0, 5.0]];
        let s = Standardizer::fit(&x);
        let t = s.transform(&x);
        // Column 0: mean 3, population sd sqrt(8/3).
        let col0: Vec<f64> = t.iter().map(|r| r[0]).collect();
        assert!((col0.iter().sum::<f64>()).abs() < 1e-12);
        // Constant column 1 maps to zeros, not NaN.
        assert!(t.iter().all(|r| r[1] == 0.0));
    }

    #[test]
    fn standardizer_applies_train_stats_to_test() {
        let train = vec![vec![0.0], vec![10.0]];
        let s = Standardizer::fit(&train);
        let mut row = vec![5.0];
        s.transform_row(&mut row);
        assert!(row[0].abs() < 1e-12, "midpoint maps to 0, got {}", row[0]);
    }
}
