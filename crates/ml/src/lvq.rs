//! Learning Vector Quantization (LVQ1).
//!
//! "LVQ" in Tables 1 and 2. LVQ1 maintains a codebook of prototypes per
//! class; each training sample attracts its nearest prototype if labels
//! match and repels it otherwise, with a linearly decaying learning rate.

use crate::dataset::Standardizer;
use crate::Classifier;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters of [`Lvq`].
#[derive(Debug, Clone, PartialEq)]
pub struct LvqParams {
    /// Prototypes per class.
    pub prototypes_per_class: usize,
    /// Training epochs.
    pub n_epochs: usize,
    /// Initial learning rate (decays linearly to 0).
    pub learning_rate: f64,
    /// RNG seed for prototype initialization and sample order.
    pub seed: u64,
}

impl Default for LvqParams {
    fn default() -> Self {
        LvqParams {
            prototypes_per_class: 8,
            n_epochs: 40,
            learning_rate: 0.3,
            seed: 42,
        }
    }
}

/// An LVQ1 classifier over standardized features.
#[derive(Debug, Clone)]
pub struct Lvq {
    params: LvqParams,
    prototypes: Vec<(Vec<f64>, u8)>,
    scaler: Option<Standardizer>,
}

impl Lvq {
    /// Create an unfitted model.
    pub fn new(params: LvqParams) -> Self {
        assert!(
            params.prototypes_per_class > 0,
            "need at least one prototype per class"
        );
        Lvq {
            params,
            prototypes: Vec::new(),
            scaler: None,
        }
    }

    fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Index of the nearest prototype to `row`.
    fn nearest(&self, row: &[f64]) -> usize {
        self.prototypes
            .iter()
            .enumerate()
            .min_by(|(_, (a, _)), (_, (b, _))| {
                Self::sq_dist(row, a)
                    .partial_cmp(&Self::sq_dist(row, b))
                    .expect("NaN distance")
            })
            .expect("no prototypes")
            .0
    }
}

impl Classifier for Lvq {
    fn fit(&mut self, x: &[Vec<f64>], y: &[u8]) {
        crate::validate_xy(x, y);
        let scaler = Standardizer::fit(x);
        let xs = scaler.transform(x);
        self.scaler = Some(scaler);
        let mut rng = StdRng::seed_from_u64(self.params.seed);

        // Initialize prototypes with random samples of each class.
        self.prototypes.clear();
        for class in [0u8, 1u8] {
            let mut members: Vec<usize> = (0..xs.len()).filter(|&i| y[i] == class).collect();
            if members.is_empty() {
                continue; // degenerate single-class training set
            }
            members.shuffle(&mut rng);
            for m in 0..self.params.prototypes_per_class {
                let i = members[m % members.len()];
                self.prototypes.push((xs[i].clone(), class));
            }
        }

        // LVQ1 updates with linearly decaying learning rate.
        let total_steps = (self.params.n_epochs * xs.len()).max(1) as f64;
        let mut step = 0f64;
        let mut order: Vec<usize> = (0..xs.len()).collect();
        for _ in 0..self.params.n_epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let alpha = self.params.learning_rate * (1.0 - step / total_steps);
                step += 1.0;
                let w = self.nearest(&xs[i]);
                let matches = self.prototypes[w].1 == y[i];
                let sign = if matches { alpha } else { -alpha };
                let proto = &mut self.prototypes[w].0;
                for (p, v) in proto.iter_mut().zip(&xs[i]) {
                    *p += sign * (v - *p);
                }
            }
        }
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("predict on unfitted model");
        assert!(!self.prototypes.is_empty(), "predict on unfitted model");
        let mut r = row.to_vec();
        scaler.transform_row(&mut r);
        // Soft score: distance-weighted two-class comparison between the
        // nearest prototype of each class.
        let best = |class: u8| {
            self.prototypes
                .iter()
                .filter(|(_, c)| *c == class)
                .map(|(p, _)| Self::sq_dist(&r, p))
                .min_by(|a, b| a.partial_cmp(b).expect("NaN distance"))
        };
        match (best(0), best(1)) {
            (Some(d0), Some(d1)) => {
                // Logistic link on the (signed) distance difference.
                1.0 / (1.0 + (d1 - d0).exp())
            }
            (None, Some(_)) => 1.0,
            (Some(_), None) => 0.0,
            (None, None) => unreachable!("checked non-empty above"),
        }
    }

    fn name(&self) -> &'static str {
        "LVQ"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize) -> (Vec<Vec<f64>>, Vec<u8>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let label = u8::from(i % 2 == 1);
            let cx = if label == 1 { 5.0 } else { -5.0 };
            x.push(vec![cx + (i % 7) as f64 * 0.1, (i % 5) as f64 * 0.1]);
            y.push(label);
        }
        (x, y)
    }

    #[test]
    fn classifies_blobs() {
        let (x, y) = blobs(80);
        let mut lvq = Lvq::new(LvqParams::default());
        lvq.fit(&x, &y);
        let acc = x
            .iter()
            .zip(&y)
            .filter(|(r, &l)| lvq.predict(r) == l)
            .count();
        assert!(acc as f64 / x.len() as f64 > 0.95, "acc = {acc}/80");
        assert_eq!(lvq.prototypes.len(), 16);
    }

    #[test]
    fn proba_reflects_side() {
        let (x, y) = blobs(80);
        let mut lvq = Lvq::new(LvqParams::default());
        lvq.fit(&x, &y);
        assert!(lvq.predict_proba(&[6.0, 0.0]) > 0.5);
        assert!(lvq.predict_proba(&[-6.0, 0.0]) < 0.5);
    }

    #[test]
    fn single_class_training_degenerates_gracefully() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 1, 1];
        let mut lvq = Lvq::new(LvqParams::default());
        lvq.fit(&x, &y);
        assert_eq!(lvq.predict(&[2.0]), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(40);
        let mut a = Lvq::new(LvqParams::default());
        let mut b = Lvq::new(LvqParams::default());
        a.fit(&x, &y);
        b.fit(&x, &y);
        for row in &x {
            assert_eq!(a.predict_proba(row), b.predict_proba(row));
        }
    }

    #[test]
    #[should_panic(expected = "need at least one prototype per class")]
    fn zero_prototypes_rejected() {
        Lvq::new(LvqParams {
            prototypes_per_class: 0,
            ..LvqParams::default()
        });
    }
}
