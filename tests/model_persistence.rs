//! Round-trips of the one persisted model, the gradient-boosted ensemble
//! the live detection service ships as an RKML blob
//! (`GradientBoosting::to_bytes` / `from_bytes`). The codec's contract is
//! pinned here over several ensemble shapes:
//!
//! * **round-trip fidelity** — a deserialized model produces bit-identical
//!   probabilities to the original on every probe row;
//! * **hostile bytes fail closed** — truncated prefixes, single-byte
//!   corruption anywhere in the blob, trailing garbage and empty input
//!   all return `Err`, never panic, never a silently different model.

use racket_ml::{Classifier, GradientBoosting, GradientBoostingParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small two-cluster binary dataset: class 1 sits a couple of units away
/// from class 0 in every dimension, with overlap so probabilities are not
/// degenerate 0/1 everywhere.
fn synthetic(n: usize, dims: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let label = (i % 2) as u8;
        let center = if label == 1 { 2.0 } else { 0.0 };
        x.push(
            (0..dims)
                .map(|_| center + 3.0 * (rng.gen::<f64>() - 0.5))
                .collect(),
        );
        y.push(label);
    }
    (x, y)
}

/// Ensembles of every shape the codec must carry, fitted on one dataset:
/// the service's default (row and column subsampling), an unsampled deep
/// fit, a single-split stump and a lone leaf.
fn fitted_models(x: &[Vec<f64>], y: &[u8]) -> Vec<(&'static str, GradientBoosting)> {
    let shapes = [
        ("default", GradientBoostingParams::default()),
        (
            "deep",
            GradientBoostingParams {
                n_rounds: 30,
                max_depth: 6,
                subsample: 1.0,
                colsample: 1.0,
                ..GradientBoostingParams::default()
            },
        ),
        (
            "stump",
            GradientBoostingParams {
                n_rounds: 1,
                max_depth: 1,
                ..GradientBoostingParams::default()
            },
        ),
        (
            "leaf",
            GradientBoostingParams {
                n_rounds: 3,
                max_depth: 0,
                ..GradientBoostingParams::default()
            },
        ),
    ];
    shapes
        .into_iter()
        .map(|(name, params)| {
            let mut m = GradientBoosting::new(params);
            m.fit(x, y);
            (name, m)
        })
        .collect()
}

#[test]
fn gbt_round_trips_with_identical_predictions() {
    let (x, y) = synthetic(80, 6, 4242);
    let (probe, _) = synthetic(40, 6, 999);
    for (name, model) in fitted_models(&x, &y) {
        let bytes = model.to_bytes();
        let restored = GradientBoosting::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{name}: clean bytes failed to decode: {e}"));
        assert_eq!(model.n_trees(), restored.n_trees(), "{name}");
        for (i, row) in probe.iter().enumerate() {
            let before = model.predict_proba(row);
            let after = restored.predict_proba(row);
            assert_eq!(
                before.to_bits(),
                after.to_bits(),
                "{name}: probe {i}: {before:?} != {after:?} after round-trip"
            );
        }
        // Re-serializing the restored model reproduces the same blob.
        assert_eq!(bytes, restored.to_bytes(), "{name}: bytes unstable");
    }
}

#[test]
fn truncated_bytes_return_err_never_panic() {
    let (x, y) = synthetic(40, 4, 7);
    for (name, model) in fitted_models(&x, &y) {
        let bytes = model.to_bytes();
        // Every strict prefix must fail closed — the checksum trailer is
        // checked before any payload parsing, so no prefix can decode.
        let step = (bytes.len() / 97).max(1);
        for len in (0..bytes.len()).step_by(step) {
            assert!(
                GradientBoosting::from_bytes(&bytes[..len]).is_err(),
                "{name}: {len}-byte prefix of {} decoded",
                bytes.len()
            );
        }
        assert!(GradientBoosting::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}

#[test]
fn corrupted_bytes_return_err_never_panic() {
    let (x, y) = synthetic(40, 4, 8);
    for (name, model) in fitted_models(&x, &y) {
        let bytes = model.to_bytes();
        // A single flipped byte anywhere breaks the FNV-1a trailer (or is
        // the trailer itself); sample positions to keep the suite fast.
        let step = (bytes.len() / 211).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0xa5;
            assert!(
                GradientBoosting::from_bytes(&bad).is_err(),
                "{name}: flip at {pos}/{} decoded",
                bytes.len()
            );
        }
        // Trailing garbage after a valid blob is rejected too.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(GradientBoosting::from_bytes(&trailing).is_err());
    }
    assert!(GradientBoosting::from_bytes(&[]).is_err());
    assert!(GradientBoosting::from_bytes(b"RKML").is_err());
    assert!(GradientBoosting::from_bytes(&[0u8; 256]).is_err());
}
