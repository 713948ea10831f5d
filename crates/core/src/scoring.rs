//! §9: the live detection service.
//!
//! The paper closes by arguing that RacketStore-style detection could run
//! *inside* the store, flagging worker devices as their snapshots arrive
//! rather than in an offline batch job. This module is that deployment
//! surface:
//!
//! * [`DetectionService`] bundles the fitted §7 app model and §8 device
//!   model — two gradient-boosted ensembles — behind the `racket-ml` RKML
//!   codec, so a trained service can be serialized, shipped, and restored
//!   with byte-exact behaviour ([`DetectionService::to_bytes`] /
//!   [`DetectionService::from_bytes`]).
//! * [`DetectionService::prime`] builds every device's vectors once: each
//!   observed (device, app) pair's [`app_features`] row, one app-model
//!   pass over them for the suspiciousness ratios (`DeviceDataset::build`
//!   computes its column with the same helper), then each device's
//!   [`device_features`] row. It caches the ratios and device vectors in
//!   [`PrimedScores`].
//! * [`DetectionService::score_streaming`] classifies every device with a
//!   single device-model pass over the cached vectors.
//! * [`DetectionService::score_batch`] builds the vectors and classifies
//!   them in one call.
//!
//! All three run the same private builder and classifier, so the two
//! scoring paths agree **bitwise** by construction; `tests/matrix.rs`
//! still checks it on a test-scale study, and each path keeps its own
//! span (`analyze/stream_prime`, `analyze/score_streaming`,
//! `analyze/score_batch`).
//!
//! Vectors are packed into contiguous [`FlatMatrix`] rows and classified
//! by one [`GradientBoosting::predict_proba_batch`] pass per matrix,
//! which is bitwise-equal per row to calling `predict_proba` (the
//! row→column equivalence contract, ARCHITECTURE.md §9) — `tests/matrix.rs`
//! holds the verdicts to that.
//!
//! [`app_features`]: racket_features::app_features

use crate::app_classifier::{suspiciousness, AppClassifier};
use crate::device_classifier::DEDICATED_SUSPICIOUSNESS;
use crate::study::StudyOutput;
use racket_columnar::FlatMatrix;
use racket_features::device_features;
use racket_ml::{Classifier, GradientBoosting, GradientBoostingParams, PersistError};
use racket_types::metrics::keys;

/// The deployable pair of fitted models.
#[derive(Debug)]
pub struct DetectionService {
    app_model: GradientBoosting,
    device_model: GradientBoosting,
}

/// Cached per-device scoring state built by [`DetectionService::prime`].
#[derive(Debug, Clone)]
pub struct PrimedScores {
    /// App-suspiciousness ratio per observation (Figure 15 x-axis).
    pub suspiciousness: Vec<f64>,
    /// Device feature vector per observation — ready for a single
    /// device-model pass.
    pub device_vectors: Vec<Vec<f64>>,
}

/// One device's classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceVerdict {
    /// Fraction of observed apps the app model flags as promotion-used.
    pub suspiciousness: f64,
    /// Device-model probability that the device is worker-controlled.
    pub proba: f64,
    /// `proba >= 0.5`.
    pub is_worker: bool,
}

impl DeviceVerdict {
    /// Whether the device reads as promotion-dedicated (Figure 15 cut).
    pub fn is_dedicated(&self) -> bool {
        self.suspiciousness >= DEDICATED_SUSPICIOUSNESS
    }
}

impl DetectionService {
    /// Train the service's device model on a labeled device dataset and
    /// adopt the app classifier that produced its suspiciousness column.
    pub fn train(
        app_classifier: &AppClassifier,
        device_dataset: &crate::device_classifier::DeviceDataset,
    ) -> DetectionService {
        let mut device = GradientBoosting::new(GradientBoostingParams::default());
        device.fit(&device_dataset.data.x, &device_dataset.data.y);
        DetectionService {
            app_model: app_classifier.model().clone(),
            device_model: device,
        }
    }

    /// Serialize both models: `u64` little-endian app-blob length, the
    /// app model's RKML bytes, then the same for the device model. Each
    /// blob carries its own magic/version/checksum envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let app = self.app_model.to_bytes();
        let dev = self.device_model.to_bytes();
        let mut out = Vec::with_capacity(16 + app.len() + dev.len());
        out.extend_from_slice(&(app.len() as u64).to_le_bytes());
        out.extend_from_slice(&app);
        out.extend_from_slice(&(dev.len() as u64).to_le_bytes());
        out.extend_from_slice(&dev);
        out
    }

    /// Restore a service serialized by [`DetectionService::to_bytes`].
    /// Corrupted or truncated input returns `Err`, never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<DetectionService, PersistError> {
        fn split_blob(bytes: &[u8]) -> Result<(&[u8], &[u8]), PersistError> {
            let (len, rest) = bytes
                .split_first_chunk::<8>()
                .ok_or(PersistError::Truncated)?;
            usize::try_from(u64::from_le_bytes(*len))
                .ok()
                .and_then(|len| rest.split_at_checked(len))
                .ok_or(PersistError::Truncated)
        }
        let (app, rest) = split_blob(bytes)?;
        let (dev, tail) = split_blob(rest)?;
        if !tail.is_empty() {
            return Err(PersistError::Malformed("trailing bytes after device model"));
        }
        Ok(DetectionService {
            app_model: GradientBoosting::from_bytes(app)?,
            device_model: GradientBoosting::from_bytes(dev)?,
        })
    }

    /// Build every device's vectors once and cache them: one app-model
    /// pass over all (device, app) rows for the suspiciousness ratios,
    /// plus each device's feature vector. The per-query work left for
    /// [`DetectionService::score_streaming`] is a single device-model pass.
    pub fn prime(&self, out: &StudyOutput) -> PrimedScores {
        let _span = out.obs.span(keys::SPAN_STREAM_PRIME);
        self.vectors(out)
    }

    /// Classify every device from primed state: one device-model pass over
    /// the cached vectors, no feature recomputation.
    pub fn score_streaming(&self, out: &StudyOutput, primed: &PrimedScores) -> Vec<DeviceVerdict> {
        let _span = out.obs.span(keys::SPAN_SCORE_STREAM);
        self.classify(primed)
    }

    /// Build every device's vectors and classify them in one call.
    /// Bitwise-equal verdicts to [`DetectionService::score_streaming`]
    /// over [`DetectionService::prime`]: both run the same builder and
    /// classifier.
    pub fn score_batch(&self, out: &StudyOutput) -> Vec<DeviceVerdict> {
        let _span = out.obs.span(keys::SPAN_SCORE_BATCH);
        self.classify(&self.vectors(out))
    }

    /// Each device's suspiciousness ratio from one app-model pass over
    /// every (device, app) vector, then each device's vector.
    fn vectors(&self, out: &StudyOutput) -> PrimedScores {
        let suspiciousness = suspiciousness(&self.app_model, &out.observations);
        let device_vectors = out
            .observations
            .iter()
            .zip(&suspiciousness)
            .map(|(obs, &susp)| device_features(obs, susp))
            .collect();
        PrimedScores {
            suspiciousness,
            device_vectors,
        }
    }

    /// One device-model pass over the device vectors.
    fn classify(&self, primed: &PrimedScores) -> Vec<DeviceVerdict> {
        let vectors = FlatMatrix::from_rows(&primed.device_vectors);
        self.device_model
            .predict_proba_batch(&vectors)
            .into_iter()
            .zip(&primed.suspiciousness)
            .map(|(proba, &suspiciousness)| DeviceVerdict {
                suspiciousness,
                proba,
                is_worker: proba >= 0.5,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app_classifier::{AppClassifier, AppUsageDataset};
    use crate::device_classifier::DeviceDataset;
    use crate::labeling::{label_apps, LabelingConfig};
    use crate::study::test_output;
    use std::sync::OnceLock;

    fn service() -> (&'static StudyOutput, &'static DetectionService) {
        static S: OnceLock<DetectionService> = OnceLock::new();
        let out = test_output();
        let svc = S.get_or_init(|| {
            let labels = label_apps(out, &LabelingConfig::test_scale());
            let app_ds = AppUsageDataset::build(out, &labels);
            let clf = AppClassifier::train(&app_ds);
            let dev_ds = DeviceDataset::build(out, &clf, 2, None, 5);
            DetectionService::train(&clf, &dev_ds)
        });
        (out, svc)
    }

    #[test]
    fn streaming_and_batch_verdicts_are_bitwise_equal() {
        let (out, svc) = service();
        let primed = svc.prime(out);
        let streaming = svc.score_streaming(out, &primed);
        let batch = svc.score_batch(out);
        assert_eq!(streaming.len(), batch.len());
        assert_eq!(streaming.len(), out.observations.len());
        for (i, (s, b)) in streaming.iter().zip(&batch).enumerate() {
            assert_eq!(
                s.suspiciousness.to_bits(),
                b.suspiciousness.to_bits(),
                "device {i} suspiciousness"
            );
            assert_eq!(s.proba.to_bits(), b.proba.to_bits(), "device {i} proba");
            assert_eq!(s.is_worker, b.is_worker, "device {i} verdict");
        }
    }

    #[test]
    fn verdicts_separate_cohorts() {
        let (out, svc) = service();
        let primed = svc.prime(out);
        let verdicts = svc.score_streaming(out, &primed);
        let mean = |cohort| {
            let vals: Vec<f64> = verdicts
                .iter()
                .zip(&out.truth)
                .filter(|(_, t)| t.persona.cohort() == cohort)
                .map(|(v, _)| v.proba)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        let worker = mean(racket_types::Cohort::Worker);
        let regular = mean(racket_types::Cohort::Regular);
        assert!(
            worker > regular + 0.2,
            "worker proba {worker:.3} vs regular {regular:.3}"
        );
    }

    #[test]
    fn service_round_trips_through_bytes() {
        let (out, svc) = service();
        let bytes = svc.to_bytes();
        let restored = DetectionService::from_bytes(&bytes).expect("round-trip");
        let primed = svc.prime(out);
        let before = svc.score_streaming(out, &primed);
        let primed_after = restored.prime(out);
        let after = restored.score_streaming(out, &primed_after);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.proba.to_bits(), b.proba.to_bits());
            assert_eq!(a.suspiciousness.to_bits(), b.suspiciousness.to_bits());
        }
    }

    #[test]
    fn corrupted_service_bytes_return_err() {
        let (_, svc) = service();
        let bytes = svc.to_bytes();
        assert!(DetectionService::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(DetectionService::from_bytes(&bytes[..4]).is_err());
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xff;
        assert!(DetectionService::from_bytes(&flipped).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(DetectionService::from_bytes(&trailing).is_err());
    }
}
