//! # racketstore — reproduction core
//!
//! The paper's contribution, end to end:
//!
//! 1. [`study`] — run the study: generate the participant fleet
//!    ([`racket_agents`]), drive every device's behaviour through its
//!    monitored window while the RacketStore collectors sample it
//!    ([`racket_collect`]), crawl reviews every 12 h, and assemble the
//!    measurement database (one [`racket_features::DeviceObservation`] per
//!    physical device, after Appendix A fingerprint coalescing).
//! 2. [`measurements`] — the §6 analyses: accounts, installed/reviewed
//!    apps, install-to-review delays, stopped apps, churn, daily app use,
//!    permissions and malware, each with the paper's statistical battery
//!    (KS + parametric and non-parametric ANOVA).
//! 3. [`labeling`] — the §7.2 train-and-validate selection: device
//!    holdouts, the suspicious-app rule (advertised ∧ co-installed on
//!    worker devices ∧ absent from regular devices) and the non-suspicious
//!    rule (regular-only ∧ high review volume).
//! 4. [`app_classifier`] — §7: detect apps installed for promotion
//!    (Table 1, Figure 13).
//! 5. [`device_classifier`] — §8: detect worker-controlled devices
//!    (Table 2, Figures 14 and 15), coupling in the app classifier through
//!    the *app suspiciousness* feature.
//! 6. [`scoring`] — §9: the live detection service. Fitted models are
//!    serialized through the `racket-ml` RKML codec and score devices
//!    from the feature vectors `racket-features` derives from the
//!    assembled observations; vectors built once can be classified again
//!    without being rebuilt.
//! 7. [`campaign`] — §7.3: coordinated-campaign (lockstep) detection.
//!    The study reports campaigns incrementally from ingest-time sketches;
//!    [`campaign::batch_report`] recomputes the identical report from the
//!    columnar install-event family, and [`campaign::evaluate`] scores
//!    either against the fleet's scheduled ground truth.

#![deny(missing_docs)]

pub mod app_classifier;
pub mod campaign;
pub mod device_classifier;
pub mod labeling;
pub mod measurements;
pub mod scoring;
pub mod study;
pub mod text;

pub use app_classifier::{AppClassifierReport, AppUsageDataset};
pub use campaign::{batch_report, evaluate, membership, CampaignEval};
pub use device_classifier::{DeviceClassifierReport, OrganicSplit};
pub use labeling::{AppLabels, LabelingConfig};
pub use measurements::MeasurementReport;
pub use scoring::{DetectionService, DeviceVerdict, PrimedScores};
pub use study::{Study, StudyConfig, StudyOutput};
