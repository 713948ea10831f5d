//! Feature extraction for the RacketStore detectors.
//!
//! Two feature families, straight from the paper:
//!
//! * [`app_features`] — the §7.1 *app-usage* features of one (app, device) instance,
//!   modelling the engagement of the device's user with that app: who
//!   reviewed it from the device and when (relative to install and to the
//!   monitoring window), how often it is on screen, how long it stays
//!   installed, its permission footprint and VirusTotal flags;
//! * [`device_features`] — the §8.1 *device-usage* features: installed/stopped app
//!   counts, churn, account composition, review totals, and the *app
//!   suspiciousness* ratio produced by feeding each installed app through
//!   the §7 app classifier.
//!
//! Both operate on a [`DeviceObservation`] — the joined per-device view the
//! study pipeline assembles from the collection server's install records,
//! the review crawler and the VirusTotal reports.
//!
//! The streaming analysis engine (ARCHITECTURE.md §7) adds single-pass
//! review-side aggregators ([`AppReviewStream`]) and a per-device
//! [`DeviceStreamState`] that emits both feature vectors
//! bitwise-equal to the batch extractors, with no post-hoc scan.

#![deny(missing_docs)]

mod app;
mod device;
mod observation;
mod online;
mod streaming;
mod text;

pub use app::{app_feature_names, app_features};
pub use device::{device_features, DEVICE_FEATURE_NAMES};
pub use observation::DeviceObservation;
pub use online::AppReviewStream;
pub use streaming::DeviceStreamState;
pub use text::{app_feature_names_with_text, text_features};
