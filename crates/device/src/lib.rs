//! Simulated Android device for the RacketStore reproduction.
//!
//! [`Device`] is the ground-truth state machine the fleet simulator drives
//! and the collection app samples: a package manager (installed apps,
//! install/update times, permission grants, apk hashes, the Android
//! *stopped* state), an account registry, screen/battery/save-mode state,
//! the foreground app, and a usage-stats service equivalent to what
//! `PACKAGE_USAGE_STATS` exposes.
//!
//! The device answers exactly the queries the RacketStore app's collectors
//! issue (§3 of the paper): the installed-app list with per-app metadata,
//! the registered accounts (`GET_ACCOUNTS`), the list of stopped apps, the
//! foreground app, and screen/battery/save-mode status.

#![deny(missing_docs)]

mod model;
mod usage;

mod device;

pub use device::{Device, DevicePermissions};
pub use model::{DeviceModel, Manufacturer};
pub use usage::{AppUsage, UsageStats};
