//! Simulated Android device for the RacketStore reproduction.
//!
//! [`Device`] holds the state §3's collectors sample plus the package
//! stamp: a package manager (installed apps, install/update times,
//! permission grants, apk hashes, the Android *stopped* state), an account
//! registry (`GET_ACCOUNTS`), the foreground app, screen/battery/save-mode
//! state, the `ANDROID_ID` (absent on some models, Appendix A) and the log
//! of reviews posted from the device. The fleet simulator drives it; the
//! snapshot collectors only read it, and skip the install-delta scan while
//! [`Device::pkg_stamp`] stands still.

#![deny(missing_docs)]

mod device;

pub use device::{Device, DevicePermissions};
