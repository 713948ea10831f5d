//! Apps: catalog metadata and per-device installed state.
//!
//! The study observed 12,341 distinct apps across participant devices (§5),
//! collected each installed app's install time, last-update time, required
//! permissions and the MD5 hash of its apk (§3), and joined apps against
//! Play-Store reviews and VirusTotal verdicts.

use crate::permission::{PermissionProfile, PermissionSet};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an app (a Play-Store package) within the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AppId(pub u32);

impl AppId {
    /// The raw numeric value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app-{}", self.0)
    }
}

/// MD5 digest of an apk file, as collected by the fast snapshot module (§3).
///
/// Different builds (including *modded* third-party-store variants, §6.3) of
/// the same package have different hashes; the VirusTotal analysis of §6.4
/// keys on the hash, not the package.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ApkHash(pub [u8; 16]);

impl ApkHash {
    /// The digest bytes.
    pub const fn bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Render as lowercase hex, the form VirusTotal reports use.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            use std::fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }
}

impl fmt::Display for ApkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Coarse Play-Store category of an app.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variants are category names
pub enum AppCategory {
    Social,
    Communication,
    Game,
    Tools,
    Productivity,
    Finance,
    Shopping,
    Entertainment,
    Music,
    Photography,
    Travel,
    News,
    Education,
    Health,
    Antivirus,
    System,
}

/// Catalog-level metadata of an app (the store's view; per-device state
/// lives in [`InstalledApp`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppMetadata {
    /// The app's identity.
    pub id: AppId,
    /// Reverse-DNS package name.
    pub package: String,
    /// Store category.
    pub category: AppCategory,
    /// Permissions declared in the manifest.
    pub permissions: PermissionSet,
    /// Canonical apk hash of the current store build.
    pub apk_hash: ApkHash,
    /// Whether the app is distributed through Google Play at all; §6.3
    /// found participant devices with apps from third-party stores.
    pub on_play_store: bool,
    /// Whether this build is a *modded* re-signed variant (§6.3 footnote).
    pub modded: bool,
}

impl AppMetadata {
    /// Number of dangerous permissions in the manifest (Figure 11 y-axis).
    pub fn dangerous_permission_count(&self) -> usize {
        self.permissions.dangerous().len()
    }
}

/// Per-device state of one installed app, the unit the fast snapshot
/// collector reports deltas about (§3). Plain data with its permission
/// sets as masks, so it is `Copy` and 64 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstalledApp {
    /// Which app is installed.
    pub app: AppId,
    /// Android's *last* install time — the API retains only the most recent
    /// install, which is why §6.3 sees negative install-to-review deltas for
    /// re-installed apps.
    pub install_time: SimTime,
    /// Last package update time.
    pub last_update: SimTime,
    /// Permission request/grant/deny state on this device.
    pub permissions: PermissionProfile,
    /// Hash of the installed apk build.
    pub apk_hash: ApkHash,
    /// Whether the app is in the Android *stopped* state: freshly installed
    /// and never opened, or force-stopped by the user (§3, §6.3).
    pub stopped: bool,
    /// Whether the package shipped with the device image.
    pub preinstalled: bool,
}

impl InstalledApp {
    /// A freshly installed app: stopped until first opened, permissions per
    /// the supplied profile, last update equal to the install time.
    pub fn fresh(
        app: AppId,
        install_time: SimTime,
        permissions: PermissionProfile,
        apk_hash: ApkHash,
    ) -> Self {
        InstalledApp {
            app,
            install_time,
            last_update: install_time,
            permissions,
            apk_hash,
            stopped: true,
            preinstalled: false,
        }
    }
}

#[cfg(test)]
impl AppCategory {
    /// Whether apps in this category ship with the device image.
    pub(crate) fn is_preinstalled(self) -> bool {
        matches!(self, AppCategory::System)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permission::Permission;

    fn meta(perms: PermissionSet) -> AppMetadata {
        AppMetadata {
            id: AppId(1),
            package: "com.example.app".into(),
            category: AppCategory::Tools,
            permissions: perms,
            apk_hash: ApkHash([0xab; 16]),
            on_play_store: true,
            modded: false,
        }
    }

    #[test]
    fn apk_hash_hex() {
        let h = ApkHash([
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ]);
        assert_eq!(h.to_hex(), "00112233445566778899aabbccddeeff");
        assert_eq!(h.to_string(), h.to_hex());
    }

    #[test]
    fn dangerous_permission_count() {
        let m = meta(
            [
                Permission::Internet,
                Permission::Camera,
                Permission::ReadSms,
            ]
            .into_iter()
            .collect(),
        );
        assert_eq!(m.dangerous_permission_count(), 2);
    }

    #[test]
    fn fresh_install_is_stopped() {
        let app = InstalledApp::fresh(
            AppId(3),
            SimTime::from_days(1),
            PermissionProfile::default(),
            ApkHash([1; 16]),
        );
        assert!(
            app.stopped,
            "Android 3.1+ places fresh installs in stopped state"
        );
        assert_eq!(app.install_time, app.last_update);
        assert!(!app.preinstalled);
    }

    #[test]
    fn installed_app_is_at_most_64_bytes() {
        // Three permission masks of eight bytes each; every app-table row,
        // decoded snapshot slot and device app entry holds one.
        assert!(
            size_of::<InstalledApp>() <= 64,
            "{}",
            size_of::<InstalledApp>()
        );
    }

    #[test]
    fn preinstalled_category() {
        assert!(AppCategory::System.is_preinstalled());
        assert!(!AppCategory::Game.is_preinstalled());
    }
}
