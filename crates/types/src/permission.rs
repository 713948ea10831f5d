//! The Android permission catalog used by the study.
//!
//! §6.3 ("App Permissions") compares, per app, the number of *dangerous*
//! permissions against the total number of requested permissions (Figure 11),
//! and §7.1 uses four permission-derived features: counts of normal and
//! dangerous permissions requested, and counts granted / denied by the user.
//!
//! We model the subset of the Android permission space that matters for
//! those analyses: a fixed catalog of well-known permissions, each either
//! *normal* (granted at install time) or *dangerous* (runtime-granted, like
//! the two RacketStore itself requests).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single Android permission.
///
/// The variant set covers the permissions most commonly requested by Play
/// Store apps plus those named in the paper (e.g. the install-time
/// permissions RacketStore itself uses, and `PACKAGE_USAGE_STATS` /
/// `GET_ACCOUNTS` which it asks the participant to grant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variants mirror the Android permission names
pub enum Permission {
    // -- normal (install-time) --
    Internet,
    AccessNetworkState,
    AccessWifiState,
    WakeLock,
    ReceiveBootCompleted,
    Vibrate,
    Flashlight,
    SetWallpaper,
    Nfc,
    Bluetooth,
    ForegroundService,
    RequestInstallPackages,
    GetTasks,
    // -- dangerous (runtime) --
    ReadContacts,
    WriteContacts,
    GetAccounts,
    AccessFineLocation,
    AccessCoarseLocation,
    RecordAudio,
    Camera,
    ReadExternalStorage,
    WriteExternalStorage,
    ReadPhoneState,
    CallPhone,
    ReadCallLog,
    WriteCallLog,
    SendSms,
    ReceiveSms,
    ReadSms,
    ReadCalendar,
    WriteCalendar,
    BodySensors,
    ProcessOutgoingCalls,
    // -- special / signature-level, treated as dangerous for Figure 11 --
    PackageUsageStats,
    SystemAlertWindow,
}

impl Permission {
    /// All catalog permissions, normal first then dangerous.
    pub const ALL: &'static [Permission] = &[
        Permission::Internet,
        Permission::AccessNetworkState,
        Permission::AccessWifiState,
        Permission::WakeLock,
        Permission::ReceiveBootCompleted,
        Permission::Vibrate,
        Permission::Flashlight,
        Permission::SetWallpaper,
        Permission::Nfc,
        Permission::Bluetooth,
        Permission::ForegroundService,
        Permission::RequestInstallPackages,
        Permission::GetTasks,
        Permission::ReadContacts,
        Permission::WriteContacts,
        Permission::GetAccounts,
        Permission::AccessFineLocation,
        Permission::AccessCoarseLocation,
        Permission::RecordAudio,
        Permission::Camera,
        Permission::ReadExternalStorage,
        Permission::WriteExternalStorage,
        Permission::ReadPhoneState,
        Permission::CallPhone,
        Permission::ReadCallLog,
        Permission::WriteCallLog,
        Permission::SendSms,
        Permission::ReceiveSms,
        Permission::ReadSms,
        Permission::ReadCalendar,
        Permission::WriteCalendar,
        Permission::BodySensors,
        Permission::ProcessOutgoingCalls,
        Permission::PackageUsageStats,
        Permission::SystemAlertWindow,
    ];

    /// The normal (install-time, auto-granted) permissions.
    pub fn normal() -> impl Iterator<Item = Permission> {
        Self::ALL.iter().copied().filter(|p| !p.is_dangerous())
    }

    /// The dangerous (runtime-granted) permissions.
    pub fn dangerous() -> impl Iterator<Item = Permission> {
        Self::ALL.iter().copied().filter(|p| p.is_dangerous())
    }

    /// Whether Android classifies the permission as *dangerous*.
    ///
    /// Dangerous permissions guard user-private data and require an explicit
    /// runtime grant; Figure 11 plots their count against the total.
    pub fn is_dangerous(self) -> bool {
        use Permission::*;
        !matches!(
            self,
            Internet
                | AccessNetworkState
                | AccessWifiState
                | WakeLock
                | ReceiveBootCompleted
                | Vibrate
                | Flashlight
                | SetWallpaper
                | Nfc
                | Bluetooth
                | ForegroundService
                | RequestInstallPackages
                | GetTasks
        )
    }

    /// The `android.permission.*` style name.
    pub(crate) fn android_name(self) -> &'static str {
        use Permission::*;
        match self {
            Internet => "android.permission.INTERNET",
            AccessNetworkState => "android.permission.ACCESS_NETWORK_STATE",
            AccessWifiState => "android.permission.ACCESS_WIFI_STATE",
            WakeLock => "android.permission.WAKE_LOCK",
            ReceiveBootCompleted => "android.permission.RECEIVE_BOOT_COMPLETED",
            Vibrate => "android.permission.VIBRATE",
            Flashlight => "android.permission.FLASHLIGHT",
            SetWallpaper => "android.permission.SET_WALLPAPER",
            Nfc => "android.permission.NFC",
            Bluetooth => "android.permission.BLUETOOTH",
            ForegroundService => "android.permission.FOREGROUND_SERVICE",
            RequestInstallPackages => "android.permission.REQUEST_INSTALL_PACKAGES",
            GetTasks => "android.permission.GET_TASKS",
            ReadContacts => "android.permission.READ_CONTACTS",
            WriteContacts => "android.permission.WRITE_CONTACTS",
            GetAccounts => "android.permission.GET_ACCOUNTS",
            AccessFineLocation => "android.permission.ACCESS_FINE_LOCATION",
            AccessCoarseLocation => "android.permission.ACCESS_COARSE_LOCATION",
            RecordAudio => "android.permission.RECORD_AUDIO",
            Camera => "android.permission.CAMERA",
            ReadExternalStorage => "android.permission.READ_EXTERNAL_STORAGE",
            WriteExternalStorage => "android.permission.WRITE_EXTERNAL_STORAGE",
            ReadPhoneState => "android.permission.READ_PHONE_STATE",
            CallPhone => "android.permission.CALL_PHONE",
            ReadCallLog => "android.permission.READ_CALL_LOG",
            WriteCallLog => "android.permission.WRITE_CALL_LOG",
            SendSms => "android.permission.SEND_SMS",
            ReceiveSms => "android.permission.RECEIVE_SMS",
            ReadSms => "android.permission.READ_SMS",
            ReadCalendar => "android.permission.READ_CALENDAR",
            WriteCalendar => "android.permission.WRITE_CALENDAR",
            BodySensors => "android.permission.BODY_SENSORS",
            ProcessOutgoingCalls => "android.permission.PROCESS_OUTGOING_CALLS",
            PackageUsageStats => "android.permission.PACKAGE_USAGE_STATS",
            SystemAlertWindow => "android.permission.SYSTEM_ALERT_WINDOW",
        }
    }
}

impl fmt::Display for Permission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.android_name())
    }
}

/// A set of catalog permissions: bit `p as u8` of one `u64`, so it is
/// `Copy`, eight bytes, and iterates in catalog order
/// ([`Permission::ALL`]), the only order it has. It is the requested,
/// granted or denied set of one installed app, and an app's manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PermissionSet(u64);

// Every catalog permission has a bit of the mask.
const _: () = assert!(Permission::ALL.len() <= 64);

impl PermissionSet {
    fn bit(p: Permission) -> u64 {
        1 << p as u8
    }

    /// Add `p`; whether it was absent.
    pub fn insert(&mut self, p: Permission) -> bool {
        let absent = !self.contains(p);
        self.0 |= Self::bit(p);
        absent
    }

    /// Remove `p`; whether it was present.
    pub fn remove(&mut self, p: Permission) -> bool {
        let present = self.contains(p);
        self.0 &= !Self::bit(p);
        present
    }

    /// Whether `p` is in the set.
    pub fn contains(self, p: Permission) -> bool {
        self.0 & Self::bit(p) != 0
    }

    /// Number of permissions in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The set's permissions in catalog order.
    pub fn iter(self) -> impl Iterator<Item = Permission> {
        Permission::ALL
            .iter()
            .copied()
            .filter(move |&p| self.contains(p))
    }

    /// The set's dangerous permissions.
    pub fn dangerous(self) -> Self {
        self.iter().filter(|p| p.is_dangerous()).collect()
    }
}

impl FromIterator<Permission> for PermissionSet {
    fn from_iter<I: IntoIterator<Item = Permission>>(iter: I) -> Self {
        let mut set = Self::default();
        for p in iter {
            set.insert(p);
        }
        set
    }
}

/// The permission footprint of one app: what it requests, and what the user
/// granted or denied.
///
/// `granted`/`denied` only apply to dangerous permissions; normal ones are
/// auto-granted at install time (like RacketStore's own five install-time
/// permissions, §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PermissionProfile {
    /// Permissions declared in the app manifest.
    pub requested: PermissionSet,
    /// Dangerous permissions the user granted at runtime.
    pub granted: PermissionSet,
    /// Dangerous permissions the user denied.
    pub denied: PermissionSet,
}

impl PermissionProfile {
    /// Build a profile with every dangerous permission granted — the policy
    /// five of the interviewed workers reported ("grant all requested").
    pub fn grant_all(requested: PermissionSet) -> Self {
        PermissionProfile {
            requested,
            granted: requested.dangerous(),
            denied: PermissionSet::default(),
        }
    }

    /// Number of requested permissions that are dangerous (Figure 11 y-axis).
    pub fn dangerous_count(&self) -> usize {
        self.requested.dangerous().len()
    }

    /// Number of requested permissions that are normal.
    pub fn normal_count(&self) -> usize {
        self.requested.len() - self.dangerous_count()
    }
}

#[cfg(test)]
impl PermissionProfile {
    /// Internal consistency: granted/denied sets are disjoint, dangerous,
    /// and subsets of the requested set.
    pub(crate) fn is_consistent(&self) -> bool {
        let dangerous_subset = |set: PermissionSet| {
            set.iter()
                .all(|p| p.is_dangerous() && self.requested.contains(p))
        };
        dangerous_subset(self.granted)
            && dangerous_subset(self.denied)
            && self.granted.iter().all(|p| !self.denied.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_partitions_cleanly() {
        let n = Permission::normal().count();
        let d = Permission::dangerous().count();
        assert_eq!(n + d, Permission::ALL.len());
        assert!(d > n, "catalog is dominated by dangerous permissions");
    }

    #[test]
    fn racketstore_install_time_permissions_are_normal() {
        // §3: GET_TASKS, RECEIVE_BOOT_COMPLETED, INTERNET, ACCESS_NETWORK_STATE,
        // WAKE_LOCK are auto-granted at install.
        for p in [
            Permission::GetTasks,
            Permission::ReceiveBootCompleted,
            Permission::Internet,
            Permission::AccessNetworkState,
            Permission::WakeLock,
        ] {
            assert!(!p.is_dangerous(), "{p} must be a normal permission");
        }
    }

    #[test]
    fn racketstore_runtime_permissions_are_dangerous() {
        // §3: PACKAGE_USAGE_STATS and GET_ACCOUNTS require explicit grants.
        assert!(Permission::PackageUsageStats.is_dangerous());
        assert!(Permission::GetAccounts.is_dangerous());
    }

    #[test]
    fn android_names_have_proper_prefix() {
        for p in Permission::ALL {
            assert!(p.android_name().starts_with("android.permission."));
        }
    }

    #[test]
    fn profile_counts() {
        let profile = PermissionProfile::grant_all(
            [
                Permission::Internet,
                Permission::Camera,
                Permission::ReadContacts,
            ]
            .into_iter()
            .collect(),
        );
        assert_eq!(profile.dangerous_count(), 2);
        assert_eq!(profile.normal_count(), 1);
        assert_eq!(profile.granted.len(), 2);
        assert!(profile.is_consistent());
    }

    #[test]
    fn permission_set_iterates_in_catalog_order_and_serializes_its_mask() {
        let set: PermissionSet = [
            Permission::ReadSms,
            Permission::Internet,
            Permission::Camera,
        ]
        .into_iter()
        .collect();
        let order: Vec<_> = set.iter().collect();
        assert_eq!(
            order,
            [
                Permission::Internet,
                Permission::Camera,
                Permission::ReadSms
            ]
        );
        let json = serde_json::to_string(&set).unwrap();
        assert_eq!(serde_json::from_str::<PermissionSet>(&json).unwrap(), set);
        assert_eq!(PermissionSet::default().iter().next(), None);
    }

    #[test]
    fn permission_set_holds_each_catalog_permission_once() {
        let mut set: PermissionSet = Permission::ALL.iter().copied().collect();
        assert_eq!(set.len(), Permission::ALL.len());
        assert!(set.iter().eq(Permission::ALL.iter().copied()));
        assert!(!set.insert(Permission::Camera), "already present");
        assert_eq!(set.len(), Permission::ALL.len());
        assert!(set.remove(Permission::Camera));
        assert!(!set.remove(Permission::Camera), "already absent");
        assert!(!set.contains(Permission::Camera));
        assert_eq!(set.len(), Permission::ALL.len() - 1);
        assert!(set.insert(Permission::Camera));
        assert_eq!(set.dangerous().len(), Permission::dangerous().count());
    }

    #[test]
    fn permission_sets_compare_by_membership_only() {
        let mut removed: PermissionSet = [Permission::Camera, Permission::ReadSms]
            .into_iter()
            .collect();
        removed.remove(Permission::ReadSms);
        assert_eq!(removed, [Permission::Camera].into_iter().collect());
        assert_ne!(removed, PermissionSet::default());
        removed.remove(Permission::Camera);
        assert!(removed.is_empty());
        assert_eq!(removed, PermissionSet::default());
    }

    #[test]
    fn inconsistent_profile_detected() {
        let mut profile = PermissionProfile::grant_all([Permission::Camera].into_iter().collect());
        profile.denied.insert(Permission::Camera); // granted AND denied
        assert!(!profile.is_consistent());

        let rogue = PermissionProfile {
            granted: [Permission::Camera].into_iter().collect(), // never requested
            ..PermissionProfile::default()
        };
        assert!(!rogue.is_consistent());
    }
}
