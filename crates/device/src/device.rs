//! The device state machine.

use racket_types::{
    AccountService, AndroidId, ApkHash, AppId, GoogleId, InstalledApp, PermissionProfile, Rating,
    RegisteredAccount, ReviewEvent, SimTime,
};
use std::collections::BTreeMap;

/// Which runtime permissions the participant granted to the RacketStore
/// app on this device (§3: participants may grant any subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevicePermissions {
    /// `PACKAGE_USAGE_STATS` — gates foreground-app and usage collection.
    pub usage_stats: bool,
    /// `GET_ACCOUNTS` — gates registered-account collection.
    pub get_accounts: bool,
}

impl Default for DevicePermissions {
    fn default() -> Self {
        DevicePermissions {
            usage_stats: true,
            get_accounts: true,
        }
    }
}

/// A simulated Android device.
///
/// All mutation goes through event methods (`install_app`, `open_app`, …);
/// all the queries the RacketStore collectors need are read-only.
#[derive(Debug, Clone)]
pub struct Device {
    android_id: Option<AndroidId>,
    permissions: DevicePermissions,
    installed: BTreeMap<AppId, InstalledApp>,
    accounts: Vec<RegisteredAccount>,
    screen_on: bool,
    battery_pct: u8,
    save_mode: bool,
    foreground: Option<AppId>,
    /// Append-only log of reviews posted from this device, with their
    /// text — what review-enabled slow snapshots report incrementally.
    review_log: Vec<ReviewEvent>,
    /// Package-manager generation stamp: bumped by every mutation of the
    /// installed-app map (`install_app`, `preinstall_app`,
    /// `uninstall_app`). Snapshot collectors compare it against the stamp
    /// of their previous sample to skip the install-delta scan entirely on
    /// the (overwhelmingly common) ticks where no package changed.
    pkg_stamp: u64,
}

impl Device {
    /// Create a device. `android_id` is what its slow snapshots report:
    /// `None` on the models that fail to report one (Appendix A).
    pub fn new(android_id: Option<AndroidId>) -> Self {
        Device {
            android_id,
            permissions: DevicePermissions::default(),
            installed: BTreeMap::new(),
            accounts: Vec::new(),
            screen_on: false,
            battery_pct: 100,
            save_mode: false,
            foreground: None,
            review_log: Vec::new(),
            pkg_stamp: 0,
        }
    }

    // ---- identity & configuration -------------------------------------

    /// `ANDROID_ID` as the slow snapshot reports it (`None` when the model
    /// is incompatible).
    pub fn android_id(&self) -> Option<AndroidId> {
        self.android_id
    }

    /// Permissions granted to the collection app.
    pub fn permissions(&self) -> DevicePermissions {
        self.permissions
    }

    /// Set the permissions granted to the collection app.
    pub fn set_permissions(&mut self, permissions: DevicePermissions) {
        self.permissions = permissions;
    }

    // ---- package manager -----------------------------------------------

    /// Install (or re-install) an app. Re-installation replaces the entry,
    /// which is exactly the Android behaviour that loses the original
    /// install time (§6.3's negative install-to-review deltas).
    pub fn install_app(
        &mut self,
        app: AppId,
        time: SimTime,
        permissions: PermissionProfile,
        apk_hash: ApkHash,
    ) {
        let info = InstalledApp::fresh(app, time, permissions, apk_hash);
        self.installed.insert(app, info);
        self.pkg_stamp += 1;
        // A (re-)install kills any running instance: the fresh package is
        // in the stopped state until its next launch, so it cannot stay in
        // the foreground.
        if self.foreground == Some(app) {
            self.foreground = None;
        }
    }

    /// Install a preinstalled (system image) app at the epoch.
    pub fn preinstall_app(&mut self, app: AppId, permissions: PermissionProfile, hash: ApkHash) {
        let mut info = InstalledApp::fresh(app, SimTime::EPOCH, permissions, hash);
        info.preinstalled = true;
        info.stopped = false; // system apps run out of the box
        self.installed.insert(app, info);
        self.pkg_stamp += 1;
    }

    /// Uninstall an app; returns whether it was installed.
    pub fn uninstall_app(&mut self, app: AppId) -> bool {
        if self.installed.remove(&app).is_none() {
            return false;
        }
        self.pkg_stamp += 1;
        if self.foreground == Some(app) {
            self.foreground = None;
        }
        true
    }

    /// Bring an app to the foreground. Clears its stopped state (first
    /// launch un-stops a fresh install). Returns `false` if the app is not
    /// installed.
    pub fn open_app(&mut self, app: AppId) -> bool {
        let Some(info) = self.installed.get_mut(&app) else {
            return false;
        };
        info.stopped = false;
        self.foreground = Some(app);
        self.screen_on = true;
        true
    }

    /// Force-stop an app (§6.3: workers stop misbehaving promoted apps
    /// rather than uninstalling them, to preserve retention installs).
    pub fn stop_app(&mut self, app: AppId) -> bool {
        let Some(info) = self.installed.get_mut(&app) else {
            return false;
        };
        info.stopped = true;
        if self.foreground == Some(app) {
            self.foreground = None;
        }
        true
    }

    // ---- accounts --------------------------------------------------------

    /// Register an account on the device.
    pub fn register_account(&mut self, account: RegisteredAccount) {
        self.accounts.push(account);
    }

    /// Record a review posted from this device (the review itself also
    /// lands in the Play-store simulator). The posting Google identity and
    /// the review text go to the device's review log, which review-enabled
    /// slow snapshots drain incrementally.
    pub fn record_review(
        &mut self,
        app: AppId,
        google_id: GoogleId,
        rating: Rating,
        time: SimTime,
        text: &str,
    ) {
        self.review_log.push(ReviewEvent {
            app,
            reviewer: google_id,
            time,
            rating,
            text: text.to_string(),
        });
    }

    // ---- screen & power ---------------------------------------------------

    /// Turn the screen on or off.
    pub fn set_screen(&mut self, on: bool) {
        self.screen_on = on;
        if !on {
            self.foreground = None;
        }
    }

    // ---- queries (what the collectors read) -------------------------------

    /// The app currently in the foreground.
    pub fn foreground_app(&self) -> Option<AppId> {
        self.foreground
    }

    /// Whether the screen is on.
    pub fn screen_on(&self) -> bool {
        self.screen_on
    }

    /// Battery level, 0–100.
    pub fn battery_pct(&self) -> u8 {
        self.battery_pct
    }

    /// Whether battery save mode is active.
    pub fn save_mode(&self) -> bool {
        self.save_mode
    }

    /// All installed apps with their metadata.
    pub fn installed_apps(&self) -> impl Iterator<Item = &InstalledApp> {
        self.installed.values()
    }

    /// Metadata of one installed app.
    pub fn installed_app(&self, app: AppId) -> Option<&InstalledApp> {
        self.installed.get(&app)
    }

    /// Whether `app` is currently installed.
    pub fn is_installed(&self, app: AppId) -> bool {
        self.installed.contains_key(&app)
    }

    /// Number of installed apps.
    pub fn installed_count(&self) -> usize {
        self.installed.len()
    }

    /// Write the apps currently in the stopped state (the slow snapshot's
    /// `stopped_apps` list) into a caller-owned buffer, cleared first — the
    /// allocation-free path the pooled snapshot collectors sample through.
    /// Order is ascending [`AppId`].
    pub fn stopped_apps_into(&self, out: &mut Vec<AppId>) {
        out.clear();
        out.extend(self.installed.values().filter(|a| a.stopped).map(|a| a.app));
    }

    /// The package-manager generation stamp: changes iff the installed-app
    /// map changed (install, preinstall or uninstall) since it was last
    /// read. Monotonically increasing for the lifetime of the device.
    pub fn pkg_stamp(&self) -> u64 {
        self.pkg_stamp
    }

    /// Registered accounts (the slow snapshot's `accounts` list, gated on
    /// `GET_ACCOUNTS`).
    pub fn accounts(&self) -> &[RegisteredAccount] {
        &self.accounts
    }

    /// The Gmail accounts registered on the device.
    pub fn gmail_accounts(&self) -> impl Iterator<Item = &RegisteredAccount> {
        self.accounts.iter().filter(|a| a.service.is_gmail())
    }

    /// Number of distinct account services registered.
    pub fn account_service_count(&self) -> usize {
        let mut services: Vec<AccountService> = self.accounts.iter().map(|a| a.service).collect();
        services.sort();
        services.dedup();
        services.len()
    }

    /// Append-only log of reviews posted from this device (the slow
    /// snapshot collector's review source when review collection is on).
    pub fn review_log(&self) -> &[ReviewEvent] {
        &self.review_log
    }
}

#[cfg(test)]
impl Device {
    /// Set the battery level (0–100) and save-mode flag.
    pub(crate) fn set_power(&mut self, battery_pct: u8, save_mode: bool) {
        self.battery_pct = battery_pct.min(100);
        self.save_mode = save_mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{AccountId, GoogleId, Permission};

    fn device() -> Device {
        Device::new(Some(AndroidId(42)))
    }

    fn install(d: &mut Device, app: u32, day: u64) {
        d.install_app(
            AppId(app),
            SimTime::from_days(day),
            PermissionProfile::grant_all(
                [Permission::Internet, Permission::Camera]
                    .into_iter()
                    .collect(),
            ),
            ApkHash([app as u8; 16]),
        );
    }

    fn stopped(d: &Device) -> Vec<AppId> {
        let mut out = Vec::new();
        d.stopped_apps_into(&mut out);
        out
    }

    #[test]
    fn fresh_install_is_stopped_until_opened() {
        let mut d = device();
        install(&mut d, 1, 0);
        assert_eq!(stopped(&d), vec![AppId(1)]);
        assert!(d.open_app(AppId(1)));
        assert!(stopped(&d).is_empty());
        assert_eq!(d.foreground_app(), Some(AppId(1)));
        assert!(d.screen_on());
    }

    #[test]
    fn reinstall_updates_install_time() {
        let mut d = device();
        install(&mut d, 1, 0);
        install(&mut d, 1, 10);
        let info = d.installed_app(AppId(1)).unwrap();
        assert_eq!(info.install_time, SimTime::from_days(10));
        assert_eq!(d.installed_count(), 1);
    }

    #[test]
    fn uninstall_forgets_usage_and_foreground() {
        let mut d = device();
        install(&mut d, 1, 0);
        d.open_app(AppId(1));
        assert!(d.uninstall_app(AppId(1)));
        assert!(!d.is_installed(AppId(1)));
        assert_eq!(d.foreground_app(), None);
        assert!(!d.uninstall_app(AppId(1)), "double uninstall");
    }

    #[test]
    fn stop_app_sets_stopped_state() {
        let mut d = device();
        install(&mut d, 1, 0);
        d.open_app(AppId(1));
        assert!(d.stop_app(AppId(1)));
        assert_eq!(stopped(&d), vec![AppId(1)]);
        assert_eq!(d.foreground_app(), None);
        assert!(!d.stop_app(AppId(9)), "unknown app");
    }

    #[test]
    fn preinstalled_apps_are_running_and_counted() {
        let mut d = device();
        d.preinstall_app(AppId(100), PermissionProfile::default(), ApkHash([0; 16]));
        install(&mut d, 1, 0);
        assert_eq!(d.installed_count(), 2);
        assert_eq!(d.installed_apps().filter(|a| a.preinstalled).count(), 1);
        assert_eq!(stopped(&d), vec![AppId(1)], "system app is not stopped");
    }

    #[test]
    fn account_registry() {
        let mut d = device();
        d.register_account(RegisteredAccount::gmail(AccountId(1), GoogleId(10)));
        d.register_account(RegisteredAccount::gmail(AccountId(2), GoogleId(11)));
        d.register_account(RegisteredAccount::non_gmail(
            AccountId(3),
            AccountService::WhatsApp,
        ));
        assert_eq!(d.accounts().len(), 3);
        assert_eq!(d.gmail_accounts().count(), 2);
        assert_eq!(d.account_service_count(), 2);
    }

    #[test]
    fn screen_off_clears_foreground() {
        let mut d = device();
        install(&mut d, 1, 0);
        d.open_app(AppId(1));
        d.set_screen(false);
        assert_eq!(d.foreground_app(), None);
    }

    #[test]
    fn power_state_clamped() {
        let mut d = device();
        d.set_power(250, true);
        assert_eq!(d.battery_pct(), 100);
        assert!(d.save_mode());
    }

    #[test]
    fn opening_uninstalled_app_fails() {
        let mut d = device();
        assert!(!d.open_app(AppId(5)));
    }

    #[test]
    fn android_id_absent_on_incompatible_model() {
        assert_eq!(Device::new(None).android_id(), None);
        assert_eq!(device().android_id(), Some(AndroidId(42)));
    }

    #[test]
    fn pkg_stamp_tracks_package_mutations_only() {
        let mut d = device();
        let s0 = d.pkg_stamp();
        install(&mut d, 1, 0);
        let s1 = d.pkg_stamp();
        assert_ne!(s0, s1, "install bumps the stamp");
        // Non-package mutations leave the stamp alone.
        d.open_app(AppId(1));
        d.stop_app(AppId(1));
        d.set_screen(true);
        d.set_power(50, false);
        assert_eq!(d.pkg_stamp(), s1);
        // Re-install (changed install time) bumps: the collector must
        // re-scan to report the fresh Installed delta.
        install(&mut d, 1, 5);
        let s2 = d.pkg_stamp();
        assert_ne!(s1, s2);
        assert!(d.uninstall_app(AppId(1)));
        let s3 = d.pkg_stamp();
        assert_ne!(s2, s3);
        // Uninstalling an absent app is a no-op on the stamp.
        assert!(!d.uninstall_app(AppId(1)));
        assert_eq!(d.pkg_stamp(), s3);
        d.preinstall_app(AppId(9), PermissionProfile::default(), ApkHash([0; 16]));
        assert_ne!(d.pkg_stamp(), s3);
    }

    #[test]
    fn stopped_apps_into_matches_allocating_query() {
        let mut d = device();
        install(&mut d, 3, 0);
        install(&mut d, 1, 0);
        install(&mut d, 2, 0);
        d.open_app(AppId(2));
        let mut buf = vec![AppId(99)]; // stale contents must be cleared
        d.stopped_apps_into(&mut buf);
        let filtered: Vec<AppId> = d
            .installed_apps()
            .filter(|a| a.stopped)
            .map(|a| a.app)
            .collect();
        assert_eq!(buf, filtered);
        assert_eq!(buf, vec![AppId(1), AppId(3)]);
    }

    #[test]
    fn review_log_keeps_reviewer_and_text() {
        let mut d = device();
        install(&mut d, 1, 0);
        d.record_review(
            AppId(1),
            GoogleId(10),
            Rating::FIVE,
            SimTime::from_days(2),
            "great app",
        );
        assert_eq!(d.review_log().len(), 1);
        assert_eq!(d.review_log()[0].reviewer, GoogleId(10));
        assert_eq!(d.review_log()[0].time, SimTime::from_days(2));
        assert_eq!(d.review_log()[0].text, "great app");
    }
}
