//! §8.1 device-usage features.
//!
//! One instance per device. Feature (2), *app suspiciousness*, couples the
//! two classifiers: it is the fraction of the device's installed apps the
//! §7 app classifier flags as promotion-used, so the caller passes it in
//! (the feature crate cannot train classifiers without a dependency
//! cycle). The remaining features come straight off the observation.

use crate::observation::DeviceObservation;
use racket_types::AccountService;

/// Column names of the device-usage feature vector, aligned with
/// [`device_features`]. These names appear in the Figure 14 importance
/// plot.
pub const DEVICE_FEATURE_NAMES: [&str; 14] = [
    "n_preinstalled_apps",      // (1)
    "n_user_installed_apps",    // (1)
    "app_suspiciousness",       // (2) fraction flagged by the §7 classifier
    "n_stopped_apps",           // (3)
    "avg_daily_installs",       // (4)
    "avg_daily_uninstalls",     // (4)
    "n_gmail_accounts",         // (5)
    "n_non_gmail_accounts",     // (5)
    "n_account_types",          // (5)
    "n_installed_and_reviewed", // (6)
    "n_total_apps_reviewed",    // (7)
    "avg_reviews_per_account",  // (7) reviews / gmail accounts
    "snapshots_per_day",        // engagement context (Figure 4)
    "active_days",              // engagement context
];

/// Extract the §8.1 feature vector for one device.
///
/// `app_suspiciousness` is the fraction of installed apps flagged by the
/// app classifier (0.0 if the caller has no classifier, e.g. in ablations).
pub fn device_features(obs: &DeviceObservation, app_suspiciousness: f64) -> Vec<f64> {
    let record = &obs.record;
    let installed: Vec<_> = record.apps.installed().collect();
    let n_pre = obs.n_preinstalled();
    let n_user = installed.len() - n_pre;

    let active_days = record.active_days().max(1) as f64;
    let daily_installs = record.install_events.len() as f64 / active_days;
    let daily_uninstalls = record.uninstall_events.len() as f64 / active_days;

    let n_gmail = record
        .accounts
        .iter()
        .filter(|a| a.service.is_gmail())
        .count();
    let n_non_gmail = record.accounts.len() - n_gmail;
    let mut services: Vec<AccountService> = record.accounts.iter().map(|a| a.service).collect();
    services.sort();
    services.dedup();

    let total_reviews = obs.total_reviews() as f64;
    let reviews_per_account = if n_gmail > 0 {
        total_reviews / n_gmail as f64
    } else {
        0.0
    };

    vec![
        n_pre as f64,
        n_user as f64,
        app_suspiciousness,
        record.stopped_apps.len() as f64,
        daily_installs,
        daily_uninstalls,
        n_gmail as f64,
        n_non_gmail as f64,
        services.len() as f64,
        obs.installed_and_reviewed() as f64,
        obs.total_apps_reviewed() as f64,
        reviews_per_account,
        record.avg_snapshots_per_day(),
        record.active_days() as f64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{
        AccountId, ApkHash, AppId, FastSnapshot, GoogleId, InstallDelta, InstallId, InstalledApp,
        ParticipantId, PermissionProfile, Rating, RegisteredAccount, Review, SimTime, SlowSnapshot,
        Snapshot, TimeInterval,
    };
    use std::collections::HashMap;

    const P: ParticipantId = ParticipantId(111_111);
    const I: InstallId = InstallId(1);

    fn observation() -> DeviceObservation {
        let store = racket_collect::ShardedIngest::new(8);
        // Two installed apps: one preinstalled (100), one user (1).
        for (app, install_day) in [(100u32, 0u64), (1, 11)] {
            let mut info = InstalledApp::fresh(
                AppId(app),
                SimTime::from_days(install_day),
                PermissionProfile::default(),
                ApkHash([app as u8; 16]),
            );
            info.preinstalled = app == 100;
            store.ingest_batch(&[Snapshot::Fast(FastSnapshot {
                install_id: I,
                participant_id: P,
                time: SimTime::from_days(10 + u64::from(app == 1)),
                foreground_app: None,
                screen_on: false,
                battery_pct: 70,
                install_events: vec![InstallDelta::Installed(info)],
            })]);
        }
        store.ingest_batch(&[Snapshot::Slow(SlowSnapshot {
            install_id: I,
            participant_id: P,
            android_id: None,
            time: SimTime::from_days(11),
            accounts: vec![
                RegisteredAccount::gmail(AccountId(1), GoogleId(1)),
                RegisteredAccount::gmail(AccountId(2), GoogleId(2)),
                RegisteredAccount::non_gmail(AccountId(3), AccountService::WhatsApp),
            ],
            save_mode: false,
            stopped_apps: vec![AppId(1)],
            review_events: vec![],
        })]);
        let record = store.record(I).unwrap();
        let mut reviews_by_app = HashMap::new();
        reviews_by_app.insert(
            AppId(1),
            vec![
                Review::new(AppId(1), GoogleId(1), SimTime::from_days(12), Rating::FIVE),
                Review::new(AppId(1), GoogleId(2), SimTime::from_days(12), Rating::FIVE),
            ],
        );
        reviews_by_app.insert(
            AppId(55), // not installed
            vec![Review::new(
                AppId(55),
                GoogleId(1),
                SimTime::from_days(5),
                Rating::FOUR,
            )],
        );
        DeviceObservation {
            record,
            monitoring: TimeInterval::new(SimTime::from_days(10), SimTime::from_days(14)),
            google_ids: vec![GoogleId(1), GoogleId(2)],
            reviews_by_app,
            vt_flags: HashMap::new(),
        }
    }

    #[test]
    fn vector_width_matches_names() {
        let v = device_features(&observation(), 0.5);
        assert_eq!(v.len(), DEVICE_FEATURE_NAMES.len());
    }

    #[test]
    fn app_counts_split_pre_and_user() {
        let v = device_features(&observation(), 0.0);
        assert_eq!(v[0], 1.0, "one preinstalled app");
        assert_eq!(v[1], 1.0, "one user app");
        assert_eq!(v[3], 1.0, "one stopped app");
    }

    #[test]
    fn suspiciousness_passed_through() {
        assert_eq!(device_features(&observation(), 0.73)[2], 0.73);
    }

    #[test]
    fn churn_normalized_by_active_days() {
        let v = device_features(&observation(), 0.0);
        // One install event (app 1 on day 11 ≥ first_seen day 10) over 2
        // active days.
        assert!((v[4] - 0.5).abs() < 1e-9, "daily installs {}", v[4]);
        assert_eq!(v[5], 0.0);
    }

    #[test]
    fn account_features() {
        let v = device_features(&observation(), 0.0);
        assert_eq!(v[6], 2.0, "gmail accounts");
        assert_eq!(v[7], 1.0, "non-gmail accounts");
        assert_eq!(v[8], 2.0, "distinct services");
    }

    #[test]
    fn review_features() {
        let v = device_features(&observation(), 0.0);
        assert_eq!(v[9], 1.0, "installed-and-reviewed");
        assert_eq!(v[10], 2.0, "total apps reviewed incl. uninstalled");
        assert!((v[11] - 1.5).abs() < 1e-9, "3 reviews / 2 gmail accounts");
    }

    #[test]
    fn no_gmail_accounts_gives_zero_rate() {
        let mut obs = observation();
        obs.record.accounts.retain(|a| !a.service.is_gmail());
        let v = device_features(&obs, 0.0);
        assert_eq!(v[6], 0.0);
        assert_eq!(v[11], 0.0);
    }
}
