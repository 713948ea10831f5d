//! §7.1 app-usage features.
//!
//! One instance is an (app A, device D) pair: "features extracted from the
//! use of A on the device D" (§7.2). The eleven feature families of §7.1
//! expand into the 19 numeric columns below. Missing-value semantics: time
//! features use −1.0 when the quantity is undefined (e.g. the app was
//! never reviewed from the device), so tree learners can branch on
//! presence, and VirusTotal's coverage gap maps to 0 flags.

use crate::observation::DeviceObservation;
use racket_types::AppId;

/// Column names of the app-usage feature vector, aligned with
/// [`app_features`]. These names appear in the Figure 13 importance plot.
pub(crate) const APP_FEATURE_NAMES: [&str; 19] = [
    "n_reviewing_accounts_before", // (1) device accounts reviewing before install of RacketStore
    "n_reviewing_accounts_during", // (1) … while RacketStore was installed
    "n_reviewing_accounts_after",  // (1) … after it was uninstalled
    "avg_install_review_days",     // (2) mean install-to-review delay
    "min_install_review_days",     // (2) fastest review after install
    "mean_inter_review_days",      // (3) consecutive review gaps, mean
    "min_inter_review_days",       // (3) … min
    "max_inter_review_days",       // (3) … max
    "opened_multiple_days",        // (4) 0/1
    "fg_snapshots_per_day",        // (5) on-screen fast snapshots per active day
    "device_snapshots_per_day",    // (6) device-wide snapshots per active day
    "inner_retention_days",        // (7) installed coverage during monitoring
    "installed_before_racketstore", // (7) 0/1
    "installed_at_end",            // (7) 0/1
    "n_normal_permissions",        // (8)
    "n_dangerous_permissions",     // (8)
    "n_permissions_granted",       // (9)
    "n_permissions_denied",        // (9)
    "vt_flags",                    // (10)
];

/// Full column names including family (11).
pub fn app_feature_names() -> Vec<String> {
    let mut names: Vec<String> = APP_FEATURE_NAMES.iter().map(|s| s.to_string()).collect();
    names.push("n_installs_monitored".into()); // (11)
    names.push("n_uninstalls_monitored".into()); // (11)
    names
}

/// Extract the §7.1 feature vector for app `app` on the observed device.
///
/// # Panics
/// If the app was never observed on the device (no metadata).
pub fn app_features(obs: &DeviceObservation, app: AppId) -> Vec<f64> {
    let info = obs
        .record
        .apps
        .get(&app)
        .unwrap_or_else(|| panic!("{app} was never observed on this device"));
    let day = 86_400.0;
    let monitoring = obs.monitoring;
    let reviews = obs.reviews_for(app);

    // (1) reviewing accounts relative to the monitoring window.
    let mut before = std::collections::HashSet::new();
    let mut during = std::collections::HashSet::new();
    let mut after = std::collections::HashSet::new();
    for r in &reviews {
        if r.posted_at < monitoring.start {
            before.insert(r.reviewer);
        } else if r.posted_at < monitoring.end {
            during.insert(r.reviewer);
        } else {
            after.insert(r.reviewer);
        }
    }

    // (2) install-to-review delays (positive deltas only, §6.3).
    let deltas: Vec<f64> = reviews
        .iter()
        .filter_map(|r| {
            let d = r.posted_at.signed_delta_secs(info.install_time);
            (d >= 0).then_some(d as f64 / day)
        })
        .collect();
    let (avg_delay, min_delay) = if deltas.is_empty() {
        (-1.0, -1.0)
    } else {
        (
            deltas.iter().sum::<f64>() / deltas.len() as f64,
            deltas.iter().copied().fold(f64::INFINITY, f64::min),
        )
    };

    // (3) inter-review times between consecutive device reviews of the app.
    let gaps: Vec<f64> = reviews
        .windows(2)
        .map(|w| (w[1].posted_at - w[0].posted_at).as_secs() as f64 / day)
        .collect();
    let (gap_mean, gap_min, gap_max) = if gaps.is_empty() {
        (-1.0, -1.0, -1.0)
    } else {
        (
            gaps.iter().sum::<f64>() / gaps.len() as f64,
            gaps.iter().copied().fold(f64::INFINITY, f64::min),
            gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };

    // (4)–(5) foreground behaviour from fast snapshots.
    let fg = obs.record.foreground.get(&app);
    let opened_multiple_days = fg.is_some_and(|days| days.len() > 1);
    let fg_per_day = fg
        .map(|days| days.values().sum::<u64>() as f64 / obs.record.active_days().max(1) as f64)
        .unwrap_or(0.0);

    // (6) device-wide snapshot rate.
    let device_rate = obs.record.avg_snapshots_per_day();

    // (7) inner retention: installed coverage inside the monitoring window.
    let installed_before = info.install_time < monitoring.start;
    let installed_at_end = obs.record.apps.is_installed(&app);
    let retention_start = info.install_time.max(monitoring.start);
    let retention_end = if installed_at_end {
        monitoring.end
    } else {
        // Uninstalled during monitoring: last uninstall event if observed.
        obs.record
            .uninstall_events
            .iter()
            .filter(|(a, _)| *a == app)
            .map(|&(_, t)| t)
            .max()
            .unwrap_or(monitoring.start)
    };
    let retention_days = if retention_end > retention_start {
        (retention_end - retention_start).as_secs() as f64 / day
    } else {
        0.0
    };

    // (8)–(9) permission footprint.
    let perms = &info.permissions;

    // (10) VirusTotal flags; unavailable reports count as 0.
    let vt = obs.vt_flags.get(&app).copied().flatten().unwrap_or(0);

    // (11) churn of this app during monitoring.
    let n_installs = obs
        .record
        .install_events
        .iter()
        .filter(|(a, _)| *a == app)
        .count();
    let n_uninstalls = obs
        .record
        .uninstall_events
        .iter()
        .filter(|(a, _)| *a == app)
        .count();

    vec![
        before.len() as f64,
        during.len() as f64,
        after.len() as f64,
        avg_delay,
        min_delay,
        gap_mean,
        gap_min,
        gap_max,
        f64::from(u8::from(opened_multiple_days)),
        fg_per_day,
        device_rate,
        retention_days,
        f64::from(u8::from(installed_before)),
        f64::from(u8::from(installed_at_end)),
        perms.normal_count() as f64,
        perms.dangerous_count() as f64,
        perms.granted.len() as f64,
        perms.denied.len() as f64,
        f64::from(vt),
        n_installs as f64,
        n_uninstalls as f64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::{
        ApkHash, FastSnapshot, GoogleId, InstallDelta, InstallId, InstalledApp, ParticipantId,
        Permission, PermissionProfile, Rating, Review, SimTime, Snapshot, TimeInterval,
    };
    use std::collections::HashMap;

    const P: ParticipantId = ParticipantId(111_111);
    const I: InstallId = InstallId(1);

    fn base_observation() -> DeviceObservation {
        let store = racket_collect::ShardedIngest::new(8);
        let perms = PermissionProfile {
            requested: [
                Permission::Internet,
                Permission::Camera,
                Permission::ReadContacts,
            ]
            .into_iter()
            .collect(),
            granted: [Permission::Camera].into_iter().collect(),
            denied: [Permission::ReadContacts].into_iter().collect(),
        };
        // App installed on day 2 (before monitoring starts on day 10).
        store.ingest_batch(&[Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_days(10),
            foreground_app: Some(AppId(1)),
            screen_on: true,
            battery_pct: 90,
            install_events: vec![InstallDelta::Installed(InstalledApp {
                stopped: false,
                ..InstalledApp::fresh(AppId(1), SimTime::from_days(2), perms, ApkHash([1; 16]))
            })],
        })]);
        // A second day of foreground observations.
        store.ingest_batch(&[Snapshot::Fast(FastSnapshot {
            install_id: I,
            participant_id: P,
            time: SimTime::from_days(11),
            foreground_app: Some(AppId(1)),
            screen_on: true,
            battery_pct: 85,
            install_events: vec![],
        })]);
        let record = store.record(I).unwrap();
        DeviceObservation {
            record,
            monitoring: TimeInterval::new(SimTime::from_days(10), SimTime::from_days(14)),
            google_ids: vec![GoogleId(1), GoogleId(2)],
            reviews_by_app: HashMap::new(),
            vt_flags: HashMap::new(),
        }
    }

    #[test]
    fn feature_vector_has_stable_width_and_names() {
        let obs = base_observation();
        let v = app_features(&obs, AppId(1));
        // Family (11) is one feature in the paper but two columns here
        // (install and uninstall counts), appended after the names list.
        assert_eq!(v.len(), APP_FEATURE_NAMES.len() + 2);
        assert_eq!(app_feature_names().len(), v.len());
    }

    #[test]
    fn unreviewed_app_uses_sentinels() {
        let obs = base_observation();
        let v = app_features(&obs, AppId(1));
        assert_eq!(v[3], -1.0, "avg delay sentinel");
        assert_eq!(v[4], -1.0, "min delay sentinel");
        assert_eq!(v[5], -1.0, "inter-review sentinel");
    }

    #[test]
    fn review_timing_features() {
        let mut obs = base_observation();
        // Three reviews from two accounts: day 3 (before monitoring),
        // day 12 and day 13 (during).
        obs.reviews_by_app.insert(
            AppId(1),
            vec![
                Review::new(AppId(1), GoogleId(1), SimTime::from_days(3), Rating::FIVE),
                Review::new(AppId(1), GoogleId(2), SimTime::from_days(12), Rating::FIVE),
                Review::new(AppId(1), GoogleId(1), SimTime::from_days(13), Rating::FOUR),
            ],
        );
        let v = app_features(&obs, AppId(1));
        assert_eq!(v[0], 1.0, "one account reviewed before monitoring");
        assert_eq!(v[1], 2.0, "two accounts during");
        assert_eq!(v[2], 0.0);
        // Install on day 2 → deltas 1, 10, 11 days; mean = 22/3.
        assert!((v[3] - 22.0 / 3.0).abs() < 1e-9, "avg delay {}", v[3]);
        assert!((v[4] - 1.0).abs() < 1e-9, "min delay {}", v[4]);
        // Gaps: 9 and 1 days.
        assert!((v[5] - 5.0).abs() < 1e-9, "gap mean {}", v[5]);
        assert!((v[6] - 1.0).abs() < 1e-9);
        assert!((v[7] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn foreground_and_retention_features() {
        let obs = base_observation();
        let v = app_features(&obs, AppId(1));
        assert_eq!(v[8], 1.0, "opened on days 10 and 11");
        assert_eq!(v[9], 1.0, "2 fg snapshots over 2 active days");
        assert_eq!(v[10], 1.0, "2 snapshots over 2 active days");
        // Installed before monitoring and still installed: full window.
        assert!((v[11] - 4.0).abs() < 1e-9, "retention {}", v[11]);
        assert_eq!(v[12], 1.0);
        assert_eq!(v[13], 1.0);
    }

    #[test]
    fn permission_features() {
        let obs = base_observation();
        let v = app_features(&obs, AppId(1));
        assert_eq!(v[14], 1.0, "internet is the only normal permission");
        assert_eq!(v[15], 2.0, "camera + contacts dangerous");
        assert_eq!(v[16], 1.0, "camera granted");
        assert_eq!(v[17], 1.0, "contacts denied");
    }

    #[test]
    fn vt_flags_default_zero_and_pass_through() {
        let mut obs = base_observation();
        assert_eq!(app_features(&obs, AppId(1))[18], 0.0);
        obs.vt_flags.insert(AppId(1), Some(9));
        assert_eq!(app_features(&obs, AppId(1))[18], 9.0);
        obs.vt_flags.insert(AppId(1), None); // coverage gap
        assert_eq!(app_features(&obs, AppId(1))[18], 0.0);
    }

    #[test]
    #[should_panic(expected = "never observed")]
    fn unknown_app_panics() {
        app_features(&base_observation(), AppId(99));
    }
}
