//! The usage-stats service (`PACKAGE_USAGE_STATS` equivalent).
//!
//! Tracks, per app, when and how long it has been in the foreground. §6.3
//! ("Number of Apps Used Per Day", Figure 10) and the §7.1 features
//! "whether app was opened on multiple days" and "snapshots per day when
//! the app was the on-screen app" all derive from this state.

use racket_types::{AppId, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Per-app usage record.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppUsage {
    /// Calendar-day indices (see [`SimTime::day_index`]) on which the app
    /// was brought to the foreground.
    pub days_opened: BTreeSet<u64>,
    /// Total number of foreground sessions.
    pub total_opens: u64,
    /// Total foreground time in seconds.
    pub foreground_secs: u64,
    /// Last time the app was opened.
    pub last_opened: Option<SimTime>,
}

impl AppUsage {
    /// Whether the app was opened on more than one calendar day — a §7.1
    /// feature separating personal use from one-shot promotion installs.
    pub fn opened_multiple_days(&self) -> bool {
        self.days_opened.len() > 1
    }
}

/// Usage stats across all apps on one device.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UsageStats {
    per_app: BTreeMap<AppId, AppUsage>,
}

impl UsageStats {
    /// Record a foreground session of `app` starting at `time` and lasting
    /// `secs` seconds.
    pub(crate) fn record_open(&mut self, app: AppId, time: SimTime, secs: u64) {
        let entry = self.per_app.entry(app).or_default();
        entry.days_opened.insert(time.day_index());
        entry.total_opens += 1;
        entry.foreground_secs += secs;
        entry.last_opened = Some(time);
    }

    /// Drop an app's record (on uninstall the usage history disappears
    /// with the package).
    pub(crate) fn forget(&mut self, app: AppId) {
        self.per_app.remove(&app);
    }

    /// Usage record of a single app, if it was ever opened.
    pub fn app(&self, app: AppId) -> Option<&AppUsage> {
        self.per_app.get(&app)
    }

    /// Number of distinct apps ever opened.
    pub fn apps_used(&self) -> usize {
        self.per_app.len()
    }

    /// Iterate all per-app records.
    pub fn iter(&self) -> impl Iterator<Item = (&AppId, &AppUsage)> {
        self.per_app.iter()
    }
}

#[cfg(test)]
impl UsageStats {
    /// Average number of distinct apps opened per active day — the Figure
    /// 10 y-axis. An *active day* is any day on which at least one app was
    /// opened. Returns 0.0 if nothing was ever opened.
    pub(crate) fn avg_apps_per_day(&self) -> f64 {
        let mut per_day: BTreeMap<u64, usize> = BTreeMap::new();
        for usage in self.per_app.values() {
            for &d in &usage.days_opened {
                *per_day.entry(d).or_insert(0) += 1;
            }
        }
        if per_day.is_empty() {
            return 0.0;
        }
        per_day.values().map(|&c| c as f64).sum::<f64>() / per_day.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_types::SimDuration;

    #[test]
    fn record_accumulates() {
        let mut u = UsageStats::default();
        let app = AppId(1);
        u.record_open(app, SimTime::from_days(0), 60);
        u.record_open(app, SimTime::from_days(0) + SimDuration::from_hours(2), 30);
        let rec = u.app(app).unwrap();
        assert_eq!(rec.total_opens, 2);
        assert_eq!(rec.foreground_secs, 90);
        assert_eq!(rec.days_opened.len(), 1);
        assert!(!rec.opened_multiple_days());
    }

    #[test]
    fn multiple_days_detected() {
        let mut u = UsageStats::default();
        let app = AppId(1);
        u.record_open(app, SimTime::from_days(0), 10);
        u.record_open(app, SimTime::from_days(1), 10);
        assert!(u.app(app).unwrap().opened_multiple_days());
    }

    #[test]
    fn avg_apps_per_day() {
        let mut u = UsageStats::default();
        // Day 0: apps 1, 2. Day 1: app 1 only.
        u.record_open(AppId(1), SimTime::from_days(0), 10);
        u.record_open(AppId(2), SimTime::from_days(0), 10);
        u.record_open(AppId(1), SimTime::from_days(1), 10);
        assert!((u.avg_apps_per_day() - 1.5).abs() < 1e-12);
        assert_eq!(u.apps_used(), 2);
    }

    #[test]
    fn empty_stats() {
        let u = UsageStats::default();
        assert_eq!(u.avg_apps_per_day(), 0.0);
        assert_eq!(u.apps_used(), 0);
        assert!(u.app(AppId(1)).is_none());
    }

    #[test]
    fn forget_removes_history() {
        let mut u = UsageStats::default();
        u.record_open(AppId(1), SimTime::from_days(0), 10);
        u.forget(AppId(1));
        assert!(u.app(AppId(1)).is_none());
    }
}
