//! The two snapshot formats the RacketStore app reports (§3).
//!
//! * **Fast snapshots** fire every 5 s: identifiers, foreground app, screen
//!   and battery status, and install/uninstall deltas since the previous
//!   report (with install time, last update, permissions and apk MD5 for
//!   each newly installed app).
//! * **Slow snapshots** fire every 2 min: identifiers (including the Android
//!   ID), registered accounts, save-mode status and the list of stopped
//!   apps.
//!
//! The study collected 57,770,204 fast and 592,045 slow snapshots (§5).

use crate::account::RegisteredAccount;
use crate::app::{AppId, InstalledApp};
use crate::id::{AndroidId, InstallId, ParticipantId};
use crate::review::ReviewEvent;
use crate::time::SimTime;
use serde::Serialize;

/// Cadence of the fast snapshot collector.
pub const FAST_SNAPSHOT_PERIOD_SECS: u64 = 5;
/// Cadence of the slow snapshot collector.
pub const SLOW_SNAPSHOT_PERIOD_SECS: u64 = 120;

/// An install/uninstall delta carried by a fast snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum InstallDelta {
    /// An app appeared since the last report.
    Installed(InstalledApp),
    /// An app disappeared since the last report.
    Uninstalled {
        /// The removed app.
        app: AppId,
    },
}

impl InstallDelta {
    /// The app the delta concerns.
    pub fn app(&self) -> AppId {
        match self {
            InstallDelta::Installed(info) => info.app,
            InstallDelta::Uninstalled { app } => *app,
        }
    }

    /// Whether this is an install (vs. uninstall).
    pub fn is_install(&self) -> bool {
        matches!(self, InstallDelta::Installed(_))
    }
}

/// A fast (5 s) snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FastSnapshot {
    /// Install ID of the reporting RacketStore instance.
    pub install_id: InstallId,
    /// Participant code the instance was signed in with.
    pub participant_id: ParticipantId,
    /// Capture time.
    pub time: SimTime,
    /// App currently in the foreground, if the screen is on and one is.
    pub foreground_app: Option<AppId>,
    /// Whether the screen is on.
    pub screen_on: bool,
    /// Battery level, 0–100.
    pub battery_pct: u8,
    /// Install/uninstall deltas since the previous fast snapshot.
    pub install_events: Vec<InstallDelta>,
}

/// A slow (2 min) snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SlowSnapshot {
    /// Install ID of the reporting RacketStore instance.
    pub install_id: InstallId,
    /// Participant code the instance was signed in with.
    pub participant_id: ParticipantId,
    /// Android ID; `None` on models where the API was incompatible
    /// (Appendix A), which forces fingerprinting to fall back to install
    /// intervals and Jaccard similarity.
    pub android_id: Option<AndroidId>,
    /// Capture time.
    pub time: SimTime,
    /// Accounts registered on the device; empty if `GET_ACCOUNTS` was not
    /// granted by the participant.
    pub accounts: Vec<RegisteredAccount>,
    /// Whether battery save mode is active.
    pub save_mode: bool,
    /// Apps currently in the Android stopped state.
    pub stopped_apps: Vec<AppId>,
    /// Reviews posted from this device since the previous slow snapshot.
    /// Empty unless the collector has review collection enabled.
    pub review_events: Vec<ReviewEvent>,
}

/// Either snapshot kind, as shipped through the collection pipeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Snapshot {
    /// A fast (5 s) snapshot.
    Fast(FastSnapshot),
    /// A slow (2 min) snapshot.
    Slow(SlowSnapshot),
}

impl Snapshot {
    /// Capture time of the snapshot.
    pub fn time(&self) -> SimTime {
        match self {
            Snapshot::Fast(s) => s.time,
            Snapshot::Slow(s) => s.time,
        }
    }

    /// The reporting install ID.
    pub fn install_id(&self) -> InstallId {
        match self {
            Snapshot::Fast(s) => s.install_id,
            Snapshot::Slow(s) => s.install_id,
        }
    }

    /// The participant the install is signed in as.
    pub fn participant_id(&self) -> ParticipantId {
        match self {
            Snapshot::Fast(s) => s.participant_id,
            Snapshot::Slow(s) => s.participant_id,
        }
    }

    /// Whether this is a fast snapshot.
    pub fn is_fast(&self) -> bool {
        matches!(self, Snapshot::Fast(_))
    }

    /// Strip the snapshot's heap-backed internals for pooling: empties the
    /// `install_events` / `accounts` / `stopped_apps` vectors out of the
    /// snapshot (leaving it structurally valid but hollow) and hands them
    /// to `reclaim` with their capacity intact. Snapshot batch pools call
    /// this when recycling, so steady-state collection reuses the same
    /// allocations forever.
    pub fn reclaim_buffers(&mut self, mut reclaim: impl FnMut(ReclaimedBuffer)) {
        match self {
            Snapshot::Fast(s) => {
                let mut v = std::mem::take(&mut s.install_events);
                v.clear();
                reclaim(ReclaimedBuffer::InstallEvents(v));
            }
            Snapshot::Slow(s) => {
                let mut a = std::mem::take(&mut s.accounts);
                a.clear();
                reclaim(ReclaimedBuffer::Accounts(a));
                let mut st = std::mem::take(&mut s.stopped_apps);
                st.clear();
                reclaim(ReclaimedBuffer::StoppedApps(st));
                let mut rv = std::mem::take(&mut s.review_events);
                rv.clear();
                reclaim(ReclaimedBuffer::ReviewEvents(rv));
            }
        }
    }
}

/// A heap buffer recovered from a recycled [`Snapshot`] by
/// [`Snapshot::reclaim_buffers`], tagged with which field it backed so a
/// pool can return it to the matching free list.
#[derive(Debug)]
pub enum ReclaimedBuffer {
    /// The `install_events` vector of a fast snapshot (cleared).
    InstallEvents(Vec<InstallDelta>),
    /// The `accounts` vector of a slow snapshot (cleared).
    Accounts(Vec<RegisteredAccount>),
    /// The `stopped_apps` vector of a slow snapshot (cleared).
    StoppedApps(Vec<AppId>),
    /// The `review_events` vector of a slow snapshot (cleared).
    ReviewEvents(Vec<ReviewEvent>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permission::PermissionProfile;
    use crate::ApkHash;

    fn fast(t: u64) -> FastSnapshot {
        FastSnapshot {
            install_id: InstallId(1234567890),
            participant_id: ParticipantId(111111),
            time: SimTime::from_secs(t),
            foreground_app: Some(AppId(3)),
            screen_on: true,
            battery_pct: 88,
            install_events: vec![],
        }
    }

    #[test]
    fn cadences_match_paper() {
        assert_eq!(FAST_SNAPSHOT_PERIOD_SECS, 5);
        assert_eq!(SLOW_SNAPSHOT_PERIOD_SECS, 120);
    }

    #[test]
    fn delta_accessors() {
        let installed = InstallDelta::Installed(InstalledApp::fresh(
            AppId(7),
            SimTime::from_days(1),
            PermissionProfile::default(),
            ApkHash([2; 16]),
        ));
        assert_eq!(installed.app(), AppId(7));
        assert!(installed.is_install());

        let removed = InstallDelta::Uninstalled { app: AppId(8) };
        assert_eq!(removed.app(), AppId(8));
        assert!(!removed.is_install());
    }

    #[test]
    fn snapshot_dispatch() {
        let f = Snapshot::Fast(fast(10));
        assert!(f.is_fast());
        assert_eq!(f.time().as_secs(), 10);
        assert_eq!(f.install_id(), InstallId(1234567890));
        assert_eq!(f.participant_id(), ParticipantId(111111));

        let s = Snapshot::Slow(SlowSnapshot {
            install_id: InstallId(1234567890),
            participant_id: ParticipantId(111111),
            android_id: None,
            time: SimTime::from_secs(120),
            accounts: vec![],
            save_mode: false,
            stopped_apps: vec![AppId(1)],
            review_events: vec![],
        });
        assert!(!s.is_fast());
        assert_eq!(s.time().as_secs(), 120);
    }

    #[test]
    fn reclaim_buffers_recovers_capacity() {
        let mut f = fast(5);
        f.install_events = Vec::with_capacity(32);
        f.install_events
            .push(InstallDelta::Uninstalled { app: AppId(1) });
        let mut snap = Snapshot::Fast(f);
        let mut events = None;
        snap.reclaim_buffers(|b| match b {
            ReclaimedBuffer::InstallEvents(v) => events = Some(v),
            other => panic!("unexpected buffer from a fast snapshot: {other:?}"),
        });
        let events = events.expect("fast snapshot yields its event buffer");
        assert!(events.is_empty(), "reclaimed buffers come back cleared");
        assert!(events.capacity() >= 32, "capacity survives reclamation");

        let mut snap = Snapshot::Slow(SlowSnapshot {
            install_id: InstallId(1),
            participant_id: ParticipantId(111111),
            android_id: None,
            time: SimTime::from_secs(1),
            accounts: Vec::with_capacity(4),
            save_mode: false,
            stopped_apps: vec![AppId(9)],
            review_events: Vec::with_capacity(2),
        });
        let mut kinds = Vec::new();
        snap.reclaim_buffers(|b| {
            kinds.push(match b {
                ReclaimedBuffer::InstallEvents(_) => "events",
                ReclaimedBuffer::Accounts(v) => {
                    assert!(v.capacity() >= 4);
                    "accounts"
                }
                ReclaimedBuffer::StoppedApps(v) => {
                    assert!(v.is_empty());
                    "stopped"
                }
                ReclaimedBuffer::ReviewEvents(v) => {
                    assert!(v.is_empty());
                    assert!(v.capacity() >= 2);
                    "reviews"
                }
            });
        });
        assert_eq!(kinds, ["accounts", "stopped", "reviews"]);
    }
}
