//! The mobile app's snapshot collectors (§3).
//!
//! Two periodic samplers over a [`racket_device::Device`]:
//!
//! * **fast** (default 5 s): identifiers, foreground app, screen status,
//!   battery level, and install/uninstall deltas since the previous fast
//!   snapshot — with full metadata (install time, last update, permissions,
//!   apk MD5) for each newly observed app;
//! * **slow** (default 2 min): identifiers plus the Android ID, registered
//!   accounts, save-mode status and the stopped-app list.
//!
//! Collection is permission-gated exactly as the paper describes:
//! without `PACKAGE_USAGE_STATS` the foreground app is not reported;
//! without `GET_ACCOUNTS` the account list is empty. The very first fast
//! snapshot reports the entire installed-app set as install deltas — the
//! paper's separate "initial data collector" folded into the delta stream.

use racket_types::snapshot::{FAST_SNAPSHOT_PERIOD_SECS, SLOW_SNAPSHOT_PERIOD_SECS};
use racket_types::{
    AppId, FastSnapshot, InstallDelta, InstallId, ParticipantId, ReclaimedBuffer,
    RegisteredAccount, ReviewEvent, SimTime, SlowSnapshot, Snapshot,
};

/// Collector cadences (seconds). The defaults are the paper's 5 s / 120 s;
/// large-scale experiment drivers may *thin* the fast cadence (collect
/// every n-th tick) — per-day rate features scale accordingly and cohort
/// contrasts are preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectorConfig {
    /// Fast snapshot period in seconds.
    pub fast_period_secs: u64,
    /// Slow snapshot period in seconds.
    pub slow_period_secs: u64,
    /// Report reviews posted from the device in slow snapshots. Off by
    /// default: review-off studies emit byte-identical snapshot files to
    /// builds that predate review collection.
    pub collect_reviews: bool,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            fast_period_secs: FAST_SNAPSHOT_PERIOD_SECS,
            slow_period_secs: SLOW_SNAPSHOT_PERIOD_SECS,
            collect_reviews: false,
        }
    }
}

/// A pooled batch of snapshots: the target of [`SnapshotCollector::poll_into`].
///
/// Owns the emitted [`Snapshot`]s plus free lists for their heap-backed
/// internals (`install_events` / `accounts` / `stopped_apps`). Clearing the
/// batch recycles every inner vector back to the free lists with capacity
/// intact, so a lane that reuses one batch across its whole study reaches a
/// steady state where polling allocates nothing at all. Recycling never
/// changes emitted bytes — a pooled snapshot is value-equal to a freshly
/// allocated one (only spare capacity differs).
#[derive(Debug, Default)]
pub struct SnapshotBatch {
    snaps: Vec<Snapshot>,
    free_events: Vec<Vec<InstallDelta>>,
    free_accounts: Vec<Vec<RegisteredAccount>>,
    free_apps: Vec<Vec<AppId>>,
    free_reviews: Vec<Vec<ReviewEvent>>,
}

impl SnapshotBatch {
    /// An empty batch with empty pools.
    pub fn new() -> Self {
        Self::default()
    }

    /// The batched snapshots, in emission order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snaps
    }

    /// Number of batched snapshots.
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Whether the batch holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Drop the batched snapshots, harvesting their inner vectors into the
    /// free lists for the next fill.
    pub fn clear(&mut self) {
        let mut snaps = std::mem::take(&mut self.snaps);
        for s in &mut snaps {
            s.reclaim_buffers(|b| match b {
                ReclaimedBuffer::InstallEvents(v) => self.free_events.push(v),
                ReclaimedBuffer::Accounts(v) => self.free_accounts.push(v),
                ReclaimedBuffer::StoppedApps(v) => self.free_apps.push(v),
                ReclaimedBuffer::ReviewEvents(v) => self.free_reviews.push(v),
            });
        }
        snaps.clear();
        self.snaps = snaps;
    }

    /// Surrender the batched snapshots as a plain vector (pools are kept).
    pub fn into_snapshots(self) -> Vec<Snapshot> {
        self.snaps
    }

    fn take_events(&mut self) -> Vec<InstallDelta> {
        self.free_events.pop().unwrap_or_default()
    }

    fn take_accounts(&mut self) -> Vec<RegisteredAccount> {
        self.free_accounts.pop().unwrap_or_default()
    }

    fn take_apps(&mut self) -> Vec<AppId> {
        self.free_apps.pop().unwrap_or_default()
    }

    fn take_reviews(&mut self) -> Vec<ReviewEvent> {
        self.free_reviews.pop().unwrap_or_default()
    }
}

/// Stateful snapshot collector for one RacketStore install.
///
/// A collector samples exactly one device for its whole lifetime (as the
/// real app does); the package-stamp fast path relies on this pairing.
#[derive(Debug, Clone)]
pub struct SnapshotCollector {
    config: CollectorConfig,
    install_id: InstallId,
    participant: ParticipantId,
    next_fast: Option<SimTime>,
    next_slow: Option<SimTime>,
    /// Install times of apps seen in the previous fast sample, ascending
    /// by app ID — the delta baseline.
    known_apps: Vec<(AppId, SimTime)>,
    /// Reused build area for the next baseline (swapped with `known_apps`
    /// after each delta scan).
    apps_scratch: Vec<(AppId, SimTime)>,
    /// The device's package stamp at the previous fast sample. While it is
    /// unchanged the installed-app map cannot have changed, so the delta
    /// scan is skipped wholesale — the dominant case, since package events
    /// are orders of magnitude rarer than fast ticks.
    last_stamp: Option<u64>,
    /// Cursor into the device's append-only review log: reviews before it
    /// have already been reported by an earlier slow snapshot.
    reviews_reported: usize,
}

impl SnapshotCollector {
    /// Create a collector for an install signed in as `participant`.
    pub fn new(config: CollectorConfig, install_id: InstallId, participant: ParticipantId) -> Self {
        assert!(config.fast_period_secs > 0 && config.slow_period_secs > 0);
        SnapshotCollector {
            config,
            install_id,
            participant,
            next_fast: None,
            next_slow: None,
            known_apps: Vec::new(),
            apps_scratch: Vec::new(),
            last_stamp: None,
            reviews_reported: 0,
        }
    }

    /// Produce all snapshots due in `(.., now]`, advancing internal timers.
    /// The first call emits one fast and one slow snapshot immediately.
    pub fn poll(&mut self, device: &racket_device::Device, now: SimTime) -> Vec<Snapshot> {
        let mut batch = SnapshotBatch::new();
        self.poll_into(device, now, &mut batch);
        batch.into_snapshots()
    }

    /// [`SnapshotCollector::poll`] into a caller-owned pooled batch:
    /// appends every due snapshot to `batch` (which the caller clears
    /// between polls to recycle buffers), in the same order `poll` returns
    /// them — all due fast snapshots, then all due slow snapshots.
    pub fn poll_into(
        &mut self,
        device: &racket_device::Device,
        now: SimTime,
        batch: &mut SnapshotBatch,
    ) {
        let fast_period = racket_types::SimDuration::from_secs(self.config.fast_period_secs);
        let slow_period = racket_types::SimDuration::from_secs(self.config.slow_period_secs);

        let mut t = self.next_fast.unwrap_or(now);
        while t <= now {
            let deltas = batch.take_events();
            let snap = self.sample_fast_pooled(device, t, deltas);
            batch.snaps.push(Snapshot::Fast(snap));
            t += fast_period;
        }
        self.next_fast = Some(t);

        let mut t = self.next_slow.unwrap_or(now);
        while t <= now {
            let accounts = batch.take_accounts();
            let stopped = batch.take_apps();
            let reviews = batch.take_reviews();
            let snap = self.sample_slow_pooled(device, t, accounts, stopped, reviews);
            batch.snaps.push(Snapshot::Slow(snap));
            t += slow_period;
        }
        self.next_slow = Some(t);
    }

    /// Take one fast snapshot right now (advances the delta baseline).
    pub fn sample_fast(&mut self, device: &racket_device::Device, now: SimTime) -> FastSnapshot {
        self.sample_fast_pooled(device, now, Vec::new())
    }

    /// [`SnapshotCollector::sample_fast`] writing deltas into a recycled
    /// vector (cleared first). The delta scan itself is gated on the
    /// device's package stamp: unchanged stamp ⇒ unchanged installed-app
    /// map ⇒ the scan would produce zero deltas, so it is skipped.
    fn sample_fast_pooled(
        &mut self,
        device: &racket_device::Device,
        now: SimTime,
        mut deltas: Vec<InstallDelta>,
    ) -> FastSnapshot {
        deltas.clear();
        let stamp = device.pkg_stamp();
        if self.last_stamp != Some(stamp) {
            // Install/uninstall deltas vs. the previous sample. A
            // re-install surfaces as a changed install time and is reported
            // as a fresh Installed delta (Android's last-install-time
            // semantics). Both the baseline and the device map iterate in
            // ascending app order, so the diff is two linear cursor walks:
            // first every Installed delta (ascending), then every
            // Uninstalled delta (ascending) — exactly the order the
            // original map-based diff emitted.
            self.apps_scratch.clear();
            let mut k = 0; // cursor into the old baseline
            for info in device.installed_apps() {
                self.apps_scratch.push((info.app, info.install_time));
                while k < self.known_apps.len() && self.known_apps[k].0 < info.app {
                    k += 1;
                }
                match self.known_apps.get(k) {
                    Some(&(app, t)) if app == info.app && t == info.install_time => {}
                    _ => deltas.push(InstallDelta::Installed(info.clone())),
                }
            }
            let mut c = 0; // cursor into the new baseline
            for &(app, _) in &self.known_apps {
                while c < self.apps_scratch.len() && self.apps_scratch[c].0 < app {
                    c += 1;
                }
                if !matches!(self.apps_scratch.get(c), Some(&(a, _)) if a == app) {
                    deltas.push(InstallDelta::Uninstalled { app });
                }
            }
            std::mem::swap(&mut self.known_apps, &mut self.apps_scratch);
            self.last_stamp = Some(stamp);
        }

        let foreground_app = if device.permissions().usage_stats {
            device.foreground_app()
        } else {
            None
        };

        FastSnapshot {
            install_id: self.install_id,
            participant_id: self.participant,
            time: now,
            foreground_app,
            screen_on: device.screen_on(),
            battery_pct: device.battery_pct(),
            install_events: deltas,
        }
    }

    /// Take one slow snapshot right now (advances the review cursor when
    /// review collection is enabled).
    pub fn sample_slow(&mut self, device: &racket_device::Device, now: SimTime) -> SlowSnapshot {
        self.sample_slow_pooled(device, now, Vec::new(), Vec::new(), Vec::new())
    }

    /// [`SnapshotCollector::sample_slow`] writing the account, stopped-app
    /// and review lists into recycled vectors (cleared first). With review
    /// collection enabled, every review the device log gained since the
    /// previous slow sample ships in this snapshot — the first slow
    /// snapshot therefore carries the device's whole review history, the
    /// same "initial data collector" pattern the fast path uses for the
    /// installed-app list.
    fn sample_slow_pooled(
        &mut self,
        device: &racket_device::Device,
        now: SimTime,
        mut accounts: Vec<RegisteredAccount>,
        mut stopped: Vec<AppId>,
        mut reviews: Vec<ReviewEvent>,
    ) -> SlowSnapshot {
        accounts.clear();
        if device.permissions().get_accounts {
            accounts.extend_from_slice(device.accounts());
        }
        device.stopped_apps_into(&mut stopped);
        reviews.clear();
        if self.config.collect_reviews {
            let log = device.review_log();
            reviews.extend_from_slice(&log[self.reviews_reported.min(log.len())..]);
            self.reviews_reported = log.len();
        }
        SlowSnapshot {
            install_id: self.install_id,
            participant_id: self.participant,
            android_id: device.android_id(),
            time: now,
            accounts,
            save_mode: device.save_mode(),
            stopped_apps: stopped,
            review_events: reviews,
        }
    }

    /// Serialize one snapshot in the current accumulation-file format
    /// (the binary record codec, [`crate::codec`]).
    pub fn serialize(snapshot: &Snapshot) -> Vec<u8> {
        let mut out = Vec::new();
        Self::serialize_into(snapshot, &mut out);
        out
    }

    /// Append one snapshot record to a caller-supplied buffer — the
    /// allocation-free path the data buffer accumulates files through.
    pub fn serialize_into(snapshot: &Snapshot, out: &mut Vec<u8>) {
        crate::codec::encode_record(snapshot, out);
    }

    /// Parse an accumulation file ([`crate::codec`] records back to back)
    /// into snapshots.
    pub fn deserialize_file(data: &[u8]) -> Result<Vec<Snapshot>, crate::codec::DecodeError> {
        crate::codec::decode_file(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use racket_device::{Device, DeviceModel, DevicePermissions};
    use racket_types::{AndroidId, ApkHash, DeviceId, PermissionProfile};

    fn device() -> Device {
        let mut d = Device::new(DeviceId(1), DeviceModel::generic(), AndroidId(5));
        d.install_app(
            AppId(1),
            SimTime::from_secs(10),
            PermissionProfile::default(),
            ApkHash([1; 16]),
        );
        d
    }

    fn collector() -> SnapshotCollector {
        SnapshotCollector::new(
            CollectorConfig::default(),
            InstallId(1_000_000_000),
            ParticipantId(123_456),
        )
    }

    #[test]
    fn first_poll_emits_both_kinds_and_full_app_list() {
        let d = device();
        let mut c = collector();
        let snaps = c.poll(&d, SimTime::from_secs(100));
        assert_eq!(snaps.len(), 2);
        let fast = snaps.iter().find(|s| s.is_fast()).unwrap();
        if let Snapshot::Fast(f) = fast {
            assert_eq!(f.install_events.len(), 1, "initial snapshot lists all apps");
            assert!(f.install_events[0].is_install());
        }
    }

    #[test]
    fn cadence_five_seconds_and_two_minutes() {
        let d = device();
        let mut c = collector();
        c.poll(&d, SimTime::from_secs(0));
        // 120 seconds later: 24 fast ticks (5..=120 step 5) + 1 slow tick.
        let snaps = c.poll(&d, SimTime::from_secs(120));
        let fast = snaps.iter().filter(|s| s.is_fast()).count();
        let slow = snaps.len() - fast;
        assert_eq!(fast, 24);
        assert_eq!(slow, 1);
    }

    #[test]
    fn install_and_uninstall_deltas() {
        let mut d = device();
        let mut c = collector();
        c.poll(&d, SimTime::from_secs(0));
        d.install_app(
            AppId(2),
            SimTime::from_secs(2),
            PermissionProfile::default(),
            ApkHash([2; 16]),
        );
        d.uninstall_app(AppId(1), SimTime::from_secs(3));
        let snap = c.sample_fast(&d, SimTime::from_secs(5));
        let installs: Vec<_> = snap
            .install_events
            .iter()
            .filter(|e| e.is_install())
            .collect();
        let uninstalls: Vec<_> = snap
            .install_events
            .iter()
            .filter(|e| !e.is_install())
            .collect();
        assert_eq!(installs.len(), 1);
        assert_eq!(installs[0].app(), AppId(2));
        assert_eq!(uninstalls.len(), 1);
        assert_eq!(uninstalls[0].app(), AppId(1));
        // Next sample: no deltas.
        assert!(c
            .sample_fast(&d, SimTime::from_secs(10))
            .install_events
            .is_empty());
    }

    #[test]
    fn reinstall_reported_as_fresh_install() {
        let mut d = device();
        let mut c = collector();
        c.poll(&d, SimTime::from_secs(0));
        d.install_app(
            AppId(1),
            SimTime::from_secs(50),
            PermissionProfile::default(),
            ApkHash([1; 16]),
        );
        let snap = c.sample_fast(&d, SimTime::from_secs(55));
        assert_eq!(snap.install_events.len(), 1);
        assert!(snap.install_events[0].is_install());
    }

    #[test]
    fn permissions_gate_collection() {
        let mut d = device();
        d.register_account(
            racket_types::RegisteredAccount::gmail(
                racket_types::AccountId(1),
                racket_types::GoogleId(1),
            ),
            SimTime::EPOCH,
        );
        d.open_app(AppId(1), SimTime::from_secs(1), 60);
        d.set_permissions(DevicePermissions {
            usage_stats: false,
            get_accounts: false,
        });
        let mut c = collector();
        let fast = c.sample_fast(&d, SimTime::from_secs(2));
        assert_eq!(fast.foreground_app, None, "PACKAGE_USAGE_STATS denied");
        let slow = c.sample_slow(&d, SimTime::from_secs(2));
        assert!(slow.accounts.is_empty(), "GET_ACCOUNTS denied");
        // Stopped apps are package-manager data, still reported.
        d.set_permissions(DevicePermissions::default());
        let slow2 = c.sample_slow(&d, SimTime::from_secs(3));
        assert_eq!(slow2.accounts.len(), 1);
    }

    #[test]
    fn serialization_round_trips_files() {
        let d = device();
        let mut c = collector();
        let snaps = c.poll(&d, SimTime::from_secs(100));
        let mut file = Vec::new();
        for s in &snaps {
            file.extend_from_slice(&SnapshotCollector::serialize(s));
        }
        let back = SnapshotCollector::deserialize_file(&file).unwrap();
        assert_eq!(back, snaps);
    }

    #[test]
    fn poll_into_matches_poll_across_package_churn() {
        // Drive two identical collectors through the same device history:
        // one via the allocating `poll`, one via `poll_into` with a single
        // reused batch. Every emission must match snapshot-for-snapshot.
        let mut d = device();
        let mut c_ref = collector();
        let mut c_pooled = collector();
        let mut batch = SnapshotBatch::new();
        let mut polls = 0usize;
        for step in 0u32..60 {
            let t = SimTime::from_secs(u64::from(step) * 7);
            match step % 4 {
                1 => {
                    d.install_app(
                        AppId(100 + step),
                        t,
                        PermissionProfile::default(),
                        ApkHash([step as u8; 16]),
                    );
                }
                3 => {
                    d.uninstall_app(AppId(100 + step - 2), t);
                }
                _ => {}
            }
            let expected = c_ref.poll(&d, t);
            batch.clear();
            c_pooled.poll_into(&d, t, &mut batch);
            assert_eq!(batch.snapshots(), expected.as_slice(), "step {step}");
            assert_eq!(batch.len(), expected.len());
            assert_eq!(batch.is_empty(), expected.is_empty());
            polls += expected.len();
        }
        assert!(polls > 60, "the sequence exercised real emissions");
    }

    #[test]
    fn poll_at_exact_period_boundary_is_inclusive_and_idempotent() {
        let d = device();
        let mut c = collector();
        c.poll(&d, SimTime::from_secs(0));
        // One second before the next fast tick: nothing is due.
        assert!(c.poll(&d, SimTime::from_secs(4)).is_empty());
        // Exactly on the tick: due snapshots are emitted inclusively…
        let snaps = c.poll(&d, SimTime::from_secs(5));
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].time().as_secs(), 5);
        // …and a second poll at the same instant (the study driver's
        // end-of-monitoring final tick pattern) emits nothing again.
        assert!(c.poll(&d, SimTime::from_secs(5)).is_empty());
    }

    #[test]
    fn stamp_fast_path_never_swallows_deltas() {
        // Interleave quiet polls (which take the package-stamp skip) with
        // package churn; every mutation must still surface exactly once.
        let mut d = device();
        let mut c = collector();
        c.poll(&d, SimTime::from_secs(0));
        for quiet in 1..=3 {
            assert!(c
                .sample_fast(&d, SimTime::from_secs(quiet))
                .install_events
                .is_empty());
        }
        d.install_app(
            AppId(2),
            SimTime::from_secs(4),
            PermissionProfile::default(),
            ApkHash([2; 16]),
        );
        let snap = c.sample_fast(&d, SimTime::from_secs(5));
        assert_eq!(snap.install_events.len(), 1);
        assert_eq!(snap.install_events[0].app(), AppId(2));
        // Uninstall then reinstall between samples: both the uninstall and
        // the fresh install carry distinct stamps, so the skip cannot hide
        // the combined churn either.
        d.uninstall_app(AppId(2), SimTime::from_secs(6));
        d.install_app(
            AppId(2),
            SimTime::from_secs(7),
            PermissionProfile::default(),
            ApkHash([3; 16]),
        );
        let snap = c.sample_fast(&d, SimTime::from_secs(8));
        assert_eq!(snap.install_events.len(), 1, "reinstall is a fresh install");
        assert!(snap.install_events[0].is_install());
        assert!(c
            .sample_fast(&d, SimTime::from_secs(9))
            .install_events
            .is_empty());
    }

    #[test]
    fn batch_clear_recycles_buffers_between_polls() {
        let mut d = device();
        let mut c = collector();
        let mut batch = SnapshotBatch::new();
        c.poll_into(&d, SimTime::from_secs(0), &mut batch);
        assert_eq!(batch.len(), 2, "first poll emits one fast + one slow");
        batch.clear();
        assert!(batch.is_empty());
        // The recycled event buffer must come back cleared even though the
        // next tick has fresh deltas of its own.
        d.install_app(
            AppId(9),
            SimTime::from_secs(1),
            PermissionProfile::default(),
            ApkHash([9; 16]),
        );
        c.poll_into(&d, SimTime::from_secs(5), &mut batch);
        let Snapshot::Fast(f) = &batch.snapshots()[0] else {
            panic!("fast snapshot first");
        };
        assert_eq!(f.install_events.len(), 1);
        assert_eq!(f.install_events[0].app(), AppId(9));
    }

    #[test]
    fn thinned_cadence() {
        let d = device();
        let mut c = SnapshotCollector::new(
            CollectorConfig {
                fast_period_secs: 60,
                slow_period_secs: 120,
                collect_reviews: false,
            },
            InstallId(1),
            ParticipantId(1),
        );
        c.poll(&d, SimTime::from_secs(0));
        let snaps = c.poll(&d, SimTime::from_secs(600));
        let fast = snaps.iter().filter(|s| s.is_fast()).count();
        assert_eq!(fast, 10);
    }
}
