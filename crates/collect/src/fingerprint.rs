//! Snapshot fingerprinting and install coalescing (Appendix A).
//!
//! One physical device can be behind several RacketStore installs —
//! workers share devices across participant identities, re-install to get
//! paid twice, and some device models don't report an Android ID. The
//! paper's procedure, reproduced here:
//!
//! 1. group snapshots into candidate installs by install ID (already done
//!    by the server's per-install records);
//! 2. install pairs with **overlapping** install intervals are *different*
//!    devices (one app instance per device at a time);
//! 3. non-overlapping pairs with the **same Android ID** are the same
//!    device; with **different** Android IDs, different devices;
//! 4. when Android IDs are missing, fall back to Jaccard similarity over
//!    the `(app, install time)` tuple sets and the registered-account
//!    sets — the paper found different-device pairs stay ≤ 0.5625 on apps,
//!    and account similarity > 0.53 implies the same device.

use crate::server::InstallRecord;
use racket_stats::jaccard;
use racket_types::{AccountId, AndroidId, AppId, InstallId, ParticipantId, SimTime, TimeInterval};
use std::collections::HashSet;

/// Jaccard threshold on (app, install-time) sets above which two
/// Android-ID-less installs are considered the same device (Appendix A's
/// separation point: different devices stayed at or below 0.5625).
pub(crate) const APP_JACCARD_THRESHOLD: f64 = 0.5625;
/// Jaccard threshold on registered-account sets (Appendix A: 0.53).
pub(crate) const ACCOUNT_JACCARD_THRESHOLD: f64 = 0.53;

/// The fingerprint-relevant view of one install.
#[derive(Debug, Clone)]
pub struct CandidateInstall {
    /// The install ID.
    pub install_id: InstallId,
    /// Participant the install signed in as.
    pub participant: ParticipantId,
    /// Android ID, if ever reported.
    pub android_id: Option<AndroidId>,
    /// Observed monitoring interval `[t_f, t_l)`.
    pub interval: TimeInterval,
    /// `(app, install time)` tuples observed on the install.
    pub apps: HashSet<(AppId, SimTime)>,
    /// Accounts registered on the device.
    pub accounts: HashSet<AccountId>,
}

impl CandidateInstall {
    /// Build a candidate from a server-side install record.
    pub fn from_record(record: &InstallRecord) -> Self {
        CandidateInstall {
            install_id: record.install_id,
            participant: record.participant,
            android_id: record.android_id,
            interval: record.observed_interval(),
            apps: record
                .apps
                .values()
                .map(|info| (info.app, info.install_time))
                .collect(),
            accounts: record.accounts.iter().map(|a| a.id).collect(),
        }
    }

    /// Whether this install and `other` can belong to the same physical
    /// device under the Appendix A rules.
    pub(crate) fn same_device(&self, other: &CandidateInstall) -> bool {
        // Rule 2: overlapping installation intervals → different devices.
        if self.interval.overlaps(&other.interval) {
            return false;
        }
        // Rule 3: Android IDs decide when both are present.
        if let (Some(a), Some(b)) = (self.android_id, other.android_id) {
            return a == b;
        }
        // Rule 4: Jaccard fallback.
        jaccard(&self.apps, &other.apps) > APP_JACCARD_THRESHOLD
            || jaccard(&self.accounts, &other.accounts) > ACCOUNT_JACCARD_THRESHOLD
    }
}

/// A coalesced physical device: one or more installs.
#[derive(Debug, Clone)]
pub struct CoalescedDevice {
    /// Member installs, in input order.
    pub installs: Vec<CandidateInstall>,
}

impl CoalescedDevice {
    /// Distinct participants who ran installs on this device (shared
    /// worker devices have more than one, Appendix A).
    pub fn participants(&self) -> HashSet<ParticipantId> {
        self.installs.iter().map(|i| i.participant).collect()
    }
}

/// Coalesce candidate installs into physical devices: union-find over the
/// pairwise `same_device` relation, with the overlap rule taking
/// precedence — a union is refused whenever it would place two installs
/// with overlapping intervals in the same group (one physical device runs
/// one RacketStore instance at a time, so overlap is conclusive evidence
/// of distinct devices even when weaker signals suggest a merge).
pub fn coalesce_installs(candidates: Vec<CandidateInstall>) -> Vec<CoalescedDevice> {
    let n = candidates.len();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }

    for i in 0..n {
        for j in i + 1..n {
            if !candidates[i].same_device(&candidates[j]) {
                continue;
            }
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri == rj {
                continue;
            }
            // Overlap precedence: refuse unions that would group any pair
            // of overlapping install intervals.
            let conflict = members[ri].iter().any(|&a| {
                members[rj]
                    .iter()
                    .any(|&b| candidates[a].interval.overlaps(&candidates[b].interval))
            });
            if conflict {
                continue;
            }
            let moved = std::mem::take(&mut members[rj]);
            members[ri].extend(moved);
            parent[rj] = ri;
        }
    }

    let mut groups: std::collections::BTreeMap<usize, Vec<CandidateInstall>> =
        std::collections::BTreeMap::new();
    for (i, cand) in candidates.into_iter().enumerate() {
        groups.entry(find(&mut parent, i)).or_default().push(cand);
    }
    groups
        .into_values()
        .map(|installs| CoalescedDevice { installs })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(
        id: u64,
        participant: u32,
        android: Option<u64>,
        days: (u64, u64),
        apps: &[(u32, u64)],
        accounts: &[u64],
    ) -> CandidateInstall {
        CandidateInstall {
            install_id: InstallId(id),
            participant: ParticipantId(participant),
            android_id: android.map(AndroidId),
            interval: TimeInterval::new(SimTime::from_days(days.0), SimTime::from_days(days.1)),
            apps: apps
                .iter()
                .map(|&(a, t)| (AppId(a), SimTime::from_days(t)))
                .collect(),
            accounts: accounts.iter().map(|&a| AccountId(a)).collect(),
        }
    }

    #[test]
    fn overlapping_intervals_are_distinct_devices() {
        // Same Android ID but overlapping windows: must be two devices.
        let a = candidate(1, 1, Some(9), (0, 5), &[(1, 0)], &[1]);
        let b = candidate(2, 2, Some(9), (3, 8), &[(1, 0)], &[1]);
        assert!(!a.same_device(&b));
        let out = coalesce_installs(vec![a, b]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn same_android_id_sequential_installs_coalesce() {
        // A worker uninstalls and re-installs to get paid twice.
        let a = candidate(1, 1, Some(9), (0, 3), &[(1, 0), (2, 1)], &[1, 2]);
        let b = candidate(2, 1, Some(9), (5, 8), &[(1, 0), (2, 1)], &[1, 2]);
        let out = coalesce_installs(vec![a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].installs.len(), 2);
    }

    #[test]
    fn different_android_ids_stay_distinct() {
        let a = candidate(1, 1, Some(9), (0, 3), &[(1, 0)], &[1]);
        let b = candidate(2, 1, Some(10), (5, 8), &[(1, 0)], &[1]);
        // Identical apps and accounts, but hardware says otherwise.
        assert!(!a.same_device(&b));
    }

    #[test]
    fn jaccard_fallback_on_missing_android_ids() {
        // High app overlap: same device.
        let apps: Vec<(u32, u64)> = (0..16).map(|i| (i, 0)).collect();
        let a = candidate(1, 1, None, (0, 3), &apps, &[1]);
        let b = candidate(2, 2, None, (5, 8), apps[..12].to_vec().as_slice(), &[99]);
        // Jaccard = 12/16 = 0.75 > 0.5625.
        assert!(a.same_device(&b));

        // Low overlap and different accounts: distinct.
        let c = candidate(3, 3, None, (10, 12), apps[..4].to_vec().as_slice(), &[100]);
        assert!(!b.same_device(&c) || jaccard(&b.apps, &c.apps) > APP_JACCARD_THRESHOLD);
    }

    #[test]
    fn account_similarity_rescues_app_churned_device() {
        // Apps churned completely between installs, but accounts persist.
        let a = candidate(1, 1, None, (0, 3), &[(1, 0), (2, 1)], &[1, 2, 3, 4]);
        let b = candidate(2, 2, None, (5, 8), &[(7, 6), (8, 6)], &[1, 2, 3, 5]);
        // Account Jaccard = 3/5 = 0.6 > 0.53.
        assert!(a.same_device(&b));
    }

    #[test]
    fn shared_device_reports_multiple_participants() {
        let a = candidate(1, 10, Some(9), (0, 3), &[(1, 0)], &[1]);
        let b = candidate(2, 20, Some(9), (5, 8), &[(1, 0)], &[1]);
        let out = coalesce_installs(vec![a, b]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].participants().len(), 2);
        let coverage: f64 = out[0]
            .installs
            .iter()
            .map(|i| i.interval.duration().as_days())
            .sum();
        assert_eq!(coverage, 6.0);
    }

    #[test]
    fn transitive_coalescing() {
        // a ~ b (android id), b ~ c (android id); all three one device.
        let a = candidate(1, 1, Some(9), (0, 2), &[(1, 0)], &[1]);
        let b = candidate(2, 1, Some(9), (3, 5), &[(1, 0)], &[1]);
        let c = candidate(3, 1, Some(9), (6, 8), &[(1, 0)], &[1]);
        let out = coalesce_installs(vec![a, b, c]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].installs.len(), 3);
    }

    #[test]
    fn empty_input() {
        assert!(coalesce_installs(Vec::new()).is_empty());
    }

    #[test]
    fn idempotence_single_install_groups() {
        let singles: Vec<CandidateInstall> = (0..5)
            .map(|i| {
                candidate(
                    i,
                    i as u32,
                    Some(100 + i),
                    (i * 10, i * 10 + 2),
                    &[(i as u32, 0)],
                    &[i],
                )
            })
            .collect();
        let out = coalesce_installs(singles);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|d| d.installs.len() == 1));
    }
}
