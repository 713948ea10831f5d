//! Core domain types for the RacketStore reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: identifiers for devices, installs, participants and accounts;
//! simulated time; the Android permission catalog; app metadata; the two
//! snapshot formats collected by the RacketStore app (fast, every 5 s;
//! slow, every 2 min); and Google Play reviews.
//!
//! The types mirror §3 ("Measurements Infrastructure") and §5 ("Data") of
//! *RacketStore: Measurements of ASO Deception in Google Play via Mobile and
//! App Usage* (IMC 2021). Everything is plain data with [`serde`] support so
//! the collection pipeline can serialize snapshots the way the real app
//! shipped them to its backend.

#![deny(missing_docs)]

mod account;
mod app;
mod id;
pub mod metrics;
mod permission;
mod review;
pub mod snapshot;
mod time;

pub use account::{AccountId, AccountService, RegisteredAccount};
pub use app::{ApkHash, AppCategory, AppId, AppMetadata, InstalledApp};
pub use id::{AndroidId, GoogleId, InstallId, ParticipantId};
pub use metrics::FaultCounters;
pub use permission::{Permission, PermissionProfile, PermissionSet};
pub use review::{Rating, RatingSummary, Review, ReviewEvent};
pub use snapshot::{FastSnapshot, InstallDelta, ReclaimedBuffer, SlowSnapshot, Snapshot};
pub use time::{SimDuration, SimTime, TimeInterval};

/// Ground-truth cohort of a study participant, as recruited in §4.
///
/// Workers were recruited from Facebook ASO groups; regular users through
/// Instagram ads. This is the label the device classifier of §8 predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Cohort {
    /// A regular Google Play user.
    Regular,
    /// An app-search-optimization worker.
    Worker,
}

impl Cohort {
    /// Human-readable label used by the experiment harness.
    pub fn label(self) -> &'static str {
        match self {
            Cohort::Regular => "regular",
            Cohort::Worker => "worker",
        }
    }
}

/// Fine-grained behavioural persona used by the fleet simulator.
///
/// The paper distinguishes *professional* (dedicated) workers, who use
/// devices and accounts exclusively for ASO work, from *organic* workers,
/// who blend promotion with personal activity (§2). §8.2 finds 123 of 178
/// worker devices organic-indicative and 55 promotion-dedicated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Persona {
    /// Personal device use only.
    Regular,
    /// ASO work hidden among personal device use.
    OrganicWorker,
    /// Device dedicated to app promotion.
    DedicatedWorker,
}

impl Persona {
    /// The recruitment cohort this persona belongs to.
    pub fn cohort(self) -> Cohort {
        match self {
            Persona::Regular => Cohort::Regular,
            Persona::OrganicWorker | Persona::DedicatedWorker => Cohort::Worker,
        }
    }

    /// Whether the persona performs any paid promotion work.
    pub fn is_worker(self) -> bool {
        self.cohort() == Cohort::Worker
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persona_cohorts() {
        assert_eq!(Persona::Regular.cohort(), Cohort::Regular);
        assert_eq!(Persona::OrganicWorker.cohort(), Cohort::Worker);
        assert_eq!(Persona::DedicatedWorker.cohort(), Cohort::Worker);
        assert!(!Persona::Regular.is_worker());
        assert!(Persona::DedicatedWorker.is_worker());
    }

    #[test]
    fn cohort_labels() {
        assert_eq!(Cohort::Regular.label(), "regular");
        assert_eq!(Cohort::Worker.label(), "worker");
    }
}
