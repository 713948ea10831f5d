//! Behavioural personas and the fleet simulator.
//!
//! The study's ground truth is 803 devices — 580 controlled by ASO workers
//! and 223 by regular users (§4, §5). That population is unreachable from a
//! reproduction environment, so this crate replaces it with a generative
//! model calibrated to every statistic §6 reports:
//!
//! * [`PersonaParams`] — per-persona distributions for registered accounts,
//!   installed apps, daily churn, app-opening behaviour, review propensity
//!   and install-to-review delay;
//! * [`DeviceAgent`] — samples a per-device latent profile and produces the
//!   device's behaviour, day by day;
//! * [`Fleet`] — generates the full study population (devices + Play-store
//!   state + Google-ID directory + VirusTotal), simulates the pre-study
//!   *history* (which is where install times and most reviews come from),
//!   and plans the per-device timeline for the monitored study window.
//!
//! Calibration targets are asserted by this crate's tests (tolerances are
//! generous — the goal is the paper's *shape*: worker ≫ regular on Gmail
//! accounts, reviews and churn; regular ≫ worker on account-type diversity
//! and install-to-review delay).

#![deny(missing_docs)]

mod agent;
mod campaign;
mod dist;
mod fleet;
mod lane;
pub mod params;
mod textgen;

pub use agent::{
    apply_action_collecting, Action, DeviceAgent, DeviceProfile, IdAllocator, TimelineAction,
};
pub use campaign::{
    expand_directives, CampaignConfig, CampaignDirective, CampaignSpec, PacingStrategy,
};
pub use dist::{ClampedLogNormal, DelayMixture};
pub use fleet::{stream_seed, Fleet, FleetConfig, PersonaOverrides, StudyDevice};
pub use lane::LaneScratch;
pub use params::PersonaParams;
pub use textgen::TextGen;
