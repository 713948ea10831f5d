//! Simulated Google Play substrate.
//!
//! The study's server-side data sources (§3 Figure 3, §5) were the Google
//! Play Store — queried by a review crawler that collects each app's most
//! recent reviews every 12 hours — a Gmail→Google-ID side channel used to
//! join registered accounts to their Play reviews, and VirusTotal (62 AV
//! engines) for apk verdicts. None of those are reachable from a
//! reproduction environment, so this crate implements behaviour-preserving
//! simulators for all three:
//!
//! * [`AppCatalog`] — a synthetic app population with categories,
//!   permission profiles, popularity weights, promoted (ASO-campaign) apps
//!   and malware-carrying builds;
//! * [`ReviewStore`] + [`ReviewCrawler`] — an append-only review log with
//!   newest-first pagination, crawled under the paper's exact policy
//!   (100,000-review cap on first contact, crawl-until-seen afterwards);
//! * [`GoogleIdDirectory`] — the e-mail → Google ID mapping (the Gmail
//!   search functionality the authors reported to Google's VRP);
//! * [`VirusTotalSim`] — per-apk flag counts across 62 engines, with the
//!   coverage gaps the paper observed (12,431 of 18,079 hashes resolvable).

#![deny(missing_docs)]

pub mod catalog;
pub mod crawler;
mod directory;
mod reviews;
pub mod virustotal;

pub use catalog::{AppCatalog, CatalogConfig};
pub use crawler::ReviewCrawler;
pub use directory::GoogleIdDirectory;
pub use reviews::ReviewStore;
pub use virustotal::{VirusTotalSim, VtReport};
