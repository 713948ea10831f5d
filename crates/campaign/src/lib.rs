//! `racket-campaign` — coordinated-campaign (lockstep) detection.
//!
//! RacketStore's per-device and per-app classifiers score accounts and
//! apps in isolation; real ASO fraud is *coordinated* — organizer-run
//! worker pools hitting the same target apps inside shared time windows
//! ("Erasing Labor with Labor", PAPERS.md). This crate detects that
//! lockstep structure from install telemetry alone:
//!
//! 1. **Shingles** — each device's monitored install events become a set
//!    of `(app, 6-hour bucket)` shingles (`BUCKET_SECS` in `sketch.rs`,
//!    packed by `racket_columnar::pack_shingle`).
//! 2. **MinHash** — a 128-row [`MinHash`] signature summarises each
//!    shingle set — the workspace's one MinHash kernel. Signatures merge
//!    by elementwise min, which makes the fold order-insensitive and
//!    mergeable across ingest shards.
//! 3. **LSH banding** — [`lsh::candidate_pairs`] buckets signature bands
//!    to propose likely-similar device pairs without the O(n²) scan.
//! 4. **Temporal co-occurrence scoring** — candidate pairs are verified
//!    against the exact event sets: an edge requires both a Jaccard floor
//!    over shingles and at least [`DetectorConfig::min_co_apps`] distinct
//!    apps the two devices touched within [`DetectorConfig::window_secs`].
//! 5. **Near-duplicate review text** (optional) — [`detect_with_text`]
//!    adds a second candidate source: review SimHashes from per-install
//!    `racket_text::TextSketch`es feed a banded near-duplicate index, and
//!    installs sharing verified template copies on ≥ 2 apps gain an edge
//!    even when their install times are too dispersed for temporal
//!    co-occurrence (stealth/drip campaigns).
//! 6. **Dense-subgraph mining** — greedy quasi-clique growth over the
//!    co-occurrence graph yields [`DetectedCampaign`] device groups with
//!    their shared target apps.
//!
//! # Determinism
//!
//! Every stage is a pure function of its input sets: hashing is seeded
//! SplitMix64 (no `RandomState`), all intermediate collections are
//! B-tree-ordered, and ties in the miner break on ascending install ID.
//! Two pipelines that feed the same event sets — the batch path over
//! `ColumnarSnapshots` and the incremental fold on streaming state —
//! therefore produce byte-identical [`CampaignReport`]s; the contract is
//! enforced by `tests/campaign_equivalence.rs` at the workspace root and
//! documented in ARCHITECTURE.md §10.

#![deny(missing_docs)]

mod detect;
pub mod lsh;
mod minhash;
mod sketch;

pub use detect::{detect, detect_with_text, CampaignReport, DetectedCampaign, DetectorConfig};
pub use minhash::MinHash;
pub use sketch::CampaignSketch;
