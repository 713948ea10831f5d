//! Batch campaign detection and ground-truth evaluation.
//!
//! The study already runs the lockstep detector *incrementally* — over the
//! [`racket_campaign::CampaignSketch`]es the streaming engine folded at
//! snapshot-ingest time ([`crate::StudyOutput::campaigns`]). This module is
//! the batch half of that contract: [`batch_report`] rebuilds every sketch
//! from the columnar install-event and review families and feeds the
//! identical [`racket_campaign::detect_with_text()`] kernel, so the two
//! reports are byte-equal by construction (pinned across thread counts and
//! delivery paths by `tests/campaign_equivalence.rs`). [`evaluate`] scores either report
//! against the fleet's [`racket_agents::CampaignSpec`] ground truth for the
//! EXPERIMENTS.md recall/precision-vs-stealth table.

use crate::study::StudyOutput;
use racket_campaign::{detect_with_text, CampaignReport, CampaignSketch, DetectorConfig};
use racket_text::TextSketch;
use racket_types::metrics::keys;
use racket_types::InstallId;
use std::collections::BTreeSet;

/// Run the lockstep detector in batch mode: rebuild one sketch per install
/// from the columnar install-event column family (`campaign/shingle` span,
/// `campaign.shingles` counter), then hand the sketches to the same
/// [`detect()`](racket_campaign::detect()) kernel the incremental
/// path uses.
pub fn batch_report(out: &StudyOutput) -> CampaignReport {
    let obs = &out.obs;
    let mut sketches: Vec<(InstallId, CampaignSketch)> =
        Vec::with_capacity(out.columnar.n_installs());
    {
        let _span = obs.span(keys::SPAN_CAMPAIGN_SHINGLE);
        for code in 0..out.columnar.n_installs() as u32 {
            let mut sk = CampaignSketch::default();
            for (app, t) in out.columnar.install_events_of(code) {
                sk.observe(app, t);
            }
            sketches.push((out.columnar.install_id(code), sk));
        }
        obs.add(
            keys::CAMPAIGN_SHINGLES,
            sketches.iter().map(|(_, s)| s.n_shingles() as u64).sum(),
        );
    }
    let inputs: Vec<(InstallId, &CampaignSketch)> =
        sketches.iter().map(|(id, s)| (*id, s)).collect();
    // The text candidate source gets the same batch treatment: sketches
    // rebuilt from the columnar review family. With review collection off
    // the rebuild yields nothing and the detector runs the event-only
    // path bit-for-bit, matching the incremental side.
    let texts: Vec<(InstallId, TextSketch)> = crate::text::batch_text_sketches(out);
    let text_inputs: Vec<(InstallId, &TextSketch)> = texts.iter().map(|(id, s)| (*id, s)).collect();
    detect_with_text(&inputs, &text_inputs, &DetectorConfig::default(), Some(obs))
}

/// Detection quality against the fleet's scheduled-campaign ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignEval {
    /// Scheduled campaigns (ground truth).
    pub n_truth: usize,
    /// Campaigns the detector reported.
    pub n_detected: usize,
    /// Ground-truth campaigns matched by at least one detected cluster
    /// (device-set Jaccard ≥ 0.5).
    pub matched_truth: usize,
    /// Detected clusters matching at least one ground-truth campaign.
    pub matched_detected: usize,
}

impl CampaignEval {
    /// Fraction of scheduled campaigns recovered (1.0 when none were
    /// scheduled — a campaign-free fleet with no detections is perfect).
    pub fn recall(&self) -> f64 {
        if self.n_truth == 0 {
            1.0
        } else {
            self.matched_truth as f64 / self.n_truth as f64
        }
    }

    /// Fraction of detected clusters that correspond to a real campaign.
    pub fn precision(&self) -> f64 {
        if self.n_detected == 0 {
            1.0
        } else {
            self.matched_detected as f64 / self.n_detected as f64
        }
    }
}

/// Match a detection report against the fleet ground truth: a detected
/// cluster counts as a ground-truth campaign when their device sets overlap
/// with Jaccard ≥ 0.5 (detected clusters may merge overlapping campaigns or
/// shed dropped-out stealth workers; exact set equality would punish both).
pub fn evaluate(report: &CampaignReport, out: &StudyOutput) -> CampaignEval {
    let truth_sets: Vec<BTreeSet<InstallId>> = out
        .fleet
        .campaigns
        .iter()
        .map(|spec| {
            spec.workers
                .iter()
                .map(|&w| out.fleet.devices[w].install_id)
                .collect()
        })
        .collect();
    let detected_sets: Vec<BTreeSet<InstallId>> = report
        .campaigns
        .iter()
        .map(|c| c.devices.iter().copied().collect())
        .collect();

    let jaccard = |a: &BTreeSet<InstallId>, b: &BTreeSet<InstallId>| -> f64 {
        let inter = a.intersection(b).count();
        let union = a.len() + b.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    };

    let matched_truth = truth_sets
        .iter()
        .filter(|t| detected_sets.iter().any(|d| jaccard(t, d) >= 0.5))
        .count();
    let matched_detected = detected_sets
        .iter()
        .filter(|d| truth_sets.iter().any(|t| jaccard(t, d) >= 0.5))
        .count();
    CampaignEval {
        n_truth: truth_sets.len(),
        n_detected: detected_sets.len(),
        matched_truth,
        matched_detected,
    }
}

/// Per-observation verdict surface: for each device in
/// `out.observations` order, the index of the detected campaign containing
/// it (first by campaign order), or `None` for devices outside every
/// cluster. This is what a deployment would attach to a device record next
/// to its §8 classifier verdict.
pub fn membership(report: &CampaignReport, out: &StudyOutput) -> Vec<Option<u32>> {
    out.observations
        .iter()
        .map(|o| {
            report
                .campaigns
                .iter()
                .position(|c| c.devices.binary_search(&o.record.install_id).is_ok())
                .map(|i| i as u32)
        })
        .collect()
}
