//! Statistical conformance: the simulated fleet must reproduce the
//! paper's §6 cohort statistics within tolerance.
//!
//! The fleet is a generative model *calibrated* to the paper
//! (ARCHITECTURE.md §11);
//! these tests are the tripwire that keeps the calibration honest as the
//! pipeline evolves. Each check has a tolerance band wide enough to
//! absorb small-fleet sampling noise at test scale but tight enough that
//! a drifted calibration constant trips it — verified by the negative
//! control below, which perturbs one persona parameter through the
//! `PersonaOverrides` hook and asserts the suite notices.
//!
//! Paper anchors (see EXPERIMENTS.md for the paper-scale measurements):
//!
//! * Figure 5 — workers register tens of Gmail accounts (paper mean
//!   28.87), regular users one or two.
//! * Figure 7 — 33.1% of worker reviews post within a day of install
//!   (37.2% measured at mid scale); regular users mostly review much
//!   later.
//! * Figure 8 — workers force-stop promoted apps after the job (36.71
//!   vs 3.54 mean stopped apps).

mod common;

use racket_agents::{ClampedLogNormal, PersonaParams};
use racketstore::measurements::MeasurementReport;
use racketstore::study::{CollectionPath, Study, StudyConfig, StudyOutput};
use std::sync::OnceLock;

/// Test-scale study over the direct path (the distribution checks don't
/// need the wire-protocol hop, and direct keeps the run fast).
fn conformance_config() -> StudyConfig {
    let mut config = StudyConfig::test_scale();
    config.path = CollectionPath::Direct;
    config
}

fn baseline() -> &'static (StudyOutput, MeasurementReport) {
    static OUT: OnceLock<(StudyOutput, MeasurementReport)> = OnceLock::new();
    OUT.get_or_init(|| {
        let out = Study::new(conformance_config()).run();
        let report = MeasurementReport::compute(&out);
        (out, report)
    })
}

/// Every conformance violation in `report`, as human-readable strings
/// (empty = conformant). Collected rather than asserted one-by-one so a
/// drifted calibration reports *all* bands it broke.
fn violations(report: &MeasurementReport) -> Vec<String> {
    let mut v = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            v.push(msg);
        }
    };

    // -- Figure 5: Gmail accounts per device -----------------------------
    let reg = report.gmail_accounts.regular_summary();
    let wrk = report.gmail_accounts.worker_summary();
    check(
        (1.0..=4.0).contains(&reg.median),
        format!(
            "gmail_accounts: regular median {:.2} outside [1, 4] (calibration median 2)",
            reg.median
        ),
    );
    check(
        (8.0..=60.0).contains(&wrk.median),
        format!(
            "gmail_accounts: worker median {:.2} outside [8, 60] (organic 15 / dedicated 31)",
            wrk.median
        ),
    );
    check(
        wrk.mean >= 4.0 * reg.mean,
        format!(
            "gmail_accounts: worker mean {:.2} not ≫ regular mean {:.2} (paper: 28.87 vs ~1)",
            wrk.mean, reg.mean
        ),
    );
    check(
        report.gmail_accounts.ks.significant(),
        format!(
            "gmail_accounts: cohorts not separable by KS (p = {:.3})",
            report.gmail_accounts.ks.p_value
        ),
    );

    // -- Figure 7: install-to-review delay -------------------------------
    let itr = &report.install_to_review;
    let worker_frac = itr.worker_within_one_day as f64 / itr.worker_days.len().max(1) as f64;
    check(
        itr.worker_days.len() >= 50,
        format!(
            "install_to_review: only {} worker delays sampled",
            itr.worker_days.len()
        ),
    );
    check(
        (0.15..=0.60).contains(&worker_frac),
        format!(
            "install_to_review: {:.1}% of worker reviews within a day, outside [15%, 60%] \
             (paper: 33.1%)",
            worker_frac * 100.0
        ),
    );
    let wrk_delay = itr.comparison.worker_summary();
    let reg_delay = itr.comparison.regular_summary();
    check(
        wrk_delay.median < reg_delay.median,
        format!(
            "install_to_review: worker median delay {:.1}d not below regular {:.1}d",
            wrk_delay.median, reg_delay.median
        ),
    );

    // -- Figure 8: stopped apps ------------------------------------------
    let reg_stop = report.stopped_apps.regular_summary();
    let wrk_stop = report.stopped_apps.worker_summary();
    check(
        (8.0..=80.0).contains(&wrk_stop.mean),
        format!(
            "stopped_apps: worker mean {:.2} outside [8, 80] (paper: 36.71)",
            wrk_stop.mean
        ),
    );
    check(
        reg_stop.mean <= 8.0,
        format!(
            "stopped_apps: regular mean {:.2} above 8 (paper: 3.54)",
            reg_stop.mean
        ),
    );
    check(
        wrk_stop.mean >= 3.0 * reg_stop.mean.max(0.5),
        format!(
            "stopped_apps: worker mean {:.2} not ≫ regular mean {:.2}",
            wrk_stop.mean, reg_stop.mean
        ),
    );

    v
}

#[test]
fn simulator_conforms_to_paper_statistics() {
    let (_, report) = baseline();
    let found = violations(report);
    assert!(
        found.is_empty(),
        "calibration drifted from the paper:\n  {}",
        found.join("\n  ")
    );
}

/// Negative control: the suite must *fail demonstrably* when a
/// calibration constant is perturbed. Inflating the regular persona's
/// Gmail-account distribution (median 2 → 20, the worker regime) through
/// the `PersonaOverrides` hook has to trip the account-count bands — if
/// it doesn't, the tolerances above are too loose to protect anything.
#[test]
fn conformance_detects_a_perturbed_calibration() {
    let mut config = conformance_config();
    let mut regular = PersonaParams::regular();
    regular.gmail_accounts = ClampedLogNormal::new(20.0, 0.45, 10.0, 80.0);
    config.fleet.overrides.regular = Some(regular);

    let out = Study::new(config).run();
    let report = MeasurementReport::compute(&out);
    let found = violations(&report);
    assert!(
        found.iter().any(|m| m.starts_with("gmail_accounts:")),
        "perturbing the regular Gmail-account median must trip a \
         gmail_accounts band; violations were: {found:?}"
    );
}

/// The observability registry never reaches the data fingerprint: two
/// identically-configured runs fingerprint identically even though their
/// wall-clock histograms differ (tested here at the conformance config so
/// the suite exercises the direct path; tests/determinism.rs covers the
/// wire path and thread invariance).
#[test]
fn metrics_stay_out_of_the_fingerprint() {
    let (out, _) = baseline();
    let again = Study::new(conformance_config()).run();
    assert_eq!(common::fingerprint(out), common::fingerprint(&again));
    // Wall-clock histograms are genuinely recorded (non-zero spans) …
    assert!(out.metrics.simulate_secs > 0.0);
    // … but the registry snapshot is not part of the fingerprint, so
    // differing timings between the two runs did not perturb it.
    assert!(again.metrics.simulate_secs > 0.0);
    assert_ne!(
        out.obs.snapshot().histograms.get("span.simulate"),
        again.obs.snapshot().histograms.get("span.simulate"),
        "independent runs time differently (nanosecond-exact collision \
         would be astronomically unlikely)"
    );
}
