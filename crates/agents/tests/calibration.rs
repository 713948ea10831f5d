//! Calibration tests: the generated fleet must reproduce the §6 statistics
//! of the paper within generous tolerances. These run at paper scale (803
//! devices), which is why they live in a separate integration-test binary.

use racket_agents::{Fleet, FleetConfig};
use racket_stats::Summary;
use racket_types::Cohort;

use std::sync::OnceLock;

/// One shared paper-scale fleet (generation costs a few seconds).
fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| Fleet::generate(FleetConfig::paper_scale()))
}

fn per_device<F: Fn(&racket_agents::StudyDevice) -> f64>(
    fleet: &Fleet,
    cohort: Cohort,
    f: F,
) -> Vec<f64> {
    fleet.cohort_devices(cohort).map(f).collect()
}

#[test]
fn population_counts_match_paper() {
    let fleet = fleet();
    assert_eq!(fleet.cohort_devices(Cohort::Regular).count(), 223);
    assert_eq!(fleet.cohort_devices(Cohort::Worker).count(), 580);
}

#[test]
fn gmail_accounts_match_section_6_2() {
    // Paper: workers mean 28.87 (M = 21, SD = 29.37, max 163); regular
    // max 10, M = 2.
    let fleet = fleet();
    let workers = Summary::of(&per_device(fleet, Cohort::Worker, |d| {
        d.device.gmail_accounts().count() as f64
    }))
    .unwrap();
    let regular = Summary::of(&per_device(fleet, Cohort::Regular, |d| {
        d.device.gmail_accounts().count() as f64
    }))
    .unwrap();
    assert!(
        (18.0..40.0).contains(&workers.mean),
        "worker gmail mean {} (paper 28.87)",
        workers.mean
    );
    assert!(
        (14.0..30.0).contains(&workers.median),
        "worker gmail median {} (paper 21)",
        workers.median
    );
    assert!(
        regular.max <= 10.0,
        "regular gmail max {} (paper 10)",
        regular.max
    );
    assert!(
        (1.0..4.0).contains(&regular.median),
        "regular gmail median {} (paper 2)",
        regular.median
    );
}

#[test]
fn account_type_diversity_matches_section_6_2() {
    // Paper: regular devices register ~6 service types (max 19); workers
    // fewer, concentrated on Gmail + ASO tooling.
    let fleet = fleet();
    let regular = Summary::of(&per_device(fleet, Cohort::Regular, |d| {
        d.device.account_service_count() as f64
    }))
    .unwrap();
    let workers = Summary::of(&per_device(fleet, Cohort::Worker, |d| {
        d.device.account_service_count() as f64
    }))
    .unwrap();
    assert!(
        (4.0..9.0).contains(&regular.mean),
        "regular types mean {}",
        regular.mean
    );
    assert!(
        workers.mean < regular.mean,
        "workers have fewer account types"
    );
}

#[test]
fn installed_apps_overlap_between_cohorts() {
    // Paper: 65.45 regular vs 77.56 worker — close enough that ANOVA found
    // no significant difference.
    let fleet = fleet();
    let regular = Summary::of(&per_device(fleet, Cohort::Regular, |d| {
        d.device.installed_count() as f64
    }))
    .unwrap();
    let workers = Summary::of(&per_device(fleet, Cohort::Worker, |d| {
        d.device.installed_count() as f64
    }))
    .unwrap();
    assert!(
        (45.0..95.0).contains(&regular.mean),
        "regular installs {}",
        regular.mean
    );
    assert!(
        (55.0..115.0).contains(&workers.mean),
        "worker installs {}",
        workers.mean
    );
    assert!(workers.mean > regular.mean, "workers install slightly more");
    assert!(workers.mean < 1.6 * regular.mean, "distributions overlap");
}

#[test]
fn total_reviews_per_device_match_figure_6() {
    // Paper: worker devices average 208.91 total reviews from registered
    // accounts (11 devices > 1,000); regular devices 1.91 (max 36).
    let fleet = fleet();
    let totals = |cohort| {
        per_device(fleet, cohort, |d| {
            d.agent
                .gmail_identities()
                .iter()
                .map(|&(_, g)| fleet.store.reviews_by(g).len() as f64)
                .sum()
        })
    };
    let workers = Summary::of(&totals(Cohort::Worker)).unwrap();
    let regular = Summary::of(&totals(Cohort::Regular)).unwrap();
    assert!(
        (100.0..350.0).contains(&workers.mean),
        "worker total reviews mean {} (paper 208.91)",
        workers.mean
    );
    assert!(
        regular.mean < 8.0,
        "regular total reviews mean {} (paper 1.91)",
        regular.mean
    );
    assert!(
        workers.max > 700.0,
        "heavy tail expected, max {}",
        workers.max
    );
}

#[test]
fn stopped_apps_heavier_on_worker_devices() {
    // Paper Figure 8: workers accumulate stopped apps (dedicated median 23).
    let fleet = fleet();
    let workers = Summary::of(&per_device(fleet, Cohort::Worker, |d| {
        d.device.installed_apps().filter(|a| a.stopped).count() as f64
    }))
    .unwrap();
    let regular = Summary::of(&per_device(fleet, Cohort::Regular, |d| {
        d.device.installed_apps().filter(|a| a.stopped).count() as f64
    }))
    .unwrap();
    assert!(
        workers.median > 2.0 * regular.median.max(1.0),
        "worker stopped median {} vs regular {}",
        workers.median,
        regular.median
    );
}

#[test]
fn churn_rates_match_figure_9() {
    // Paper: worker 15.94 installs/day (M = 6.41), regular 3.88 (M = 2.0).
    let fleet = fleet();
    let workers = Summary::of(&per_device(fleet, Cohort::Worker, |d| {
        d.agent.profile.install_rate
    }))
    .unwrap();
    let regular = Summary::of(&per_device(fleet, Cohort::Regular, |d| {
        d.agent.profile.install_rate
    }))
    .unwrap();
    assert!(
        (9.0..23.0).contains(&workers.mean),
        "worker churn mean {}",
        workers.mean
    );
    assert!(
        (2.5..5.5).contains(&regular.mean),
        "regular churn mean {}",
        regular.mean
    );
    assert!(
        (4.0..9.0).contains(&workers.median),
        "worker churn median {}",
        workers.median
    );
}

#[test]
fn install_to_review_delays_differ() {
    // Check the delay distributions through the store joins: reviews by
    // device accounts for currently installed apps, positive deltas only
    // (§6.3). Workers skew fast, regular users slow.
    let fleet = fleet();
    let delays = |cohort| {
        let mut out = Vec::new();
        for d in fleet.cohort_devices(cohort) {
            for &(_, g) in d.agent.gmail_identities() {
                for r in fleet.store.reviews_by(g) {
                    if let Some(info) = d.device.installed_app(r.app) {
                        let delta = r.posted_at.signed_delta_secs(info.install_time);
                        if delta >= 0 {
                            out.push(delta as f64 / 86_400.0);
                        }
                    }
                }
            }
        }
        out
    };
    let w = delays(Cohort::Worker);
    let r = delays(Cohort::Regular);
    assert!(
        w.len() > 10 * r.len().max(1),
        "workers post far more joinable reviews"
    );
    let ws = Summary::of(&w).unwrap();
    assert!(
        (3.0..20.0).contains(&ws.mean),
        "worker delay mean {} (paper 10.4)",
        ws.mean
    );
    let fast = w.iter().filter(|&&d| d <= 1.0).count() as f64 / w.len() as f64;
    assert!((0.2..0.55).contains(&fast), "P(≤1d) = {fast} (paper 0.33)");
    if r.len() >= 10 {
        let rs = Summary::of(&r).unwrap();
        assert!(
            rs.mean > 25.0,
            "regular delay mean {} (paper 85.09)",
            rs.mean
        );
    }
}
