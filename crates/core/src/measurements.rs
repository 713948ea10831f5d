//! The §6 measurement analyses.
//!
//! Every comparison the paper draws between worker and regular devices,
//! as typed data: per-cohort samples plus the paper's statistical battery
//! — two-sample Kolmogorov–Smirnov, parametric one-way ANOVA and
//! non-parametric ANOVA (Kruskal–Wallis) — with Shapiro–Wilk and
//! Fligner–Killeen pre-tests (the paper runs the non-parametric tests
//! because both pre-tests reject for every feature). The §6 sections of
//! `racket-bench`'s `paper_report` only format what this module computes.

use crate::study::StudyOutput;
use racket_stats::{anova_oneway, kruskal_wallis, ks_2samp, Summary, TestOutcome};
use racket_types::Cohort;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};

/// A per-feature comparison between the two cohorts.
#[derive(Debug, Clone)]
pub struct CohortComparison {
    /// Feature name.
    pub name: &'static str,
    /// Per-regular-device (or per-observation) values.
    pub regular: Vec<f64>,
    /// Per-worker-device values.
    pub worker: Vec<f64>,
    /// Two-sample KS test.
    pub ks: TestOutcome,
    /// Parametric one-way ANOVA.
    pub anova: TestOutcome,
    /// Non-parametric ANOVA (Kruskal–Wallis).
    pub kruskal: TestOutcome,
}

impl CohortComparison {
    /// Run the full battery over two samples.
    pub fn new(name: &'static str, regular: Vec<f64>, worker: Vec<f64>) -> Self {
        assert!(
            !regular.is_empty() && !worker.is_empty(),
            "comparison {name} needs both cohorts"
        );
        let ks = ks_2samp(&regular, &worker);
        let anova = anova_oneway(&[&regular, &worker]);
        let kruskal = kruskal_wallis(&[&regular, &worker]);
        CohortComparison {
            name,
            regular,
            worker,
            ks,
            anova,
            kruskal,
        }
    }

    /// Summary of the regular sample.
    pub fn regular_summary(&self) -> Summary {
        Summary::of(&self.regular).expect("non-empty")
    }

    /// Summary of the worker sample.
    pub fn worker_summary(&self) -> Summary {
        Summary::of(&self.worker).expect("non-empty")
    }
}

/// Figure 4 scatter point: one device's engagement.
#[derive(Debug, Clone, Copy)]
pub struct EngagementPoint {
    /// Average snapshots received per active day.
    pub snapshots_per_day: f64,
    /// Days with at least one snapshot.
    pub active_days: usize,
    /// Cohort of the device.
    pub cohort: Cohort,
}

/// Figure 7: install-to-review delays.
#[derive(Debug, Clone)]
pub struct InstallToReview {
    /// Per-review delay in days, regular devices.
    pub regular_days: Vec<f64>,
    /// Per-review delay in days, worker devices.
    pub worker_days: Vec<f64>,
    /// Worker reviews posted within one day of install.
    pub worker_within_one_day: usize,
    /// Regular reviews posted within one day of install.
    pub regular_within_one_day: usize,
    /// The statistical battery over the two delay samples.
    pub comparison: CohortComparison,
}

/// Figure 9 scatter point: one device's churn.
#[derive(Debug, Clone, Copy)]
pub struct ChurnPoint {
    /// Average installs per active day.
    pub daily_installs: f64,
    /// Average uninstalls per active day.
    pub daily_uninstalls: f64,
    /// Cohort of the device.
    pub cohort: Cohort,
}

/// Figure 10 scatter point.
#[derive(Debug, Clone, Copy)]
pub struct AppsUsedPoint {
    /// Average distinct apps in the foreground per active day.
    pub apps_used_per_day: f64,
    /// Apps installed on the device.
    pub installed: usize,
    /// Cohort of the device.
    pub cohort: Cohort,
}

/// Figure 11 point: one app's permission footprint, tagged by the cohort
/// whose devices exclusively host it.
#[derive(Debug, Clone, Copy)]
pub struct PermissionPoint {
    /// Total permissions requested.
    pub total: usize,
    /// Dangerous permissions requested.
    pub dangerous: usize,
    /// The cohort that exclusively installed it.
    pub cohort: Cohort,
}

/// Figure 12 point: one flagged apk.
#[derive(Debug, Clone, Copy)]
pub struct MalwarePoint {
    /// VirusTotal engines flagging the apk.
    pub flags: u8,
    /// Worker devices hosting it.
    pub worker_devices: usize,
    /// Regular devices hosting it.
    pub regular_devices: usize,
}

/// All §6 analyses over one study.
#[derive(Debug)]
pub struct MeasurementReport {
    /// Figure 4.
    pub engagement: Vec<EngagementPoint>,
    /// Figure 5 left: Gmail accounts per device.
    pub gmail_accounts: CohortComparison,
    /// Figure 5 center: distinct account types per device.
    pub account_types: CohortComparison,
    /// Figure 5 right: non-Gmail accounts per device.
    pub non_gmail_accounts: CohortComparison,
    /// Figure 6 left: installed apps per device.
    pub installed_apps: CohortComparison,
    /// Figure 6 center: installed-and-reviewed apps per device.
    pub installed_and_reviewed: CohortComparison,
    /// Figure 6 right: total reviews from device accounts.
    pub total_reviews: CohortComparison,
    /// Figure 7.
    pub install_to_review: InstallToReview,
    /// Figure 8: stopped apps per device.
    pub stopped_apps: CohortComparison,
    /// Figure 9 scatter + per-axis comparisons.
    pub churn: Vec<ChurnPoint>,
    /// Daily installs comparison (Figure 9 x-axis).
    pub daily_installs: CohortComparison,
    /// Daily uninstalls comparison (Figure 9 y-axis).
    pub daily_uninstalls: CohortComparison,
    /// Figure 10 scatter.
    pub apps_used: Vec<AppsUsedPoint>,
    /// Figure 11 points (exclusive apps only).
    pub permissions: Vec<PermissionPoint>,
    /// Figure 12 points (apks with ≥ `malware_flag_threshold` flags).
    pub malware: Vec<MalwarePoint>,
    /// The ≥-flags threshold used for the malware figure (paper: 7).
    pub malware_flag_threshold: u8,
}

impl MeasurementReport {
    /// Run every §6 analysis.
    pub fn compute(out: &StudyOutput) -> MeasurementReport {
        let cohorts: Vec<Cohort> = out.truth.iter().map(|t| t.persona.cohort()).collect();
        let split = |f: &dyn Fn(usize) -> f64| -> (Vec<f64>, Vec<f64>) {
            let mut regular = Vec::new();
            let mut worker = Vec::new();
            for (i, cohort) in cohorts.iter().enumerate() {
                match cohort {
                    Cohort::Regular => regular.push(f(i)),
                    Cohort::Worker => worker.push(f(i)),
                }
            }
            (regular, worker)
        };

        // Figure 4 — engagement. Per-device passes fan out over worker
        // threads (order-preserving, so the report is thread-count
        // independent like everything else in the pipeline).
        let engagement = (0..out.observations.len())
            .into_par_iter()
            .map(|i| EngagementPoint {
                snapshots_per_day: out.observations[i].record.avg_snapshots_per_day(),
                active_days: out.observations[i].record.active_days(),
                cohort: cohorts[i],
            })
            .collect();

        // Figure 5 — accounts.
        let (r, w) = split(&|i| {
            out.observations[i]
                .record
                .accounts
                .iter()
                .filter(|a| a.service.is_gmail())
                .count() as f64
        });
        let gmail_accounts = CohortComparison::new("gmail_accounts", r, w);
        let (r, w) = split(&|i| {
            let mut s: Vec<_> = out.observations[i]
                .record
                .accounts
                .iter()
                .map(|a| a.service)
                .collect();
            s.sort();
            s.dedup();
            s.len() as f64
        });
        let account_types = CohortComparison::new("account_types", r, w);
        let (r, w) = split(&|i| {
            out.observations[i]
                .record
                .accounts
                .iter()
                .filter(|a| !a.service.is_gmail())
                .count() as f64
        });
        let non_gmail_accounts = CohortComparison::new("non_gmail_accounts", r, w);

        // Figure 6 — installed / reviewed apps.
        let (r, w) = split(&|i| out.observations[i].record.apps.installed().count() as f64);
        let installed_apps = CohortComparison::new("installed_apps", r, w);
        let (r, w) = split(&|i| out.observations[i].installed_and_reviewed() as f64);
        let installed_and_reviewed = CohortComparison::new("installed_and_reviewed", r, w);
        let (r, w) = split(&|i| out.observations[i].total_reviews() as f64);
        let total_reviews = CohortComparison::new("total_reviews", r, w);

        // Figure 7 — install-to-review delay per review (positive deltas
        // only; negative deltas are past installs, §6.3).
        let delays = |cohort: Cohort| -> Vec<f64> {
            let mut out_days = Vec::new();
            for (obs, &c) in out.observations.iter().zip(&cohorts) {
                if c != cohort {
                    continue;
                }
                for (app, reviews) in &obs.reviews_by_app {
                    let Some(info) = obs.record.apps.get(app) else {
                        continue;
                    };
                    if !obs.record.apps.is_installed(app) {
                        continue;
                    }
                    for review in reviews {
                        let d = review.posted_at.signed_delta_secs(info.install_time);
                        if d >= 0 {
                            out_days.push(d as f64 / 86_400.0);
                        }
                    }
                }
            }
            out_days
        };
        let (regular_days, worker_days) =
            rayon::join(|| delays(Cohort::Regular), || delays(Cohort::Worker));
        let install_to_review = InstallToReview {
            regular_within_one_day: regular_days.iter().filter(|&&d| d <= 1.0).count(),
            worker_within_one_day: worker_days.iter().filter(|&&d| d <= 1.0).count(),
            comparison: CohortComparison::new(
                "install_to_review_days",
                regular_days.clone(),
                worker_days.clone(),
            ),
            regular_days,
            worker_days,
        };

        // Figure 8 — stopped apps.
        let (r, w) = split(&|i| out.observations[i].record.stopped_apps.len() as f64);
        let stopped_apps = CohortComparison::new("stopped_apps", r, w);

        // Figure 9 — churn.
        let churn: Vec<ChurnPoint> = (0..out.observations.len())
            .into_par_iter()
            .map(|i| {
                let rec = &out.observations[i].record;
                let days = rec.active_days().max(1) as f64;
                ChurnPoint {
                    daily_installs: rec.install_events.len() as f64 / days,
                    daily_uninstalls: rec.uninstall_events.len() as f64 / days,
                    cohort: cohorts[i],
                }
            })
            .collect();
        let (r, w) = split(&|i| churn[i].daily_installs);
        let daily_installs = CohortComparison::new("daily_installs", r, w);
        let (r, w) = split(&|i| churn[i].daily_uninstalls);
        let daily_uninstalls = CohortComparison::new("daily_uninstalls", r, w);

        // Figure 10 — apps used per day vs installed.
        let apps_used = (0..out.observations.len())
            .into_par_iter()
            .map(|i| {
                let rec = &out.observations[i].record;
                let mut per_day: HashMap<u64, usize> = HashMap::new();
                for days in rec.foreground.values() {
                    for day in days.keys() {
                        *per_day.entry(*day).or_insert(0) += 1;
                    }
                }
                let used = if per_day.is_empty() {
                    0.0
                } else {
                    per_day.values().map(|&c| c as f64).sum::<f64>() / per_day.len() as f64
                };
                AppsUsedPoint {
                    apps_used_per_day: used,
                    installed: rec.apps.installed().count(),
                    cohort: cohorts[i],
                }
            })
            .collect();

        // Figure 11 — permissions of cohort-exclusive apps.
        let mut on_regular: HashSet<racket_types::AppId> = HashSet::new();
        let mut on_worker: HashSet<racket_types::AppId> = HashSet::new();
        for (obs, cohort) in out.observations.iter().zip(&cohorts) {
            let apps = obs.record.apps.keys().copied();
            match cohort {
                Cohort::Regular => on_regular.extend(apps),
                Cohort::Worker => on_worker.extend(apps),
            }
        }
        let mut permissions = Vec::new();
        for (set, other, cohort) in [
            (&on_regular, &on_worker, Cohort::Regular),
            (&on_worker, &on_regular, Cohort::Worker),
        ] {
            let mut exclusive: Vec<racket_types::AppId> =
                set.iter().filter(|a| !other.contains(a)).copied().collect();
            exclusive.sort_unstable();
            for app in exclusive {
                let meta = out.fleet.catalog.app(app);
                permissions.push(PermissionPoint {
                    total: meta.permissions.len(),
                    dangerous: meta.dangerous_permission_count(),
                    cohort,
                });
            }
        }

        // Figure 12 — malware occurrence (≥ 7 VT flags).
        let threshold = racket_playstore::virustotal::HIGH_CONFIDENCE_FLAGS;
        let mut malware_map: HashMap<racket_types::ApkHash, MalwarePoint> = HashMap::new();
        for (obs, cohort) in out.observations.iter().zip(&cohorts) {
            for info in obs.record.apps.values() {
                let Some(Some(flags)) = obs.vt_flags.get(&info.app) else {
                    continue;
                };
                if *flags < threshold {
                    continue;
                }
                let entry = malware_map.entry(info.apk_hash).or_insert(MalwarePoint {
                    flags: *flags,
                    worker_devices: 0,
                    regular_devices: 0,
                });
                match cohort {
                    Cohort::Worker => entry.worker_devices += 1,
                    Cohort::Regular => entry.regular_devices += 1,
                }
            }
        }

        MeasurementReport {
            engagement,
            gmail_accounts,
            account_types,
            non_gmail_accounts,
            installed_apps,
            installed_and_reviewed,
            total_reviews,
            install_to_review,
            stopped_apps,
            churn,
            daily_installs,
            daily_uninstalls,
            apps_used,
            permissions,
            malware: {
                let mut entries: Vec<_> = malware_map.into_iter().collect();
                entries.sort_unstable_by_key(|(hash, _)| *hash);
                entries.into_iter().map(|(_, point)| point).collect()
            },
            malware_flag_threshold: threshold,
        }
    }

    /// The comparisons the paper declares significant, for the pre-test
    /// sweep (§6 preamble) and the summary printers.
    pub fn comparisons(&self) -> Vec<&CohortComparison> {
        vec![
            &self.gmail_accounts,
            &self.account_types,
            &self.non_gmail_accounts,
            &self.installed_apps,
            &self.installed_and_reviewed,
            &self.total_reviews,
            &self.install_to_review.comparison,
            &self.stopped_apps,
            &self.daily_installs,
            &self.daily_uninstalls,
        ]
    }
}

#[cfg(test)]
impl CohortComparison {
    /// §6 preamble pre-tests: Shapiro–Wilk normality on the pooled sample
    /// and Fligner–Killeen variance homogeneity across cohorts. Returns
    /// `None` when the pooled sample is degenerate (constant or too
    /// small).
    pub(crate) fn pretests(&self) -> Option<(TestOutcome, TestOutcome)> {
        let pooled: Vec<f64> = self
            .regular
            .iter()
            .chain(self.worker.iter())
            .copied()
            .collect();
        if pooled.len() < 3 || pooled.len() > 5000 {
            return None;
        }
        let min = pooled.iter().copied().fold(f64::INFINITY, f64::min);
        let max = pooled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if min == max {
            return None;
        }
        Some((
            racket_stats::shapiro_wilk(&pooled),
            racket_stats::fligner_killeen(&[&self.regular, &self.worker]),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::test_output;
    use std::sync::OnceLock;

    fn report() -> &'static MeasurementReport {
        static R: OnceLock<MeasurementReport> = OnceLock::new();
        R.get_or_init(|| MeasurementReport::compute(test_output()))
    }

    #[test]
    fn gmail_accounts_significantly_differ() {
        let r = report();
        assert!(
            r.gmail_accounts.ks.significant(),
            "KS p = {}",
            r.gmail_accounts.ks.p_value
        );
        assert!(r.gmail_accounts.kruskal.significant());
        assert!(r.gmail_accounts.worker_summary().mean > r.gmail_accounts.regular_summary().mean);
    }

    #[test]
    fn total_reviews_dramatically_differ() {
        let r = report();
        let w = r.total_reviews.worker_summary();
        let reg = r.total_reviews.regular_summary();
        assert!(
            w.mean > 20.0 * reg.mean.max(0.5),
            "worker {} regular {}",
            w.mean,
            reg.mean
        );
        assert!(r.total_reviews.ks.significant());
    }

    #[test]
    fn installed_apps_overlap() {
        // The paper finds KS significant but ANOVA not; at minimum the
        // means must be close (overlapping distributions).
        let r = report();
        let w = r.installed_apps.worker_summary().mean;
        let reg = r.installed_apps.regular_summary().mean;
        assert!(w < 2.0 * reg, "worker {w} vs regular {reg} should overlap");
    }

    #[test]
    fn install_to_review_shape() {
        let r = report();
        let itr = &r.install_to_review;
        assert!(itr.worker_days.len() > 10 * itr.regular_days.len().max(1));
        let worker_fast = itr.worker_within_one_day as f64 / itr.worker_days.len().max(1) as f64;
        assert!((0.15..0.6).contains(&worker_fast), "P(≤1d) = {worker_fast}");
    }

    #[test]
    fn stopped_apps_heavier_for_workers() {
        let r = report();
        assert!(r.stopped_apps.worker_summary().median > r.stopped_apps.regular_summary().median);
        assert!(r.stopped_apps.kruskal.significant());
    }

    #[test]
    fn churn_means_ordered() {
        let r = report();
        assert!(r.daily_installs.worker_summary().mean > r.daily_installs.regular_summary().mean);
    }

    #[test]
    fn figures_have_points() {
        let r = report();
        assert_eq!(r.engagement.len(), 60);
        assert_eq!(r.churn.len(), 60);
        assert_eq!(r.apps_used.len(), 60);
        assert!(!r.permissions.is_empty());
        assert_eq!(r.malware_flag_threshold, 7);
    }

    #[test]
    fn pretests_reject_normality_for_heavy_tailed_features() {
        let r = report();
        if let Some((shapiro, _fligner)) = r.total_reviews.pretests() {
            assert!(shapiro.significant(), "total reviews are wildly non-normal");
        }
    }
}
