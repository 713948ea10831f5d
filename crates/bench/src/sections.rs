//! The section table: one row per table, figure, ablation and appendix.

use crate::{Kind, Report, Section, Sink};
use racket_agents::params::PersonaParams;
use racket_agents::{CampaignConfig, PacingStrategy, PersonaOverrides};
use racket_collect::{coalesce_installs, CandidateInstall};
use racket_features::DeviceObservation;
use racket_ml::{cross_validate, Dataset, GradientBoosting, GradientBoostingParams, Resampling};
use racket_types::{Cohort, InstallId, ParticipantId, SimDuration, SimTime, TimeInterval};
use racketstore::app_classifier::{self, AlgorithmRow, AppClassifier, CV_REPEATS};
use racketstore::device_classifier::{self, DeviceDataset};
use racketstore::measurements::{AppsUsedPoint, EngagementPoint, MalwarePoint, PermissionPoint};
use racketstore::scoring::DetectionService;
use racketstore::study::{Study, StudyOutput};

/// Every section, in the order the paper presents its artifacts.
#[rustfmt::skip]
pub const SECTIONS: &[Section] = &[
    ("study_summary", "§5 dataset summary, live detection", "803 devices, 58.3 M snapshots", study_summary),
    ("table1", "Table 1 — app classifier", "XGB F1 99.72% (P 99.78, R 99.67, AUC > 0.99)", table1),
    ("table2", "Table 2 — device classifier", "XGB F1 95.29% (P 96.81, R 93.81, AUC 0.9455)", table2),
    ("table3", "Table 3 — PII inventory", "accounts and device ID, deleted after use", table3),
    ("fig1", "Figure 1 — interaction timelines", "worker: install, then reviews, no use", fig1),
    ("fig4", "Figure 4 — engagement", "529 of 803 devices ≥ 100 snapshots/day", fig4),
    ("fig5", "Figure 5 — registered accounts", "28.87 Gmail accounts per worker device, M = 2 regular", fig5),
    ("fig6", "Figure 6 — apps installed and reviewed", "reviewed 40.51 vs 0.7, total reviews 208.91 vs 1.91", fig6),
    ("fig7", "Figure 7 — install-to-review delay", "33.1% of worker reviews within a day; 10.4 vs 85.09 d", fig7),
    ("fig8", "Figure 8 — stopped apps", "workers ≫ regular", fig8),
    ("fig9", "Figure 9 — app churn", "installs/day 15.94 vs 3.88, uninstalls 7.02 vs 3.29", fig9),
    ("fig10", "Figure 10 — apps used per day", "cohorts overlap", fig10),
    ("fig11", "Figure 11 — permissions of cohort-exclusive apps", "weak signal", fig11),
    ("fig12", "Figure 12 — malware occurrence", "worker spread ≫ regular at ≥ 7 VirusTotal flags", fig12),
    ("fig13", "Figure 13 — app-classifier feature importance", "reviewing accounts, install-to-review time", fig13),
    ("fig14", "Figure 14 — device-classifier feature importance", "apps reviewed, suspiciousness, stopped apps", fig14),
    ("fig15", "Figure 15 — organic/dedicated split", "69.1% organic (123 of 178)", fig15),
    ("ablation_app", "§7.2 class balancing, app classifier", "XGB F1 98.76% under, 99.22% over, 99.72% none", ablation_app),
    ("ablation_device", "§8.2 class balancing, device classifier", "XGB F1 95.29% SMOTE, 95.18% under, 96.86% none", ablation_device),
    ("ablation_features", "§7.1 feature families and review text", "engagement features carry detection", ablation_features),
    ("evasion_cost", "§9 evasion cost", "evading detection cuts the fraud delivered", evasion_cost),
    ("campaign_table", "§7.3 campaign detection vs pacing stealth", "lockstep groups are recoverable", campaign_table),
    ("appendix_a", "Appendix A — fingerprint coalescing", "943 installs → 803 devices", appendix_a),
];

const COHORTS: [Cohort; 2] = [Cohort::Regular, Cohort::Worker];

/// Summarises `value` over the points of each cohort under `prefix` and
/// returns the two samples, regular devices first.
fn per_cohort<P>(
    sink: &mut Sink,
    prefix: &str,
    points: &[P],
    value: impl Fn(&P) -> (Cohort, f64),
) -> [Vec<f64>; 2] {
    COHORTS.map(|cohort| {
        let of_cohort = points.iter().map(&value).filter(|(c, _)| *c == cohort);
        let sample: Vec<f64> = of_cohort.map(|(_, v)| v).collect();
        sink.summary(&format!("{prefix}.{}", cohort.label()), &sample);
        sample
    })
}

/// The §5 counts, then live detection: the feature vectors were maintained
/// at ingest time, so end-of-study classification is a model pass over
/// cached state.
fn study_summary(r: &Report, sink: &mut Sink) {
    let out = &r.out;
    let total = |per_device: fn(&DeviceObservation) -> u64| {
        out.observations.iter().map(per_device).sum::<u64>() as f64
    };
    sink.headline("devices", out.observations.len() as f64);
    sink.count("regular_devices", out.cohort(Cohort::Regular).count());
    sink.count("worker_devices", out.cohort(Cohort::Worker).count());
    sink.count("coalesced_devices", out.coalesced_devices);
    sink.headline("snapshots_fast", total(|o| o.record.n_fast));
    sink.scalar("snapshots_slow", total(|o| o.record.n_slow));
    let apps = out.observations.iter().flat_map(|o| o.record.apps.keys());
    let apps: std::collections::HashSet<_> = apps.collect();
    sink.count("apps_observed", apps.len());
    sink.scalar("store_reviews", out.fleet.store.total_reviews() as f64);
    sink.count("reviews_crawled", out.reviews_crawled);
    sink.scalar("gmail_accounts", total(|o| o.google_ids.len() as u64));
    sink.scalar("reviews_joined", total(|o| o.total_reviews() as u64));
    sink.scalar("uploaded_files", out.server_stats.files as f64);
    sink.scalar("bad_uploads", out.server_stats.bad_uploads as f64);

    let service = DetectionService::train(&r.app_clf, &r.dev_ds);
    let verdicts = service.score_streaming(out, &service.prime(out));
    let flagged = verdicts.iter().filter(|v| v.is_worker).count();
    sink.count("live.flagged_worker", flagged);
    let dedicated = verdicts.iter().filter(|v| v.is_dedicated()).count();
    sink.count("live.promotion_dedicated", dedicated);
    let truth = verdicts.iter().zip(&out.truth);
    let correct = truth.filter(|(v, t)| v.is_worker == (t.persona.cohort() == Cohort::Worker));
    let agreement = correct.count() as f64 / verdicts.len() as f64;
    sink.headline("live.agreement_with_truth", agreement);
}

/// One classifier table, optionally under a resampling `mode`: scalars per
/// algorithm (the first row's F1 a headline) and the CSV rows.
fn classifier_table(sink: &mut Sink, mode: Option<&str>, table: &[AlgorithmRow]) -> Vec<String> {
    let labels = |separator| mode.map_or(String::new(), |m| format!("{m}{separator}"));
    let rows = table.iter().enumerate().map(|(i, row)| {
        let cells = sink.metrics(&(labels('.') + row.name), &row.metrics, i == 0);
        format!("{}{},{cells}", labels(','), row.name)
    });
    rows.collect()
}

const TABLE_HEADER: &str = "algorithm,precision,recall,f1,auc,fpr";
const ABLATION_HEADER: &str = "sampling,algorithm,precision,recall,f1,auc,fpr";

fn table1(r: &Report, sink: &mut Sink) {
    sink.count("suspicious_instances", r.app_ds.n_suspicious());
    sink.count("non_suspicious_instances", r.app_ds.n_regular());
    let report = app_classifier::evaluate(&r.app_ds, CV_REPEATS, Resampling::None);
    let rows = classifier_table(sink, None, &report.table);
    sink.series("table1.csv", TABLE_HEADER, rows.into_iter());
}

fn table2(r: &Report, sink: &mut Sink) {
    sink.count("worker_devices", r.dev_ds.data.n_positive());
    sink.count("regular_devices", r.dev_ds.data.n_negative());
    let rows = classifier_table(sink, None, &r.dev_evals[0].1.table);
    sink.series("table2.csv", TABLE_HEADER, rows.into_iter());
}

/// The only PII-analogues the pipeline touches are accounts (GET_ACCOUNTS)
/// and the device ID (fingerprinting); no IP, e-mail or payment data exists
/// anywhere in the simulation.
fn table3(r: &Report, sink: &mut Sink) {
    let records = || r.out.observations.iter().map(|o| &o.record);
    let with_accounts = records().filter(|rec| !rec.accounts.is_empty()).count();
    let with_device_id = records().filter(|rec| rec.android_id.is_some()).count();
    sink.headline("devices_reporting_accounts", with_accounts as f64);
    sink.headline("devices_reporting_device_id", with_device_id as f64);
}

/// The (day, level) series of one app on one device: install (4), reviews
/// (3) and foreground days (2), relative to monitoring start. The app is
/// the lowest-numbered reviewed app that is installed, else the lowest app
/// ever on screen (both maps are hashed: `min` fixes the choice).
fn timeline(obs: &DeviceObservation) -> Vec<(f64, u8)> {
    let start = obs.monitoring.start;
    let reviewed = obs.reviews_by_app.keys().copied();
    let installed = reviewed.filter(|a| obs.record.apps.contains_key(a)).min();
    let on_screen = || obs.record.foreground.keys().copied().min();
    let Some(app) = installed.or_else(on_screen) else {
        return Vec::new();
    };
    let days_in = |t: SimTime| t.signed_delta_secs(start) as f64 / 86_400.0;
    let install = obs.record.apps.get(&app);
    let install = install.map(|info| (days_in(info.install_time), 4));
    let reviews = obs.reviews_for(app).into_iter();
    let reviews = reviews.map(|r| (days_in(r.posted_at), 3));
    let days_used = obs.record.foreground.get(&app).into_iter().flatten();
    let used = days_used.map(|(day, _)| (*day as f64 - start.as_days(), 2));
    let mut events: Vec<(f64, u8)> = install.into_iter().chain(reviews).chain(used).collect();
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    events
}

/// Two worker devices with reviews and one regular device without.
fn fig1(r: &Report, sink: &mut Sink) {
    let (mut workers, mut regular, mut rows) = (0, 0, Vec::new());
    for (obs, truth) in r.out.observations.iter().zip(&r.out.truth) {
        let (cohort, events) = (truth.persona.cohort(), timeline(obs));
        let has_review = events.iter().any(|&(_, level)| level == 3);
        match cohort {
            Cohort::Worker if workers < 2 && has_review => workers += 1,
            Cohort::Regular if regular < 1 && !has_review => regular += 1,
            _ => continue,
        }
        let (label, install) = (cohort.label(), obs.record.install_id);
        let shown = events.iter().take(18);
        rows.extend(shown.map(|(day, level)| format!("{label},{install},{day:.3},{level}")));
    }
    sink.headline("worker_timelines", workers as f64);
    sink.headline("regular_timelines", regular as f64);
    sink.count("events", rows.len());
    sink.series("fig1.csv", "cohort,install,day,level", rows.into_iter());
}

fn fig4(r: &Report, sink: &mut Sink) {
    let points = &r.measurements.engagement;
    let per_day = |p: &EngagementPoint| (p.cohort, p.snapshots_per_day);
    per_cohort(sink, "snapshots_per_day", points, per_day);
    let engaged = points.iter().filter(|p| p.snapshots_per_day >= 100.0);
    sink.headline("devices_at_least_100_per_day", engaged.count() as f64);
    sink.count("devices", points.len());
    let rows = points.iter().map(|p| {
        let (cohort, per_day) = (p.cohort.label(), p.snapshots_per_day);
        format!("{cohort},{per_day:.2},{}", p.active_days)
    });
    sink.series("fig4.csv", "cohort,snapshots_per_day,active_days", rows);
}

fn fig5(r: &Report, sink: &mut Sink) {
    let m = &r.measurements;
    sink.comparison(&m.gmail_accounts);
    sink.comparison(&m.account_types);
    sink.comparison(&m.non_gmail_accounts);
    sink.cohort_series("fig5_gmail.csv", "cohort,gmail_accounts", &m.gmail_accounts);
}

fn fig6(r: &Report, sink: &mut Sink) {
    let m = &r.measurements;
    sink.comparison(&m.installed_apps);
    sink.comparison(&m.installed_and_reviewed);
    sink.comparison(&m.total_reviews);
    let prolific = m.total_reviews.worker.iter().filter(|&&v| v > 1000.0);
    sink.count("worker_devices_over_1000_reviews", prolific.count());
    let header = "cohort,total_reviews";
    sink.cohort_series("fig6_total_reviews.csv", header, &m.total_reviews);
}

/// The delays are gathered by walking hashed review maps: sorted, the sums
/// behind the summary and the series no longer depend on that walk.
fn fig7(r: &Report, sink: &mut Sink) {
    let itr = &r.measurements.install_to_review;
    sink.count("joinable_reviews.worker", itr.worker_days.len());
    sink.count("joinable_reviews.regular", itr.regular_days.len());
    let worker_share = itr.worker_within_one_day as f64 / itr.worker_days.len().max(1) as f64;
    sink.headline("worker_share_within_one_day", worker_share);
    sink.count("within_one_day.worker", itr.worker_within_one_day);
    sink.count("within_one_day.regular", itr.regular_within_one_day);
    let mut delays = itr.comparison.clone();
    delays.regular.sort_by(f64::total_cmp);
    delays.worker.sort_by(f64::total_cmp);
    sink.comparison(&delays);
    let regular = delays.regular.iter().map(|d| format!("regular,{d:.4}"));
    let worker = delays.worker.iter().map(|d| format!("worker,{d:.4}"));
    sink.series("fig7.csv", "cohort,delay_days", regular.chain(worker));
}

fn fig8(r: &Report, sink: &mut Sink) {
    let stopped = &r.measurements.stopped_apps;
    sink.comparison(stopped);
    for (cohort, sample) in [("regular", &stopped.regular), ("worker", &stopped.worker)] {
        for (name, q) in [("q1", 0.25), ("q3", 0.75)] {
            let quartile = racket_stats::quantile(sample, q).expect("non-empty");
            sink.scalar(format!("stopped_apps.{cohort}.{name}"), quartile);
        }
    }
    sink.cohort_series("fig8.csv", "cohort,stopped_apps", stopped);
}

fn fig9(r: &Report, sink: &mut Sink) {
    let m = &r.measurements;
    sink.comparison(&m.daily_installs);
    sink.comparison(&m.daily_uninstalls);
    let installs = &m.daily_installs;
    for (cohort, sample) in [("regular", &installs.regular), ("worker", &installs.worker)] {
        let churning = sample.iter().filter(|&&per_day| per_day > 10.0).count();
        sink.count(format!("devices_over_10_installs_a_day.{cohort}"), churning);
    }
    let rows = m.churn.iter().map(|p| {
        let (cohort, installs) = (p.cohort.label(), p.daily_installs);
        format!("{cohort},{installs:.3},{:.3}", p.daily_uninstalls)
    });
    sink.series("fig9.csv", "cohort,daily_installs,daily_uninstalls", rows);
}

fn fig10(r: &Report, sink: &mut Sink) {
    let points = &r.measurements.apps_used;
    let used = |p: &AppsUsedPoint| (p.cohort, p.apps_used_per_day);
    let [regular, worker] = per_cohort(sink, "apps_used_per_day", points, used);
    // The overlap the paper's conclusion rests on.
    let ks = racket_stats::ks_2samp(&regular, &worker);
    sink.scalar("apps_used_per_day.ks_d", ks.statistic);
    sink.scalar("apps_used_per_day.ks_p", ks.p_value);
    let rows = points.iter().map(|p| {
        let (cohort, used) = (p.cohort.label(), p.apps_used_per_day);
        format!("{cohort},{used:.3},{}", p.installed)
    });
    sink.series("fig10.csv", "cohort,apps_used_per_day,installed", rows);
}

fn fig11(r: &Report, sink: &mut Sink) {
    let points = &r.measurements.permissions;
    let dangerous = |p: &PermissionPoint| (p.cohort, p.dangerous as f64);
    per_cohort(sink, "dangerous_permissions", points, dangerous);
    let total = |p: &PermissionPoint| (p.cohort, p.total as f64);
    let totals = per_cohort(sink, "total_permissions", points, total);
    let ratio = |p: &PermissionPoint| (p.cohort, p.dangerous as f64 / p.total.max(1) as f64);
    per_cohort(sink, "dangerous_ratio", points, ratio);
    sink.count("exclusive_apps.regular", totals[0].len());
    sink.count("exclusive_apps.worker", totals[1].len());
    let row = |p: &PermissionPoint| format!("{},{},{}", p.cohort.label(), p.total, p.dangerous);
    let header = "cohort,total_permissions,dangerous_permissions";
    sink.series("fig11.csv", header, points.iter().map(row));
}

fn fig12(r: &Report, sink: &mut Sink) {
    let malware = &r.measurements.malware;
    sink.count("flagged_apks", malware.len());
    let on_worker = malware.iter().filter(|p| p.worker_devices > 0).count();
    let on_regular = malware.iter().filter(|p| p.regular_devices > 0).count();
    sink.count("flagged_apks_on_worker_devices", on_worker);
    sink.count("flagged_apks_on_regular_devices", on_regular);
    let worker_spread: usize = malware.iter().map(|p| p.worker_devices).sum();
    let regular_spread: usize = malware.iter().map(|p| p.regular_devices).sum();
    sink.headline("device_install_spread.worker", worker_spread as f64);
    sink.headline("device_install_spread.regular", regular_spread as f64);
    let row = |p: &MalwarePoint| format!("{},{},{}", p.flags, p.worker_devices, p.regular_devices);
    let header = "flags,worker_devices,regular_devices";
    sink.series("fig12.csv", header, malware.iter().map(row));
}

/// A forest's feature ranking (mean decrease in Gini); this seed's top two
/// are headlines.
fn importance(sink: &mut Sink, name: &'static str, ranked: &[(String, f64)]) {
    for (rank, (feature, score)) in ranked.iter().enumerate() {
        sink.state(feature, *score, Kind::Scalar { headline: rank < 2 });
    }
    let row = |(feature, score): &(String, f64)| format!("{feature},{score:.6}");
    sink.series(name, "feature,importance", ranked.iter().map(row));
}

fn fig13(r: &Report, sink: &mut Sink) {
    importance(sink, "fig13.csv", &r.app_evals[0].1.importance);
}

fn fig14(r: &Report, sink: &mut Sink) {
    importance(sink, "fig14.csv", &r.dev_evals[0].1.importance);
}

fn fig15(r: &Report, sink: &mut Sink) {
    let split = &r.dev_evals[0].1.split;
    sink.count("worker_devices", split.organic + split.dedicated);
    sink.count("organic_indicative", split.organic);
    sink.count("promotion_dedicated", split.dedicated);
    sink.headline("organic_fraction", split.organic_fraction());
    for fifth in 0..5 {
        let in_fifth = |(s, _): &&(f64, usize)| ((s * 5.0) as usize).min(4) == fifth;
        let (lo, hi) = (fifth as f64 / 5.0, (fifth + 1) as f64 / 5.0);
        let key = format!("devices_with_suspiciousness_{lo:.1}_to_{hi:.1}");
        sink.count(key, split.points.iter().filter(in_fifth).count());
    }
    let row = |(s, reviewed): &(f64, usize)| format!("{s:.4},{reviewed}");
    let header = "suspiciousness,installed_and_reviewed";
    sink.series("fig15.csv", header, split.points.iter().map(row));
}

fn ablation_app(r: &Report, sink: &mut Sink) {
    let mut rows = Vec::new();
    for (mode, report) in &r.app_evals {
        rows.extend(classifier_table(sink, Some(mode), &report.table));
    }
    sink.series("ablation_app.csv", ABLATION_HEADER, rows.into_iter());
}

fn ablation_device(r: &Report, sink: &mut Sink) {
    let mut rows = Vec::new();
    for (mode, report) in &r.dev_evals {
        rows.extend(classifier_table(sink, Some(mode), &report.table));
    }
    sink.series("ablation_device.csv", ABLATION_HEADER, rows.into_iter());
}

/// §7.1 feature families: name, first column, number of columns.
const FAMILIES: [(&str, &str, usize); 5] = [
    ("review_engagement", "n_reviewing_accounts_before", 8),
    ("usage", "opened_multiple_days", 6),
    ("permissions", "n_normal_permissions", 4),
    ("virustotal", "vt_flags", 1),
    ("churn", "n_installs_monitored", 2),
];

/// `data` with the columns of one family dropped, or only those kept.
fn project(data: &Dataset, (_, first, width): (&str, &str, usize), keep: bool) -> Dataset {
    let names = &data.feature_names;
    let first = names.iter().position(|n| n == first);
    let first = first.expect("the family's first column");
    let in_family = |i: &usize| (first..first + width).contains(i);
    let kept: Vec<usize> = (0..names.len()).filter(|i| in_family(i) == keep).collect();
    let row = |row: &Vec<f64>| kept.iter().map(|&i| row[i]).collect();
    let names = kept.iter().map(|&i| names[i].clone()).collect();
    Dataset::new(data.x.iter().map(row).collect(), data.y.clone(), names)
}

/// Retrains XGB with whole feature families removed: the drop in F1 / AUC
/// is the family's real contribution (the counterpart to Figure 13). Then
/// the `+text` rows: the default study never generates review text, so the
/// study is rerun with the deterministic text generator on and the baseline
/// vector compared with baseline + text columns over the same instances.
fn ablation_features(r: &Report, sink: &mut Sink) {
    let mut rows = Vec::new();
    let mut state = |name: &str, data: &Dataset| {
        let xgb = || Box::new(GradientBoosting::new(GradientBoostingParams::default())) as _;
        let m = cross_validate(xgb, data, 10, 1, Resampling::None, 42).metrics;
        sink.count(format!("{name}.columns"), data.n_features());
        sink.headline(format!("{name}.f1"), m.f1);
        sink.scalar(format!("{name}.auc"), m.auc);
        let (columns, f1, auc) = (data.n_features(), m.f1, m.auc);
        rows.push(format!("{name},{columns},{f1:.4},{auc:.4}"));
    };
    let data = &r.app_ds.data;
    state("all", data);
    for family in FAMILIES {
        state(&format!("-{}", family.0), &project(data, family, false));
    }
    state("review_only", &project(data, FAMILIES[0], true));

    let mut config = r.config.clone();
    config.fleet.review_text = true;
    let out = Study::new(config).run();
    let ds = r.scale.app_dataset(&out);
    state("text_baseline", &ds.data);
    let instances = ds.data.x.iter().zip(&ds.provenance);
    let with_text = instances.map(|(row, (device, app))| {
        let text = racket_features::text_features(&out.observations[*device], *app);
        row.iter().copied().chain(text).collect()
    });
    let names = racket_features::app_feature_names_with_text();
    let extended = Dataset::new(with_text.collect(), ds.data.y.clone(), names);
    state("+text", &extended);
    let header = "configuration,columns,f1,auc";
    sink.series("ablation_features.csv", header, rows.into_iter());
}

/// §9 evasion strategies, applied to both worker personas.
const STRATEGIES: [&str; 6] = [
    "baseline",
    "fewer_accounts",
    "slower_reviews",
    "engage_with_apps",
    "fewer_reviews",
    "all_of_the_above",
];

/// `fewer_accounts` halves the Gmail account pool; `slower_reviews` waits
/// like a regular user before reviewing; `engage_with_apps` opens every
/// promoted app and never force-stops it; `fewer_reviews` posts from one
/// account per app and skips half the jobs.
fn evade(mut p: PersonaParams, strategy: &str) -> PersonaParams {
    let chosen = |name| strategy == name || strategy == "all_of_the_above";
    if chosen("fewer_accounts") {
        p.gmail_accounts.median = (p.gmail_accounts.median / 2.0).max(1.0);
        p.gmail_accounts.max = 30.0;
    }
    if chosen("slower_reviews") {
        p.promo_review_delay.fast_weight = 0.05;
        p.promo_review_delay.body.median = 22.0;
        p.promo_review_delay.body.sigma = 1.4;
    }
    if chosen("engage_with_apps") {
        p.promo_open_prob = 0.9;
        p.promo_stop_prob = 0.02;
    }
    if chosen("fewer_reviews") {
        p.promo_job_review_prob *= 0.5;
        p.promo_accounts_per_app.median = 1.0;
        p.promo_accounts_per_app.max = 2.0;
    }
    p
}

/// The paper's §9 argument made quantitative: each strategy regenerates the
/// study with modified worker personas, retrains the two-stage pipeline and
/// states worker-device recall beside the fraud output (reviews per worker
/// device). Evasion buys recall points only by collapsing the output.
/// `baseline` changes no persona parameter, so its study, app dataset and
/// app classifier are the base study's.
fn evasion_cost(r: &Report, sink: &mut Sink) {
    let mut rows = Vec::new();
    for name in STRATEGIES {
        let variant = (name != "baseline").then(|| {
            let mut config = r.config.clone();
            config.fleet.overrides = PersonaOverrides {
                regular: None,
                organic: Some(evade(PersonaParams::organic_worker(), name)),
                dedicated: Some(evade(PersonaParams::dedicated_worker(), name)),
            };
            let out = Study::new(config).run();
            let app_ds = r.scale.app_dataset(&out);
            (out, app_ds)
        });
        let (out, app_ds) = variant
            .as_ref()
            .map_or((&r.out, &r.app_ds), |(o, a)| (o, a));
        let reviews: usize = out.cohort(Cohort::Worker).map(|o| o.total_reviews()).sum();
        let fraud = reviews as f64 / out.cohort(Cohort::Worker).count().max(1) as f64;
        sink.headline(format!("{name}.reviews_per_worker"), fraud);
        if app_ds.n_suspicious() == 0 || app_ds.n_regular() == 0 {
            // Labeling degenerated: nothing to train on. The keys this
            // seed does not state show as n < SEEDS in the aggregate.
            continue;
        }
        let trained = variant.is_some().then(|| AppClassifier::train(app_ds));
        let dev_ds = DeviceDataset::build(out, trained.as_ref().unwrap_or(&r.app_clf), 2, None, 7);
        let report = device_classifier::evaluate(&dev_ds, Resampling::Smote { k: 5 });
        let xgb = &report.table[0].metrics;
        let (recall, precision, f1) = (xgb.recall, xgb.precision, xgb.f1);
        sink.headline(format!("{name}.recall"), recall);
        sink.scalar(format!("{name}.precision"), precision);
        sink.scalar(format!("{name}.f1"), f1);
        let metrics = format!("{recall:.4},{precision:.4},{f1:.4}");
        rows.push(format!("{name},{metrics},{fraud:.2}"));
    }
    let header = "strategy,recall,precision,f1,reviews_per_worker";
    sink.series("evasion_cost.csv", header, rows.into_iter());
}

/// Detector recall / precision against the scheduled ground truth of one
/// study; the batch report must equal the incremental one on every run.
fn campaign_row(sink: &mut Sink, pacing: &str, out: &StudyOutput) -> String {
    let batch = racketstore::campaign::batch_report(out);
    assert_eq!(batch, out.campaigns, "{pacing}: batch != incremental");
    let eval = racketstore::campaign::evaluate(&out.campaigns, out);
    let (truth, detected) = (eval.n_truth, eval.n_detected);
    let (recall, precision) = (eval.recall(), eval.precision());
    let pairs = out.campaigns.n_candidate_pairs;
    sink.count(format!("{pacing}.campaigns"), truth);
    sink.count(format!("{pacing}.detected"), detected);
    sink.headline(format!("{pacing}.recall"), recall);
    sink.headline(format!("{pacing}.precision"), precision);
    sink.scalar(format!("{pacing}.candidate_pairs"), pairs as f64);
    format!("{pacing},{truth},{detected},{recall:.4},{precision:.4},{pairs}")
}

/// Three lockstep campaigns under each pacing strategy; the base study,
/// which schedules none, is the false-positive control.
fn campaign_table(r: &Report, sink: &mut Sink) {
    let mut rows = vec![campaign_row(sink, "none", &r.out)];
    let pacings = [
        PacingStrategy::Burst,
        PacingStrategy::Drip,
        PacingStrategy::Stealth,
    ];
    for (name, pacing) in ["burst", "drip", "stealth"].into_iter().zip(pacings) {
        let mut config = r.config.clone();
        config.fleet.campaigns = CampaignConfig::with(3, pacing);
        rows.push(campaign_row(sink, name, &Study::new(config).run()));
    }
    let header = "pacing,campaigns,detected,recall,precision,candidate_pairs";
    sink.series("campaign_table.csv", header, rows.into_iter());
}

/// The paper's confusion scenarios on top of the real study — two
/// participants sharing a device, a worker re-installing to be paid twice
/// (three devices' installs cloned as later re-installs under other
/// participant codes) and devices without an Android ID — which coalescing
/// must undo to recover the true device count.
fn appendix_a(r: &Report, sink: &mut Sink) {
    let records = || r.out.observations.iter().map(|o| &o.record);
    let mut candidates: Vec<_> = records().map(CandidateInstall::from_record).collect();
    let n_real = candidates.len();
    for i in 0..3.min(n_real) {
        let mut repeat = candidates[i].clone();
        repeat.install_id = InstallId(9_000_000_000 + i as u64);
        repeat.participant = ParticipantId(900_000 + i as u32);
        let shift = repeat.interval.duration() + SimDuration::from_days(1);
        repeat.interval = TimeInterval::new(repeat.interval.end, repeat.interval.end + shift);
        candidates.push(repeat);
    }
    sink.count("install_records", candidates.len());
    let coalesced = coalesce_installs(candidates);
    assert_eq!(coalesced.len(), n_real, "coalescing must recover the fleet");
    sink.headline("coalesced_devices", coalesced.len() as f64);
    let repeated = coalesced.iter().filter(|d| d.installs.len() > 1).count();
    sink.count("devices_with_multiple_installs", repeated);
    let anonymous = records().filter(|rec| rec.android_id.is_none()).count();
    sink.count("devices_without_android_id", anonymous);
}
