//! The paper report at test scale: what every section states, what the
//! binary writes, and that neither depends on the run or the thread count.
//!
//! Release only (a seed is ≈ 10 s of classifier cross-validation in
//! release and minutes in a debug build); `check.sh` runs this file as its
//! "paper report" step: `cargo test --release -p racket-bench --test report`.

use racket_bench::{Report, Scale, Sink, SECTIONS, SEEDS};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;

/// Every per-figure CSV the 23 experiment binaries wrote, with its header,
/// in section order.
const SERIES: [(&str, &str); 20] = [
    ("table1.csv", "algorithm,precision,recall,f1,auc,fpr"),
    ("table2.csv", "algorithm,precision,recall,f1,auc,fpr"),
    ("fig1.csv", "cohort,install,day,level"),
    ("fig4.csv", "cohort,snapshots_per_day,active_days"),
    ("fig5_gmail.csv", "cohort,gmail_accounts"),
    ("fig6_total_reviews.csv", "cohort,total_reviews"),
    ("fig7.csv", "cohort,delay_days"),
    ("fig8.csv", "cohort,stopped_apps"),
    ("fig9.csv", "cohort,daily_installs,daily_uninstalls"),
    ("fig10.csv", "cohort,apps_used_per_day,installed"),
    (
        "fig11.csv",
        "cohort,total_permissions,dangerous_permissions",
    ),
    ("fig12.csv", "flags,worker_devices,regular_devices"),
    ("fig13.csv", "feature,importance"),
    ("fig14.csv", "feature,importance"),
    ("fig15.csv", "suspiciousness,installed_and_reviewed"),
    (
        "ablation_app.csv",
        "sampling,algorithm,precision,recall,f1,auc,fpr",
    ),
    (
        "ablation_device.csv",
        "sampling,algorithm,precision,recall,f1,auc,fpr",
    ),
    ("ablation_features.csv", "configuration,columns,f1,auc"),
    (
        "evasion_cost.csv",
        "strategy,recall,precision,f1,reviews_per_worker",
    ),
    (
        "campaign_table.csv",
        "pacing,campaigns,detected,recall,precision,candidate_pairs",
    ),
];

fn seed0() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(|| Sink::record(&Report::run(Scale::Test, 0)))
}

/// Running a section also runs the checks it carries: `campaign_table`
/// asserts `batch_report == out.campaigns` on all four of its studies,
/// `appendix_a` that coalescing recovers the fleet.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: check.sh runs it")]
fn every_section_states_finite_uniquely_keyed_scalars() {
    let sink = seed0();
    for &(name, ..) in SECTIONS {
        let stated = sink.stated.iter().filter(|s| s.0 == name);
        let keys: Vec<&str> = stated.map(|s| s.1.as_str()).collect();
        assert!(!keys.is_empty(), "{name} states nothing");
        let distinct: HashSet<&str> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "{name}: a key twice");
    }
    for (section, key, value, _) in &sink.stated {
        assert!(value.is_finite(), "{section}.{key} = {value}");
        assert!(!key.contains(','), "{section}.{key} would split a CSV row");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: check.sh runs it")]
fn no_artifact_was_lost_in_the_fold() {
    let series = seed0().series.iter();
    let written: Vec<(&str, &str)> = series
        .map(|(name, csv)| (*name, csv.lines().next().expect("a header line")))
        .collect();
    assert_eq!(written, SERIES);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: check.sh runs it")]
fn a_seed_states_the_same_records_twice() {
    let again = Sink::record(&Report::run(Scale::Test, 0));
    assert!(*seed0() == again, "seed 0 stated different records twice");
}

/// One run of the binary in its own working directory.
fn paper_report(dir: &Path, threads: &str) -> std::process::Child {
    std::fs::create_dir_all(dir).expect("scratch directory");
    Command::new(env!("CARGO_BIN_EXE_paper_report"))
        .current_dir(dir)
        .env("RACKET_SCALE", "test")
        .env("RAYON_NUM_THREADS", threads)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("paper_report starts")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(file name, contents)` of everything under the run's output directory.
fn outputs(dir: &Path) -> Vec<(String, String)> {
    let entries = std::fs::read_dir(dir.join("target/experiments")).expect("output directory");
    let mut files: Vec<(String, String)> = entries
        .map(|e| e.expect("directory entry").path())
        .map(|p| {
            let name = p.file_name().expect("file").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("UTF-8 output"))
        })
        .collect();
    files.sort();
    files
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: check.sh runs it")]
fn the_binary_is_thread_invariant_and_every_band_covers_every_seed() {
    let dirs = [scratch("report_1_thread"), scratch("report_8_threads")];
    let (serial, parallel) = (paper_report(&dirs[0], "1"), paper_report(&dirs[1], "8"));
    let serial = serial.wait_with_output().expect("the 1-thread run ends");
    let parallel = parallel.wait_with_output().expect("the 8-thread run ends");
    for run in [&serial, &parallel] {
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "paper_report failed:\n{stderr}");
        // Everything timed is on stderr.
        for block in [
            "study done in",
            "== Pipeline metrics ==",
            "== Stage timing tree ==",
        ] {
            assert!(stderr.contains(block), "stderr lacks `{block}`");
        }
    }
    let stdout = String::from_utf8(serial.stdout).expect("UTF-8 stdout");
    assert!(
        stdout == String::from_utf8_lossy(&parallel.stdout),
        "stdout differs at 1 and 8 threads"
    );
    for &(name, ..) in SECTIONS {
        let block = format!("({name}) ==");
        assert!(stdout.contains(&block), "stdout has no block for {name}");
    }
    let files = outputs(&dirs[0]);
    assert!(
        files == outputs(&dirs[1]),
        "a file differs at 1 and 8 threads"
    );
    let mut expected: Vec<&str> = SERIES.iter().map(|s| s.0).collect();
    expected.extend(["index.md", "paper_report.csv"]);
    expected.sort_unstable();
    assert_eq!(
        files.iter().map(|f| f.0.as_str()).collect::<Vec<_>>(),
        expected
    );

    let aggregate = &files
        .iter()
        .find(|f| f.0 == "paper_report.csv")
        .expect("listed")
        .1;
    let mut rows = aggregate.lines();
    let header = "section,key,n,mean,sd,min,max,significant_in";
    assert_eq!(rows.next(), Some(header));
    let (mut keys, mut verdicts, mut varying) = (HashSet::new(), 0, 0);
    for row in rows {
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells.len(), 8, "{row}");
        assert!(keys.insert((cells[0], cells[1])), "{row}: stated twice");
        assert_eq!(
            cells[2],
            SEEDS.to_string(),
            "{row}: a seed did not state it"
        );
        if cells[7].is_empty() {
            let band = cells[3..7].iter().map(|c| c.parse().expect("a number"));
            let [mean, sd, min, max]: [f64; 4] = band.collect::<Vec<_>>().try_into().expect("four");
            assert!(sd >= 0.0 && min <= mean && mean <= max, "{row}");
            varying += (sd > 0.0) as usize;
        } else {
            verdicts += 1;
            assert!(cells[7].parse::<u64>().expect("a count") <= SEEDS, "{row}");
        }
    }
    assert_eq!(
        verdicts, 30,
        "KS, ANOVA and KW for each of the ten §6 comparisons"
    );
    assert!(varying > 100, "the seeds are one study {SEEDS} times over");
    let index = &files.iter().find(|f| f.0 == "index.md").expect("listed").1;
    assert_eq!(
        index.lines().filter(|l| l.starts_with("| ")).count(),
        SECTIONS.len() + 1
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: check.sh runs it")]
fn an_unwritable_output_directory_fails_before_the_sweep_naming_the_path() {
    let dir = scratch("report_unwritable");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    std::fs::write(dir.join("target"), "a file where the directory should go").expect("blocker");
    let run = paper_report(&dir, "1").wait_with_output().expect("ran");
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("target/experiments"), "{stderr}");
    assert!(
        !stderr.contains("study done"),
        "the sweep ran first:\n{stderr}"
    );
}
