//! Run sets (`--all`) and their comparison (`--compare A.json B.json`):
//! per (end-to-end metric, workload), B's median against A's, held to the
//! metric's own bound.

use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use serde::{Content, DeError, Deserialize, Serialize};
use std::path::Path;

/// One benchmark run as `--all` recorded it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// The run's `--seed`.
    pub seed: u64,
    /// Whether it was the traced run (per-layer metrics).
    pub traced: bool,
    /// The result line's `correct`.
    pub correct: bool,
    /// The result line's `attempted`.
    pub attempted: u64,
    /// The result line's `failed`.
    pub failed: u64,
    /// `(name, value)` per metric, in printed order.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    /// What `--all` records for a run that ended without a result line (a
    /// crash): one operation attempted, and it failed.
    pub fn without_result() -> Run {
        Run {
            correct: false,
            attempted: 1,
            failed: 1,
            ..Run::default()
        }
    }
}

/// Every run of one `--all`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSet {
    /// Runs in the order they were made.
    pub runs: Vec<Run>,
}

impl RunSet {
    /// The untraced values of `metric` on `workload`, in run order.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && !r.traced)
            .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
            .collect()
    }
}

/// A parsed JSON value, whatever its shape.
pub(crate) struct Raw(pub(crate) Content);

impl Deserialize for Raw {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(Raw(content.clone()))
    }
}

/// Parse the contract's result line; `workload`, `seed` and `traced` are
/// left for the caller, who knows them.
pub fn parse_result_line(line: &str) -> Option<Run> {
    let Raw(root) = serde_json::from_str(line).ok()?;
    let number = |c: &Content| match c {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    };
    let Content::Map(entries) = root.get("metrics")? else {
        return None;
    };
    let metrics = entries
        .iter()
        .map(|(name, m)| Some((name.clone(), number(m.get("value")?)?)))
        .collect::<Option<Vec<_>>>()?;
    Some(Run {
        correct: matches!(root.get("correct")?, Content::Bool(true)),
        attempted: number(root.get("attempted")?)? as u64,
        failed: number(root.get("failed")?)? as u64,
        metrics,
        ..Run::default()
    })
}

/// What a comparison concludes about one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// Every run of B reads better than every run of A.
    Improved,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The run-to-run spread exceeds the bound: neither side can be held
    /// to it, so the pair is reported as unresolved, not as unchanged.
    Unresolved,
    /// A side has fewer than two runs with this metric (a run that crashed
    /// leaves none), so there is no median and spread to judge.
    Missing,
}

/// One row of the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// A's median.
    pub a: f64,
    /// B's median.
    pub b: f64,
    /// How much worse B's median is, as a share of A's (negative = better).
    pub worse_by: f64,
    /// The larger of the two sides' interquartile spreads.
    pub spread: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Compare B's runs with A's on one metric.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Judgement {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    let (med_a, med_b) = (median(a), median(b));
    if a.len() < 2 || b.len() < 2 {
        return Judgement {
            a: med_a,
            b: med_b,
            worse_by: 0.0,
            spread: 0.0,
            verdict: Verdict::Missing,
        };
    }
    let worse_by = match def.better {
        Better::Lower => (med_b - med_a) / med_a,
        Better::Higher => (med_a - med_b) / med_a,
    };
    let spread = spread(a).max(spread(b));
    let all_better = a.iter().all(|&x| {
        b.iter().all(|&y| match def.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if all_better {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Judgement {
        a: med_a,
        b: med_b,
        worse_by,
        spread,
        verdict,
    }
}

fn load(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--compare A B`: print every pair's row; exit code 1 on any regression,
/// missing pair or failed run, 2 when a file cannot be read.
pub fn main(a: &Path, b: &Path) -> i32 {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    let (mut regressions, mut unresolved, mut missing) = (0, 0, 0);
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let j = judge(
                def,
                &a.values(workload, def.name),
                &b.values(workload, def.name),
            );
            match j.verdict {
                Verdict::Regression => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Missing => missing += 1,
                Verdict::Ok | Verdict::Improved => {}
            }
            println!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {:?}",
                workload,
                def.name,
                j.a,
                j.b,
                100.0 * j.worse_by,
                100.0 * j.spread,
                100.0 * def.bound.unwrap_or(0.0),
                j.verdict
            );
        }
    }
    let failed_runs = a.runs.iter().chain(&b.runs).filter(|r| !r.correct).count();
    println!(
        "{regressions} regressions, {unresolved} unresolved, {missing} missing, \
         {failed_runs} runs with failed operations or without a result"
    );
    i32::from(regressions > 0 || missing > 0 || failed_runs > 0)
}

/// After `--all`: per (workload, metric) the median, the spread and how it
/// sits against a third of the bound (the steadiness the contract asks).
pub fn print_summary(set: &RunSet) {
    eprintln!(
        "{:<14} {:<18} {:>3} {:>14} {:>14} {:>14} {:>8}  steady",
        "workload", "metric", "n", "median", "min", "max", "spread"
    );
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let xs = set.values(workload, def.name);
            let s = spread(&xs);
            let bound = def.bound.unwrap_or(0.0);
            eprintln!(
                "{:<14} {:<18} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>7.2}%  {}",
                workload,
                def.name,
                xs.len(),
                median(&xs),
                xs.iter().copied().fold(f64::INFINITY, f64::min),
                xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                100.0 * s,
                if s <= bound / 3.0 {
                    "yes"
                } else if s <= bound {
                    "within bound, above a third of it"
                } else if def.name == "setup_s" {
                    "NO (setup_s is exempt from the spread rule)"
                } else {
                    "NO"
                }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Outcome;

    /// A lower-is-better and a higher-is-better metric, both held to 20 %.
    const WALL: MetricDef = MetricDef {
        name: "wall",
        unit: "s",
        better: Better::Lower,
        bound: Some(0.2),
    };
    const RATE: MetricDef = MetricDef {
        name: "rate",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.2),
    };

    #[test]
    fn steady_runs_within_the_bound_are_ok() {
        let j = judge(&WALL, &[1.00, 1.01, 0.99, 1.00], &[1.04, 1.05, 1.03, 1.04]);
        assert_eq!(j.verdict, Verdict::Ok);
        assert!((j.worse_by - 0.04).abs() < 1e-9);
    }

    #[test]
    fn a_median_past_the_bound_is_a_regression_in_the_metrics_direction() {
        let a = [1.00, 1.01, 0.99, 1.00];
        let slower = [1.40, 1.41, 1.39, 1.40];
        assert_eq!(judge(&WALL, &a, &slower).verdict, Verdict::Regression);
        // Higher-is-better: a drop is worse, a rise is not.
        assert_eq!(judge(&RATE, &slower, &a).verdict, Verdict::Regression);
        assert_eq!(judge(&RATE, &a, &slower).verdict, Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy_a = [1.0, 1.4, 0.8, 1.2, 1.0, 0.7];
        let noisy_b = [1.1, 1.5, 0.9, 1.3, 1.0, 0.8];
        assert_eq!(
            judge(&WALL, &noisy_a, &noisy_b).verdict,
            Verdict::Unresolved
        );
        let clear_win = [0.5, 0.6, 0.4, 0.55, 0.45, 0.5];
        assert_eq!(
            judge(&WALL, &noisy_a, &clear_win).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn a_side_without_runs_is_missing_not_ok() {
        let a = [1.00, 1.01, 0.99, 1.00];
        // `median(&[])` is 0: without the guard the shift is NaN, which no
        // comparison with the bound ever flags.
        for (a, b) in [(&a[..], &[][..]), (&[][..], &a[..]), (&a[..], &a[..1])] {
            let j = judge(&WALL, a, b);
            assert_eq!(j.verdict, Verdict::Missing);
            assert!(j.worse_by.is_finite());
        }
        // What `--all` records for a crashed run counts as a failed run and
        // contributes no value.
        let lost = Run {
            workload: "e2e_async".into(),
            ..Run::without_result()
        };
        assert!(!lost.correct && lost.failed == 1);
        let set = RunSet { runs: vec![lost] };
        assert!(set.values("e2e_async", "wall_min_s").is_empty());
    }

    #[test]
    fn the_result_line_round_trips_through_the_parser_and_a_run_set() {
        let mut outcome = Outcome::default();
        outcome.ops(41, 0, "uploads");
        for (i, d) in END_TO_END.iter().enumerate() {
            outcome.values.insert(d.name, 1.5 + i as f64);
        }
        let mut run = parse_result_line(&outcome.result_line(END_TO_END)).expect("parses");
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (41, 0));
        assert_eq!(run.metrics.len(), END_TO_END.len());
        assert_eq!(run.metrics[0], ("wall_min_s".to_string(), 1.5));
        run.workload = "e2e_async".into();
        let set = RunSet { runs: vec![run] };
        let json = serde_json::to_string(&set).unwrap();
        let back: RunSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.values("e2e_async", "wall_min_s"), vec![1.5]);
        assert!(back.values("e2e_direct", "wall_min_s").is_empty());
        assert!(parse_result_line("not json").is_none());
    }
}
