//! What every workload shares: the run arguments, the repetition loop and
//! the fold from repetitions to metric values.

use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Arguments of one benchmark run (one workload, one process).
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measuring phase lasts, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Small sizes and a single repetition of each kind.
    pub smoke: bool,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// How one repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepKind {
    /// Tracing off: what end-to-end numbers are taken from.
    Plain,
    /// Spans and allocation counting on: the per-layer budget.
    Traced,
    /// Tracing off, `RAYON_NUM_THREADS=1`: the single-thread baseline.
    OneThread,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the timed window, seconds.
    pub wall_s: f64,
    /// Units of work done in the window (snapshots or reviews).
    pub units: u64,
    /// User-visible numbers taken on every repetition (`verdict_ms`, …).
    pub extras: Values,
    /// Per-layer numbers read from registries (`R`); the benchmark-side
    /// spans and the allocation counts join them on traced repetitions,
    /// and the whole map is dropped on the others.
    pub layers: Values,
    /// Seconds of this repetition that a callee's own serial phases
    /// account for (`Study::run`'s, read from its registry) — wall the
    /// benchmark's spans see only as one opaque call.
    pub inside_run_s: f64,
}

/// Timed repetitions an end-to-end timing is taken over, at least.
pub const MIN_PLAIN_REPS: usize = 5;
/// Repetitions of each kind a traced run needs at least.
pub const MIN_TRACED_REPS: usize = 2;
/// Times the set-up is repeated for the `setup_s` median.
pub const SETUPS: usize = 3;

/// Run `setup` [`SETUPS`] times (once under `--smoke`), dropping each
/// result before the next so peak memory is that of one set-up; record the
/// median wall as `setup_s` and return the last result.
pub fn repeat_setup<T>(smoke: bool, values: &mut Values, mut setup: impl FnMut() -> T) -> T {
    let n = if smoke { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    values.insert("setup_s", median(&times));
    last.expect("at least one set-up")
}

/// Drive repetitions for `args.seconds`: untraced runs repeat
/// [`RepKind::Plain`]; traced runs cycle traced / plain (/ one-thread when
/// `one_thread`) so the two binaries' logic stays the same and the tracing
/// overhead is a like-for-like ratio inside one process. The loop ends at
/// the deadline once every kind has its minimum count. Each repetition
/// runs under a root `rep` span; a traced one leaves with its span self
/// times and allocation counts folded into its layers.
pub fn run_reps(
    args: &RunArgs,
    tracer: &Tracer,
    one_thread: bool,
    mut rep: impl FnMut() -> Rep,
) -> Vec<(RepKind, Rep)> {
    let cycle: Vec<RepKind> = match (args.trace, one_thread) {
        (false, _) => vec![RepKind::Plain],
        (true, false) => vec![RepKind::Traced, RepKind::Plain],
        (true, true) => vec![RepKind::Traced, RepKind::Plain, RepKind::OneThread],
    };
    let min_cycles = match (args.smoke, args.trace) {
        (true, _) => 1,
        (false, false) => MIN_PLAIN_REPS,
        (false, true) => MIN_TRACED_REPS,
    };
    let t0 = Instant::now();
    let mut done = Vec::new();
    let mut cycles = 0;
    while cycles < min_cycles || (!args.smoke && t0.elapsed().as_secs_f64() < args.seconds) {
        for &kind in &cycle {
            let id = done.len() as u32 + 1;
            tracer.set_rep(id);
            tracer.set_enabled(kind == RepKind::Traced);
            crate::alloc::set_counting(kind == RepKind::Traced);
            // A one-thread repetition pins rayon and then puts back whatever
            // the caller had pinned, so an outside setting holds for the rest.
            let pinned = std::env::var_os("RAYON_NUM_THREADS");
            if kind == RepKind::OneThread {
                std::env::set_var("RAYON_NUM_THREADS", "1");
            }
            let allocs_before = crate::alloc::counters();
            let (mut r, _) = tracer.time("rep", &mut rep);
            let allocs_after = crate::alloc::counters();
            if kind == RepKind::OneThread {
                match &pinned {
                    Some(threads) => std::env::set_var("RAYON_NUM_THREADS", threads),
                    None => std::env::remove_var("RAYON_NUM_THREADS"),
                }
            }
            crate::alloc::set_counting(false);
            tracer.set_enabled(false);
            if kind == RepKind::Traced {
                // Per unit of work: snapshots, or reviews on `detect_corpus`.
                let per = r.units.max(1) as f64;
                r.layers.insert(
                    "alloc.count_per_snapshot",
                    (allocs_after.0 - allocs_before.0) as f64 / per,
                );
                r.layers.insert(
                    "alloc.bytes_per_snapshot",
                    (allocs_after.1 - allocs_before.1) as f64 / per,
                );
                crate::chain::span_layers(tracer, id, r.inside_run_s, &mut r.layers);
            } else {
                r.layers.clear();
            }
            done.push((kind, r));
        }
        cycles += 1;
    }
    done
}

/// Fold repetitions into metric values: the fastest plain repetition as
/// `wall_min_s` (beside the median, the slowest and their count), medians
/// of the plain repetitions for the other user-visible numbers, medians of
/// the traced repetitions for the layers, and the traced ÷ plain wall
/// ratio as the tracing overhead.
pub fn fold_reps(reps: &[(RepKind, Rep)], values: &mut Values) {
    let of = |kind: RepKind| reps.iter().filter(move |(k, _)| *k == kind).map(|(_, r)| r);
    let walls = |kind: RepKind| of(kind).map(|r| r.wall_s).collect::<Vec<f64>>();
    // Headline timings are the *fastest* repetition of their kind, not the
    // median: on a shared box interference only ever adds time, in episodes
    // that outlast a repetition, and the floor repeats run to run where the
    // median does not (README, "Which estimator, and which bound").
    let fastest = |kind: RepKind| of(kind).min_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    for kind in [RepKind::Plain, RepKind::Traced, RepKind::OneThread] {
        let w = walls(kind);
        if let Some(best) = fastest(kind) {
            eprintln!(
                "  {kind:?} repetitions: n {} fastest {:.4} s median {:.4} s slowest {:.4} s  {:.3?}",
                w.len(),
                best.wall_s,
                median(&w),
                w.iter().copied().fold(0.0, f64::max),
                w
            );
        }
    }
    let plain_wall = fastest(RepKind::Plain).map_or(0.0, |r| r.wall_s);
    let plain_walls = walls(RepKind::Plain);
    values.insert("wall_min_s", plain_wall);
    values.insert("wall_median_s", median(&plain_walls));
    values.insert(
        "wall_max_s",
        plain_walls.iter().copied().fold(0.0, f64::max),
    );
    values.insert("wall_reps", plain_walls.len() as f64);
    values.insert(
        "units",
        fastest(RepKind::Plain).map_or(0.0, |r| r.units as f64),
    );
    fold_medians(of(RepKind::Plain).map(|r| &r.extras), values);
    fold_medians(of(RepKind::Traced).map(|r| &r.layers), values);
    let traced_wall = fastest(RepKind::Traced).map_or(0.0, |r| r.wall_s);
    if traced_wall > 0.0 && plain_wall > 0.0 {
        values.insert("traced_wall_s", traced_wall);
        values.insert("obs.overhead_share", traced_wall / plain_wall - 1.0);
    }
    let one_thread_wall = fastest(RepKind::OneThread).map_or(0.0, |r| r.wall_s);
    if one_thread_wall > 0.0 && plain_wall > 0.0 {
        let nproc = rayon::current_num_threads() as f64;
        values.insert("wall_1t_s", one_thread_wall);
        values.insert("scaling_efficiency", one_thread_wall / (plain_wall * nproc));
    }
}

/// Median per name across the maps of several repetitions.
fn fold_medians<'a>(maps: impl Iterator<Item = &'a Values>, values: &mut Values) {
    let mut series: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for map in maps {
        for (&name, &v) in map {
            series.entry(name).or_default().push(v);
        }
    }
    for (name, xs) in series {
        values.insert(name, median(&xs));
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, units: u64) -> Rep {
        Rep {
            wall_s,
            units,
            ..Rep::default()
        }
    }

    #[test]
    fn fold_takes_the_fastest_wall_beside_median_max_and_count() {
        let mut traced = rep(1.1, 100);
        traced.layers.insert("ml.cv.busy_s", 0.5);
        let mut plain = rep(1.0, 100);
        plain.extras.insert("verdict_ms", 4.0);
        let reps = vec![
            (RepKind::Plain, plain),
            (RepKind::Plain, rep(3.0, 150)),
            (RepKind::Plain, rep(2.0, 100)),
            (RepKind::Traced, traced),
            (RepKind::OneThread, rep(3.0, 100)),
        ];
        let mut v = Values::new();
        fold_reps(&reps, &mut v);
        assert_eq!(v["wall_min_s"], 1.0);
        assert_eq!(v["wall_median_s"], 2.0);
        assert_eq!(v["wall_max_s"], 3.0);
        assert_eq!(v["wall_reps"], 3.0);
        assert_eq!(v["units"], 100.0);
        assert_eq!(v["verdict_ms"], 4.0);
        assert_eq!(v["ml.cv.busy_s"], 0.5);
        assert!((v["obs.overhead_share"] - (1.1 / 1.0 - 1.0)).abs() < 1e-12);
        assert_eq!(v["wall_1t_s"], 3.0);
        let nproc = rayon::current_num_threads() as f64;
        assert!((v["scaling_efficiency"] - 3.0 / (1.0 * nproc)).abs() < 1e-12);
    }

    #[test]
    fn setup_repeats_keeps_the_last_and_records_the_median() {
        let mut n = 0;
        let mut values = Values::new();
        let last = repeat_setup(false, &mut values, || {
            n += 1;
            n
        });
        assert_eq!(last, SETUPS);
        assert!(values["setup_s"] >= 0.0);
        let mut calls = 0;
        repeat_setup(true, &mut values, || calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
