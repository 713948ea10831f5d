//! The repo's benchmark: four seeded workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a traced run, correctness checked
//! on every repetition. `README.md` beside this package is the manual;
//! `run.sh` is the one command.

pub mod alloc;
pub mod chain;
pub mod compare;
pub mod detect_corpus;
pub mod e2e;
pub mod harness;
pub mod ingest_plane;
pub mod kernels;
pub mod metrics;
pub mod stats;
pub mod trace;

use harness::RunArgs;
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use trace::Tracer;

const USAGE: &str = "usage:
  --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]   one run, one result line
  --all [--seed <n>] [--seconds <s>] [--out <file>]                   every workload, untraced x 10 + traced x 1
  --smoke                                                            small sizes, 1 repetition, every check
  --compare <A.json> <B.json>                                        B against A, per (metric, workload)
common: [--out-dir <dir>] where trace-<workload>.json goes (default benchmark/out)";

/// Entry point of both binaries; `counts_allocations` says whether this
/// one carries the counting allocator.
pub fn main(counts_allocations: bool) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| argv.iter().any(|a| a == name);
    let value = |name: &str| {
        argv.iter().position(|a| a == name).map(|i| {
            argv.get(i + 1)
                .cloned()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        })
    };
    let number = |name: &str, default: f64| -> f64 {
        value(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("{name}: `{v}` is not a number")))
        })
    };
    let out_dir = PathBuf::from(value("--out-dir").unwrap_or_else(|| "benchmark/out".into()));

    if let Some(i) = argv.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (argv.get(i + 1), argv.get(i + 2)) else {
            die("--compare needs two files");
        };
        exit(compare::main(Path::new(a), Path::new(b)));
    }
    let seed = number("--seed", 2021.0) as u64;
    let seconds = number("--seconds", f64::from(RUN_SECONDS));
    if flag("--all") {
        let out = value("--out").map_or_else(|| out_dir.join("runs.json"), PathBuf::from);
        exit(run_all(seed, seconds, &out_dir, &out));
    }
    let smoke = flag("--smoke");
    let Some(workload) = value("--workload") else {
        if smoke {
            exit(run_smoke(&out_dir));
        }
        die(USAGE);
    };
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        die(&format!("unknown workload `{workload}`\n{USAGE}"));
    }
    let trace = match value("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => die(&format!("--trace takes 0 or 1, not `{other}`")),
    };
    if trace && !counts_allocations {
        die("--trace 1 needs the traced binary (rsbench_traced); run.sh picks it");
    }
    let args = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        out_dir,
    };
    exit(run_one(&args));
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    exit(2)
}

/// One workload, one process: run it, print every metric by name with its
/// unit to stderr, write the trace when tracing, and print the result
/// line last on stdout. Non-zero exit when an operation or check failed.
fn run_one(args: &RunArgs) -> i32 {
    let tracer = Tracer::default();
    let mut outcome = match args.workload.as_str() {
        "e2e_async" | "e2e_direct" => e2e::run(args, &tracer),
        "ingest_plane" => ingest_plane::run(args, &tracer),
        _ => detect_corpus::run(args, &tracer),
    };
    outcome.values.insert("peak_rss_mb", harness::peak_rss_mb());
    outcome.values.insert(
        "ops_failed_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    print_table(args, &outcome, defs);
    for failure in &outcome.failures {
        eprintln!("[{}] FAILED: {failure}", args.workload);
    }
    if args.trace {
        if let Err(e) = write_trace(args, &tracer, &outcome) {
            eprintln!("[{}] cannot write the trace: {e}", args.workload);
            return 1;
        }
    }
    println!("{}", outcome.result_line(defs));
    i32::from(outcome.failed > 0)
}

/// Every metric of `defs` by name, with its unit; in a traced run also
/// the budget: each busy-seconds layer as a share of the traced
/// repetition's wall and per unit of work.
fn print_table(args: &RunArgs, outcome: &Outcome, defs: &[MetricDef]) {
    let v = |name: &str| outcome.values.get(name).copied().unwrap_or(0.0);
    eprintln!(
        "[{}] seed {} trace {} nproc {}: {} ops attempted, {} failed",
        args.workload,
        args.seed,
        u8::from(args.trace),
        rayon::current_num_threads(),
        outcome.attempted,
        outcome.failed
    );
    let (wall, units) = (v("traced_wall_s"), v("units"));
    for d in defs {
        let value = v(d.name);
        let mut line = format!("  {:<40} {:>16.6} {}", d.name, value, d.unit);
        if args.trace && d.unit == "s" && d.name.contains("busy") && value > 0.0 && wall > 0.0 {
            line += &format!(
                "   {:5.1} % of wall, {:.1} ns/unit",
                100.0 * value / wall,
                value * 1e9 / units.max(1.0)
            );
        }
        eprintln!("{line}");
    }
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    nproc: usize,
    /// Fastest untraced repetition in this process, seconds.
    wall_min_s: f64,
    /// Every per-layer metric (`R`, `B` and `K` sources folded together).
    layers: Vec<LayerRow>,
    spans: Vec<trace::Span>,
}

#[derive(Serialize)]
struct LayerRow {
    name: String,
    value: f64,
    unit: String,
}

fn write_trace(args: &RunArgs, tracer: &Tracer, outcome: &Outcome) -> std::io::Result<()> {
    let file = TraceFile {
        workload: args.workload.clone(),
        seed: args.seed,
        nproc: rayon::current_num_threads(),
        wall_min_s: outcome.values.get("wall_min_s").copied().unwrap_or(0.0),
        layers: PER_LAYER
            .iter()
            .map(|d| LayerRow {
                name: d.name.to_string(),
                value: outcome.values.get(d.name).copied().unwrap_or(0.0),
                unit: d.unit.to_string(),
            })
            .collect(),
        spans: tracer.spans(),
    };
    std::fs::create_dir_all(&args.out_dir)?;
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    let json = serde_json::to_string(&file).expect("plain data serializes");
    std::fs::write(&path, json)?;
    eprintln!("[{}] wrote {}", args.workload, path.display());
    Ok(())
}

/// `--smoke`: every workload at small size, untraced then traced, one
/// repetition of each kind, every check on.
fn run_smoke(out_dir: &Path) -> i32 {
    let mut worst = 0;
    for (workload, _) in WORKLOADS {
        for traced in [false, true] {
            let status = child(traced, workload, 2021, out_dir)
                .arg("--smoke")
                .status()
                .unwrap_or_else(|e| die(&format!("cannot run the {workload} benchmark: {e}")));
            worst = worst.max(status.code().unwrap_or(1));
        }
    }
    eprintln!("smoke: {}", if worst == 0 { "ok" } else { "FAILED" });
    worst
}

/// One run of one workload in a process of its own (so `peak_rss_mb` is
/// its own), in the benchmark binary beside this one: `rsbench_traced` for
/// a traced run, `rsbench` otherwise.
fn child(traced: bool, workload: &str, seed: u64, out_dir: &Path) -> Command {
    let name = if traced { "rsbench_traced" } else { "rsbench" };
    let exe = std::env::current_exe()
        .expect("the running binary has a path")
        .with_file_name(name);
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir);
    command
}

/// Untraced runs per workload in one `--all` set: the ten the acceptance
/// rule takes its quartiles over.
const RUNS: u64 = 10;

/// `--all`: what the acceptance rule runs — every workload [`RUNS`] times
/// untraced, each time with another seed, then once traced — collected
/// into one file `--compare` reads. A run that ends without a result line
/// is recorded as a failed run, so a set cannot lose one silently.
fn run_all(seed: u64, seconds: f64, out_dir: &Path, out: &Path) -> i32 {
    let mut set = compare::RunSet::default();
    let mut worst = 0;
    for (workload, _) in WORKLOADS {
        for i in 0..=RUNS {
            let traced = i == RUNS;
            let run_seed = seed + if traced { 0 } else { i };
            let output = child(traced, workload, run_seed, out_dir)
                .args(["--seconds", &seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .unwrap_or_else(|e| die(&format!("cannot run the {workload} benchmark: {e}")));
            worst = worst.max(output.status.code().unwrap_or(1));
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().and_then(compare::parse_result_line);
            if result.is_none() {
                eprintln!("[{workload}] seed {run_seed} printed no result line");
                worst = worst.max(1);
            }
            set.runs.push(compare::Run {
                workload: workload.to_string(),
                seed: run_seed,
                traced,
                ..result.unwrap_or_else(compare::Run::without_result)
            });
        }
    }
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let json = serde_json::to_string(&set).expect("plain data serializes");
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("cannot write {}: {e}", out.display());
        return 1;
    }
    compare::print_summary(&set);
    eprintln!("wrote {}", out.display());
    worst
}
