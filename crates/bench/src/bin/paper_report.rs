//! The paper report over the seed sweep: stdout, `paper_report.csv`,
//! `index.md` and seed 0's per-figure CSV series under
//! `target/experiments/`. `RACKET_SCALE` (`test` | `mid` | `paper`) is the
//! only setting.

use racket_bench::Scale;
use std::process::ExitCode;

fn main() -> ExitCode {
    match racket_bench::paper_report(Scale::from_env()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("paper_report: cannot write {e}");
            ExitCode::FAILURE
        }
    }
}
