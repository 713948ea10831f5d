#!/usr/bin/env bash
# CI-style gate: build, test, docs (warnings denied), formatting.
# Run from the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

# First-party packages (vendored dependency subsets are exempt from the
# lint, documentation and formatting gates). The umbrella package has no
# library target, so rustdoc leaves it out.
first_party=()
for pkg in racket-obs racket-types racket-stats racket-device racket-features \
  racket-playstore racket-agents racket-reactor racket-collect racket-columnar \
  racket-text racket-campaign racket-ml racketstore racket-bench; do
  first_party+=(-p "$pkg")
done

step "cargo build --release"
cargo build --release

step "cargo test -q (every first-party crate and the umbrella package)"
# Unit, integration and doc tests of the 15 crates plus the root tests/
# (examples are built) — the same set a bare `cargo test` at the root runs,
# since they are the workspace's default members. racket-bench's `report`
# runs in release below (it is ignored in a debug build).
cargo test -q "${first_party[@]}" -p racketstore-suite

step "scenario matrix (release)"
# The scenario table (tests/scenario/mod.rs) runs each (path, fault plan,
# threads) study once and checks every equivalence contract on that output
# (text stream == batch, campaign batch == incremental, columnar == row,
# wire == direct, async == sync, faulted == clean, N threads == 1, and
# feature bits equal on every row); its module doc lists the contracts and the test and rows
# that check each. Each binary below runs one slice of it; tests/matrix.rs
# adds the fleet-generation and training/scoring checks. Run at 1 and 8
# worker threads so the ambient rows see both a serial and a parallel pool.
# Before it, in the same release build: the hand-stepped window test (one
# lane, session and core under every fault profile at window 1, 2 and 16)
# and racket-text's own tests (the one-pass review row against the two-scan
# kernels, the sentiment table against its word lists).
cargo test --release -p racket-collect --lib -q window_delivers_in_file_order_under_every_fault_plan
cargo test --release -p racket-text -q
scenario=(--test matrix --test thread_equivalence --test path_equivalence
  --test async_equivalence --test chaos --test text_equivalence
  --test campaign_equivalence --test columnar_equivalence)
RAYON_NUM_THREADS=1 cargo test --release -q "${scenario[@]}"
RAYON_NUM_THREADS=8 cargo test --release -q "${scenario[@]}"

step "paper report (release, test scale)"
# The one gate that runs the experiment code. tests/report.rs runs the
# `paper_report` binary twice at RACKET_SCALE=test, at RAYON_NUM_THREADS=1
# and =8 side by side in two scratch directories under target/tmp, and
# compares stdout and every file they write (paper_report.csv, index.md,
# the twenty per-figure CSVs) byte for byte; then it checks that every band
# covers all 16 seeds, that the file set is the one the 23 retired binaries
# wrote, and that an unwritable output directory fails before the sweep.
# ~6 min on 2 vCPUs: the one-thread sweep is the long pole.
cargo test --release -p racket-bench --test report -q

step "benchmark package smoke (release)"
# benchmark/ is the one measurement harness and a workspace of its own, so
# none of the steps above compile it: an API slip in racket-collect or
# racketstore would otherwise only surface in the benchmark pipeline. Small
# sizes, every correctness check on (score_streaming == score_batch
# verdicts, batch == incremental campaigns, streaming == rebuilt text
# sketches, exactly-once ingest on the async plane), < 20 s after the
# first build (into .bench_build, git-ignored). The full run with its regression gate is
# ./bench_history.sh (~15 min, once per PR, not here).
bash benchmark/run.sh --smoke

step "benchmark harness unchanged"
# benchmark/ (its Cargo.lock included) and BENCHMARK.json are frozen: the
# benchmark compares every change against its parent with them, so a
# change may not edit them — and an edit to a Cargo.toml in the
# benchmark's dependency graph makes the smoke run above rewrite the lock
# file. Fail naming whatever the tree now shows changed there.
frozen=$(git status --porcelain -- benchmark BENCHMARK.json)
if [ -n "$frozen" ]; then
  printf 'the frozen benchmark harness changed:\n%s\n' "$frozen" >&2
  exit 1
fi

if command -v cargo-clippy >/dev/null 2>&1; then
  step "cargo clippy --all-targets (warnings denied)"
  cargo clippy --all-targets -q "${first_party[@]}" -p racketstore-suite -- -D warnings
else
  step "cargo clippy skipped (clippy not installed)"
fi

step "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q "${first_party[@]}"

if command -v rustfmt >/dev/null 2>&1; then
  step "cargo fmt --check"
  cargo fmt --check "${first_party[@]}" -p racketstore-suite
else
  step "cargo fmt --check skipped (rustfmt not installed)"
fi

step "code size (informational)"
# Non-test Rust lines and `pub` items per crate; both should only go down.
./size.sh

step "mutation table (informational)"
# Counted, not run: ./mutants.sh applies each row and runs its test
# (~3 min cold); ./mutants.sh --changed runs the rows this diff touches.
printf '%s rows in mutants.tsv\n' "$(grep -cv -e '^#' -e '^$' mutants.tsv)"

printf '\nAll checks passed.\n'
