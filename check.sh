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

step "cargo test -q"
cargo test -q

step "chaos matrix (release)"
# The fault-injection suite runs eight full studies (one per fault
# profile); release mode keeps it to seconds. Before it, the hand-stepped
# window test: one lane, session and core under every fault profile at
# window 1, 2 and 16, in the build the matrices run.
cargo test --release -p racket-collect --lib -q window_delivers_in_file_order_under_every_fault_plan
cargo test --release --test chaos -q

step "streaming equivalence matrix (release)"
# Differential harness: feature vectors emitted from streaming state must
# be f64-bit-identical to the batch formulas, across thread counts and
# every fault profile. Run twice so the ambient (unpinned) scenario sees
# both a serial and a parallel worker pool; the suite manages
# RAYON_NUM_THREADS internally for the pinned matrix, so single-threaded.
RAYON_NUM_THREADS=1 cargo test --release --test streaming_equivalence -q -- --test-threads=1
RAYON_NUM_THREADS=8 cargo test --release --test streaming_equivalence -q -- --test-threads=1

step "columnar equivalence matrix (release)"
# Differential harness for the columnar analyze engine: the columnar
# store must mirror the row records (with dictionary codes invariant
# across paths and thread counts), the GBT split search (presorted once,
# then partitioned between two buffers) must be byte-identical to the
# row-oriented reference, and batch scoring must be bitwise per-row
# scoring. Same RAYON_NUM_THREADS discipline as above.
RAYON_NUM_THREADS=1 cargo test --release --test columnar_equivalence -q -- --test-threads=1
RAYON_NUM_THREADS=8 cargo test --release --test columnar_equivalence -q -- --test-threads=1

step "text equivalence matrix (release)"
# Differential harness for the review-text engine: enabling text must not
# perturb any pre-existing fingerprint (dedicated keyed stream family),
# and the streaming per-install text sketch must be byte-identical to the
# batch rebuild from the columnar review family, across thread counts,
# delivery paths, fault plans and fleet compositions. Same
# RAYON_NUM_THREADS discipline as above. Before it, racket-text's own
# tests in the build every matrix runs (release): the one-pass review row
# against the two-scan kernels, the sentiment table against its word lists.
cargo test --release -p racket-text -q
RAYON_NUM_THREADS=1 cargo test --release --test text_equivalence -q -- --test-threads=1
RAYON_NUM_THREADS=8 cargo test --release --test text_equivalence -q -- --test-threads=1

step "campaign equivalence matrix (release)"
# Differential harness for the lockstep (coordinated-campaign) detector:
# the batch report rebuilt from the columnar install-event family must be
# byte-identical to the incremental report computed from ingest-time
# sketches, across thread counts, delivery paths and fault plans. Same
# RAYON_NUM_THREADS discipline as above.
RAYON_NUM_THREADS=1 cargo test --release --test campaign_equivalence -q -- --test-threads=1
RAYON_NUM_THREADS=8 cargo test --release --test campaign_equivalence -q -- --test-threads=1

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

step "criterion benches compile"
# The criterion microbenchmarks must stay buildable even though CI never
# runs them to completion.
cargo bench --no-run -q

step "benchmark package smoke (release)"
# benchmark/ is the one measurement harness and a workspace of its own, so
# none of the steps above compile it: an API slip in racket-collect or
# racketstore would otherwise only surface in the benchmark pipeline. Small
# sizes, every correctness check on (streaming == batch verdicts, batch ==
# incremental campaigns, streaming == rebuilt text sketches, exactly-once
# ingest on the async plane), < 20 s after the first build (into
# .bench_build, git-ignored). The full run with its regression gate is
# ./bench_history.sh (~15 min, once per PR, not here).
bash benchmark/run.sh --smoke

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

printf '\nAll checks passed.\n'
