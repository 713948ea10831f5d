#!/usr/bin/env bash
# The one command: build the benchmark package (offline, release) and run
# it. `--trace 1` selects the binary that carries the counting allocator.
#
#   bash benchmark/run.sh --workload e2e_async --seed 2021 --seconds 12 --trace 0
#   bash benchmark/run.sh --all            # every workload, untraced + traced
#   bash benchmark/run.sh --smoke          # small sizes, every check, < 20 s
#   bash benchmark/run.sh --compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# glibc hands each new thread one of up to 8 x nproc malloc arenas, and the
# workloads start fresh threads every repetition: which arenas they land in
# moves peak RSS by 2x between identical runs. One arena per core keeps
# peak_rss_mb a property of the program (README, "Environment pins").
export MALLOC_ARENA_MAX="${MALLOC_ARENA_MAX:-$(nproc)}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
  /*) bin_dir="$CARGO_TARGET_DIR/release" ;;
  *) bin_dir="$PWD/$CARGO_TARGET_DIR/release" ;;
esac
bin=rsbench
prev=""
for arg in "$@"; do
  if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then bin=rsbench_traced; fi
  prev="$arg"
done
exec "$bin_dir/$bin" --out-dir "$here/out" "$@"
