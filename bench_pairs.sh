#!/usr/bin/env bash
# Order-alternated A/B pairs of the benchmark: a parent revision against
# this working tree, on the workloads named.
#
#   ./bench_pairs.sh <parent-rev> <workload>... [--pairs N]    (N defaults to 10)
#
# The parent is `git clone`d into a scratch directory beside this checkout
# (`../scratch/bench_pairs_parent`; set BENCH_PAIRS_SCRATCH to put it
# elsewhere) and checked out at <parent-rev>. Each tree builds its own
# `benchmark/` into its own target directory (`.bench_build/` at its root,
# as `benchmark/run.sh` does), then every pair runs
# `benchmark/run.sh --workload <w> --seconds 20 --trace 0` once from each
# tree's root, parent first in odd pairs and change first in even ones, so
# a slow mood of the box lands on both sides alike.
#
# Printed per workload and end-to-end metric of BENCHMARK.json: the
# parent's median [interquartile range] → the change's median, the change
# in %, and on how many pairs the change was better ("change better
# k/N"); then each side's failed operations. A run that failed a check
# counts its operations as failed and still reports its metrics. Nothing
# is gated: the exit code is 0 whatever the numbers say (bench_history.sh
# is the gate). After the pairs, each side runs each workload once traced
# (`--trace 1`).
#
# The table is also appended to BENCH_history.jsonl as one line in
# bench_history.sh's shape: commit, dirty, nproc, sha_ni, and per workload
# the change's median/q1/q3 of each end-to-end metric (which the next
# bench_history.sh run holds its medians against) and its traced run's
# `layers`. Beside them: `source: "bench_pairs.sh"`, the parent commit,
# the pair count, per metric the parent's median/q1/q3 and `change_better`
# / `of` (pairs the change won / pairs with both values), and the parent's
# traced `parent_layers`. Each run's stderr goes to <scratch>/logs/ (pair
# 0 is the traced run). Needs jq.
set -euo pipefail
root="$(cd "$(dirname "$0")" && pwd)"
usage="usage: $0 <parent-rev> <workload>... [--pairs N]"

pairs=10
rev=""
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs)
      [ $# -ge 2 ] || { echo "$usage" >&2; exit 2; }
      pairs="$2"
      shift 2
      ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *)
      if [ -z "$rev" ]; then rev="$1"; else workloads+=("$1"); fi
      shift
      ;;
  esac
done
[ -n "$rev" ] && [ ${#workloads[@]} -gt 0 ] || { echo "$usage" >&2; exit 2; }
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "--pairs takes a positive integer" >&2; exit 2; }
for w in "${workloads[@]}"; do
  jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' "$root/BENCHMARK.json" >/dev/null ||
    { echo "unknown workload \`$w\` (see BENCHMARK.json)" >&2; exit 2; }
done

scratch="${BENCH_PAIRS_SCRATCH:-$root/../scratch}"
parent="$scratch/bench_pairs_parent"
mkdir -p "$scratch/logs"
sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
if [ -d "$parent/.git" ]; then
  git -C "$parent" fetch -q "$root"
else
  git clone -q "$root" "$parent"
fi
git -C "$parent" checkout -q --detach "$sha"
echo "parent $sha in $parent; change = the working tree of $root" >&2

# run.sh builds on every call; building first keeps the build out of the
# first pair's clock.
for tree in "$parent" "$root"; do
  (cd "$tree" && CARGO_TARGET_DIR=.bench_build \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

results="$scratch/bench_pairs_results.jsonl"
traced="$scratch/bench_pairs_traced.jsonl"
: >"$results"
: >"$traced"
# One run from one tree's root, untraced in pairs 1..N and traced in pair
# 0; appends its result line, tagged, to $results or $traced.
run() {
  local side="$1" tree="$2" w="$3" pair="$4" trace=0 out="$results" line
  if [ "$pair" -eq 0 ]; then trace=1 out="$traced"; fi
  line="$(cd "$tree" && bash benchmark/run.sh --workload "$w" --seconds 20 --trace "$trace" \
    2>"$scratch/logs/$w.$side.$pair.log" | tail -n 1)" || true
  if ! jq -e 'has("metrics")' <<<"$line" >/dev/null 2>&1; then
    line='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
  fi
  jq -c --arg side "$side" --arg w "$w" --argjson pair "$pair" \
    '. + {side: $side, workload: $w, pair: $pair}' <<<"$line" >>"$out"
}

for w in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
      run parent "$parent" "$w" "$i"
      run change "$root" "$w" "$i"
    else
      run change "$root" "$w" "$i"
      run parent "$parent" "$w" "$i"
    fi
    echo "$w: pair $i/$pairs done" >&2
  done
  run parent "$parent" "$w" 0
  run change "$root" "$w" 0
  echo "$w: traced runs done" >&2
done

# One workload's pair table for one end-to-end metric $m, from its
# untraced runs $r: the change's median/q1/q3, the parent's, and on how
# many pairs with both values the change was better.
pair_table='
  include "bench_stats";
  def pair_table($r; $m):
    ([$r[] | select(.side == "parent") | {key: (.pair | tostring), value: .metrics[$m.name].value}]
     | from_entries) as $pp
    | [$r[] | select(.side == "change") | .pair as $k | .metrics[$m.name].value as $v
       | $pp[$k | tostring] as $a
       | select($a != null and $v != null)
       | if $m.better == "lower" then $v < $a else $v > $a end] as $wins
    | ([$r[] | select(.side == "change") | .metrics[$m.name].value // empty] | spread)
      + { parent: ([$r[] | select(.side == "parent") | .metrics[$m.name].value // empty] | spread),
          change_better: ($wins | map(select(.)) | length), of: ($wins | length) };'

jq -rs -L "$root" --slurpfile spec "$root/BENCHMARK.json" "$pair_table"'
  def num: if . == null then "n/a" else (. * 1000 | round / 1000 | tostring) end;
  . as $runs
  | ($runs | map(.workload) | unique) as $ws
  | $ws[] as $w
  | ($runs | map(select(.workload == $w))) as $r
  | "== \($w) (\($r | map(.pair) | max) pairs)",
    ($spec[0].end_to_end[] as $m
     | pair_table($r; $m) as $t
     | "  \($m.name): \($t.parent.median | num) [\(if $t.parent.q1 == null then "n/a" else ($t.parent.q3 - $t.parent.q1) | num end)] -> \($t.median | num) \($m.unit)"
       + "  \(if $t.parent.median == null or $t.median == null or $t.parent.median == 0 then "n/a" else (($t.median - $t.parent.median) / $t.parent.median * 1000 | round / 10 | tostring) + " %" end)"
       + "  change better \($t.change_better)/\($t.of)"),
    ("  failed operations: parent \([$r[] | select(.side == "parent") | .failed] | add) of \([$r[] | select(.side == "parent") | .attempted] | add)"
     + ", change \([$r[] | select(.side == "change") | .failed] | add) of \([$r[] | select(.side == "change") | .attempted] | add)")
' "$results"

if [ -n "$(git -C "$root" status --porcelain --untracked-files=no -- . ':!BENCH_history.jsonl')" ]; then
  dirty=true
else
  dirty=false
fi
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then sha_ni=true; else sha_ni=false; fi
jq -cs -L "$root" --slurpfile spec "$root/BENCHMARK.json" --slurpfile traced "$traced" \
  --arg commit "$(git -C "$root" rev-parse --short HEAD)" --argjson dirty "$dirty" \
  --arg parent "$(git -C "$root" rev-parse --short "$sha")" --argjson pairs "$pairs" \
  --argjson nproc "$(nproc)" --argjson sha_ni "$sha_ni" "$pair_table"'
  def layers_of($w; $side):
    [$traced[] | select(.workload == $w and .side == $side)
     | .metrics | to_entries[] | select(.key as $n | history_layers | index($n))
     | { key, value: .value.value }] | from_entries;
  . as $runs
  | { commit: $commit, dirty: $dirty, nproc: $nproc, sha_ni: $sha_ni,
      source: "bench_pairs.sh", parent: $parent, pairs: $pairs,
      workloads: ($runs | map(.workload) | unique | map(. as $w
        | ($runs | map(select(.workload == $w))) as $r
        | { key: $w,
            value: (($spec[0].end_to_end | map({ key: .name, value: pair_table($r; .) }) | from_entries)
              + { layers: layers_of($w; "change"), parent_layers: layers_of($w; "parent") }) })
        | from_entries) }' "$results" >>"$root/BENCH_history.jsonl"
echo "appended the table to $root/BENCH_history.jsonl" >&2
