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
# is the gate). Each run's stderr goes to <scratch>/logs/. Needs jq.
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
: >"$results"
# One run from one tree's root; appends its result line, tagged.
run() {
  local side="$1" tree="$2" w="$3" pair="$4" line
  line="$(cd "$tree" && bash benchmark/run.sh --workload "$w" --seconds 20 --trace 0 \
    2>"$scratch/logs/$w.$side.$pair.log" | tail -n 1)" || true
  if ! jq -e 'has("metrics")' <<<"$line" >/dev/null 2>&1; then
    line='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
  fi
  jq -c --arg side "$side" --arg w "$w" --argjson pair "$pair" \
    '. + {side: $side, workload: $w, pair: $pair}' <<<"$line" >>"$results"
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
done

jq -rs --slurpfile spec "$root/BENCHMARK.json" '
  def median: sort | length as $n
    | if $n == 0 then null
      elif $n % 2 == 1 then .[($n - 1) / 2]
      else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
  def quartile($i): sort as $v | length as $m
    | if $m < 2 then null
      else ([1, ([($i * ($m + 1) / 4 | floor), $m - 1] | min)] | max) as $j
        | ($i * ($m + 1) - $j * 4) as $d
        | ($v[$j - 1] * (4 - $d) + $v[$j] * $d) / 4 end;
  def num: if . == null then "n/a" else (. * 1000 | round / 1000 | tostring) end;
  . as $runs
  | ($runs | map(.workload) | unique) as $ws
  | $ws[] as $w
  | ($runs | map(select(.workload == $w))) as $r
  | "== \($w) (\($r | map(.pair) | max) pairs)",
    ($spec[0].end_to_end[] as $m
     | [$r[] | select(.side == "parent") | .metrics[$m.name].value // empty] as $p
     | [$r[] | select(.side == "change") | .metrics[$m.name].value // empty] as $c
     | ([$r[] | select(.side == "parent") | {key: (.pair | tostring), value: .metrics[$m.name].value}]
        | from_entries) as $pp
     | [$r[] | select(.side == "change") | .pair as $k | .metrics[$m.name].value as $v
        | $pp[$k | tostring] as $a
        | select($a != null and $v != null)
        | if $m.better == "lower" then $v < $a else $v > $a end] as $wins
     | ($p | median) as $pm | ($c | median) as $cm
     | "  \($m.name): \($pm | num) [\(if ($p | length) < 2 then "n/a" else (($p | quartile(3)) - ($p | quartile(1))) | num end)] -> \($cm | num) \($m.unit)"
       + "  \(if $pm == null or $cm == null or $pm == 0 then "n/a" else (($cm - $pm) / $pm * 1000 | round / 10 | tostring) + " %" end)"
       + "  change better \($wins | map(select(.)) | length)/\($wins | length)"),
    ("  failed operations: parent \([$r[] | select(.side == "parent") | .failed] | add) of \([$r[] | select(.side == "parent") | .attempted] | add)"
     + ", change \([$r[] | select(.side == "change") | .failed] | add) of \([$r[] | select(.side == "change") | .attempted] | add)")
' "$results"
