#!/usr/bin/env bash
# The run-over-run performance record (ROADMAP item 1a/1b). Runs the whole
# benchmark (`benchmark/run.sh --all`: every workload ten times untraced,
# once traced; ~15 min), reduces the set to one JSON line and appends it to
# the committed BENCH_history.jsonl:
#
#   commit, dirty   HEAD, and whether the measured tree differs from it (a
#                   PR measures its working tree before it is committed)
#   nproc, sha_ni   the box: its core count and whether its CPU has the SHA
#                   extensions `racket_collect::hash::sha256` dispatches on
#                   (the `sha_ni` flag of /proc/cpuinfo; false where that is
#                   unreadable); a line from another box is another series
#   workloads.<w>   median/q1/q3 of the ten untraced runs of each end-to-end
#                   metric BENCHMARK.json declares (quartiles as Python's
#                   statistics.quantiles(n=4), like benchmark/src/stats.rs),
#                   and under "layers" the traced run's value of each
#                   per-layer metric the open roadmap items target
#
# Then it holds every median against the previous line's: worse by more
# than the metric's `bound` in BENCHMARK.json is a regression and the exit
# code is 1. The line stays in the file either way (it is what was
# measured); this box has slow moods that outlast a set (benchmark/README.md),
# so a regression is first re-measured with order-alternated parent/change
# pairs, and a line that turns out to be a mood is deleted by hand.
#
# No arguments, nothing to configure. Needs jq.
set -euo pipefail
cd "$(dirname "$0")"
[ $# -eq 0 ] || { echo "bench_history.sh takes no arguments" >&2; exit 2; }

history=BENCH_history.jsonl
runs="$(mktemp -t bench_runs.XXXXXX.json)"
trap 'rm -f "$runs"' EXIT

# Exits non-zero (and so ends this script, nothing appended) when any run
# failed an operation or a correctness check.
bash benchmark/run.sh --all --out "$runs"

if [ -n "$(git status --porcelain --untracked-files=no -- . ":!$history")" ]; then
  dirty=true
else
  dirty=false
fi

if grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then
  sha_ni=true
else
  sha_ni=false
fi

line="$(jq -c --slurpfile spec BENCHMARK.json \
  --arg commit "$(git rev-parse --short HEAD)" --argjson dirty "$dirty" \
  --argjson nproc "$(nproc)" --argjson sha_ni "$sha_ni" '
  def median: sort | length as $n
    | if $n == 0 then null
      elif $n % 2 == 1 then .[($n - 1) / 2]
      else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
  def quartile($i): sort as $v | length as $m
    | if $m < 2 then null
      else ([1, ([($i * ($m + 1) / 4 | floor), $m - 1] | min)] | max) as $j
        | ($i * ($m + 1) - $j * 4) as $d
        | ($v[$j - 1] * (4 - $d) + $v[$j] * $d) / 4 end;
  ["collect.retry.wait_s", "collect.retry.retries", "collect.server.dup_files",
   "reactor.poll.rounds", "collect.lzss.compress_busy_s", "snapshots_per_s",
   "alloc.count_per_snapshot", "text.index.scan_busy_s", "ml.cv.busy_s",
   "ml.gbt.train_busy_s", "scaling_efficiency", "obs.overhead_share",
   "collect.hash.sha256_mb_per_s"] as $layers
  | .runs as $runs
  | { commit: $commit, dirty: $dirty, nproc: $nproc, sha_ni: $sha_ni,
      source: "bench_history.sh",
      workloads: ($spec[0].workloads | map(.name as $w | {
        key: $w,
        value: (
          ($spec[0].end_to_end | map(.name as $m | {
            key: $m,
            value: ([$runs[] | select(.workload == $w and (.traced | not))
                     | .metrics[] | select(.[0] == $m) | .[1]]
                    | { median: median, q1: quartile(1), q3: quartile(3) })
          }) | from_entries)
          + { layers: ([$runs[] | select(.workload == $w and .traced)
                        | .metrics[] | select(.[0] as $n | $layers | index($n))
                        | { key: .[0], value: .[1] }] | from_entries) })
      }) | from_entries) }' "$runs")"

previous="$(tail -n 1 "$history" 2>/dev/null || true)"
printf '%s\n' "$line" >>"$history"
echo "appended to $history:" >&2
printf '%s\n' "$line" | jq . >&2

[ -n "$previous" ] || exit 0
previous_commit="$(jq -r .commit <<<"$previous")"
# Lines older than the `sha_ni` field were recorded on this series' box.
if [ "$(jq .nproc <<<"$previous")" != "$(nproc)" ] ||
  [ "$(jq 'if has("sha_ni") then .sha_ni else '"$sha_ni"' end' <<<"$previous")" != "$sha_ni" ]; then
  echo "previous line is from a box with another nproc or sha_ni: another series, nothing to hold this one against" >&2
  exit 0
fi
regressions="$(jq -rn --slurpfile spec BENCHMARK.json \
  --argjson old "$previous" --argjson new "$line" '
  $spec[0].workloads[].name as $w | $spec[0].end_to_end[] | . as $m
  | $old.workloads[$w][$m.name].median as $a
  | $new.workloads[$w][$m.name].median as $b
  | select($a != null and $b != null and $a > 0)
  | (if $m.better == "lower" then ($b - $a) / $a else ($a - $b) / $a end) as $worse
  | select($worse > $m.bound)
  | "\($w) \($m.name): \($a) -> \($b) \($m.unit), worse by \($worse * 1000 | round / 10) % (bound \($m.bound * 100) %)"')"
if [ -n "$regressions" ]; then
  echo "REGRESSION against the previous line ($previous_commit):" >&2
  printf '%s\n' "$regressions" >&2
  exit 1
fi
echo "every median within its bound of the previous line ($previous_commit)" >&2
