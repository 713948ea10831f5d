#!/usr/bin/env bash
# Mutation table runner: proves that a named test guards a named line.
#
#   ./mutants.sh [id...]      (no id: every row of mutants.tsv)
#   ./mutants.sh --changed    (the rows whose file `git diff HEAD` touches)
#
# Each row of mutants.tsv (tab-separated, `#` lines are comments) is
#
#   id  file  snippet  replacement  package  test
#
# `snippet` is an exact one-line source fragment that must occur on exactly
# one line of `file` (so a refactor that moves or duplicates it fails
# loudly instead of testing nothing); `replacement` is what it becomes;
# `test` is the argument list given to `cargo test --release -p <package>`
# (a target such as `--test thread_equivalence`, or `--lib` and a name
# filter). Fields are literal: no escapes are interpreted.
#
# The script `git clone`s HEAD into a scratch directory beside this
# checkout (`../scratch/mutants/tree`; set MUTANTS_SCRATCH to put it
# elsewhere; a later run resets and reuses the clone and its build) and
# applies the working tree's tracked changes (`git diff HEAD`), so it
# checks what the working tree holds. It first runs each distinct test on
# the unmutated tree, which must pass. Then, one row at a time, it applies
# the row, builds and runs the row's test in release, requires the test to
# fail ("killed"), and restores the file. It prints one line per row and
# then `killed k/total`; the exit code is 0 only if every row was killed.
# Each run's output goes to <scratch>/mutants/logs/.
set -euo pipefail
root="$(cd "$(dirname "$0")" && pwd)"
table="$root/mutants.tsv"
scratch="${MUTANTS_SCRATCH:-$root/../scratch}/mutants"
tree="$scratch/tree"
logs="$scratch/logs"
mkdir -p "$logs"

# Field n (from 1) of a table row; empty fields stay empty.
field() { cut -f"$2" <<<"$1"; }

# `--changed` selects by file: the paths the working tree's tracked changes
# touch, one per line with a blank line at each end for whole-line matches.
changed=""
if [ "${1:-}" = "--changed" ]; then
  [ $# -eq 1 ] || { echo "--changed takes no ids" >&2; exit 2; }
  changed=$'\n'"$(git -C "$root" diff HEAD --name-only)"$'\n'
fi

rows=()
while IFS= read -r line; do
  [ -z "$line" ] || [ "${line:0:1}" = "#" ] && continue
  if [ -n "$changed" ]; then
    [[ "$changed" == *$'\n'"$(field "$line" 2)"$'\n'* ]] && rows+=("$line")
  elif [ $# -eq 0 ] || [[ " $* " == *" $(field "$line" 1) "* ]]; then
    rows+=("$line")
  fi
done <"$table"
if [ ${#rows[@]} -eq 0 ] && [ -n "$changed" ]; then
  echo "no row of $table guards a file the working tree changes"
  exit 0
fi
[ ${#rows[@]} -gt 0 ] || { echo "no row of $table matches: $*" >&2; exit 2; }

# A clone left by an earlier run is reset and reused, keeping its build.
sha="$(git -C "$root" rev-parse HEAD)"
if [ -d "$tree/.git" ]; then
  git -C "$tree" fetch -q "$root" HEAD
else
  git clone -q "$root" "$tree"
fi
git -C "$tree" checkout -q -f --detach "$sha"
git -C "$tree" clean -q -f -d
git -C "$root" diff HEAD --binary >"$scratch/working.diff"
[ -s "$scratch/working.diff" ] && git -C "$tree" apply "$scratch/working.diff"
echo "mutating a clone of HEAD plus the working tree's tracked changes in $tree" >&2

# One cargo test call in the clone for a row:
# `run <log> <row> [extra cargo args...]`.
run() {
  local log="$1" line="$2" args
  shift 2
  read -ra args <<<"$(field "$line" 6)"
  (cd "$tree" && cargo test --release --offline -q "$@" -p "$(field "$line" 5)" "${args[@]}") \
    >"$log" 2>&1
}

declare -A baseline=()
for line in "${rows[@]}"; do
  key="$(field "$line" 5) $(field "$line" 6)"
  [ -n "${baseline[$key]:-}" ] && continue
  baseline[$key]=1
  if ! run "$logs/baseline.${#baseline[@]}.log" "$line"; then
    echo "the unmutated tree fails \`cargo test -p $key\` (see $logs)" >&2
    exit 1
  fi
done

killed=0
for line in "${rows[@]}"; do
  id=$(field "$line" 1)
  file=$(field "$line" 2)
  snippet=$(field "$line" 3)
  path="$tree/$file"
  hits=$(grep -cF -e "$snippet" "$path" || true)
  if [ "$hits" != 1 ]; then
    echo "$id: snippet is on $hits lines of $file, not one"
    continue
  fi
  cp "$path" "$path.orig"
  S="$snippet" R="$(field "$line" 4)" awk '{
      i = index($0, ENVIRON["S"])
      if (i) $0 = substr($0, 1, i - 1) ENVIRON["R"] substr($0, i + length(ENVIRON["S"]))
      print
    }' "$path.orig" >"$path"
  if ! run "$logs/$id.build.log" "$line" --no-run; then
    echo "$id: the mutant does not build (see $logs/$id.build.log)"
  elif run "$logs/$id.log" "$line"; then
    echo "$id: SURVIVED ($(field "$line" 5) $(field "$line" 6))"
  else
    echo "$id: killed"
    killed=$((killed + 1))
  fi
  mv "$path.orig" "$path"
done

echo "killed $killed/${#rows[@]}"
[ "$killed" -eq ${#rows[@]} ]
