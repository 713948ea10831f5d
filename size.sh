#!/usr/bin/env bash
# Size of the shipped code, per first-party crate (ROADMAP aim 2 tracks
# both columns). Each `src/*.rs` and `src/bin/*.rs` is cut at its first
# `#[cfg(test)]` line; blank lines and lines that start with `//` are
# dropped (indented comments therefore count: deleting them is not a way to
# shrink); a `pub` item is a remaining line that starts with `pub `. The
# last row sums both columns.
set -euo pipefail
shopt -s nullglob
cd "$(dirname "$0")"

printf '%-18s %7s %5s\n' crate lines pub
for dir in crates/*/; do
  name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -1)
  for f in "$dir"src/*.rs "$dir"src/bin/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f"
  done | grep -v -e '^[[:space:]]*$' -e '^//' |
    awk -v name="$name" '/^pub / { p++ } END { printf "%-18s %7d %5d\n", name, NR, p }'
done | awk '{ print; lines += $2; pub += $3 } END { printf "%-18s %7d %5d\n", "total", lines, pub }'
