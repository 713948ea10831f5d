#!/usr/bin/env bash
# Size of the shipped code, per first-party crate (ROADMAP aim 2 tracks
# the first two columns, aim 3 the third). Each `src/*.rs` and
# `src/bin/*.rs` is cut at its first `#[cfg(test)]` line; blank lines and
# lines that start with `//` are dropped (indented comments therefore
# count: deleting them is not a way to shrink). Of the remaining lines:
# * `lines` counts them all;
# * `pub` counts those that start with `pub ` (a public item);
# * `panics` counts those that contain `unwrap()`, `expect(`, `panic!`,
#   `assert!`, `assert_eq!` or `unreachable!` (a site that can panic;
#   `debug_assert!` and `debug_assert_eq!` contain two of these and count
#   too), each line once however many it holds.
# The last row sums every column.
set -euo pipefail
shopt -s nullglob
cd "$(dirname "$0")"

printf '%-18s %7s %5s %6s\n' crate lines pub panics
for dir in crates/*/; do
  name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -1)
  for f in "$dir"src/*.rs "$dir"src/bin/*.rs; do
    sed '/#\[cfg(test)\]/,$d' "$f"
  done | grep -v -e '^[[:space:]]*$' -e '^//' |
    awk -v name="$name" '
      /^pub / { p++ }
      /unwrap\(\)|expect\(|panic!|assert!|assert_eq!|unreachable!/ { k++ }
      END { printf "%-18s %7d %5d %6d\n", name, NR, p, k }'
done | awk '{ print; lines += $2; pub += $3; panics += $4 }
  END { printf "%-18s %7d %5d %6d\n", "total", lines, pub, panics }'
