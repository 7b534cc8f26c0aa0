#!/usr/bin/env sh
# Non-test source lines under crates/*/src: skips *_tests.rs and tests.rs
# files and cuts every other file at its first top-level `#[cfg(test)]`.
# Prints one line per crate and the total — the size figure the ROADMAP's
# "least code" aim is tracked with.
#
# Usage: scripts/loc.sh [DIR]      (DIR defaults to the repository root)
set -eu

cd "${1:-$(dirname "$0")/..}"

find crates/*/src -name '*.rs' ! -name '*_tests.rs' ! -name 'tests.rs' | sort | while read -r f; do
  crate="${f#crates/}"
  echo "${crate%%/*} $(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")"
done | awk '{ by[$1] += $2; total += $2 }
  END { for (c in by) printf "%-10s %6d\n", c, by[c] | "sort"; close("sort"); printf "%-10s %6d\n", "total", total }'
