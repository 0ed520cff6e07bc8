#!/usr/bin/env bash
# Net source lines, the number ROADMAP aim 2 tracks: every Rust line under
# crates/*/src and src/ up to (not including) the file's first
# `#[cfg(test)]`. Comments and blanks count — deleting a comment that
# still applies is not a reduction, so it must not look like one.
#
# Usage: scripts/loc.sh            per-crate table and total
#        scripts/loc.sh FILE...    the same count for the named files
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  # Lines before the first #[cfg(test)] line of each file, summed.
  awk 'FNR == 1 { test = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' "$@"
}

if [ "$#" -gt 0 ]; then
  for f in "$@"; do printf '%7d %s\n' "$(count "$f")" "$f"; done
  printf '%7d total\n' "$(count "$@")"
  exit 0
fi

total=0
for dir in crates/*/src src; do
  mapfile -t files < <(find "$dir" -name '*.rs' | sort)
  n=$(count "${files[@]}")
  total=$((total + n))
  name=${dir%/src}
  printf '%7d %s\n' "$n" "${name#crates/}"
done
printf '%7d total\n' "$total"
