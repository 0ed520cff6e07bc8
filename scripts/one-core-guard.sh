#!/usr/bin/env bash
# One-core guard (DESIGN.md §16): Fig. 5(b) is written once.
#
# 1. One verdict: `SimHarness::judge` is the only non-test code that
#    counts a TP/FP/TN/FN verdict or audits a missed conflict.
# 2. One recycler: the thread-local signature pool (DESIGN.md §11). The
#    `SignatureArena` and the `_with` forks it bred stay deleted.
# 3. No build-time knob: the stress smoke is an ordinary test.
#
# Usage: scripts/one-core-guard.sh   (exit 1 and print the hits on a breach)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Lines before each file's first #[cfg(test)], as scripts/loc.sh counts them.
mapfile -t files < <(find crates/*/src src -name '*.rs' ! -path crates/sim/src/harness.rs | sort)
if awk 'FNR == 1 { test = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        !test && /verdicts\.record\(|check_no_false_negative\(/ { print FILENAME ":" FNR ":" $0; hit = 1 }
        END { exit !hit }' "${files[@]}"; then
  echo "one-core guard: verdicts are judged in crates/sim/src/harness.rs (SimHarness::judge) only"
  fail=1
fi

if grep -rnE 'SignatureArena|sig_arena|commit_with\b|_union_with\b|union_from_with\b' crates src tests examples; then
  echo "one-core guard: the signature pool is the one recycler; no arena, no _with fork"
  fail=1
fi

if grep -rn 'bulk_stress' crates .github; then
  echo "one-core guard: cfg(bulk_stress) is gone; crates/par/tests/stress.rs is an ordinary test"
  fail=1
fi

[ "$fail" -eq 0 ] && echo "one-core guard: OK"
exit "$fail"
