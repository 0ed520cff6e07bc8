#!/usr/bin/env bash
# One-core guard (DESIGN.md §16): Fig. 5(b) is written once.
#
# 1. One verdict: `SimHarness::judge` is the only non-test code that
#    counts a TP/FP/TN/FN verdict or audits a missed conflict.
# 2. One recycler: the thread-local signature pool (DESIGN.md §11). The
#    `SignatureArena` and the `_with` forks it bred stay deleted.
# 3. No build-time knob: no test hides behind a --cfg.
# 4. One benchmark system: the ledger (benchmark/) times code and
#    crates/bench draws the paper's figures. The `cargo bench` suites,
#    their gate and the `hang_ms` wire hook stay deleted.
# 5. The par bus carries what the paper's bus carries (DESIGN.md §18): a
#    record has no read set, a store no signature, and a run reads its
#    trace and its log once. The old names may live on only as the
#    reference copies the property tests compare against.
# 6. The cache is flat (DESIGN.md §15): no set behind its own heap
#    pointer, and no per-lookup division for the set count. The per-set
#    `Vec` layout lives on only as the reference model in
#    crates/mem/tests/cache_properties.rs.
# 7. Exactly-once is a cursor on both substrates (DESIGN.md §9, §13): a
#    par receiver walks the log, a sim receiver applies round 0 of a
#    broadcast's bus occupancy. No receiver filters re-deliveries, no
#    stress plan injects them, the bus has no epoch, and the TLS commit
#    token only moves forward (`fetch_max`, never a plain store).
# 8. A count has one owner (DESIGN.md §8, §19): the registry gets an
#    end-of-run count once, from its owner's publish. No arbiter object
#    keeps a second crash count, no handle mirrors a cycle breakdown or a
#    liveness count, and par's workers keep a `ParStats`, not a twin.
# 9. An arbiter crash is bus time (DESIGN.md §9, §12): the model in
#    crates/mc checks what the sim does, so it has no arbiter epoch,
#    lease fence or re-stamped replay; the sim delivers no replay round,
#    so no receiver gate drops one and no engine counts it; and
#    specs/tla/ holds the one spec, BulkCommit.tla.
#
# Usage: scripts/one-core-guard.sh   (exit 1 and print the hits on a breach)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# Prints the lines of FILE... that match REGEX and come before the file's
# first #[cfg(test)] (what scripts/loc.sh counts); succeeds on a hit.
nontest_hits() { # REGEX FILE...
  local re=$1; shift
  awk -v re="$re" 'FNR == 1 { test = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
                   !test && $0 ~ re { print FILENAME ":" FNR ":" $0; hit = 1 }
                   END { exit !hit }' "$@"
}

mapfile -t files < <(find crates/*/src src -name '*.rs' ! -path crates/sim/src/harness.rs | sort)
if nontest_hits 'verdicts[.]record[(]|check_no_false_negative[(]' "${files[@]}"; then
  echo "one-core guard: verdicts are judged in crates/sim/src/harness.rs (SimHarness::judge) only"
  fail=1
fi

if grep -rnE 'SignatureArena|sig_arena|commit_with\b|_union_with\b|union_from_with\b' crates src tests examples; then
  echo "one-core guard: the signature pool is the one recycler; no arena, no _with fork"
  fail=1
fi

if grep -rn 'bulk_stress' crates .github; then
  echo "one-core guard: cfg(bulk_stress) is gone; no test hides behind a --cfg"
  fail=1
fi

# `hang_ms` may appear in test code only (one test pins it as an unknown key).
retired=0
grep -rnE 'BenchSuite|bench_diff|BULK_BENCH_OUT' crates src tests examples .github && retired=1
grep -n '^\[\[bench\]\]' crates/*/Cargo.toml && retired=1
grep -rn 'hang_ms' examples .github && retired=1
nontest_hits 'hang_ms' "${files[@]}" crates/sim/src/harness.rs && retired=1
if [ "$retired" -eq 1 ]; then
  echo "one-core guard: the ledger is the one benchmark system; no cargo-bench suite, gate or hang_ms hook"
  fail=1
fi

par_names=0
nontest_hits 'exact_r' crates/par/src/bus.rs && par_names=1
nontest_hits '(signature_of|history_of|broadcasts_of)[(]' crates/par/src/*.rs && par_names=1
if [ "$par_names" -eq 1 ]; then
  echo "one-core guard: a bus record is W_C or an address; no read set, one-line signature or second pass"
  fail=1
fi

if nontest_hits 'Vec<Vec<CacheLine>>|num_sets[(][)]' crates/mem/src/cache.rs; then
  echo "one-core guard: the cache is flat set-major arrays; no Vec<Vec<CacheLine>>, no num_sets() per lookup"
  fail=1
fi

cursor=0
nontest_hits 'StressConfig|bump_epoch|stress_redeliveries|next_commit[.]store[(]' \
  crates/par/src/*.rs && cursor=1
nontest_hits 'DedupFilter|record_application|duplicate_applications' \
  "${files[@]}" crates/sim/src/harness.rs && cursor=1
for gone in crates/par/tests/stress.rs crates/live/tests/dedup_properties.rs; do
  [ -e "$gone" ] && { echo "$gone"; cursor=1; }
done
if [ "$cursor" -eq 1 ]; then
  echo "one-core guard: exactly-once is a cursor; no dedup filter, stress plan, bus epoch or backward token store"
  fail=1
fi

owner=0
nontest_hits 'struct Arbiter|CycleObs|WorkerStats|on_dedup_drop|on_checkpoint|replayed_commits|arbiter_epoch:|reelect_cycles' \
  "${files[@]}" crates/sim/src/harness.rs && owner=1
[ -e crates/live/src/arbiter.rs ] && { echo crates/live/src/arbiter.rs; owner=1; }
if [ "$owner" -eq 1 ]; then
  echo "one-core guard: a count has one owner; no Arbiter, CycleObs, WorkerStats or registry mirror of a liveness count"
  fail=1
fi

bustime=0
nontest_hits 'epoch|fence|restamp|ReplayWithoutRestamp|SkipReplay|NoFencing' \
  $(find crates/mc/src -name '*.rs' | sort) && bustime=1
nontest_hits 'fn admit|note_dedup_drop|dedup_drops:' "${files[@]}" crates/sim/src/harness.rs && bustime=1
[ -e specs/tla/ArbiterFailover.tla ] && { echo specs/tla/ArbiterFailover.tla; bustime=1; }
if [ "$bustime" -eq 1 ]; then
  echo "one-core guard: an arbiter crash is bus time; no modelled epoch, fence or replay, no round gate or drop count"
  fail=1
fi

[ "$fail" -eq 0 ] && echo "one-core guard: OK"
exit "$fail"
