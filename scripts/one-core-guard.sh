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
#    stress plan injects them, and the bus has no epoch. TLS has no
#    commit token: the log is its order, so no `next_commit` or
#    `fetch_max` hand-off.
# 8. A count has one owner (DESIGN.md §8, §19): the registry gets an
#    end-of-run count once, from its owner's publish. No arbiter object
#    keeps a second crash count, no handle mirrors a cycle breakdown or a
#    liveness count, and par's workers keep a `ParStats`, not a twin.
# 9. An arbiter crash is bus time (DESIGN.md §9, §12): the model in
#    crates/mc checks what the sim does, so it has no arbiter epoch,
#    lease fence or re-stamped replay; the sim delivers no replay round,
#    so no receiver gate drops one and no engine counts it; and
#    specs/tla/ holds the one spec, BulkCommit.tla.
# 10. A checkpoint that cannot fail is a test (DESIGN.md §9): a context
#    switch spills and reloads a version (§6.2.2) with no proof step, and
#    par keeps no signature copy at a recovery point. The round trip is a
#    property of crates/core/tests/delta_register.rs.
# 11. A line test is one probe (DESIGN.md §11): expansion and the
#    speculative-store check ask a word signature about a line through
#    its word group, not word by word; a seal XORs one basis CRC per set
#    bit instead of running the byte tables over every flat word; and the
#    machines' scheduler scans are the shared branch-free `earliest`.
# 12. One recovery rule (DESIGN.md §13): on either par engine a respawn
#    adopts the slot its dead incarnation held, so the bus log carries
#    only commits and stores. No fence tombstone, no fence count, no
#    crash slack in the log's size and no separate resume hand-over.
# 13. A record's slot is its identity (DESIGN.md §13): par stamps no
#    commit ticket and hands a respawn no serial, only its held slot, so
#    the audit has no ticket set and the chaos injector kills at two
#    points, claim and apply. A publish-point kill was a claim kill.
# 14. The supervisor trails the log (DESIGN.md §13): the supervisor's
#    audit cursor checks each record as it lands and is the watchdog's
#    only progress writer, so a publish notes no progress, no `seal`
#    replays the log after the join, and a TLS task's `Spawn`s are
#    counted by the worker that runs it, not by a pass over the trace.
# 15. A par access is an append (DESIGN.md §18): a worker's exact oracle
#    is an access log, so no per-access set insert — no `AddrSet` in a
#    non-test line of crates/par/src — and TM's per-op poll is
#    `#[inline(always)]`, as TLS's is, not a hint LLVM may leave as a
#    call.
# 16. A job's slot is its `Running` state (DESIGN.md §14): bulkd's job
#    table counts its `Running` entries under the one jobs lock, so no
#    slot semaphore, no per-job release latch and no per-job watchdog (a
#    job keeps a deadline); and `bulk bulkd` parses straight into
#    `bulkd::DaemonConfig`, with no `BulkdArgs` copy of it.
# 17. One front door (DESIGN.md §19): a run is a JobSpec + RunOptions
#    executed by bulk_par::Runtime::run, so the CLI and the daemon build
#    no machine and call no engine or `_observed` entry point.
# 18. A daemon thread lives in its accept loop's scope (DESIGN.md §14):
#    bulkd's handlers and job workers are scoped threads of the accept
#    loop that took their connection, so no worker or connection
#    `JoinHandle` list and no `track`; a job's event ring has one size,
#    so no `event_capacity` knob; and a spec's canonical line uses
#    `bulk_obs::json_escape`, not a private `escape`.
# 19. A fault mix is its probabilities (DESIGN.md §7, §19): a sim
#    `ChaosConfig` is a seed and seven probabilities, a fault's magnitude
#    is a constant of the injector or the harness, and par's worker
#    faults are a `ThreadChaosConfig`. A scripted plan is the zero mix
#    plus its `ScheduleScript`, armed by `FaultPlan::scripted` alone, so
#    the harness reads no config off its plan.
# 20. A par waiter gives its core away (DESIGN.md §18): a wait on the log
#    is `Receiver::wait`'s bounded yields and then a park until the next
#    publish, so no other non-test line of the bus, receiver or TLS code
#    yields or makes a spin check; `Receiver::backoff`'s bounded yields
#    after a squash are the one other yield.
# 21. A served job's done line leaves when the job ends (DESIGN.md §14):
#    `JobTable::end` is the one non-test line of crates/bulkd/src/job.rs
#    that notifies the table's `Condvar`, and `stream_job` waits on it
#    through `wait_end` instead of sleeping between polls; and a scrape
#    renders in one pass, so crates/obs/src/prometheus.rs has no
#    per-line `label_block`, `push_line` or `Family` (the per-line
#    encoder lives on only as the reference copy in
#    crates/obs/tests/prometheus_props.rs).
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

# Prints the lines matching REGEX inside the bodies of the named
# functions of FILE (each from its `fn NAME(` line to the `}` at the same
# indent); succeeds on a hit. A named function that is missing is a hit
# too, so a rename cannot retire the check.
fn_hits() { # REGEX FILE FN...
  local re=$1 file=$2; shift 2
  awk -v re="$re" -v names="$*" '
    BEGIN { n = split(names, want, " "); for (i = 1; i <= n; i++) missing[want[i]] = 1 }
    !inside { for (i = 1; i <= n; i++) if ($0 ~ "fn " want[i] "[(<]") {
                inside = 1; delete missing[want[i]]
                match($0, /^[[:space:]]*/); close_line = substr($0, 1, RLENGTH) "}" } }
    inside && $0 ~ re { print FILENAME ":" FNR ":" $0; hit = 1 }
    inside && $0 == close_line { inside = 0 }
    END { for (f in missing) { print FILENAME ": no fn " f; hit = 1 } exit !hit }' "$file"
}

# Prints the non-test lines of FILE... that match REGEX outside the
# bodies of the named functions (bounded as in fn_hits); succeeds on a hit.
outside_fn_hits() { # REGEX "FN..." FILE...
  local re=$1 names=$2; shift 2
  awk -v re="$re" -v names="$names" '
    BEGIN { n = split(names, want, " ") }
    FNR == 1 { test = 0; inside = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
    !inside { for (i = 1; i <= n; i++) if ($0 ~ "fn " want[i] "[(<]") {
                inside = 1
                match($0, /^[[:space:]]*/); close_line = substr($0, 1, RLENGTH) "}" } }
    !test && !inside && $0 ~ re { print FILENAME ":" FNR ":" $0; hit = 1 }
    inside && $0 == close_line { inside = 0 }
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
nontest_hits 'StressConfig|bump_epoch|stress_redeliveries|next_commit|fetch_max' \
  crates/par/src/*.rs && cursor=1
nontest_hits 'DedupFilter|record_application|duplicate_applications' \
  "${files[@]}" crates/sim/src/harness.rs && cursor=1
for gone in crates/par/tests/stress.rs crates/live/tests/dedup_properties.rs; do
  [ -e "$gone" ] && { echo "$gone"; cursor=1; }
done
if [ "$cursor" -eq 1 ]; then
  echo "one-core guard: exactly-once is a cursor and the log is the TLS order; no dedup filter, stress plan, bus epoch or commit token"
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

ckpt=0
nontest_hits 'Checkpoint::|CheckpointError|checkpoint_restore_failures|report_checkpoint_failure|refresh_checkpoint|CheckpointRestore|fn snapshot_lines|fn copy_from[(]' \
  "${files[@]}" crates/sim/src/harness.rs && ckpt=1
[ -e crates/live/src/checkpoint.rs ] && { echo crates/live/src/checkpoint.rs; ckpt=1; }
if [ "$ckpt" -eq 1 ]; then
  echo "one-core guard: a checkpoint that cannot fail is a test; no Checkpoint, restore-failure count or in-place signature copy"
  fail=1
fi

probe=0
nontest_hits 'contains_word' crates/sig/src/expansion.rs crates/core/src/set_restriction.rs && probe=1
fn_hits 'crc64_step8' crates/sig/src/sealed.rs signature_crc && probe=1
fn_hits 'min_by_key' crates/tm/src/machine.rs pick_runnable && probe=1
fn_hits 'min_by_key' crates/tls/src/machine.rs pick_proc free_proc assign_tasks && probe=1
if [ "$probe" -eq 1 ]; then
  echo "one-core guard: a line test is one probe; no per-word expansion, no byte-table seal, no min_by_key scheduler scan"
  fail=1
fi

if nontest_hits 'RecordKind::Fence|^[[:space:]]*Fence,|fences|crash_bound|struct Resume' \
  crates/par/src/*.rs crates/chaos/src/thread.rs $(find crates/cli/src -name '*.rs' | sort); then
  echo "one-core guard: one recovery rule; a respawn adopts its held slot, no fence record, count or log slack"
  fail=1
fi

slot=0
nontest_hits 'CommitTicket|stamp_ticket|seen_tickets|[.]serial([^[:alnum:]_]|$)' crates/par/src/*.rs && slot=1
grep -rn 'CrashPoint::Publish' crates tests && slot=1
if [ "$slot" -eq 1 ]; then
  echo "one-core guard: a record's slot is its identity; no commit ticket, worker serial or publish crash point"
  fail=1
fi

trail=0
nontest_hits 'progress[(][)]' crates/par/src/receiver.rs && trail=1
nontest_hits 'validate[(][)]' crates/par/src/tls.rs && trail=1
nontest_hits 'seal[(]' crates/par/src/tm.rs crates/par/src/tls.rs && trail=1
if [ "$trail" -eq 1 ]; then
  echo "one-core guard: the supervisor trails the log; no progress per publish, no post-join seal, no up-front TLS trace pass"
  fail=1
fi

append=0
nontest_hits 'AddrSet' crates/par/src/*.rs && append=1
# The attribute line right above TM's `fn poll`, which must exist.
awk '/^[[:space:]]*#\[/ { attr = $0; next }
     /fn poll[(<]/ { seen = 1; if (attr !~ /#\[inline\(always\)\]/) { print FILENAME ":" FNR ":" $0; bad = 1 } }
     { attr = "" }
     END { if (!seen) print FILENAME ": no fn poll"; exit !(bad || !seen) }' crates/par/src/tm.rs && append=1
if [ "$append" -eq 1 ]; then
  echo "one-core guard: a par access is an append; no oracle set insert per access, and TM's poll is #[inline(always)]"
  fail=1
fi

running=0
nontest_hits 'slot_released|slots_cv|WallClockWatchdog' $(find crates/bulkd/src -name '*.rs' | sort) && running=1
nontest_hits 'BulkdArgs' $(find crates/cli/src -name '*.rs' | sort) && running=1
if [ "$running" -eq 1 ]; then
  echo "one-core guard: a job's slot is its Running state; no slot semaphore, release latch, per-job watchdog or BulkdArgs"
  fail=1
fi

if grep -rnE 'T(m|ls)Machine::|run_par_t(m|ls)|run_t(m|ls)_observed' crates/cli/src crates/bulkd/src; then
  echo "one-core guard: one front door; crates/cli and crates/bulkd must go through Runtime::run"
  fail=1
fi

scope=0
nontest_hits 'fn track[(]|workers: Mutex|conns[.]retain|event_capacity|event-capacity' \
  $(find crates/bulkd/src crates/cli/src -name '*.rs' | sort) && scope=1
nontest_hits 'fn escape[(]' crates/trace/src/jobspec.rs && scope=1
if [ "$scope" -eq 1 ]; then
  echo "one-core guard: a daemon thread lives in its accept loop's scope; no worker or connection list, no track, no event-capacity knob, no second JSON escaper"
  fail=1
fi

mix=0
nontest_hits 'max_denials|backoff_base|backoff_cap|delay_max|ctx_switch_cycles|retransmit_cycles|max_crashes_per_broadcast|worker_kill_prob|max_worker_kills|thread_stall|publish_delay' \
  crates/chaos/src/fault.rs && mix=1
nontest_hits 'scripted_config|[.]config[(][)]' crates/sim/src/harness.rs crates/chaos/src/*.rs && mix=1
grep -rn 'into_plan' crates tests && mix=1
if [ "$mix" -eq 1 ]; then
  echo "one-core guard: a fault mix is its probabilities; no magnitude or worker-fault field in ChaosConfig, no scripted config, no into_plan"
  fail=1
fi

if outside_fn_hits 'yield_now[(]|check_spin[(]' 'wait backoff' \
  crates/par/src/bus.rs crates/par/src/receiver.rs crates/par/src/tls.rs; then
  echo "one-core guard: a par waiter gives its core away; only Receiver::wait waits on the log, and only it and Receiver::backoff yield"
  fail=1
fi

served=0
fn_hits 'sleep[(]' crates/bulkd/src/daemon.rs stream_job && served=1
outside_fn_hits 'notify_all' 'end' crates/bulkd/src/job.rs && served=1
grep -nE 'label_block[(]|push_line[(]|struct Family' crates/obs/src/prometheus.rs && served=1
if [ "$served" -eq 1 ]; then
  echo "one-core guard: a done line leaves at its job's end and a scrape renders in one pass; no stream sleep, no notify outside JobTable::end, no per-line label block"
  fail=1
fi

[ "$fail" -eq 0 ] && echo "one-core guard: OK"
exit "$fail"
