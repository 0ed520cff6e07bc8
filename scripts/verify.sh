#!/usr/bin/env bash
# Tier-1 verification, hermetically.
#
# --offline + --locked make any reintroduced external (crates.io)
# dependency, or any unlocked version drift, a hard build error instead
# of a network fetch. -D warnings keeps the tree warning-clean, so new
# warnings are regressions rather than noise.
#
# Usage: scripts/verify.sh [extra cargo-test args]
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"

echo "== cargo build --release --offline --locked --workspace --all-targets"
cargo build --release --offline --locked --workspace --all-targets

# Front-door guard (DESIGN.md §19): a run is a JobSpec + RunOptions and
# bulk_par::Runtime::run executes it. Neither caller may build a machine,
# call an engine entry point or an `_observed` shortcut behind its back.
echo "== front-door guard (no second path to a machine in cli/ or bulkd/)"
if grep -rnE 'T(m|ls)Machine::|run_par_t(m|ls)|run_t(m|ls)_observed' crates/cli/src crates/bulkd/src; then
  echo "front-door guard: crates/cli and crates/bulkd must go through Runtime::run"
  exit 1
fi
echo "front-door guard: OK"

# One-core guard (DESIGN.md §16): one verdict (SimHarness::judge), one
# signature recycler (the thread-local pool), no cfg-gated test, one
# benchmark system (no cargo-bench suite, no hang_ms wire hook), a par
# bus record that is W_C or an address (no read set, no second pass), a
# flat cache (no Vec<Vec<CacheLine>>, no num_sets() per lookup), and par
# exactly-once by the log cursor (no dedup filter, stress plan or bus
# epoch; a forward-only TLS commit token).
echo "== one-core guard (one verdict, one recycler, no cfg knob, one benchmark system, a lean bus record, a flat cache, exactly-once by cursor)"
scripts/one-core-guard.sh

echo "== cargo test -q --offline --locked --workspace"
cargo test -q --offline --locked --workspace "$@"

# The ledger is a package of its own and compiles against the workspace's
# public API (Runtime::run_tm, TmMachine::try_new, JobSpec::parse, ...):
# build it so a source-incompatible change fails here, not in the driver.
# It builds unlocked and rewrites its Cargo.lock when a workspace crate's
# dependency list moved; nothing under benchmark/ may change, so the lock
# file is put back.
echo "== cargo build --release --offline --manifest-path benchmark/Cargo.toml"
LEDGER_LOCK=$(mktemp)
cp benchmark/Cargo.lock "$LEDGER_LOCK"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
  cargo build --release --offline --manifest-path benchmark/Cargo.toml \
  || { mv "$LEDGER_LOCK" benchmark/Cargo.lock; exit 1; }
mv "$LEDGER_LOCK" benchmark/Cargo.lock

# The crash-recovery matrix used to fail about one run in three on a
# 2-core host (a scheduled apply-point kill the target worker could
# outrun). Kill reachability is now schedule-independent; 50 consecutive
# green runs (about 2 s each) are the proof, and a guard against its
# return. The matrix includes TLS under the probabilistic chaos preset
# (most of those 2 s: its injected stalls sleep), where an adopted slot
# lost to a second death or a commit token moved backwards used to stall
# a run until the watchdog tripped.
echo "== cargo test --test par_recovery x50"
for i in $(seq 1 50); do
  out=$(cargo test -q --offline --locked --test par_recovery 2>&1) \
    || { echo "$out"; echo "par_recovery failed on run $i of 50"; exit 1; }
done
echo "par_recovery x50: OK"

# The signature crate parses attacker-controlled compressed bytes and
# does position arithmetic on them; run its tests with debug_assertions
# AND overflow checks forced on, so any wrap in gap accumulation or bit
# cursors is a hard failure even if a profile ever disables the default.
echo "== cargo test -q -p bulk-sig (overflow checks)"
RUSTFLAGS="$RUSTFLAGS -Coverflow-checks=on" \
  cargo test -q --offline --locked -p bulk-sig

echo "== cargo doc --no-deps --offline --locked (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="${RUSTDOCFLAGS:--D warnings}" cargo doc --no-deps --offline --locked --workspace

echo "== cargo test --doc -q --offline --locked --workspace"
cargo test --doc -q --offline --locked --workspace

# Bounded chaos smoke: deterministic fault injection + invariant audit
# through the CLI, one TM and one TLS scheme over three fault seeds.
# Any invariant violation or undetected corruption is a nonzero exit.
BULK=target/release/bulk
echo "== chaos smoke ($BULK, 3 seeds x 2 schemes)"
for seed in 1 2 3; do
  "$BULK" tm  --app mc   --scheme bulk --seed "$seed" --txs 10  --chaos > /dev/null
  "$BULK" tls --app gzip --scheme bulk --seed "$seed" --tasks 60 --chaos > /dev/null
done
echo "chaos smoke: OK"

# Linearity guard: the sim's host time must stay linear in trace length.
# 12,800 crafty tasks take under a second while every per-op scan stays
# inside the in-flight window (DESIGN.md §15) and about 30 s when one
# walks all tasks again — the timeout sits 10x above the one and 3x below
# the other, so it separates the two regimes rather than timing the host.
echo "== sim linearity guard (12800 TLS tasks under a 10 s timeout)"
timeout 10 "$BULK" tls --app crafty --tasks 12800 --scheme bulk --seed 42 > /dev/null
echo "linearity guard: OK"

# Audit-cost guard: the auditor reads δ(W) from the BDM slots (DESIGN.md
# §17). 2,400 audited sjbb2k transactions take about 0.6 s that way and
# about 7 s when δ is decoded again inside the verifier's per-set loop —
# as above, the timeout separates two regimes rather than timing the host.
echo "== audit-cost guard (2400 audited TM transactions under a 2 s timeout)"
timeout 2 "$BULK" tm --app sjbb2k --txs 2400 --scheme bulk --seed 42 --audit > /dev/null
echo "audit-cost guard: OK"

# Parallel-runtime crash smoke: --chaos under --runtime par arms the
# real-thread fault preset (seeded worker kills at commit-protocol
# points, injected stalls, delayed publishes). The supervisor must
# fence/adopt the orphaned slot, respawn from the last checkpoint and
# finish auditor-clean; a violation, a stall or a lost worker is a
# nonzero exit. The crafty runs are long enough for kills to land while
# peers wait on the TLS commit token.
echo "== par crash smoke ($BULK, tm mc + tls gzip at 2 seeds, tls crafty at 2 seeds)"
for seed in 1 2; do
  "$BULK" tm  --app mc   --scheme bulk --seed "$seed" --txs 8   --runtime par --chaos > /dev/null
  "$BULK" tls --app gzip --scheme lazy --seed "$seed" --tasks 24 --runtime par --chaos > /dev/null
done
for seed in 7 42; do
  "$BULK" tls --app crafty --scheme bulk --seed "$seed" --runtime par --chaos > /dev/null
done
echo "par crash smoke: OK"

# Trace determinism smoke: two same-seed runs per machine must export
# byte-identical Chrome trace-event JSON (cycle accounting runs inside
# each, so a conservation violation also fails here via the auditor).
echo "== trace determinism smoke"
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
for run in a b; do
  "$BULK" tm  --app mc   --scheme bulk --seed 7 --txs 10   --chaos \
    --trace-out "$TRACE_DIR/tm_$run.trace.json" > /dev/null
  "$BULK" tls --app gzip --scheme bulk --seed 7 --tasks 60 --chaos \
    --trace-out "$TRACE_DIR/tls_$run.trace.json" > /dev/null
done
cmp "$TRACE_DIR/tm_a.trace.json"  "$TRACE_DIR/tm_b.trace.json"
cmp "$TRACE_DIR/tls_a.trace.json" "$TRACE_DIR/tls_b.trace.json"
echo "trace determinism: OK"

# bulkd smoke: start the telemetry daemon on ephemeral ports, submit
# one sim TM job and one par TLS job over the ingest socket, scrape
# /metrics with exposition-format parse validation, then shut down
# cleanly and require the daemon process to exit zero.
echo "== bulkd smoke (daemon ingest + /metrics scrape)"
"$BULK" bulkd --listen 127.0.0.1:0 --http 127.0.0.1:0 \
  --addr-file "$TRACE_DIR/bulkd.addrs" > "$TRACE_DIR/bulkd.log" &
BULKD_PID=$!
trap 'kill "$BULKD_PID" 2>/dev/null || true; rm -rf "$TRACE_DIR"' EXIT
for _ in $(seq 1 100); do
  [ -s "$TRACE_DIR/bulkd.addrs" ] && break
  sleep 0.05
done
INGEST=$(sed -n 1p "$TRACE_DIR/bulkd.addrs")
HTTP=$(sed -n 2p "$TRACE_DIR/bulkd.addrs")
"$BULK" submit --connect "$INGEST" \
  --spec '{"machine": "tm", "app": "cb", "scheme": "bulk", "seed": 7}' > /dev/null
"$BULK" submit --connect "$INGEST" \
  --spec '{"machine": "tls", "app": "gzip", "scheme": "lazy", "seed": 9, "runtime": "par"}' > /dev/null
"$BULK" scrape --connect "$HTTP" --check > /dev/null
"$BULK" shutdown --connect "$INGEST" > /dev/null
wait "$BULKD_PID"
echo "bulkd smoke: OK"

# Protocol model-check smoke: bounded-depth BFS over the commit/
# failover model plus one seeded bug that must die with a
# counterexample. The exhaustive + full mutation suite runs in the CI
# model-check job; this keeps a protocol regression inside the
# hermetic gate at ~tens of milliseconds.
echo "== model-check smoke (bounded depth)"
cargo run --release -q --offline --locked -p bulk-mc --bin mc_explore -- --smoke
echo "model-check smoke: OK"

# Net source lines per crate (ROADMAP aim 2 tracks the total).
echo "== scripts/loc.sh"
scripts/loc.sh

echo "verify: OK (hermetic build, no registry dependencies)"
