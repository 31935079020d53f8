#!/bin/sh
# Tier-1 gate: offline build, full test suite, formatting, and a guard
# that keeps the workspace dependency-free (the container has no route
# to crates.io, so any non-path dependency breaks the build for
# everyone — fail fast here instead).
set -eu
cd "$(dirname "$0")/.."

echo "== dependency guard =="
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  # Inside [dependencies]/[dev-dependencies]/[build-dependencies],
  # every entry must be a workspace/path reference, never a registry
  # version.
  if awk -v m="$manifest" '
    /^\[/ { dep = ($0 ~ /dependencies\]$/) }
    dep && /^[A-Za-z0-9_-]+[ \t]*=/ {
      if ($0 !~ /workspace[ \t]*=[ \t]*true/ && $0 !~ /path[ \t]*=/) {
        printf "%s: registry dependency: %s\n", m, $0
        found = 1
      }
    }
    END { exit found }
  ' "$manifest"; then :; else bad=1; fi
done
if [ "$bad" -ne 0 ]; then
  echo "FAIL: external (registry) dependencies are not allowed; use path deps" >&2
  exit 1
fi
echo "ok: all dependencies are path/workspace-local"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests (offline) =="
cargo test -q --offline --workspace

echo "== formatting =="
cargo fmt --check

echo "== goccd loopback smoke =="
# Boot the real daemon on an ephemeral port in each mode, hit it with a
# short loadgen burst over real sockets, and require a clean SHUTDOWN.
# loadgen itself asserts that the STATS response parses with the
# telemetry JSON parser and reports the expected mode.
for mode in lock gocc; do
  log=$(mktemp)
  ./target/release/goccd --mode "$mode" --port 0 --workers 2 > "$log" &
  goccd_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(awk '/^LISTENING /{print $2}' "$log")
    [ -n "$port" ] && break
    if ! kill -0 "$goccd_pid" 2>/dev/null; then
      echo "FAIL: goccd ($mode) died before listening" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "FAIL: goccd ($mode) never printed LISTENING" >&2
    kill "$goccd_pid" 2>/dev/null || true
    exit 1
  fi
  # Idle cost: with no client connected every goccd thread must be
  # blocked on readiness, not waking on a timer. Read the daemon's
  # user+system ticks (stat fields 14 and 15) across 1 s of silence;
  # fail above 0.02 cores.
  t0=$(awk '{ sub(/.*\) /, ""); print $12 + $13 }' "/proc/$goccd_pid/stat")
  sleep 1
  t1=$(awk '{ sub(/.*\) /, ""); print $12 + $13 }' "/proc/$goccd_pid/stat")
  idle=$(awk -v d="$((t1 - t0))" -v hz="$(getconf CLK_TCK)" 'BEGIN { printf "%.3f", d / hz }')
  if awk -v c="$idle" 'BEGIN { exit !(c > 0.02) }'; then
    echo "FAIL: idle goccd ($mode) used $idle cores (gate 0.02)" >&2
    kill "$goccd_pid" 2>/dev/null || true
    exit 1
  fi
  echo "ok: idle goccd $mode used $idle cores (gate 0.02)"
  ./target/release/loadgen --addr "127.0.0.1:$port" --mode "$mode" \
    --workers 2 --warmup-ms 50 --window-ms 200
  # Same daemon, pipelined: 32 frames outstanding per connection drives
  # the batch pump (one elided section per shard-group per pump pass);
  # loadgen still verifies STATS parses and the mode matches.
  ./target/release/loadgen --addr "127.0.0.1:$port" --mode "$mode" \
    --workers 2 --pipeline 32 --warmup-ms 50 --window-ms 200 --shutdown
  if ! wait "$goccd_pid"; then
    echo "FAIL: goccd ($mode) did not shut down cleanly" >&2
    cat "$log" >&2
    exit 1
  fi
  grep -q "goccd shut down:" "$log" || {
    echo "FAIL: goccd ($mode) printed no shutdown summary" >&2
    cat "$log" >&2
    exit 1
  }
  echo "ok: goccd $mode smoke (port $port)"
  rm -f "$log"
done

echo "== pipelining gate (batched section execution payoff) =="
# Client-side pipelining + server-side batching must actually amortize:
# at 1 worker, depth 32 has to deliver >= PIPELINE_GATE_X x the ops/sec
# of depth 1 in BOTH modes (the recorded artifact bar is 10x; CI uses a
# noise-tolerant 5x). This also produces BENCH_server.json with the
# full [1, 8, 32] depth axis for the schema pin below. Exit 4 means the
# amortization gate was violated (vs exit 1 for a broken harness).
pipeline_gate=${PIPELINE_GATE_X:-5}
if ./target/release/loadgen --mode both --workers 1 \
  --warmup-ms 100 --window-ms 400 --pipeline-gate "$pipeline_gate"; then
  echo "ok: pipeline gate (>= ${pipeline_gate}x at depth 32)"
else
  status=$?
  if [ "$status" -eq 4 ]; then
    echo "FAIL: pipelining amortization below ${pipeline_gate}x" >&2
  else
    echo "FAIL: pipeline gate harness error (status $status)" >&2
  fi
  exit "$status"
fi

echo "== hot-path perf smoke =="
# Loose order-of-magnitude gate on uncontended section cost: the
# speculating gocc fast path must stay within HOTPATH_GATE_RATIO x the
# plain-lock baseline. The bound is deliberately generous (CI boxes are
# noisy); it exists to catch "someone re-introduced a per-section heap
# allocation"-class regressions, not to benchmark. Override like
# BENCH_TIMEOUT: HOTPATH_GATE_RATIO=12 ./scripts/ci.sh
hotpath_gate=${HOTPATH_GATE_RATIO:-8}
./target/release/hotpath --window-ms 100 --gate "$hotpath_gate"
echo "ok: hot-path gate (<= ${hotpath_gate}x lock)"

echo "== flight-recorder overhead gate =="
# The tracing tax on the same speculating-section figure: disabled
# tracing must stay within 5% of the untraced baseline and 1-in-64
# sampling (goccd's default) within 10%, min-of-5 interleaved repeats.
# The margins sit well above the measured cost (per-process floors
# drift several percent on one core); a real regression reads +220%.
# Override on noisy boxes: TRACE_GATE_SAMPLED_PCT=15 ./scripts/ci.sh
./target/release/trace_overhead --window-ms 120
echo "ok: trace overhead gate"

echo "== chaos soak (fixed seed, both modes) =="
# Short combined-fault run at elevated rates: HTM abort injection,
# Lock/Unlock mis-pairing and transport faults, all from one seed.
# chaos_soak exits nonzero on any oracle divergence, undetected mispair
# or watchdog starvation, and exit 2 if its liveness monitor sees no
# progress (deadlock/livelock) — any of which fails CI here.
./target/release/chaos_soak --seed 2026 --mode both \
  --sections 200 --threads 4 \
  --abort-rate 0.25 --pairing-rate 0.25 --transport-rate 0.2 \
  --net-keys 32 --net-clients 3 --stall-secs 60
# The soak validates its flight-recorder dumps before writing them; here
# we only require that they actually landed.
for mode in lock gocc; do
  if [ ! -s "TRACE_chaos_$mode.json" ]; then
    echo "FAIL: chaos soak wrote no TRACE_chaos_$mode.json" >&2
    exit 1
  fi
done
rm -f TRACE_chaos_lock.json TRACE_chaos_gocc.json
echo "ok: chaos soak"

echo "== overload soak (open-loop saturation, both modes) =="
# Drives goccd 2x past its calibrated capacity with open-loop arrivals
# and deadline budgets, then checks the overload guarantees from the
# server's own counters: bounded admitted p99 (gate in ms, overridable
# via OVERLOAD_GATE_P99_MS=150 ./scripts/ci.sh), sub-10us shed cost,
# no expired request ever executed, brownout engage + recovery within
# 5s of load removal. Exit 4 means a guarantee was violated (vs exit 1
# for a broken harness) so the two fail differently here.
overload_gate=${OVERLOAD_GATE_P99_MS:-100}
if OVERLOAD_GATE_P99_MS="$overload_gate" \
  ./target/release/overload_soak --quick --seed 2026 --out none; then
  echo "ok: overload soak (p99 gate ${overload_gate}ms)"
else
  status=$?
  if [ "$status" -eq 4 ]; then
    echo "FAIL: overload guarantee violated (gate ${overload_gate}ms)" >&2
  else
    echo "FAIL: overload soak harness error (status $status)" >&2
  fi
  exit "$status"
fi

echo "== crash soak (seeded kill/recover, both modes) =="
# Durability oracle check end to end. Phase 1 replays seeded torn-write
# and short-fsync crashes through the WAL's simulated backend and
# recovers in-process; phase 2 boots the real goccd with WAL fault
# injection, drives writes until the seeded crash point aborts the
# process mid-load, restarts it on the same data dir, and checks every
# key against a per-key oracle: no acked write lost, no unacked write
# half-applied, in both execution modes. Exit 2 means the liveness
# watchdog saw no progress (hung recovery or stuck barrier).
./target/release/crash_soak --seed 2026 --mode both \
  --sim-runs 6 --sim-ops 400 --kill-cycles 2 --cycle-ops 3000 \
  --crash-rate 0.004 --stall-secs 60
echo "ok: crash soak"

echo "== failover soak (kill primary, promote replica, both modes) =="
# Replication guarantees end to end under seeded transport faults on the
# replication streams: boots a goccd primary with two in-process
# replicas, SIGKILLs the primary mid-load, holds a deliberate
# primary-less window (replicas alone must carry reads), promotes the
# replica with the highest replicated version and repoints the other.
# Checks: no acked write lost (per-key oracle against the new primary),
# reads stay available during the outage, bounded staleness on the
# repointed replica, recovery within deadline, and lease-based fencing
# (a primary below min-acks rejects writes). Exit 4 = guarantee
# violated, exit 2 = liveness watchdog, exit 1 = harness error.
if ./target/release/failover_soak --seed 2026 --mode both --load-ops 1200 --manual; then
  echo "ok: failover soak (manual promotion)"
else
  status=$?
  if [ "$status" -eq 4 ]; then
    echo "FAIL: replication guarantee violated" >&2
  else
    echo "FAIL: failover soak harness error (status $status)" >&2
  fi
  exit "$status"
fi

echo "== auto failover soak (self-healing: no operator promote) =="
# Same kill, zero operator involvement: the replicas' failure detectors
# must notice the silence, hold a quorum election (highest replicated
# version wins, one vote per epoch), and the winner must promote itself
# within the detection deadline. Checks everything the manual soak does
# plus: exactly one primary per epoch (continuous split-brain poll),
# read-your-writes sessions never violated across the failover, and a
# deposed-primary rejoin phase proving its stale epoch is fenced (the
# repointed replica rejects the old stream without applying a batch).
# Produces BENCH_failover.json with detection/promotion/unavailability
# times. Exit codes as above.
if ./target/release/auto_failover_soak --seed 2026 --mode both --load-ops 1200; then
  echo "ok: auto failover soak (automatic promotion)"
else
  status=$?
  if [ "$status" -eq 4 ]; then
    echo "FAIL: self-healing replication guarantee violated" >&2
  else
    echo "FAIL: auto failover soak harness error (status $status)" >&2
  fi
  exit "$status"
fi

echo "== WAL throughput gates (group commit amortization) =="
# Two bounds from BENCH_wal.json, on the gocc numbers: engine-level
# group commit must amortize to >= 5x the one-fsync-per-record floor
# (WAL_GATE_GROUP_X), and service-level sync=off must stay within 10%
# of the in-memory daemon (WAL_GATE_OFF_PCT). Overridable like the
# other perf gates on noisy boxes.
./target/release/wal_bench --window-ms 300 --gate
echo "ok: WAL gates (group amortization, off tax)"

echo "== replication read gates (replica fan-out) =="
# Read throughput vs replica count from BENCH_replication.json, on the
# gocc numbers: with both endpoints on one core the gate is a bounded
# replication tax (2-replica aggregate >= REPL_GATE_SCALE_X of the
# primary-only figure) plus proof that replicas actually serve
# (replica read share >= REPL_GATE_SHARE_PCT). On multi-core boxes the
# recorded scale ratio shows real fan-out. Overridable like the other
# perf gates on noisy boxes.
./target/release/repl_bench --window-ms 300 --gate
echo "ok: replication gates (tax bound, replica share)"

echo "== bench artifact schema =="
# Every BENCH_*.json emitted above must parse and carry the common
# header object (machine-diffable perf trajectory across PRs). The
# --expect list pins the artifacts the stages above are supposed to
# produce: a bench that silently stops emitting its file fails here.
./scripts/check_bench_schema.sh \
  --expect BENCH_hotpath.json --expect BENCH_trace.json --expect BENCH_wal.json \
  --expect BENCH_replication.json --expect BENCH_failover.json \
  --expect BENCH_server.json
rm -f BENCH_hotpath.json BENCH_trace.json BENCH_wal.json BENCH_replication.json \
  BENCH_failover.json BENCH_server.json
echo "ok: bench artifacts conform to the common schema"

echo "CI_OK"
