#!/usr/bin/env bash
# CI entry point: sanitized build + full test suite, then an optimised
# Release leg (-O2 -DNDEBUG via -DGARNET_ASSERTS=OFF) that smoke-runs the
# benchmark suite and emits the machine-readable BENCH_*.json reports
# (notably BENCH_dispatch.json, the zero-copy payload-path pins).
#
# Usage: scripts/ci.sh [build-dir] [perf-build-dir] [tsan-build-dir]
#        (defaults: build-ci, build-ci-perf, build-ci-tsan)
set -euo pipefail

BUILD_DIR="${1:-build-ci}"
PERF_BUILD_DIR="${2:-build-ci-perf}"
TSAN_BUILD_DIR="${3:-build-ci-tsan}"
GENERATOR_ARGS=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR_ARGS=(-G Ninja)
fi

# Leg 1 — correctness: sanitizers on, asserts on, every test.
# First, every field of every *Config struct under src/ must be written
# somewhere in the tree: an option nothing sets is a constant in disguise.
scripts/check_config_knobs.py
cmake -B "$BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGARNET_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Leg 2 — performance: plain Release (-O2 -DNDEBUG, no sanitizers, no
# asserts) so the bench numbers reflect what a deployment would see.
# A short min_time keeps this a smoke run; the JSON pins (allocs/copies
# per message) are time-independent.
cmake -B "$PERF_BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DGARNET_ASSERTS=OFF
cmake --build "$PERF_BUILD_DIR" -j "$(nproc)"
scripts/run_experiments.sh "$PERF_BUILD_DIR" --benchmark_min_time=0.05

# Overload gate: the flood bench's telemetry snapshot must show the
# priority invariant held — data-plane traffic was shed under the 10x
# flood, control-plane traffic never was — and the adaptive-admission
# sweep converged: the throughput-probed pool reaches >= 0.9x the best
# static ticket setting at every payload size with zero control shed.
scripts/check_overload_report.py "$PERF_BUILD_DIR/bench-results/BENCH_overload.json"

# Dispatch gate: BENCH_dispatch.json must show the sharded plane
# scaling — the median of 9 interleaved 1-shard/4-shard pairs on worker
# threads reaches >= 2.5x critical-path throughput — with zero
# control-plane shed at any shard count, and the zero-copy fan-out pins
# (1 alloc, 0 copies per message) still holding.
scripts/check_dispatch_report.py "$PERF_BUILD_DIR/bench-results/BENCH_dispatch.json"

# Recovery gate: the crash-cycle bench's snapshot must show every
# crashed service recovered and zero duplicate deliveries after the
# promotion (checkpoint + op-log + dispatch's recovery door handing back
# its held frames closed the gap exactly), no input still held at any
# service's door at the end, no op-log record evicted before a
# checkpoint covered it, every offered message delivered with no
# quarantine shed evicted from a backlog, and ablation A3's
# filtering crash cell must leak
# no duplicate while its promoted filter recognises late copies of
# pre-crash frames.
scripts/check_recovery_report.py "$PERF_BUILD_DIR/bench-results/BENCH_recovery.json"

# Scale gate: the registration-scale bench must show the StreamTable
# footprint inside its bytes/stream budget at every tier (10^5 tier
# mandatory) and the incremental-capture stall inside budget — and
# genuinely cheaper than a full capture at the large tiers, in both
# milliseconds and bytes — and every service's mean lookup probe length
# at or under 2.0.
scripts/check_scale_report.py "$PERF_BUILD_DIR/bench-results/BENCH_scale.json"

# Tree gate: the depth-4 churn cell in BENCH_tree.json must show the
# routing plane holding its contract — delivery >= 95% under 1%/round
# relay churn, zero duplicate deliveries past filtering, zero TTL
# expiries (no routing loops) — and byte-identical fault/repair
# journals across advance() cadences.
scripts/check_tree_report.py "$PERF_BUILD_DIR/bench-results/BENCH_tree.json"

# Gateway gate: the fan-out bench's snapshot must show zero corrupt
# deliveries on the egress wire, zero control-frame shed while the
# frozen reader forced data sheds, and the last-value cache serving the
# newest sample (docs/GATEWAY.md contract).
scripts/check_gateway_report.py "$PERF_BUILD_DIR/bench-results/BENCH_gateway.json"

# Repository benchmark gate: the harness arithmetic tests, then a short
# untraced run of every perfbench workload. Each run exits non-zero when
# an output check fails (same delivery digest every repetition,
# conservation after drain, exactly-once per consumer/stream/seq,
# byte-exact gateway deliveries), so CI catches a change that breaks one.
# The timing figures of a 3 s run are not gated here.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-build-ci-bench}"
python3 perfbench/run.py --self-test
# The arithmetic of the alternating-pairs protocol (medians, quartiles,
# pairs won, the gain rule and the BENCHMARK.json bounds).
python3 scripts/perf_pairs.py --self-test
for workload in field fanout gw_socket; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 0
done

# Count gate: a traced seed-1 run of field and fanout must reproduce the
# pinned per-message counts exactly (scheduler events, bus posts,
# histogram observations, payload allocs/copies, radio copies per frame,
# op-log entries, delta bytes per capture). These carry no timing noise,
# so any change fails unless the pins in scripts/perf_counts_seed1.json
# move with it. gw_socket is left out: its counts follow socket timing.
for workload in field fanout; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 1 \
    > "$PERF_BUILD_DIR/perf_counts_$workload.txt"
  scripts/check_perf_counts.py "$workload" "$PERF_BUILD_DIR/perf_counts_$workload.txt"
done

# Leg 3 — data races: TSan over the two places real threads exist.
# The gateway suite crosses kernel sockets (PosixTransport) and the
# loopback seam in one process and must stay single-threaded around
# poll(2); the worker-pool and shard-plane suites run the sharded
# dispatch rounds on genuine pinned workers and must prove the
# partition shares nothing. The admission suites ride along: the plane's
# gate runs probe ticks at the merge barrier while worker threads exist,
# and must stay off their shards. The wireless tree suites ride along:
# the router is single-threaded by design, and running the formation,
# churn and fuzz suites under TSan proves nothing in the forwarding or
# repair path ever touches the worker threads' world. The telemetry
# suites ride along: histograms are single-writer (relaxed load/store,
# no locked RMW), and one test snapshots from a second thread while the
# writer observes.
cmake -B "$TSAN_BUILD_DIR" -S . "${GENERATOR_ARGS[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGARNET_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)" \
  --target garnet_gw_tests garnet_sim_tests garnet_runtime_tests garnet_net_tests \
           garnet_wireless_tests garnet_integration_tests garnet_fuzz_tests garnet_obs_tests
ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$(nproc)" \
  --tests-regex '(Gateway|GatewaySockets|LoopbackTransport|PosixTransport|WorkerPool|ShardPlane|Admission|Tree|RouterFixture|Histogram|Tracer|Registry|Snapshot)'

echo "CI OK: tests green, bench reports in $PERF_BUILD_DIR/bench-results"
