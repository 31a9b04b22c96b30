#!/usr/bin/env bash
# Tier-1 verification plus a Release bench smoke run.
#
#   scripts/check.sh            # full: configure, build, ctest, Release
#                               # validator pass-through, bench smoke
#   scripts/check.sh --no-bench # tier-1 only
#   scripts/check.sh --tsan     # rebuild with -DAPC_SANITIZE=thread and rerun
#                               # the concurrency tests under ThreadSanitizer,
#                               # then repeat the concurrent-producer tests
#                               # 20 times
#   scripts/check.sh --asan     # rebuild with -DAPC_SANITIZE=address and rerun
#                               # the subscribe + runtime suites under
#                               # AddressSanitizer
#   scripts/check.sh --ubsan    # rebuild with -DAPC_SANITIZE=undefined
#                               # (no-recover) and run the FULL suite under
#                               # UndefinedBehaviorSanitizer
#   scripts/check.sh --obs      # the observability gate in one Release
#                               # tree: run the causal suites (flight
#                               # recorder, chrome trace, attribution),
#                               # validate a real apcache-obs-v1 export
#                               # from live_dashboard, and run
#                               # bench_obs_overhead, whose exit code fails
#                               # if the armed flight recorder costs more
#                               # than 5% over the disarmed one on its
#                               # lockstep tiered_geo row; its JSON
#                               # becomes BENCH_obs.json
#   scripts/check.sh --alloc    # RelWithDebInfo build running
#                               # alloc_free_read_test: counting global
#                               # operator new proves PointRead /
#                               # ExecuteQuery / query generation allocate
#                               # nothing in steady state, with inlining on
#                               # so the claim is about the production code
#   scripts/check.sh --scenarios # scenario harness gate: run the trace
#                               # replay + scenario suites, a
#                               # bench_scenarios smoke (its exit gate is
#                               # zero mid-run precision violations on
#                               # every row, and its JSON must equal the
#                               # committed BENCH_scenarios.json byte for
#                               # byte), then rerun the concurrent
#                               # scenario stress variants (thundering
#                               # herd, hotspot migration) under
#                               # ThreadSanitizer
#   scripts/check.sh --analyze  # clang thread-safety analysis: build the
#                               # whole tree with clang and
#                               # -Werror=thread-safety(-beta) over the APC_*
#                               # annotations (requires clang installed)
#   scripts/check.sh --tidy     # clang-tidy over src/ with the repo
#                               # .clang-tidy (requires clang-tidy installed)
#
# Every mode ends with one `check.sh[<mode>]: PASS` line; any failure
# prints `check.sh[<mode>]: FAIL` and exits nonzero at that mode (set -e).
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"
MODE="${MODE#--}"
trap 'st=$?; if [[ $st -ne 0 ]]; then echo "check.sh[$MODE]: FAIL" >&2; fi' EXIT
pass() { echo "check.sh[$MODE]: PASS - $1"; trap - EXIT; exit 0; }

# A deadlocked notification test (a consumer waiting on a hub nobody closes)
# must fail fast instead of hanging the whole run.
CTEST_TIMEOUT=120

# The suites with real thread interleavings; everything else is
# single-threaded by construction. Shared by the tsan and asan modes.
# lock_order_test rides along: its death tests fork, which both sanitizers
# support, and the validator's thread_local stacks deserve instrumented
# coverage. mutex_test covers the shard locks' try/yield/block acquisition.
# The lockstep parity harnesses in runtime_test and tiered_engine_test run
# a loud pass with a background exporter against a live engine.
CONCURRENCY_SUITES='^(runtime_test|tiered_engine_test|update_bus_test|workload_driver_test|notification_hub_test|subscription_test|obs_test|lock_order_test|mutex_test|scenario_test)$'

# Locates a clang-family tool by its plain then versioned names (CI images
# often ship clang-NN only). Prints the tool or fails with guidance.
find_tool() {
  local base="$1" v
  if command -v "$base" >/dev/null 2>&1; then echo "$base"; return 0; fi
  for v in 21 20 19 18 17 16 15 14; do
    if command -v "$base-$v" >/dev/null 2>&1; then echo "$base-$v"; return 0; fi
  done
  echo "check.sh[$MODE]: $base not found - install clang (the gcc default" \
       "toolchain cannot run this mode; annotations are inert under gcc)" >&2
  return 1
}

if [[ "${1:-}" == "--tsan" ]]; then
  cmake -B build-tsan -S . -DAPC_SANITIZE=thread -DAPCACHE_BUILD_BENCHES=OFF \
        -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -R "$CONCURRENCY_SUITES"
  # Producers racing each other, a held shard lock or a Close interleave
  # differently on every run, so their tests run again, repeated until one
  # fails. GoogleTest runs zero tests for a filter that matches none and
  # still passes, so each suite's selection is counted first.
  PRODUCER_FILTER='*ConcurrentProducer*'
  for suite in update_bus_test runtime_test tiered_engine_test; do
    selected=$("build-tsan/$suite" --gtest_list_tests \
                 --gtest_filter="$PRODUCER_FILTER" | grep -c '^  ' || true)
    if [[ "$selected" -eq 0 ]]; then
      echo "check.sh[$MODE]: $suite: '$PRODUCER_FILTER' selects no test" >&2
      exit 1
    fi
    timeout "$CTEST_TIMEOUT" "build-tsan/$suite" --gtest_repeat=20 \
      --gtest_break_on_failure --gtest_brief=1 \
      --gtest_filter="$PRODUCER_FILTER"
  done
  pass "concurrency tests clean under ThreadSanitizer"
fi

if [[ "${1:-}" == "--asan" ]]; then
  # The same interleaving-heavy suites, instrumented for heap misuse: the
  # subscription layer hands raw pointers across threads (sink callbacks,
  # notifier, hub records), so lifetime bugs surface here first.
  cmake -B build-asan -S . -DAPC_SANITIZE=address -DAPCACHE_BUILD_BENCHES=OFF \
        -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j
  ctest --test-dir build-asan --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -R "$CONCURRENCY_SUITES"
  pass "subscribe + runtime suites clean under AddressSanitizer"
fi

if [[ "${1:-}" == "--ubsan" ]]; then
  # The FULL suite, not just the concurrency slice: UB (overflow, bad
  # shifts, misaligned access) hides in the single-threaded math paths too.
  # -fno-sanitize-recover (set by CMake for APC_SANITIZE=undefined) plus
  # halt_on_error turns any finding into a test failure.
  cmake -B build-ubsan -S . -DAPC_SANITIZE=undefined \
        -DAPCACHE_BUILD_BENCHES=OFF -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-ubsan -j
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir build-ubsan --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -j "$(nproc)"
  pass "full suite clean under UndefinedBehaviorSanitizer"
fi

if [[ "${1:-}" == "--alloc" ]]; then
  # The read-path allocation contract as its own CI gate. RelWithDebInfo:
  # optimized like production (so the zero-alloc claim covers the inlined
  # hot path), assertions retained. Deliberately NOT a sanitizer tree —
  # sanitizer runtimes replace the allocator and would shadow the test's
  # counting operator new.
  cmake -B build-alloc -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DAPCACHE_BUILD_BENCHES=OFF -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-alloc -j
  ctest --test-dir build-alloc --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -R '^alloc_free_read_test$'
  pass "read hot path allocation-free in steady state (optimized build)"
fi

if [[ "${1:-}" == "--scenarios" ]]; then
  # The scenario-harness gate in three stages: (1) the deterministic
  # suites — trace round-trip replay, generator/runner checks, lockstep
  # fuzz, determinism; (2) a bench_scenarios smoke whose own exit code
  # enforces zero mid-run precision violations with active checkers on
  # every scenario x policy row, and whose JSON must match the committed
  # BENCH_scenarios.json; (3) the two genuinely concurrent scenario
  # stress variants (subscriber thundering herd, hotspot migration with
  # racing edge readers) rebuilt and rerun under ThreadSanitizer.
  cmake -B build -S .
  cmake --build build -j
  ctest --test-dir build --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" \
        -R '^(trace_io_test|trace_replay_test|scenario_test|scenario_fuzz_test|scenario_determinism_test)$'
  ./build/bench_scenarios 240 1 build/BENCH_scenarios.json
  # The output is deterministic, so the committed file is a gate: a
  # behaviour change in either engine facade, the scenarios or the
  # subscription path shows up as a byte difference.
  if ! cmp build/BENCH_scenarios.json BENCH_scenarios.json; then
    echo "bench_scenarios 240 1 differs from BENCH_scenarios.json" >&2
    exit 1
  fi

  cmake -B build-tsan -S . -DAPC_SANITIZE=thread -DAPCACHE_BUILD_BENCHES=OFF \
        -DAPCACHE_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" -R '^scenario_test$'
  pass "scenario suites, bench gate (0 violations, committed JSON matches), and TSan stress clean"
fi

if [[ "${1:-}" == "--analyze" ]]; then
  # Clang's -Wthread-safety over the APC_* annotations, as errors, for the
  # whole tree (library + tests + benches + examples): every GUARDED_BY /
  # REQUIRES contract in src/ is checked at compile time. Build only — the
  # binaries are byte-for-byte gcc-independent checks, tier-1 already ran
  # them.
  CXX_TOOL=$(find_tool clang++)
  cmake -B build-analyze -S . -DCMAKE_CXX_COMPILER="$CXX_TOOL" \
        -DAPCACHE_THREAD_SAFETY=ON
  cmake --build build-analyze -j
  pass "clang thread-safety analysis clean (-Werror=thread-safety)"
fi

if [[ "${1:-}" == "--tidy" ]]; then
  # clang-tidy with the repo .clang-tidy (bugprone/concurrency/performance)
  # over every first-party translation unit, using the compile commands of
  # a clang-configured tree so the annotation attributes parse.
  TIDY_TOOL=$(find_tool clang-tidy)
  CXX_TOOL=$(find_tool clang++)
  cmake -B build-tidy -S . -DCMAKE_CXX_COMPILER="$CXX_TOOL"
  # Tidy exactly the library TUs the build compiles (from the compile
  # database, so flags and the APC_* attribute macros parse as clang sees
  # them); headers are pulled in via HeaderFilterRegex.
  mapfile -t tus < <(grep -o '"file": *"[^"]*"' build-tidy/compile_commands.json \
                     | sed 's/.*"file": *"//; s/"$//' | grep '/src/' | sort -u)
  "$TIDY_TOOL" -p build-tidy --warnings-as-errors='*' --quiet "${tus[@]}"
  pass "clang-tidy clean over src/"
fi

if [[ "${1:-}" == "--obs" ]]; then
  # Smoke-sized by default; override for a committed-quality measurement:
  #   OBS_QPT=20000 OBS_SOURCES=256 scripts/check.sh --obs
  OBS_QPT="${OBS_QPT:-2000}"
  OBS_SOURCES="${OBS_SOURCES:-128}"

  cmake -B build-obs -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-obs -j

  # The causal layer's own suites: forced checker failure -> ordered flight
  # dump with a complete span tree, chrome-trace golden documents,
  # attribution/CostTracker bit-for-bit reconciliation, and the
  # metric-registry contracts. (That every instrument live changes no
  # answer and no charge is the loud pass of the tier-1 lockstep parity
  # harnesses in runtime_test and tiered_engine_test.)
  ctest --test-dir build-obs --output-on-failure --no-tests=error \
        --timeout "$CTEST_TIMEOUT" \
        -R '^(obs_test|chrome_trace_test|flight_recorder_test|attribution_test|notification_hub_test)$'

  # Schema-check a REAL export: live_dashboard attaches an AttributionTable
  # and writes the apcache-obs-v1 document, attribution section included.
  ./build-obs/examples/live_dashboard build-obs/obs_export.json > /dev/null
  for key in '"schema": "apcache-obs-v1"' '"obs_enabled": 1' '"counters"' \
             '"gauges"' '"histograms"' '"attribution"' '"sources"' \
             '"totals"' '"query_reader_refreshes"' '"width_history"'; do
    grep -qF "$key" build-obs/obs_export.json || {
      echo "check.sh: FAIL - export missing $key" >&2; exit 1; }
  done
  if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
        build-obs/obs_export.json
  fi

  # The bench gates itself (exit code): the armed/unarmed median over
  # alternating lockstep pairs must stay <= 1.05, and every armed run must
  # record the kFlight sites its row drives. Its JSON is the committed
  # trajectory, as is.
  ./build-obs/bench_obs_overhead "$OBS_QPT" "$OBS_SOURCES" \
      build-obs/BENCH_obs.json
  cp build-obs/BENCH_obs.json BENCH_obs.json
  pass "causal suites, export schema, and armed-recorder overhead bound all clean"
fi

# --- tier-1 verify -------------------------------------------------------
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure --no-tests=error \
      --timeout "$CTEST_TIMEOUT" -j "$(nproc)"

if [[ "${1:-}" == "--no-bench" ]]; then
  pass "tier-1 OK (bench smoke skipped)"
fi

# --- Release: validator compiled out + bench smoke -----------------------
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j --target bench_runtime_throughput \
      --target bench_subscription_throughput --target lock_order_test
# APC_LOCK_ORDER=AUTO turns the validator OFF in Release; the test's
# release branch proves inverted acquisitions pass through untouched.
ctest --test-dir build-release --output-on-failure --no-tests=error \
      --timeout "$CTEST_TIMEOUT" -R '^lock_order_test$'
./build-release/bench_runtime_throughput 500 128 build-release/BENCH_runtime.json
./build-release/bench_subscription_throughput 300 64 build-release/BENCH_subscriptions.json

pass "tier-1, Release validator pass-through, and bench smoke OK"
