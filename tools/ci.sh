#!/usr/bin/env bash
# The pre-merge gate: everything a change must pass before it lands.
#
#   tools/ci.sh [fast]
#
#   1. static analysis: tools/mjoin_lint.py over src/, its self-test,
#      and (when clang-tidy is installed) a full MJOIN_LINT=ON build
#      with --warnings-as-errors=* — any finding fails the gate
#   2. Release build with -Wall -Wextra -Werror (MJOIN_WERROR=ON)
#   3. the full ctest suite (every frame on every channel is validated
#      against the frame-table phase machine, in every run)
#   4. mjoin_check: the shm-ring interleaving model checker (baseline
#      scenarios clean + all nine seeded ring bugs caught), the smoke
#      benches, and the mjbench self-test (builds mjbench/ against the
#      engine and runs every workload at smoke size)
#   5. ThreadSanitizer and AddressSanitizer passes over the
#      concurrency-sensitive tests, and an UndefinedBehaviorSanitizer
#      pass over the full suite (tools/run_sanitized_tests.sh)
#
# 'fast' skips the sanitizer passes (step 4) for quick local iteration;
# a merge still requires the full run. Build trees are kept apart
# (build-ci, build-lint, build-threadsan, build-addresssan,
# build-undefinedsan) so the gate never disturbs an incremental
# developer build.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-full}"

echo "== ci: project lint =="
python3 tools/mjoin_lint.py
python3 tests/lint_selftest/lint_selftest.py

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== ci: clang-tidy (MJOIN_LINT=ON) =="
  cmake -B build-lint -S . -DMJOIN_LINT=ON >/dev/null
  cmake --build build-lint -j "$(nproc)"
else
  # The lint build needs the clang frontend; a GCC-only host still runs
  # the project lint above, and the clang-tidy pass runs wherever LLVM is
  # installed. MJOIN_LINT=ON itself hard-fails when clang-tidy is absent,
  # so the gate can never silently claim a pass it did not run.
  echo "== ci: clang-tidy not installed, skipping the MJOIN_LINT build =="
fi

echo "== ci: release build with -Werror =="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release -DMJOIN_WERROR=ON >/dev/null
cmake --build build-ci -j "$(nproc)"

echo "== ci: test suite =="
ctest --test-dir build-ci --output-on-failure -j "$(nproc)"

echo "== ci: shm-ring model check =="
# Interleaving exploration of the production ring code (recompiled over
# the model memory policy), then the mutation self-test: nine seeded ring
# bugs, each of which must be caught. Proves both that the ring's §14
# invariants hold across schedules/crashes and that the checker has teeth.
./build-ci/src/check/mjoin_check selftest

echo "== ci: hot-path smoke bench =="
cmake --build build-ci --target hotpath_suite -j "$(nproc)"
./build-ci/bench/hotpath_suite --smoke --out=build-ci/BENCH_hotpath_smoke.json
echo "archived build-ci/BENCH_hotpath_smoke.json"

echo "== ci: net smoke bench =="
cmake --build build-ci --target net_throughput -j "$(nproc)"
./build-ci/bench/net_throughput --smoke --out=build-ci/BENCH_net_smoke.json
echo "archived build-ci/BENCH_net_smoke.json"

echo "== ci: serve smoke bench =="
# Also the warm-fleet latency guard: --smoke fails if the warm process
# path stops beating fork-per-query at p50.
cmake --build build-ci --target serve_throughput -j "$(nproc)"
./build-ci/bench/serve_throughput --smoke --out=build-ci/BENCH_serve_smoke.json
echo "archived build-ci/BENCH_serve_smoke.json"

echo "== ci: skew smoke bench =="
# Offense + defense regression guard: the adversarial Zipf headline must
# stay verified against the reference, the Bloom transfer must keep
# cutting the shm wire volume, and repartitioning must keep the busy-time
# spread below the undefended run. The headline's wall-clock speedup is
# NOT gated: on an oversubscribed CI host the balance win does not
# translate into wall time (see EXPERIMENTS.md), so gating it would only
# gate the scheduler. The one wall effect that survives a single core —
# the queue-backpressure win on the selectivity-1.0 m:n cell — is gated
# below.
cmake --build build-ci --target ext_skew -j "$(nproc)"
./build-ci/bench/ext_skew --smoke --out=build-ci/BENCH_skew_smoke.json
echo "archived build-ci/BENCH_skew_smoke.json"
python3 - <<'EOF'
import json
with open("build-ci/BENCH_skew_smoke.json") as f:
    bench = json.load(f)
for row in bench["sweep"]:
    assert row["verified"], f"sweep cell diverged from reference: {row}"
head = bench["headline"]
off, on = head["defense_off"], head["defense_on"]
assert off["verified"] and on["verified"], "headline diverged from reference"
wire = on["shm_bytes_sent"] / max(off["shm_bytes_sent"], 1)
assert wire <= 0.8, f"Bloom transfer stopped paying: wire ratio {wire:.2f}"
assert on["bloom_filtered_rows"] > 0, "Bloom filter never fired"
assert on["hot_keys"] > 0, "hot-key detection never fired"
assert on["busy_imbalance"] < off["busy_imbalance"], (
    f"repartitioning stopped flattening the busy spread: "
    f"on {on['busy_imbalance']:.2f} vs off {off['busy_imbalance']:.2f}")
# The selectivity-1.0 m:n cell is where repartitioning pays in wall time
# even on one core (spraying the hot key removes the hot lane's queue
# backpressure): ~1.35x measured, gated at 1.05x for scheduler noise.
heavy = {r["defense"]: r for r in bench["sweep"]
         if r["theta"] == 1.0 and r["fanout"] == 4
         and r["selectivity"] == 1.0 and r["strategy"] == "SP"}
assert heavy["on"]["repartitioned_rows"] > 0, "hot keys were never sprayed"
ratio = heavy["on"]["wall_seconds"] / heavy["off"]["wall_seconds"]
assert ratio <= 0.95, f"repartitioning stopped paying: wall ratio {ratio:.2f}"
print(f"skew guard: wire ratio {wire:.2f}, imbalance "
      f"{off['busy_imbalance']:.2f} -> {on['busy_imbalance']:.2f}, "
      f"headline speedup {head['speedup']:.2f}x, "
      f"heavy-cell speedup {1 / ratio:.2f}x")
EOF

echo "== ci: mjbench self-test =="
# Nothing else builds mjbench/, so an engine API change could break the
# benchmark unnoticed; the self-test builds it in its own tree
# (.bench_build/) and runs every workload at smoke size.
python3 mjbench/run.py --selftest

echo "== ci: process-backend chaos sweep =="
# The full default sweep (MJOIN_CHAOS_ITERS=10, 200 seeded schedules)
# already ran inside the ctest stage above; this stage re-runs a bounded
# sweep with the watchdog-heavy schedules so a chaos regression names its
# seed in the CI log even when ctest output is folded away.
MJOIN_CHAOS_ITERS=2 ./build-ci/tests/process_chaos_test

if [ "$MODE" = fast ]; then
  echo "ci gate (fast) passed — run the full gate before merging"
  exit 0
fi

echo "== ci: thread sanitizer =="
# shm_ring_test's SPSC stress and shm_ring_tsan_test's dual-endpoint
# doorbell harness (in the default set) put the ring's release/acquire
# protocol itself under TSan; the chaos sweep covers the cross-process
# plane. thread_executor_test and thread_executor_fault_test (also in the
# default set, named here so the stage lists what it covers) drive the
# thread backend's deadline, cancellation, abort and backpressure paths,
# whose lock-free limits check runs beside the scheduler mutex.
MJOIN_CHAOS_ITERS=2 tools/run_sanitized_tests.sh thread \
  thread_executor_test thread_executor_fault_test \
  thread_metrics_test shm_ring_test process_backend_fault_test \
  process_chaos_test serve_test warm_fleet_test plan_cache_test \
  skew_test workload_test

echo "== ci: address sanitizer =="
# wire_codec_test is the control protocol's fuzz target (a seeded mutation
# loop over every message) and xra_text_test the plan parser's; the
# operator tests build every output row in place in batch memory through
# the EmitWriter; engine_test and golden_result_test run the result
# summary's four-row kernel, whose over-read would land in the leftover
# rows. The UBSan pass below runs them too.
MJOIN_CHAOS_ITERS=2 tools/run_sanitized_tests.sh address \
  thread_metrics_test net_wire_test wire_codec_test shm_ring_test \
  process_backend_fault_test process_chaos_test serve_test \
  warm_fleet_test plan_cache_test skew_test workload_test \
  operators_test filter_aggregate_test sort_merge_join_test hotpath_test \
  xra_text_test engine_test golden_result_test

echo "== ci: undefined-behavior sanitizer =="
# Full suite; the chaos sweep stays bounded so the UBSan pass does not
# spend its time re-proving recovery the dedicated stage already proved.
MJOIN_CHAOS_ITERS=2 tools/run_sanitized_tests.sh undefined

echo "ci gate passed"
