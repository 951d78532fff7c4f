#!/usr/bin/env bash
# Builds a sanitized tree and runs the concurrency-sensitive tests under it.
#
#   tools/run_sanitized_tests.sh [thread|address|undefined] [extra test names...]
#
# Defaults to ThreadSanitizer and the threaded-executor tests (the ones
# with real cross-thread traffic). Pass additional ctest test names to
# widen the run, or 'address' for an ASan pass over the same set.
# 'undefined' builds with UBSan (recovery off: the first report aborts the
# offending test) and, with no extra test names, runs the FULL suite —
# undefined behaviour hides in single-threaded code paths too, and UBSan
# is cheap enough to afford the whole tree.
#
# The process-backend tests run under both sanitizers too (see ci.sh):
# workers _exit() after their fork, so ASan's leak check covers the
# coordinator — a leaked socket or un-reaped child shows up there.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER="${1:-thread}"
shift || true
case "$SANITIZER" in
  thread|address|undefined) ;;
  *)
    echo "usage: $0 [thread|address|undefined] [extra ctest test names...]" >&2
    exit 2 ;;
esac

BUILD_DIR="build-${SANITIZER}san"

cmake -B "$BUILD_DIR" -S . -DMJOIN_SANITIZE="$SANITIZER" >/dev/null

# halt_on_error makes a single report fail the run instead of scrolling by.
case "$SANITIZER" in
  thread)
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" ;;
  address)
    # detect_leaks explicitly on: the process-backend coordinator must not
    # leak channels or batch buffers even when a run aborts mid-query.
    export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}" ;;
  undefined)
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" ;;
esac

if [ "$SANITIZER" = undefined ] && [ "$#" -eq 0 ]; then
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  ctest --test-dir "$BUILD_DIR" --output-on-failure
  echo "undefined sanitizer pass clean: full suite"
  exit 0
fi

# shm_ring_tsan_test puts the shm ring's release/acquire publish protocol
# and eventfd doorbell discipline on real threads in one address space —
# the only harness TSan can see into (the fork-based backends are opaque
# to it).
TESTS=()
for t in thread_executor_test thread_executor_fault_test shm_ring_tsan_test "$@"; do
  # A default named again on the command line runs once.
  [[ " ${TESTS[*]} " == *" $t "* ]] || TESTS+=("$t")
done

TARGETS=()
for t in "${TESTS[@]}"; do TARGETS+=(--target "$t"); done
cmake --build "$BUILD_DIR" -j "$(nproc)" "${TARGETS[@]}"

# A name also selects its NAME/<part> entries (the chaos sweep is split
# per strategy; see tests/CMakeLists.txt).
REGEX="$(IFS='|'; echo "${TESTS[*]}")"
ctest --test-dir "$BUILD_DIR" --output-on-failure -R "^(${REGEX})(/.*)?$"
echo "${SANITIZER} sanitizer pass clean: ${TESTS[*]}"
