// Control fixture: exercises every lint-adjacent pattern in its allowed
// form; mjoin_lint must report nothing here. Never compiled — lint
// fixture only.
#include "net/wire.h"

namespace mjoin {

// The frames this handler routes are listed explicitly; everything the
// frame table says never arrives here comes from MJOIN_FRAME_CASES, which
// the lint expands from the table. Together they are exhaustive.
const char* FixtureNameClean(FrameType type) {
  switch (type) {
    case FrameType::kPlan:
    case FrameType::kTrigger:
    case FrameType::kFinish:
    case FrameType::kShutdown:
    case FrameType::kPing:
    case FrameType::kSkewDirective:
      return "handled";
    MJOIN_FRAME_CASES(NOT_CW)
      break;
  }
  // A mention of steady_clock::now() in a comment, and of new/malloc,
  // must not fire: the lint scans code, not comments or strings.
  const char* s = "steady_clock::now() new malloc(";
  return s;
}

void FixtureAtomicsClean(std::atomic<int>* counter) {
  // Explicit orders pass, including one named on a continuation line.
  counter->load(std::memory_order_acquire);
  int seen = 0;
  counter->compare_exchange_weak(seen, 1,
                                 std::memory_order_acq_rel,
                                 std::memory_order_acquire);
  counter->store(0);  // lint:allow-atomic fixture exercises the annotation
}

}  // namespace mjoin
