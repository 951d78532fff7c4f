// Seeded violation: a handler switch that leans on MJOIN_FRAME_CASES for
// its never-arrives arm but forgot to route kShutdown. The macro credits
// only the selector's classes, so the lint must still report the missing
// coordinator->worker member. Never compiled — lint fixture only.
#include "net/wire.h"

namespace mjoin {

const char* FixtureFrameCases(FrameType type) {
  switch (type) {
    case FrameType::kPlan:
    case FrameType::kTrigger:
    case FrameType::kFinish:
    case FrameType::kPing:
    case FrameType::kSkewDirective:
      return "handled";
    MJOIN_FRAME_CASES(NOT_CW)
      break;
  }
  return "bug: kShutdown unrouted";
}

}  // namespace mjoin
