// Seeded violation: a FrameType switch that is both non-exhaustive and
// hides the gap behind a default label. mjoin_lint must report the missing
// enumerators AND the default. Never compiled — lint fixture only.
#include "net/wire.h"

namespace mjoin {

const char* FixtureName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kPlan:
      return "plan";
    default:
      return "other";
  }
}

}  // namespace mjoin
