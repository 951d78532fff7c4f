// Seeded violations: a payload encoded and decoded inline with wire
// primitives instead of EncodeMsg/DecodeMsg. The annotated site below
// must NOT be reported, nor may the message entry points. Never
// compiled — lint fixture only.
#include "net/wire.h"

namespace mjoin {

void FixtureEncode(std::vector<std::byte>* out) {
  PutI32(out, 7);  // the first violation
}

Status FixtureDecode(WireReader* reader, int32_t* group) {
  return reader->ReadU32(reinterpret_cast<uint32_t*>(group));  // the second
}

void FixtureAllowed(std::vector<std::byte>* out) {
  // lint:allow-wire fixture demonstrating an annotated site
  PutU32(out, 7);
}

void FixtureMessage(const TriggerMsg& msg, std::vector<std::byte>* out) {
  EncodeMsg(msg, out);
}

}  // namespace mjoin
