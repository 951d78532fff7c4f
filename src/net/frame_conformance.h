#ifndef MJOIN_NET_FRAME_CONFORMANCE_H_
#define MJOIN_NET_FRAME_CONFORMANCE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/wire.h"

namespace mjoin {

/// Which end of a connection a FrameChannel is, for frame-protocol
/// conformance: the role fixes the wire direction of every sent and
/// received frame.
enum class LinkRole : uint8_t {
  kCoordinator,  // process-backend coordinator end of a worker link
  kWorker,       // worker end of a worker link
  kServer,       // mjoin_serve server end of a client connection
  kClient,       // serve client end
};

const char* LinkRoleName(LinkRole role);

/// Name of a single FramePhase bit, for violation messages.
const char* FramePhaseName(uint32_t phase_bit);

/// Running count of conformance violations observed process-wide since
/// start; tests assert it stays zero across a suite.
uint64_t FrameConformanceViolations();

/// Validates one connection's observed frame sequence (both directions
/// interleaved in this endpoint's observation order) against the phase
/// machine declared in MJOIN_FRAME_TABLE. Every FrameChannel owns one and
/// checks every frame it sends or receives; not thread-safe, like the
/// channel. On a worker link the phase is also the coordinator's record
/// of how far each worker has got (FrameChannel::phase()).
///
/// The machine is deliberately one-sided-observer-safe: each endpoint sees
/// its own sends at queue time and its receives at pop time, so the two
/// ends of a link may disagree transiently about the current phase. Every
/// mask in the table therefore covers the union of both endpoints' legal
/// observation windows — what the checker rejects can never be a
/// legitimate ordering race, only a protocol violation.
class FrameConformance {
 public:
  FrameConformance(LinkRole role, std::string peer);

  /// Checks one frame this endpoint sent (`outbound`) or received, and
  /// advances the phase machine. kInternal names the frame, direction,
  /// phase, and peer on a violation; the caller poisons the channel with
  /// it, the same way corrupt wire poisons it.
  [[nodiscard]] Status Observe(FrameType type, bool outbound);

  uint32_t phase() const { return phase_; }

 private:
  LinkRole role_;
  std::string peer_;
  uint32_t phase_;
};

}  // namespace mjoin

#endif  // MJOIN_NET_FRAME_CONFORMANCE_H_
