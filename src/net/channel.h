#ifndef MJOIN_NET_CHANNEL_H_
#define MJOIN_NET_CHANNEL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "net/frame_conformance.h"
#include "net/wire.h"

namespace mjoin {

class NetFaultInjector;

/// One decoded frame off a FrameChannel.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::byte> payload;
};

/// Counters a FrameChannel keeps about its life so far. Sent counters are
/// bumped when bytes actually leave via write(), not when queued.
struct ChannelStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
};

/// Sets O_NONBLOCK on a descriptor.
[[nodiscard]] Status SetNonBlocking(int fd);

/// Blocks until `fd` is readable or `timeout_ms` elapses (negative waits
/// forever). Returns true when readable; false on timeout.
[[nodiscard]] StatusOr<bool> WaitReadable(int fd, int timeout_ms);

/// Frame transport over one nonblocking stream socket (the process
/// backend's coordinator<->worker socketpair). Writes are queued and
/// drained by Flush() as the socket accepts them; reads are reassembled
/// from arbitrary read() boundaries into whole frames.
///
/// Not thread-safe: each channel belongs to exactly one event loop (the
/// coordinator's poll loop or a worker's single thread).
///
/// Peer death (EPIPE / ECONNRESET / read()==0) and wire damage (frame
/// length out of bounds, frame checksum mismatch) are both reported as
/// StatusCode::kUnavailable: either way the link is lost for environmental
/// reasons and a retry on a fresh fleet may succeed. Deterministic protocol
/// errors keep their own codes (kInvalidArgument / kOutOfRange).
class FrameChannel {
 public:
  /// Takes ownership of `fd` (closed by the destructor). `peer` names the
  /// other end in error messages, e.g. "worker 3".
  FrameChannel(int fd, std::string peer);
  ~FrameChannel();

  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  int fd() const { return fd_; }
  const std::string& peer() const { return peer_; }

  /// Installs a caller-owned link-fault injector (tests and chaos runs
  /// only; nullptr uninstalls). Resets the injector's per-link latches —
  /// installing on a fresh channel models a fresh link.
  void set_fault_injector(NetFaultInjector* injector);

  /// Arms the runtime frame-protocol conformance checker for this channel
  /// when MJOIN_CONFORMANCE is set (no-op otherwise). Every endpoint calls
  /// this right after constructing its channel, naming its own role; a
  /// frame that then violates the frame table's direction or phase rules
  /// poisons the channel with kInternal, surfaced by the next Flush() or
  /// ReadAvailable() like corrupt wire.
  void EnableConformance(LinkRole role);

  /// Encodes `[len][type][payload][crc]` into the outbox. Cheap; no
  /// syscall.
  void QueueFrame(FrameType type, const std::vector<std::byte>& payload);
  /// QueueFrame with EncodeMsg(msg) (net/wire.h) as the payload.
  template <class M>
  void QueueMsg(FrameType type, const M& msg) {
    std::vector<std::byte> payload;
    EncodeMsg(msg, &payload);
    QueueFrame(type, payload);
  }

  /// Writes queued bytes until the socket would block or the outbox is
  /// empty. kUnavailable when the peer is gone.
  [[nodiscard]] Status Flush();

  bool has_pending_output() const;
  /// Bytes queued but not yet accepted by the kernel.
  size_t pending_output_bytes() const { return pending_output_bytes_; }

  /// Reads whatever the socket has, reassembling complete frames for
  /// NextFrame(). Sets `*peer_closed` when the peer shut down (after any
  /// final complete frames were recovered); oversized or malformed frame
  /// lengths poison the channel with a non-OK status.
  [[nodiscard]] Status ReadAvailable(bool* peer_closed);

  /// Pops the next complete frame; false when none is buffered.
  bool NextFrame(Frame* out);
  bool has_frames() const { return !frames_.empty(); }

  const ChannelStats& stats() const { return stats_; }

  /// Closes the descriptor early (destructor is a no-op afterwards).
  void Close();

 private:
  int fd_;
  std::string peer_;
  NetFaultInjector* fault_ = nullptr;
  /// Armed by EnableConformance; null (and cost-free) in production runs.
  std::unique_ptr<FrameConformance> conformance_;
  /// First conformance violation observed; poisons Flush/ReadAvailable.
  Status conformance_violation_ = Status::OK();
  /// A truncating fault fired: discard further outbound frames and shut
  /// down the write side once the (shortened) outbox drains.
  bool truncated_ = false;
  bool write_shutdown_done_ = false;
  /// Encoded-but-unsent frames; front() is partially written up to
  /// write_offset_.
  std::deque<std::vector<std::byte>> outbox_;
  size_t write_offset_ = 0;
  size_t pending_output_bytes_ = 0;
  /// Raw inbound bytes not yet parsed into a frame; consumed_ marks the
  /// parsed prefix, compacted once it grows.
  std::vector<std::byte> inbuf_;
  size_t consumed_ = 0;
  std::deque<Frame> frames_;
  ChannelStats stats_;
};

}  // namespace mjoin

#endif  // MJOIN_NET_CHANNEL_H_
