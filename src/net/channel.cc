#include "net/channel.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "net/net_fault.h"

namespace mjoin {

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(
        StrCat("fcntl(O_NONBLOCK) failed: ", std::strerror(errno)));
  }
  return Status::OK();
}

StatusOr<bool> WaitReadable(int fd, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  int rc;
  do {
    rc = poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return Status::Internal(StrCat("poll failed: ", std::strerror(errno)));
  }
  return rc > 0;
}

FrameChannel::FrameChannel(int fd, std::string peer, LinkRole role)
    : fd_(fd), peer_(std::move(peer)), conformance_(role, peer_) {}

FrameChannel::~FrameChannel() { Close(); }

void FrameChannel::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

void FrameChannel::set_fault_injector(NetFaultInjector* injector) {
  fault_ = injector;
  if (fault_ != nullptr) fault_->OnChannelRebind();
}

bool FrameChannel::has_pending_output() const {
  // A stalled link pretends to be drained: the bytes sit in the outbox but
  // asking poll() for POLLOUT would spin (the socket *is* writable — the
  // injector just refuses to write).
  if (fault_ != nullptr && fault_->send_stalled()) return false;
  return !outbox_.empty();
}

void FrameChannel::QueueFrame(FrameType type,
                              const std::vector<std::byte>& payload) {
  if (conformance_violation_.ok()) {
    conformance_violation_ = conformance_.Observe(type, /*outbound=*/true);
  }
  if (truncated_) return;  // the link already died mid-frame
  std::vector<std::byte> frame;
  frame.reserve(4 + 1 + payload.size() + 4);
  PutU32(&frame, static_cast<uint32_t>(1 + payload.size() + 4));
  PutU8(&frame, static_cast<uint8_t>(type));
  frame.insert(frame.end(), payload.begin(), payload.end());
  PutU32(&frame, Crc32(frame.data() + 4, frame.size() - 4));
  if (fault_ != nullptr) {
    bool shutdown_write = false;
    fault_->OnOutboundFrame(&frame, &shutdown_write);
    if (shutdown_write) truncated_ = true;
  }
  pending_output_bytes_ += frame.size();
  outbox_.push_back(std::move(frame));
}

Status FrameChannel::Flush() {
  if (!conformance_violation_.ok()) return conformance_violation_;
  if (fault_ != nullptr && fault_->ShouldDropConnection() &&
      !write_shutdown_done_) {
    // An abrupt link drop: both directions die at once. The send below
    // observes EPIPE and reports the peer as gone.
    shutdown(fd_, SHUT_RDWR);
    write_shutdown_done_ = true;
  }
  while (!outbox_.empty()) {
    const std::vector<std::byte>& front = outbox_.front();
    size_t want = front.size() - write_offset_;
    if (fault_ != nullptr) {
      if (fault_->send_stalled()) return Status::OK();  // swallowed traffic
      want = fault_->CapWrite(want);
    }
    ssize_t n = send(fd_, front.data() + write_offset_, want, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Unavailable(
            StrCat(peer_, " closed its socket while we were sending"));
      }
      return Status::Internal(
          StrCat("send to ", peer_, " failed: ", std::strerror(errno)));
    }
    stats_.bytes_sent += static_cast<uint64_t>(n);
    pending_output_bytes_ -= static_cast<size_t>(n);
    write_offset_ += static_cast<size_t>(n);
    if (write_offset_ == front.size()) {
      ++stats_.frames_sent;
      outbox_.pop_front();
      write_offset_ = 0;
    }
  }
  if (truncated_ && !write_shutdown_done_) {
    // The injected mid-frame cut has fully left the kernel: complete the
    // connection death the peer is about to observe.
    shutdown(fd_, SHUT_WR);
    write_shutdown_done_ = true;
  }
  return Status::OK();
}

Status FrameChannel::ReadAvailable(bool* peer_closed) {
  *peer_closed = false;
  if (!conformance_violation_.ok()) return conformance_violation_;
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        *peer_closed = true;
        break;
      }
      return Status::Internal(
          StrCat("recv from ", peer_, " failed: ", std::strerror(errno)));
    }
    if (n == 0) {
      *peer_closed = true;
      break;
    }
    stats_.bytes_received += static_cast<uint64_t>(n);
    std::byte* bytes = reinterpret_cast<std::byte*>(buf);
    if (fault_ != nullptr) {
      fault_->OnInboundBytes(bytes, static_cast<size_t>(n));
    }
    inbuf_.insert(inbuf_.end(), bytes, bytes + n);
    // A short read means the kernel buffer is drained; don't spin on recv.
    if (static_cast<size_t>(n) < sizeof(buf)) break;
  }

  // Parse every complete frame out of the unconsumed prefix. `len` counts
  // the type byte, the payload, and the 4-byte CRC trailer.
  while (inbuf_.size() - consumed_ >= 4) {
    const std::byte* p = inbuf_.data() + consumed_;
    uint32_t len = 0;
    for (int i = 3; i >= 0; --i) {
      len = (len << 8) | static_cast<uint8_t>(p[i]);
    }
    if (len < 5 || len > kMaxFrameBytes) {
      return Status::Unavailable(
          StrCat("corrupt frame from ", peer_, ": frame length ", len));
    }
    if (inbuf_.size() - consumed_ < 4 + static_cast<size_t>(len)) break;
    const size_t body_len = static_cast<size_t>(len) - 4;
    uint32_t wire_crc = 0;
    for (int i = 3; i >= 0; --i) {
      wire_crc =
          (wire_crc << 8) | static_cast<uint8_t>(p[4 + body_len + i]);
    }
    if (Crc32(p + 4, body_len) != wire_crc) {
      return Status::Unavailable(StrCat("corrupt ",
                                        FrameTypeName(static_cast<FrameType>(
                                            static_cast<uint8_t>(p[4]))),
                                        " frame from ", peer_,
                                        ": checksum mismatch"));
    }
    // The type byte must be a frame the table defines; handler switches
    // rely on never seeing an out-of-enum value.
    if (!ValidFrameType(static_cast<uint8_t>(p[4]))) {
      return Status::Unavailable(
          StrCat("corrupt frame from ", peer_, ": unknown frame type ",
                 static_cast<unsigned>(static_cast<uint8_t>(p[4]))));
    }
    Frame frame;
    frame.type = static_cast<FrameType>(static_cast<uint8_t>(p[4]));
    frame.payload.assign(p + 5, p + 4 + body_len);
    frames_.push_back(std::move(frame));
    ++stats_.frames_received;
    consumed_ += 4 + static_cast<size_t>(len);
  }
  if (consumed_ == inbuf_.size()) {
    inbuf_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10)) {
    inbuf_.erase(inbuf_.begin(), inbuf_.begin() + consumed_);
    consumed_ = 0;
  }
  return Status::OK();
}

bool FrameChannel::NextFrame(Frame* out) {
  if (frames_.empty() || !conformance_violation_.ok()) return false;
  conformance_violation_ =
      conformance_.Observe(frames_.front().type, /*outbound=*/false);
  if (!conformance_violation_.ok()) return false;
  *out = std::move(frames_.front());
  frames_.pop_front();
  return true;
}

}  // namespace mjoin
