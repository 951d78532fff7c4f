#include "serve/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "net/channel.h"

namespace mjoin {

namespace {

/// Counterpart of WaitReadable for a stalled write: blocks until `fd`
/// accepts bytes or `timeout_ms` elapses (false on timeout).
StatusOr<bool> WaitWritable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLOUT, 0};
  for (;;) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("poll(): ") + std::strerror(errno));
    }
    return n > 0;
  }
}

}  // namespace

StatusOr<std::unique_ptr<ServeClient>> ServeClient::Connect(
    const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path empty or too long: " +
                                   socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Status::Unavailable("connect(" + socket_path +
                               "): " + std::strerror(err));
  }
  if (Status s = SetNonBlocking(fd); !s.ok()) {
    ::close(fd);
    return s;
  }
  auto chan = std::make_unique<FrameChannel>(fd, "server", LinkRole::kClient);
  return std::unique_ptr<ServeClient>(new ServeClient(  // lint:allow-new private ctor
      std::move(chan)));
}

ServeClient::ServeClient(std::unique_ptr<FrameChannel> chan)
    : chan_(std::move(chan)) {}

ServeClient::~ServeClient() = default;

Status ServeClient::Submit(const SubmitMsg& msg) {
  chan_->QueueMsg(FrameType::kSubmit, msg);
  while (chan_->has_pending_output()) {
    MJOIN_RETURN_IF_ERROR(chan_->Flush());
    if (!chan_->has_pending_output()) break;
    MJOIN_ASSIGN_OR_RETURN(const bool writable_ready,
                           WaitWritable(chan_->fd(), 5000));
    if (!writable_ready) {
      return Status::DeadlineExceeded("submit write stalled for 5s");
    }
  }
  return Status::OK();
}

StatusOr<QueryResultMsg> ServeClient::Await(int timeout_ms) {
  const auto start = std::chrono::steady_clock::now();  // lint:allow-clock client-side await timeout
  for (;;) {
    Frame frame;
    while (chan_->NextFrame(&frame)) {
      if (frame.type != FrameType::kQueryResult) {
        return Status::InvalidArgument("unexpected frame from server: type " +
                                       std::to_string(int(frame.type)));
      }
      QueryResultMsg msg;
      WireReader reader(frame.payload);
      MJOIN_RETURN_IF_ERROR(DecodeMsg(&reader, &msg));
      return msg;
    }
    int remaining_ms = -1;
    if (timeout_ms >= 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start);  // lint:allow-clock client-side await timeout
      remaining_ms = timeout_ms - static_cast<int>(elapsed.count());
      if (remaining_ms <= 0) {
        return Status::DeadlineExceeded("no result within timeout");
      }
    }
    MJOIN_ASSIGN_OR_RETURN(const bool readable,
                           WaitReadable(chan_->fd(), remaining_ms));
    if (!readable) return Status::DeadlineExceeded("no result within timeout");
    bool peer_closed = false;
    MJOIN_RETURN_IF_ERROR(chan_->ReadAvailable(&peer_closed));
    if (peer_closed && !chan_->has_frames()) {
      return Status::Unavailable("server closed the connection");
    }
  }
}

}  // namespace mjoin
