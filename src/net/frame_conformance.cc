#include "net/frame_conformance.h"

#include <atomic>

#include "common/logging.h"
#include "common/string_util.h"

namespace mjoin {

namespace {

std::atomic<uint64_t> g_violations{0};

/// The direction a frame travels when `role` sends (outbound) or receives
/// it. Fixed by the role, so a frame observed moving the wrong way is a
/// protocol violation no matter what phase the link is in.
FrameDir TravelDirection(LinkRole role, bool outbound) {
  switch (role) {
    case LinkRole::kCoordinator:
      return outbound ? kDirToWorker : kDirToCoordinator;
    case LinkRole::kWorker:
      return outbound ? kDirToCoordinator : kDirToWorker;
    case LinkRole::kServer:
      return outbound ? kDirToClient : kDirToServer;
    case LinkRole::kClient:
      return outbound ? kDirToServer : kDirToClient;
  }
  return kDirToCoordinator;
}

const char* FrameDirName(FrameDir dir) {
  switch (dir) {
    case kDirToWorker:
      return "coordinator->worker";
    case kDirToCoordinator:
      return "worker->coordinator";
    case kDirToServer:
      return "client->server";
    case kDirToClient:
      return "server->client";
  }
  return "?";
}

bool IsServeRole(LinkRole role) {
  return role == LinkRole::kServer || role == LinkRole::kClient;
}

}  // namespace

const char* LinkRoleName(LinkRole role) {
  switch (role) {
    case LinkRole::kCoordinator:
      return "coordinator";
    case LinkRole::kWorker:
      return "worker";
    case LinkRole::kServer:
      return "server";
    case LinkRole::kClient:
      return "client";
  }
  return "?";
}

const char* FramePhaseName(uint32_t phase_bit) {
  switch (phase_bit) {
    case kPhAwaitPlan:
      return "await-plan";
    case kPhHandshake:
      return "handshake";
    case kPhExecute:
      return "execute";
    case kPhReport:
      return "report";
    case kPhDone:
      return "done";
    case kPhServe:
      return "serve";
  }
  return "?";
}

uint64_t FrameConformanceViolations() {
  return g_violations.load(std::memory_order_relaxed);
}

FrameConformance::FrameConformance(LinkRole role, std::string peer)
    : role_(role),
      peer_(std::move(peer)),
      phase_(IsServeRole(role) ? kPhServe : kPhAwaitPlan) {}

Status FrameConformance::Observe(FrameType type, bool outbound) {
  const FrameDir dir = TravelDirection(role_, outbound);
  if ((FrameDirs(type) & dir) == 0) {
    g_violations.fetch_add(1, std::memory_order_relaxed);
    Status violation = Status::Internal(StrCat(
        "frame-protocol violation at ", LinkRoleName(role_), " (peer ",
        peer_, "): ", FrameTypeName(type), " frame may never travel ",
        FrameDirName(dir)));
    // Loud on purpose: a worker that dies of a poisoned channel only
    // surfaces an exit status, so the message must reach stderr here.
    MJOIN_LOG(Error) << violation.message();
    return violation;
  }
  if ((FramePhases(type) & phase_) == 0) {
    g_violations.fetch_add(1, std::memory_order_relaxed);
    Status violation = Status::Internal(StrCat(
        "frame-protocol violation at ", LinkRoleName(role_), " (peer ",
        peer_, "): ", outbound ? "sent" : "received", " ",
        FrameTypeName(type), " frame in link phase ",
        FramePhaseName(phase_)));
    MJOIN_LOG(Error) << violation.message();
    return violation;
  }
  // Serve links have a single phase; only worker links transition.
  if (!IsServeRole(role_)) {
    const uint32_t next = FrameNextPhase(type);
    if (next != kPhKeep) phase_ = next;
  }
  return Status::OK();
}

}  // namespace mjoin
