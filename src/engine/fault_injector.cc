#include "engine/fault_injector.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/string_util.h"

namespace mjoin {

std::string FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kSlowWorker:
      return "slow-worker";
    case FaultKind::kFailOperator:
      return "fail-op";
    case FaultKind::kDropBatch:
      return "drop-batch";
    case FaultKind::kDuplicateBatch:
      return "dup-batch";
    case FaultKind::kHangWorker:
      return "hang-worker";
  }
  return "unknown";
}

bool ParseFaultKind(const std::string& text, FaultKind* kind) {
  for (FaultKind candidate :
       {FaultKind::kNone, FaultKind::kSlowWorker, FaultKind::kFailOperator,
        FaultKind::kDropBatch, FaultKind::kDuplicateBatch,
        FaultKind::kHangWorker}) {
    if (FaultKindName(candidate) == text) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

std::string SerializeFaultScenario(const FaultScenario& scenario) {
  char prob[64];
  std::snprintf(prob, sizeof(prob), "%.17g", scenario.probability);
  return StrCat("kind=", FaultKindName(scenario.kind), " node=", scenario.node,
                " delay-us=", scenario.delay.count(), " op=", scenario.op,
                " after=", scenario.after_batches, " prob=", prob,
                " seed=", scenario.seed, " on-attempt=", scenario.on_attempt);
}

StatusOr<FaultScenario> ParseFaultScenario(const std::string& text) {
  FaultScenario scenario;
  for (const std::string& field : StrSplit(text, ' ')) {
    if (field.empty()) continue;
    size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrCat("fault scenario field without '=': ", field));
    }
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    const char* digits = value.c_str();
    if (key == "kind") {
      if (!ParseFaultKind(value, &scenario.kind)) {
        return Status::InvalidArgument(StrCat("unknown fault kind ", value));
      }
    } else if (key == "node") {
      scenario.node = static_cast<uint32_t>(std::strtoul(digits, nullptr, 10));
    } else if (key == "delay-us") {
      scenario.delay =
          std::chrono::microseconds(std::strtoll(digits, nullptr, 10));
    } else if (key == "op") {
      scenario.op = static_cast<int>(std::strtol(digits, nullptr, 10));
    } else if (key == "after") {
      scenario.after_batches = std::strtoull(digits, nullptr, 10);
    } else if (key == "prob") {
      scenario.probability = std::strtod(digits, nullptr);
    } else if (key == "seed") {
      scenario.seed = std::strtoull(digits, nullptr, 10);
    } else if (key == "on-attempt") {
      scenario.on_attempt = static_cast<int>(std::strtol(digits, nullptr, 10));
    } else {
      return Status::InvalidArgument(
          StrCat("unknown fault scenario field ", key));
    }
  }
  return scenario;
}

FaultInjector::FaultInjector(const FaultScenario& scenario)
    : scenario_(scenario), rng_(scenario.seed) {}

void FaultInjector::OnDequeue(uint32_t node) {
  if (scenario_.kind == FaultKind::kHangWorker && node == scenario_.node) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    // Wedge, don't exit: a hung node is alive but silent, which is exactly
    // what distinguishes it from a crash. Only an external supervisor
    // (SIGKILL from the coordinator's watchdog) ends this sleep.
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
  }
  if (scenario_.kind != FaultKind::kSlowWorker || node != scenario_.node) {
    return;
  }
  injected_.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::sleep_for(scenario_.delay);
}

bool FaultInjector::ShouldDropBatch(int op) {
  if (scenario_.kind != FaultKind::kDropBatch || !TargetsOp(op)) return false;
  if (!Roll()) return false;
  injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::ShouldDuplicateBatch(int op) {
  if (scenario_.kind != FaultKind::kDuplicateBatch || !TargetsOp(op)) {
    return false;
  }
  if (!Roll()) return false;
  injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status FaultInjector::BeforeConsume(int op) {
  if (scenario_.kind != FaultKind::kFailOperator || !TargetsOp(op)) {
    return Status::OK();
  }
  uint64_t seen = batches_seen_.fetch_add(1, std::memory_order_relaxed);
  if (seen < scenario_.after_batches) return Status::OK();
  injected_.fetch_add(1, std::memory_order_relaxed);
  return Status::Internal(StrCat("injected fault: operator ", op,
                                 " failed after ", seen, " batches"));
}

bool FaultInjector::Roll() {
  if (scenario_.probability >= 1.0) return true;
  MutexLock lock(&mutex_);
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) <
         scenario_.probability;
}

}  // namespace mjoin
