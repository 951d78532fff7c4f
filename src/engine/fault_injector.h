#ifndef MJOIN_ENGINE_FAULT_INJECTOR_H_
#define MJOIN_ENGINE_FAULT_INJECTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>

#include "common/statusor.h"
#include "common/sync.h"

namespace mjoin {

/// What a FaultInjector does to an execution (any backend).
enum class FaultKind {
  kNone = 0,
  /// One worker node sleeps `delay` before every message it processes —
  /// the "slow machine" of a shared-nothing cluster. Results must still be
  /// correct; backpressure keeps the node's queue bounded.
  kSlowWorker,
  /// Consume() on the target op fails after `after_batches` batches, as a
  /// crashed operation process would. The query must abort cleanly.
  kFailOperator,
  /// Data batches toward the target op are dropped with `probability` —
  /// a lossy interconnect. Execution must still terminate (EOS bookkeeping
  /// is per-producer, not per-batch); results are knowingly wrong.
  kDropBatch,
  /// Data batches toward the target op are delivered twice.
  kDuplicateBatch,
  /// One worker node wedges forever before its next message — the silent
  /// hang of a deadlocked or swapped-to-death machine. Only an external
  /// liveness watchdog (the process backend's heartbeat supervision) can
  /// end the query; the thread backend must not use this kind.
  kHangWorker,
};

std::string FaultKindName(FaultKind kind);
bool ParseFaultKind(const std::string& text, FaultKind* kind);

/// Where in an executor's message path a fault fires. The points are
/// backend-agnostic: the thread backend hits them on its in-memory queues,
/// the process backend on its ring path — so one FaultScenario means the
/// same thing under `--backend thread` and `--backend process`.
enum class FaultPoint {
  /// A worker dequeues the next message (thread: WorkerNode::Loop; process:
  /// the worker event loop picking the next task). kSlowWorker fires here.
  kDequeue = 0,
  /// A producer is about to post/send a data batch toward a consumer
  /// (thread: FlushDest; process: local delivery or the ring write).
  /// kDropBatch / kDuplicateBatch fire here.
  kSend = 1,
  /// A consumer is about to run Consume() on a delivered batch.
  /// kFailOperator fires here.
  kConsume = 2,
};

std::string FaultPointName(FaultPoint point);

/// The injection point at which `kind` fires (kNone maps to kDequeue; it
/// never fires anywhere).
FaultPoint FaultPointOf(FaultKind kind);

/// Stable single-line text form of a scenario ("kind=slow-worker node=0
/// delay-us=1000 ..."), used to ship scenarios across the coordinator ->
/// worker handshake of the process backend. Parse accepts exactly what
/// Serialize produces, plus any subset of the key=value fields.
std::string SerializeFaultScenario(const struct FaultScenario& scenario);
[[nodiscard]] StatusOr<struct FaultScenario> ParseFaultScenario(
    const std::string& text);

/// Parameters of one injected fault.
struct FaultScenario {
  FaultKind kind = FaultKind::kNone;
  /// kSlowWorker: which node sleeps, and for how long per message.
  uint32_t node = 0;
  std::chrono::microseconds delay{1000};
  /// Target op id for kFailOperator/kDropBatch/kDuplicateBatch; -1 = any.
  int op = -1;
  /// kFailOperator: let this many batches through first.
  uint64_t after_batches = 0;
  /// kDropBatch/kDuplicateBatch: per-batch chance in [0,1].
  double probability = 1.0;
  /// Seed for the probabilistic faults (deterministic per seed).
  uint64_t seed = 0;
  /// Restricts the fault to one execution attempt (0-based); -1 fires on
  /// every attempt. A retrying executor ships the attempt number in the
  /// plan envelope, so `on_attempt = 0` means "break the first try, let
  /// the retry run clean" — the canonical recovery scenario.
  int on_attempt = -1;
};

/// Test-controlled chaos, shared by the thread and process backends. Each
/// backend consults the injector at the three FaultPoint hook points
/// (kDequeue, kSend, kConsume); production runs pass no injector and pay
/// nothing.
///
/// Ownership / thread-safety contract: the injector is owned by the caller
/// (never by an executor) and must outlive every execution it is handed
/// to. All hooks are thread-safe — the thread backend calls them
/// concurrently from every worker thread. In the process backend each
/// worker process builds its own injector from the scenario text shipped
/// in the handshake (hooks fire worker-side, exactly where the thread
/// backend fires them), so `faults_injected()` counts are per-process and
/// are aggregated by the coordinator into the run's stats.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultScenario& scenario);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// FaultPoint::kDequeue — called by a worker before processing each
  /// message; sleeps when this node is the scenario's slow worker.
  void OnDequeue(uint32_t node);

  /// FaultPoint::kSend — called before a data batch is posted toward `op`.
  bool ShouldDropBatch(int op);
  bool ShouldDuplicateBatch(int op);

  /// FaultPoint::kConsume — called before Consume() on `op`; a non-OK
  /// status is the injected mid-stream operator failure and aborts the
  /// query.
  [[nodiscard]] Status BeforeConsume(int op);

  /// Number of faults actually fired (for test assertions).
  uint64_t faults_injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  const FaultScenario& scenario() const { return scenario_; }

 private:
  bool TargetsOp(int op) const {
    return scenario_.op < 0 || scenario_.op == op;
  }
  bool Roll();

  const FaultScenario scenario_;
  Mutex mutex_;
  std::mt19937_64 rng_ MJOIN_GUARDED_BY(mutex_);
  std::atomic<uint64_t> batches_seen_{0};
  std::atomic<uint64_t> injected_{0};
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_FAULT_INJECTOR_H_
