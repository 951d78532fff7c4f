#ifndef MJOIN_ENGINE_THREAD_EXECUTOR_H_
#define MJOIN_ENGINE_THREAD_EXECUTOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/statusor.h"
#include "common/sync.h"
#include "engine/database.h"
#include "engine/query_result.h"
#include "exec/operator.h"
#include "skew/defense.h"
#include "xra/plan.h"

namespace mjoin {

class BatchPool;
class FaultInjector;

/// Knobs for one threaded execution.
struct ThreadExecOptions {
  /// Tuples per batch posted between operation processes. Must be
  /// positive; Execute() rejects 0 with InvalidArgument.
  uint32_t batch_size = 256;
  /// Keep the materialized final result.
  bool materialize_result = false;

  /// Backpressure: maximum data batches queued at one worker node before
  /// producers on *other* nodes block (0 = unbounded, the legacy
  /// behaviour). Bounds memory growth when a fast producer floods a slow
  /// consumer in a pipelining (FP) plan.
  size_t max_queued_batches = 0;

  /// Per-query memory budget in bytes for operator state (hash tables,
  /// run buffers, stored results). 0 = unlimited; usage is still tracked.
  /// Exceeding the budget aborts with Status::ResourceExhausted.
  size_t memory_budget_bytes = 0;

  /// Wall-clock deadline measured from Execute() start; expiry aborts the
  /// query with Status::DeadlineExceeded. Must be positive when set;
  /// Execute() rejects zero or negative deadlines with InvalidArgument
  /// (use `cancellation` for an immediately-abandoned query).
  std::optional<std::chrono::milliseconds> deadline;

  /// Cooperative cancellation: keep a copy of this token and Cancel() it
  /// from any thread; the query aborts with Status::Cancelled at the next
  /// batch boundary.
  CancellationToken cancellation;

  /// Test-only chaos hooks; must outlive the execution. See
  /// engine/fault_injector.h.
  FaultInjector* fault_injector = nullptr;

  /// Observability. `collect_metrics` gathers per-operation counters,
  /// phase timings, and batch latencies into QueryStats::per_op;
  /// `record_trace` additionally records every worker busy interval into
  /// QueryResult::trace (renderable as the paper's utilization
  /// diagram or exportable as Chrome trace JSON). Both paths time each
  /// operator callback; with both off no clock is read per batch.
  bool collect_metrics = true;
  bool record_trace = false;
  /// Character width of QueryResult::utilization_diagram.
  uint32_t trace_width = 72;

  /// Skew defense (hot-key repartitioning + Bloom predicate transfer)
  /// over the plan's defendable joins; off by default. Never changes
  /// results, only row placement and wire volume.
  SkewDefenseOptions skew_defense;
};

/// The request checks of the thread and process backends: a positive
/// batch size, a positive deadline when one is set, skew-defense options
/// the defense can run on, and a valid plan.
[[nodiscard]] Status CheckExecRequest(const ParallelPlan& plan,
                                      const ThreadExecOptions& options);

/// Executes the same parallel plans as SimExecutor, but for real: each
/// simulated processor becomes an OS thread running a message loop, tuple
/// streams become queues between threads, and time is wall-clock. This is
/// the "multicore substitutes the cluster" backend: it demonstrates that
/// the strategies' plans are genuine parallel programs, and it is the
/// engine a downstream user would run. (On a machine with fewer cores than
/// plan.num_processors the threads are time-sliced by the OS; correctness
/// is unaffected.)
///
/// Resilience: queues between nodes are bounded (max_queued_batches),
/// operator memory is metered against a per-query budget, and executions
/// can be cancelled or deadlined. Every failure path tears the worker
/// threads down cleanly — Execute() never returns with a thread leaked or
/// a queue still referenced.
class ThreadExecutor {
 public:
  /// `database` must outlive the executor.
  explicit ThreadExecutor(const Database* database);
  ~ThreadExecutor();

  /// Runs `plan`. On failure the returned status is the root cause
  /// (ResourceExhausted, Cancelled, DeadlineExceeded, an injected fault,
  /// ...) and `stats_out`, when non-null, receives the partial-progress
  /// counters gathered up to the abort.
  [[nodiscard]] StatusOr<QueryResult> Execute(
      const ParallelPlan& plan, const ThreadExecOptions& options,
      QueryStats* stats_out = nullptr) const;

 private:
  const Database* database_;

  // Batch-buffer pools, one per worker node, lazily grown to the widest
  // plan this executor has run and kept warm across executions: the
  // freelists survive, so a repeated query allocates (almost) no batch
  // buffers. BatchPool is internally thread-safe; the mutex only guards
  // the vector's growth. Pools outlive every run they serve.
  mutable Mutex pools_mutex_;
  mutable std::vector<std::unique_ptr<BatchPool>> pools_
      MJOIN_GUARDED_BY(pools_mutex_);
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_THREAD_EXECUTOR_H_
