#ifndef MJOIN_ENGINE_QUERY_RESULT_H_
#define MJOIN_ENGINE_QUERY_RESULT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/result.h"
#include "engine/thread_trace.h"
#include "exec/operator.h"
#include "sim/machine.h"
#include "xra/plan.h"

namespace mjoin {

/// Merged runtime metrics of one plan operation (all its instances), with
/// enough plan identity to print without the plan at hand. The phase
/// buckets of `metrics` hold wall-clock seconds on the thread and process
/// backends and simulated seconds on the sim.
struct QueryOpStats {
  int op_id = -1;
  std::string name;         // the plan's human-readable label
  std::string kind;         // XraOpKindName of the op
  char trace_label = '?';   // fill character in utilization diagrams
  uint32_t instances = 0;
  OpMetrics metrics;
};

/// Runtime counters of one execution, also populated on failure (via the
/// executors' stats out-parameter) so aborted queries are diagnosable. The
/// batch, queue and memory counters are the real backends'; they stay zero
/// on the sim, whose transport is counted in QueryResult::machine.
struct QueryStats {
  /// Data batches handed to a consumer instance, one per delivered copy:
  /// a cross-node post or a same-node hand-off on thread, a ring record or
  /// a local delivery on process.
  uint64_t batches_sent = 0;
  /// Data batches consumed by operators: the sum of their batches_in.
  uint64_t batches_processed = 0;
  /// Batches suppressed / re-delivered by fault injection.
  uint64_t batches_dropped = 0;
  uint64_t batches_duplicated = 0;
  /// Times a producer outwaited the 250 ms queue block timeout on a full
  /// queue and enqueued anyway.
  uint64_t queue_overflows = 0;
  /// Batch-buffer pool traffic during this run: buffers heap-allocated
  /// because a node's freelist was empty vs. acquisitions served by
  /// recycling. Pools persist across Execute() calls on one executor, so
  /// a repeated query starts with warm buffers and in steady state
  /// allocated stays near zero while reused tracks batches sent.
  uint64_t batch_buffers_allocated = 0;
  uint64_t batch_buffers_reused = 0;
  /// Maximum data batches queued at any single worker node; on process,
  /// the most ring records one worker parked behind full rings at once.
  size_t peak_queue_depth = 0;
  /// MemoryBudget high-water mark over operator state + stored results
  /// (on process, the sum of the workers' own budgets' peaks).
  size_t peak_memory_bytes = 0;
  /// Per-operation metrics in plan op order. Always filled on the sim;
  /// on the real backends empty unless ThreadExecOptions::collect_metrics
  /// was set. Populated on the abort path too (partial counts up to the
  /// failure).
  std::vector<QueryOpStats> per_op;
};

/// Adds one worker's share of a query's stats into the query's: counters
/// and peak_memory_bytes sum (each worker meters its own budget),
/// peak_queue_depth takes the max, and each per_op entry merges into the
/// entry of its op id. `into->per_op` is indexed by op id (NewOpStats); an
/// op id outside it is InvalidArgument, and the merge stops there.
[[nodiscard]] Status MergeQueryStats(const QueryStats& from, QueryStats* into);

/// Wire-level counters of one process-backed execution. The worker-side
/// ones (local deliveries through ring traffic) arrive in each worker's
/// kReport and add up across workers; num_workers, the socket counters
/// and shm_rings are the coordinator's own.
struct ProcessNetStats {
  uint32_t num_workers = 0;
  /// Coordinator-side socket traffic (both directions, all workers).
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  /// Batches delivered entirely inside one worker (never serialized).
  uint64_t local_deliveries = 0;
  /// Times a worker deferred pumping its sources because the records it
  /// had parked behind full rings were over the watermark.
  uint64_t pump_stalls = 0;
  /// Faults actually fired by the per-worker injectors (summed; the
  /// coordinator-side FaultInjector object never fires in this backend).
  uint64_t faults_injected = 0;
  /// Worker-side wire codec time (summed over workers). On the shm plane
  /// this is the ring memcpy time — the codec degenerates to the copy.
  double serialize_seconds = 0;
  double deserialize_seconds = 0;
  /// Shm data plane: rings mapped for the attempt that produced the
  /// result, records/bytes over all rings (workers'
  /// counters plus the coordinator's own result traffic), and
  /// records that found their ring full and were parked in a backlog.
  uint32_t shm_rings = 0;
  uint64_t shm_records_sent = 0;
  uint64_t shm_records_received = 0;
  uint64_t shm_bytes_sent = 0;
  uint64_t shm_bytes_received = 0;
  uint64_t ring_full_stalls = 0;

  /// Adds every field of `other` (one worker's report) into this. Defined
  /// beside the wire field list in process_protocol.cc, which it walks, so
  /// a listed counter sums with no second mapping. A worker leaves the
  /// fleet-level num_workers and shm_rings zero; the coordinator sets them.
  ProcessNetStats& operator+=(const ProcessNetStats& other);
};

/// Outcome of one query execution, on every backend.
struct QueryResult {
  ResultSummary result;
  /// Final result tuples, if the options asked to materialize them.
  std::optional<Relation> materialized;
  QueryStats stats;
  /// Response time: simulated seconds on the sim (from the moment the
  /// scheduler starts scheduling until the last operation process
  /// finishes, the paper's measure), wall-clock seconds elsewhere.
  double seconds = 0;
  /// The same span in the trace's unit: ticks on the sim, nanoseconds
  /// elsewhere.
  int64_t elapsed = 0;

  /// Mean worker busy fraction over [0, elapsed] (0 unless traced).
  double utilization = 0;
  /// The paper's utilization diagram (Figures 3-7); empty unless traced.
  std::string utilization_diagram;
  /// The raw trace for further rendering/export; null unless traced.
  std::shared_ptr<const ThreadTraceRecorder> trace;

  /// The simulated machine's counters, with the simulator's event count;
  /// zero on the thread and process backends.
  MachineCounters machine;
};

/// One QueryOpStats per plan op, in plan op order, with the plan identity
/// (op_id, name, kind, trace_label) filled in and the counters zero.
std::vector<QueryOpStats> NewOpStats(const ParallelPlan& plan);

/// Fills a traced result's `utilization`, `utilization_diagram` and
/// `trace` from `trace` over [0, makespan].
void AttachTrace(std::shared_ptr<const ThreadTraceRecorder> trace,
                 int64_t makespan, uint32_t width, QueryResult* result);

/// EXPLAIN ANALYZE: result.stats.per_op as a fixed-width table, one row per
/// operation with instances, rows in/out, busy seconds and the seven phase
/// buckets that add up to them, batch latency, hash-table detail and peak
/// memory. Empty string when per_op is empty.
std::string ExplainAnalyze(const QueryResult& result);

// Former names of the result types, kept for the benchmark harness under
// mjbench/ until it moves to the names above.
using ThreadQueryResult = QueryResult;
using ThreadExecStats = QueryStats;
using ThreadOpStats = QueryOpStats;

}  // namespace mjoin

#endif  // MJOIN_ENGINE_QUERY_RESULT_H_
