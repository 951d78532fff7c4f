#ifndef MJOIN_ENGINE_SIM_EXECUTOR_H_
#define MJOIN_ENGINE_SIM_EXECUTOR_H_

#include <memory>
#include <optional>
#include <vector>
#include <string>

#include "common/statusor.h"
#include "engine/database.h"
#include "engine/result.h"
#include "engine/thread_trace.h"
#include "sim/cost_params.h"
#include "sim/machine.h"
#include "xra/plan.h"

namespace mjoin {

/// Knobs for one simulated execution.
struct SimExecOptions {
  CostParams costs;
  /// Record per-task busy intervals and render a utilization diagram
  /// (costly on big runs).
  bool record_trace = false;
  /// Width of the rendered diagram, when record_trace is set.
  uint32_t trace_width = 72;
  /// Keep the materialized final result (otherwise only its summary).
  bool materialize_result = false;
};

/// Per-operation runtime statistics of one simulated execution (the
/// EXPLAIN ANALYZE counters).
struct OpStats {
  int op_id = -1;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  Ticks busy_ticks = 0;
  Ticks first_start = 0;  // when the first instance began working
  Ticks last_finish = 0;  // when the last instance completed
};

/// Outcome of one simulated query execution.
struct SimQueryResult {
  /// Response time: from the moment the scheduler starts scheduling until
  /// the last operation process finishes (the paper's measure).
  Ticks response_ticks = 0;
  double response_seconds = 0;
  ResultSummary result;
  /// Final result tuples, if materialize_result was set.
  std::optional<Relation> materialized;
  MachineCounters counters;
  /// Mean worker-node busy fraction over [0, response_ticks]
  /// (only when record_trace is set; 0 otherwise).
  double utilization = 0;
  std::string utilization_diagram;  // only when record_trace is set
  /// The raw trace, in ticks, with the scheduler and the stream broker as
  /// service lanes; null unless record_trace.
  std::shared_ptr<const ThreadTraceRecorder> trace;
  /// Sum over all join operation processes of their peak hash-table /
  /// buffer memory (FP's two hash tables show up here).
  size_t join_memory_bytes = 0;
  /// Simulated events processed (simulator work, for diagnostics).
  uint64_t events = 0;
  /// Per-op counters, indexed like plan.ops.
  std::vector<OpStats> op_stats;
};

/// Renders the EXPLAIN ANALYZE table for a finished run: one row per
/// operation with instances, tuples in/out, busy time and active window.
std::string RenderOpStats(const ParallelPlan& plan,
                          const SimQueryResult& result);

/// Executes parallel plans on the simulated shared-nothing machine: real
/// operators over real tuples, with time advanced by the cost model. Runs
/// are deterministic.
class SimExecutor {
 public:
  /// `database` must outlive the executor.
  explicit SimExecutor(const Database* database) : database_(database) {}

  [[nodiscard]] StatusOr<SimQueryResult> Execute(const ParallelPlan& plan,
                                   const SimExecOptions& options) const;

 private:
  const Database* database_;
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_SIM_EXECUTOR_H_
