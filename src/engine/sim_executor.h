#ifndef MJOIN_ENGINE_SIM_EXECUTOR_H_
#define MJOIN_ENGINE_SIM_EXECUTOR_H_

#include "common/statusor.h"
#include "engine/database.h"
#include "engine/query_result.h"
#include "sim/cost_params.h"
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

/// Executes parallel plans on the simulated shared-nothing machine: real
/// operators over real tuples, with time advanced by the cost model. Runs
/// are deterministic.
class SimExecutor {
 public:
  /// `database` must outlive the executor.
  explicit SimExecutor(const Database* database) : database_(database) {}

  /// Fills the result's per-op stats always (each task's charged cost, in
  /// simulated seconds, lands in its work type's phase bucket), and its
  /// trace and diagram when options.record_trace is set.
  [[nodiscard]] StatusOr<QueryResult> Execute(
      const ParallelPlan& plan, const SimExecOptions& options) const;

 private:
  const Database* database_;
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_SIM_EXECUTOR_H_
