#ifndef MJOIN_ENGINE_MJOIN_ENGINE_H_
#define MJOIN_ENGINE_MJOIN_ENGINE_H_

#include <optional>
#include <string>

#include "common/statusor.h"
#include "engine/database.h"
#include "engine/result.h"
#include "engine/process_executor.h"
#include "engine/sim_executor.h"
#include "engine/thread_executor.h"
#include "opt/general_query.h"
#include "opt/optimizer.h"
#include "strategy/strategy.h"

namespace mjoin {

/// Which executor carries a query.
enum class Backend {
  /// Deterministic simulated shared-nothing machine (virtual time).
  kSimulated,
  /// Real OS threads (wall-clock time).
  kThreaded,
  /// Forked worker processes over Unix-domain sockets (wall-clock time) —
  /// the shared-nothing backend.
  kProcess,
};

/// One-call query options for MultiJoinEngine.
struct EngineQueryOptions {
  StrategyKind strategy = StrategyKind::kFP;
  uint32_t processors = 16;
  Backend backend = Backend::kSimulated;
  /// Simulated-machine cost model (kSimulated only).
  CostParams costs;
  /// Phase-1 search options (ExecuteGraph only).
  OptimizerOptions optimizer;
  /// Verify the result against the single-threaded reference executor.
  bool verify = true;
  /// Collect the per-op EXPLAIN ANALYZE report (every backend).
  bool analyze = false;
};

/// Outcome of one engine query.
struct EngineQueryOutcome {
  ResultSummary result;
  /// Simulated response seconds (kSimulated) or wall seconds (kThreaded,
  /// kProcess).
  double seconds = 0;
  /// True when verification ran and matched.
  bool verified = false;
  /// The plan that was executed, in textual XRA (replayable via
  /// ParsePlan / mjoin_cli run-plan).
  std::string plan_text;
  /// EXPLAIN ANALYZE table (when requested): ExplainAnalyze of the run,
  /// whose busy and phase seconds are simulated on kSimulated.
  std::string analyze_report;
};

/// The batteries-included facade: owns a database and runs multi-join
/// queries end-to-end — phase-1 optimization (for query graphs), phase-2
/// parallelization with any of the paper's four strategies, execution on
/// either backend, and reference verification. The lower-level pieces
/// (Strategy, SimExecutor, ...) remain available for fine control; this
/// class is the five-line path.
class MultiJoinEngine {
 public:
  explicit MultiJoinEngine(Database database)
      : database_(std::move(database)) {}

  const Database& database() const { return database_; }

  /// Executes a fully-specified query (tree + semantics), e.g. from
  /// MakeWisconsinChainQuery or GeneralQuerySpec::BindTree.
  [[nodiscard]] StatusOr<EngineQueryOutcome> ExecuteQuery(
      const JoinQuery& query,
                                            const EngineQueryOptions& options);

  /// Runs both phases on a general query spec: optimizes the join order
  /// over spec.ToJoinGraph(), binds semantics, then executes.
  [[nodiscard]] StatusOr<EngineQueryOutcome> ExecuteGraph(
      const GeneralQuerySpec& spec,
                                            const EngineQueryOptions& options);

 private:
  Database database_;
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_MJOIN_ENGINE_H_
