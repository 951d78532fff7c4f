#include "engine/mjoin_engine.h"

#include "engine/reference.h"
#include "xra/text.h"

namespace mjoin {

StatusOr<EngineQueryOutcome> MultiJoinEngine::ExecuteQuery(
    const JoinQuery& query, const EngineQueryOptions& options) {
  TotalCostModel cost_model;
  MJOIN_ASSIGN_OR_RETURN(
      ParallelPlan plan,
      MakeStrategy(options.strategy)
          ->Parallelize(query, options.processors, cost_model));

  EngineQueryOutcome outcome;
  outcome.plan_text = SerializePlan(plan);

  QueryResult run;
  if (options.backend == Backend::kSimulated) {
    SimExecOptions sim_options;
    sim_options.costs = options.costs;
    MJOIN_ASSIGN_OR_RETURN(
        run, SimExecutor(&database_).Execute(plan, sim_options));
  } else if (options.backend == Backend::kThreaded) {
    MJOIN_ASSIGN_OR_RETURN(
        run, ThreadExecutor(&database_).Execute(plan, ThreadExecOptions()));
  } else {
    MJOIN_ASSIGN_OR_RETURN(
        ProcessQueryResult process_run,
        ProcessExecutor(&database_).Execute(plan, ProcessExecOptions()));
    run = std::move(process_run.exec);
  }
  outcome.result = run.result;
  outcome.seconds = run.seconds;
  if (options.analyze) outcome.analyze_report = ExplainAnalyze(run);

  if (options.verify) {
    MJOIN_ASSIGN_OR_RETURN(ResultSummary reference,
                           ReferenceSummary(query, database_));
    if (!(reference == outcome.result)) {
      return Status::Internal(
          "parallel execution disagrees with the reference executor");
    }
    outcome.verified = true;
  }
  return outcome;
}

StatusOr<EngineQueryOutcome> MultiJoinEngine::ExecuteGraph(
    const GeneralQuerySpec& spec, const EngineQueryOptions& options) {
  MJOIN_ASSIGN_OR_RETURN(
      JoinTree tree,
      OptimizeJoinOrder(spec.ToJoinGraph(), TotalCostModel(),
                        options.optimizer));
  MJOIN_ASSIGN_OR_RETURN(JoinQuery query, spec.BindTree(tree));
  return ExecuteQuery(query, options);
}

}  // namespace mjoin
