#include "engine/experiment.h"

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/reference.h"
#include "plan/wisconsin_query.h"

namespace mjoin {

std::vector<uint32_t> SmallExperimentProcessors() {
  return {20, 30, 40, 50, 60, 70, 80};
}

std::vector<uint32_t> LargeExperimentProcessors() {
  return {30, 40, 50, 60, 70, 80};
}

const ExperimentPoint* ExperimentResult::Best() const {
  const ExperimentPoint* best = nullptr;
  for (const ExperimentPoint& point : points) {
    if (!point.seconds.has_value()) continue;
    if (best == nullptr || *point.seconds < *best->seconds) best = &point;
  }
  return best;
}

std::string ExperimentResult::ToTable() const {
  std::vector<std::string> headers = {"processors"};
  for (StrategyKind strategy : config.strategies) {
    headers.push_back(StrategyName(strategy) + " [s]");
  }
  TablePrinter table(std::move(headers));
  for (uint32_t p : config.processors) {
    std::vector<std::string> row = {StrCat(p)};
    for (StrategyKind strategy : config.strategies) {
      std::string cell = "-";
      for (const ExperimentPoint& point : points) {
        if (point.strategy == strategy && point.processors == p &&
            point.seconds.has_value()) {
          cell = FormatDouble(*point.seconds, 1);
        }
      }
      row.push_back(std::move(cell));
    }
    table.AddRow(std::move(row));
  }
  return table.ToString();
}

std::string ExperimentResult::ToCsv() const {
  std::string out = "strategy,processors,seconds,processes,streams\n";
  for (const ExperimentPoint& point : points) {
    if (!point.seconds.has_value()) continue;
    out += StrCat(StrategyName(point.strategy), ",", point.processors, ",",
                  FormatDouble(*point.seconds, 4), ",", point.processes,
                  ",", point.streams, "\n");
  }
  return out;
}

StatusOr<ExperimentResult> RunShapeExperiment(const ExperimentConfig& config) {
  Database db = MakeWisconsinDatabase(config.num_relations, config.cardinality,
                                      config.seed);
  MJOIN_ASSIGN_OR_RETURN(
      JoinQuery query,
      MakeWisconsinChainQuery(config.shape, config.num_relations,
                              config.cardinality));

  std::optional<ResultSummary> reference;
  if (config.verify) {
    MJOIN_ASSIGN_OR_RETURN(ResultSummary summary,
                           ReferenceSummary(query, db));
    reference = summary;
  }

  TotalCostModel cost_model(config.coefficients);
  SimExecutor executor(&db);
  SimExecOptions options;
  options.costs = config.costs;

  ExperimentResult result;
  result.config = config;
  for (StrategyKind kind : config.strategies) {
    std::unique_ptr<Strategy> strategy = MakeStrategy(kind);
    for (uint32_t p : config.processors) {
      ExperimentPoint point;
      point.strategy = kind;
      point.processors = p;
      auto plan_or = strategy->Parallelize(query, p, cost_model);
      if (!plan_or.ok()) {
        // Not placeable at this P (e.g. FP with P < #joins): empty cell.
        result.points.push_back(point);
        continue;
      }
      MJOIN_ASSIGN_OR_RETURN(QueryResult run,
                             executor.Execute(*plan_or, options));
      if (reference.has_value() && !(run.result == *reference)) {
        return Status::Internal(
            StrCat(StrategyName(kind), " at P=", p,
                   " produced a wrong result: cardinality ",
                   run.result.cardinality, " vs ", reference->cardinality));
      }
      point.seconds = run.seconds;
      point.ticks = run.elapsed;
      point.processes = run.machine.processes_started;
      point.streams = run.machine.streams_opened;
      point.startup_ticks = run.machine.startup_ticks;
      point.handshake_ticks = run.machine.handshake_ticks;
      result.points.push_back(point);
    }
  }
  return result;
}

StatusOr<FigureOutput> RunPaperFigure(QueryShape shape,
                                      const CostParams& costs,
                                      uint32_t small_cardinality,
                                      uint32_t large_cardinality,
                                      bool verify) {
  ExperimentConfig small;
  small.shape = shape;
  small.cardinality = small_cardinality;
  small.processors = SmallExperimentProcessors();
  small.costs = costs;
  small.verify = verify;

  ExperimentConfig large = small;
  large.cardinality = large_cardinality;
  large.processors = LargeExperimentProcessors();

  FigureOutput out;
  MJOIN_ASSIGN_OR_RETURN(out.small, RunShapeExperiment(small));
  MJOIN_ASSIGN_OR_RETURN(out.large, RunShapeExperiment(large));

  out.text = StrCat("=== ", ShapeName(shape), " query tree ===\n",
                    "--- ", small_cardinality / 1000, "K tuples/relation (",
                    small.num_relations, " relations) ---\n",
                    out.small.ToTable(), "--- ",
                    large_cardinality / 1000, "K tuples/relation (",
                    large.num_relations, " relations) ---\n",
                    out.large.ToTable());
  const ExperimentPoint* best_small = out.small.Best();
  const ExperimentPoint* best_large = out.large.Best();
  if (best_small != nullptr && best_large != nullptr) {
    out.text += StrCat("best ", small_cardinality / 1000, "K: ",
                       FormatDouble(*best_small->seconds, 1), "s (",
                       StrategyName(best_small->strategy),
                       best_small->processors, ")   best ",
                       large_cardinality / 1000, "K: ",
                       FormatDouble(*best_large->seconds, 1), "s (",
                       StrategyName(best_large->strategy),
                       best_large->processors, ")\n");
  }
  return out;
}

}  // namespace mjoin
