#ifndef MJOIN_ENGINE_EXPERIMENT_H_
#define MJOIN_ENGINE_EXPERIMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "engine/database.h"
#include "engine/sim_executor.h"
#include "plan/cost_model.h"
#include "plan/shapes.h"
#include "strategy/strategy.h"

namespace mjoin {

/// One measured point of a Figure 9-13 style experiment.
struct ExperimentPoint {
  StrategyKind strategy = StrategyKind::kSP;
  uint32_t processors = 0;
  /// Response time; absent when the strategy cannot run at this processor
  /// count (e.g. FP with fewer processors than joins).
  std::optional<double> seconds;
  uint64_t processes = 0;
  uint64_t streams = 0;
};

/// Configuration of one figure: a query shape at one problem size, swept
/// over processor counts for all four strategies.
struct ExperimentConfig {
  QueryShape shape = QueryShape::kLeftLinear;
  int num_relations = 10;
  uint32_t cardinality = 5000;
  std::vector<uint32_t> processors;  // e.g. {20,30,...,80}
  std::vector<StrategyKind> strategies{kAllStrategies,
                                       kAllStrategies + 4};
  CostParams costs;
  JoinCostCoefficients coefficients;
  uint64_t seed = 1995;
  /// Check every run's result against the reference executor.
  bool verify = true;
};

struct ExperimentResult {
  ExperimentConfig config;
  std::vector<ExperimentPoint> points;

  /// The point with minimal response time (as in Figure 14), if any.
  const ExperimentPoint* Best() const;

  /// Renders the paper-style series: one row per processor count, one
  /// column per strategy, response times in seconds.
  std::string ToTable() const;

  /// Plot-ready CSV: "strategy,processors,seconds,processes,streams" (one
  /// row per measured point; unplaceable cells are skipped).
  std::string ToCsv() const;
};

/// Runs the full sweep for one figure panel. The database is generated
/// once from config.seed; every (strategy, P) cell is one simulated
/// execution. Fails on the first simulation error; strategies that cannot
/// be placed at a given P produce an empty cell instead.
[[nodiscard]] StatusOr<ExperimentResult> RunShapeExperiment(
    const ExperimentConfig& config);

/// Runs the two panels of one paper figure (5K and 40K) and returns the
/// formatted output, ready to print.
struct FigureOutput {
  std::string text;
  ExperimentResult small;  // 5K panel
  ExperimentResult large;  // 40K panel
};
[[nodiscard]] StatusOr<FigureOutput> RunPaperFigure(QueryShape shape,
                                      const CostParams& costs,
                                      uint32_t small_cardinality,
                                      uint32_t large_cardinality,
                                      bool verify);

/// The paper's processor sweeps: 20..80 for the 5K experiment, 30..80 for
/// the 40K experiment (the 40K query did not fit on fewer than 30 nodes).
std::vector<uint32_t> SmallExperimentProcessors();
std::vector<uint32_t> LargeExperimentProcessors();

}  // namespace mjoin

#endif  // MJOIN_ENGINE_EXPERIMENT_H_
