// Ablation of the paper's §4.3 cost function (cost = a*n1 + b*n2 + c*r
// with a,b = 1 for base operands / 2 for intermediates, c = 2): how much
// does the quality of the proportional processor allocation depend on it?
// We compare the paper coefficients against a uniform (shape-blind)
// variant and an exaggerated one, for the allocation-sensitive strategies
// (SE, RD, FP).
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

namespace {

double Run(StrategyKind kind, const JoinQuery& query, const Database& db,
           uint32_t procs, const JoinCostCoefficients& coefficients) {
  auto plan = MakeStrategy(kind)->Parallelize(query, procs,
                                              TotalCostModel(coefficients));
  MJOIN_CHECK(plan.ok()) << plan.status();
  SimExecutor executor(&db);
  auto run = executor.Execute(*plan, SimExecOptions());
  MJOIN_CHECK(run.ok()) << run.status();
  return run->seconds;
}

}  // namespace

int main() {
  constexpr int kRelations = 10;
  constexpr uint32_t kCardinality = 5000;
  constexpr uint32_t kProcs = 60;
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/17);

  const JoinCostCoefficients paper{};                    // 1 / 2 / 2
  const JoinCostCoefficients uniform =
      JoinCostCoefficients::Uniform();                   // 1 / 1 / 1
  const JoinCostCoefficients skewed{1.0, 10.0, 2.0};     // over-weights
                                                         // intermediates

  std::printf(
      "Cost-function ablation at P=%u, %u tuples/relation: response time "
      "[s] when the\nallocation uses the paper's coefficients (1/2/2), "
      "uniform (1/1/1), or skewed (1/10/2).\nSP ignores the cost function "
      "(shown for reference).\n\n",
      kProcs, kCardinality);

  TablePrinter table({"shape", "strategy", "paper 1/2/2", "uniform 1/1/1",
                      "skewed 1/10/2"});
  for (QueryShape shape :
       {QueryShape::kWideBushy, QueryShape::kRightOrientedBushy,
        QueryShape::kLeftOrientedBushy}) {
    auto query = MakeWisconsinChainQuery(shape, kRelations, kCardinality);
    MJOIN_CHECK(query.ok());
    for (StrategyKind kind :
         {StrategyKind::kSE, StrategyKind::kRD, StrategyKind::kFP,
          StrategyKind::kSP}) {
      table.AddRow({ShapeName(shape), StrategyName(kind),
                    FormatDouble(Run(kind, *query, db, kProcs, paper), 1),
                    FormatDouble(Run(kind, *query, db, kProcs, uniform), 1),
                    FormatDouble(Run(kind, *query, db, kProcs, skewed), 1)});
    }
    table.AddSeparator();
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected: the simple 1/2/2 estimate is good enough (the paper's "
      "point); a badly\nskewed estimate visibly hurts FP/RD allocation, "
      "while SP is immune.\n");
  return 0;
}
