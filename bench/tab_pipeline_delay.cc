// Reproduces the §2.3.3 result ([WiA93]): under Full Parallel execution,
// each step of a *linear* pipeline (one base operand) adds a roughly
// constant delay, while each step of a *bushy* pipeline (two intermediate
// operands) adds a delay that grows with the operand size. This is the
// paper's explanation for FP's weak spot: bushy pipelines at small
// processor counts and large operands.
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

namespace {

double Run(QueryShape shape, int relations, uint32_t card, uint32_t procs) {
  Database db = MakeWisconsinDatabase(relations, card, /*seed=*/13);
  auto query = MakeWisconsinChainQuery(shape, relations, card);
  MJOIN_CHECK(query.ok()) << query.status();
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, procs, TotalCostModel());
  MJOIN_CHECK(plan.ok()) << plan.status();
  SimExecutor executor(&db);
  auto run = executor.Execute(*plan, SimExecOptions());
  MJOIN_CHECK(run.ok()) << run.status();
  return run->seconds;
}

}  // namespace

int main() {
  // Fixed processors *per join* so that adding pipeline steps does not
  // change the per-join parallelism; the marginal response-time increase
  // per added step estimates the delay per pipeline step.
  constexpr uint32_t kProcsPerJoin = 4;
  const uint32_t cards[] = {1000, 4000, 16000};

  std::printf(
      "FP pipeline-step delay (marginal response time per extra join, "
      "%u processors per join):\n"
      "linear pipeline (right-linear tree) vs bushy pipeline "
      "(left-oriented bushy tree).\n\n",
      kProcsPerJoin);

  TablePrinter table({"operand size", "linear step [s]", "bushy step [s]",
                      "bushy/linear"});
  for (uint32_t card : cards) {
    // Linear: grow a right-linear chain from 4 to 8 relations (3 -> 7
    // joins); each extra join is one linear pipeline step.
    double lin_short = Run(QueryShape::kRightLinear, 4, card,
                           3 * kProcsPerJoin);
    double lin_long = Run(QueryShape::kRightLinear, 8, card,
                          7 * kProcsPerJoin);
    double linear_step = (lin_long - lin_short) / 4.0;

    // Bushy: grow the left-oriented bushy spine from 4 to 8 relations
    // (2 pairs -> 4 pairs: 1 -> 3 bushy spine steps, plus 2 pair joins).
    double bush_short = Run(QueryShape::kLeftOrientedBushy, 4, card,
                            3 * kProcsPerJoin);
    double bush_long = Run(QueryShape::kLeftOrientedBushy, 8, card,
                           7 * kProcsPerJoin);
    // 4 extra joins total, of which 2 are spine (bushy) steps.
    double bushy_step = (bush_long - bush_short) / 4.0;

    table.AddRow({StrCat(card), FormatDouble(linear_step, 3),
                  FormatDouble(bushy_step, 3),
                  FormatDouble(linear_step > 0 ? bushy_step / linear_step : 0,
                               2)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected: the linear step delay stays nearly flat as operands "
      "grow, while the bushy\nstep delay (and the bushy/linear ratio) "
      "grows with the operand size.\n");
  return 0;
}
