// Ablation of the simulated machine's overhead knobs: which barrier
// actually causes SP's degradation at high processor counts? We rerun the
// left-linear 5K sweep with (a) the calibrated machine, (b) free process
// startup, (c) free stream setup (handshake + broker), and (d) both free.
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

namespace {

double Run(const JoinQuery& query, const Database& db, uint32_t procs,
           const CostParams& costs) {
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(query, procs, TotalCostModel());
  MJOIN_CHECK(plan.ok()) << plan.status();
  SimExecutor executor(&db);
  SimExecOptions options;
  options.costs = costs;
  auto run = executor.Execute(*plan, options);
  MJOIN_CHECK(run.ok()) << run.status();
  return run->seconds;
}

}  // namespace

int main() {
  constexpr int kRelations = 10;
  constexpr uint32_t kCardinality = 5000;
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/23);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, kRelations,
                                       kCardinality);
  MJOIN_CHECK(query.ok());

  CostParams calibrated;
  CostParams no_startup = calibrated;
  no_startup.process_startup = 0;
  CostParams no_streams = calibrated;
  no_streams.stream_handshake = 0;
  no_streams.broker_handshake = 0;
  CostParams neither = no_startup;
  neither.stream_handshake = 0;
  neither.broker_handshake = 0;

  std::printf(
      "SP on the left-linear 5K query: which overhead causes the "
      "degradation at high P?\n(§3.5: startup grows with #processes, "
      "coordination with the n x m tuple streams)\n\n");

  TablePrinter table({"P", "calibrated [s]", "free startup [s]",
                      "free stream setup [s]", "both free [s]"});
  for (uint32_t p : {20u, 40u, 60u, 80u}) {
    table.AddRow({StrCat(p), FormatDouble(Run(*query, db, p, calibrated), 1),
                  FormatDouble(Run(*query, db, p, no_startup), 1),
                  FormatDouble(Run(*query, db, p, no_streams), 1),
                  FormatDouble(Run(*query, db, p, neither), 1)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected: with both barriers free, SP speeds up monotonically; "
      "the stream setup\n(quadratic in P per refragmentation) is the "
      "larger cause of the U-shape.\n");
  return 0;
}
