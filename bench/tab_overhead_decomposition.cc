// Quantifies the §3.5 tradeoffs: for each strategy, the number of
// operation processes and tuple streams it uses, the scheduler time spent
// on startup, the coordination time spent on stream handshakes, and the
// resulting response time — at a low and a high processor count.
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

int main() {
  constexpr int kRelations = 10;
  constexpr uint32_t kCardinality = 5000;
  const uint32_t kProcs[] = {20, 80};

  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/3);
  auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, kRelations,
                                       kCardinality);
  MJOIN_CHECK(query.ok()) << query.status();
  SimExecutor executor(&db);
  CostParams costs;

  std::printf(
      "Overhead decomposition (§3.5), wide bushy tree, %u tuples/relation:\n"
      "startup grows with #processes (SP worst, FP best), coordination "
      "with #streams.\n\n",
      kCardinality);

  TablePrinter table({"P", "strategy", "processes", "streams",
                      "startup [s]", "handshake [s]", "response [s]",
                      "join memory"});
  for (uint32_t p : kProcs) {
    for (StrategyKind kind : kAllStrategies) {
      auto plan = MakeStrategy(kind)->Parallelize(*query, p, TotalCostModel());
      MJOIN_CHECK(plan.ok()) << plan.status();
      SimExecOptions options;
      auto run = executor.Execute(*plan, options);
      MJOIN_CHECK(run.ok()) << run.status();
      size_t join_memory = 0;
      for (const QueryOpStats& op : run->stats.per_op) {
        join_memory += op.metrics.peak_memory_bytes;
      }
      table.AddRow({StrCat(p), StrategyName(kind),
                    StrCat(run->machine.processes_started),
                    StrCat(run->machine.streams_opened),
                    FormatDouble(costs.ToSeconds(run->machine.startup_ticks), 2),
                    FormatDouble(costs.ToSeconds(run->machine.handshake_ticks), 2),
                    FormatDouble(run->seconds, 1),
                    FormatBytes(join_memory)});
    }
    table.AddSeparator();
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nNote the paper's §3.5 ordering: processes SP > SE/RD > FP; FP "
      "needs the most memory\n(two hash tables per pipelining join).\n");
  return 0;
}
