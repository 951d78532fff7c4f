// Extension: scaling in the number of joins. The paper fixes the query at
// ten relations and motivates the problem with "complex queries that may
// contain larger numbers of joins"; here we vary the join count directly
// (wide bushy trees over 4..16 relations, fixed machine) to see how each
// strategy's overheads scale with query complexity.
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

int main() {
  constexpr uint32_t kCardinality = 5000;
  constexpr uint32_t kProcs = 64;

  std::printf(
      "Query-size extension: wide bushy trees over N relations, "
      "%u tuples/relation, P=%u.\nEvery run verified against the "
      "reference.\n\n",
      kCardinality, kProcs);

  TablePrinter table({"relations", "joins", "SP [s]", "SE [s]", "RD [s]",
                      "FP [s]", "best"});
  for (int relations : {4, 6, 8, 10, 12, 16}) {
    Database db = MakeWisconsinDatabase(relations, kCardinality, /*seed=*/59);
    auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, relations,
                                         kCardinality);
    MJOIN_CHECK(query.ok());
    auto reference = ReferenceSummary(*query, db);
    MJOIN_CHECK(reference.ok());
    SimExecutor executor(&db);

    std::vector<std::string> row = {StrCat(relations),
                                    StrCat(relations - 1)};
    double best = 1e100;
    std::string winner = "-";
    for (StrategyKind kind : kAllStrategies) {
      auto plan = MakeStrategy(kind)->Parallelize(*query, kProcs,
                                                  TotalCostModel());
      MJOIN_CHECK(plan.ok()) << plan.status();
      auto run = executor.Execute(*plan, SimExecOptions());
      MJOIN_CHECK(run.ok()) << run.status();
      MJOIN_CHECK(run->result == *reference);
      row.push_back(FormatDouble(run->seconds, 1));
      if (run->seconds < best) {
        best = run->seconds;
        winner = StrategyName(kind);
      }
    }
    row.push_back(winner);
    table.AddRow(std::move(row));
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected: SP's cost grows fastest (startup and refragmentation "
      "per join); the\ninter-operator strategies absorb extra joins far "
      "more gracefully, and FP's edge\nwidens with query complexity — the "
      "paper's motivation for strategies beyond SP.\n");
  return 0;
}
