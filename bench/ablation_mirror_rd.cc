// Ablation for the paper's §5 remark: "it is possible without cost penalty
// to mirror (parts of) a query to make it more right-oriented, so that in
// practice RD is expected to work quite well." We run RD on the
// left-oriented bushy tree as-is and after RightOrient(), and compare with
// RD on the natively right-oriented tree.
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "plan/transform.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

namespace {

double RunRd(const JoinQuery& query, const Database& db, uint32_t procs) {
  auto plan = MakeStrategy(StrategyKind::kRD)
                  ->Parallelize(query, procs, TotalCostModel());
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
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/11);

  auto left = MakeWisconsinChainQuery(QueryShape::kLeftOrientedBushy,
                                      kRelations, kCardinality);
  auto right = MakeWisconsinChainQuery(QueryShape::kRightOrientedBushy,
                                       kRelations, kCardinality);
  MJOIN_CHECK(left.ok() && right.ok());

  // Mirrored variant: the left-oriented tree right-oriented in place.
  auto mirrored = MakeWisconsinChainQuery(QueryShape::kLeftOrientedBushy,
                                          kRelations, kCardinality);
  MJOIN_CHECK(mirrored.ok());
  int swapped = RightOrient(&mirrored->tree);

  std::printf(
      "RD on a left-oriented bushy tree, before/after mirroring "
      "(RightOrient swapped %d joins),\nvs RD on the natively "
      "right-oriented tree. %u tuples/relation.\n\n",
      swapped, kCardinality);

  TablePrinter table({"P", "RD left-oriented [s]", "RD mirrored [s]",
                      "RD right-oriented [s]"});
  for (uint32_t p : {20u, 40u, 60u, 80u}) {
    table.AddRow({StrCat(p), FormatDouble(RunRd(*left, db, p), 1),
                  FormatDouble(RunRd(*mirrored, db, p), 1),
                  FormatDouble(RunRd(*right, db, p), 1)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected: mirroring recovers (most of) the right-oriented "
      "performance at no cost.\n");
  return 0;
}
