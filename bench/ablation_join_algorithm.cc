// Baseline comparison behind the paper's §3 premise: "It is generally
// agreed on that the parallel hash-join is the algorithm of choice
// [SCD89]". We run the SP strategy with the simple hash-join vs the
// sort-merge join across problem sizes — the hash join's linear per-tuple
// work beats sort-merge's n·log n, and the gap widens with size.
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/sp.h"

using namespace mjoin;

namespace {

double Run(XraOpKind algorithm, const JoinQuery& query, const Database& db,
           uint32_t procs, const ResultSummary& reference) {
  SequentialParallelStrategy strategy(algorithm);
  auto plan = strategy.Parallelize(query, procs, TotalCostModel());
  MJOIN_CHECK(plan.ok()) << plan.status();
  SimExecutor executor(&db);
  auto run = executor.Execute(*plan, SimExecOptions());
  MJOIN_CHECK(run.ok()) << run.status();
  MJOIN_CHECK(run->result == reference) << "wrong result";
  return run->seconds;
}

}  // namespace

int main() {
  constexpr int kRelations = 10;
  constexpr uint32_t kProcs = 40;

  std::printf(
      "Join-algorithm baseline ([SCD89]): SP with simple hash-join vs "
      "sort-merge join,\nwide bushy tree, P=%u. Both verified against the "
      "reference.\n\n",
      kProcs);

  TablePrinter table({"tuples/relation", "hash join [s]",
                      "sort-merge [s]", "sort-merge/hash"});
  for (uint32_t cardinality : {2000u, 5000u, 10000u, 20000u, 40000u}) {
    Database db = MakeWisconsinDatabase(kRelations, cardinality, /*seed=*/53);
    auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, kRelations,
                                         cardinality);
    MJOIN_CHECK(query.ok());
    auto reference = ReferenceSummary(*query, db);
    MJOIN_CHECK(reference.ok());
    double hash = Run(XraOpKind::kSimpleHashJoin, *query, db, kProcs,
                      *reference);
    double smj = Run(XraOpKind::kSortMergeJoin, *query, db, kProcs,
                     *reference);
    table.AddRow({StrCat(cardinality), FormatDouble(hash, 1),
                  FormatDouble(smj, 1), FormatDouble(smj / hash, 2)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected: hash wins everywhere and the ratio grows with the "
      "problem size\n(n log n vs linear per-tuple work) — the premise for "
      "building all four strategies\non hash-joins.\n");
  return 0;
}
