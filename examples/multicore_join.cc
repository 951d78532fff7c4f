// Multicore execution: run the same parallel plans for real, on OS
// threads, instead of on the simulator. Each virtual processor becomes a
// thread and tuple streams become queues; results are verified against the
// single-threaded reference executor.
//
//   $ ./multicore_join [tuples_per_relation] [processors]
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "engine/thread_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

int main(int argc, char** argv) {
  uint32_t cardinality = argc > 1
                             ? static_cast<uint32_t>(std::atoi(argv[1]))
                             : 20000;
  uint32_t processors =
      argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 10;
  constexpr int kRelations = 8;

  std::printf(
      "threaded backend: %u virtual processors (threads) on %u hardware "
      "cores,\n%d Wisconsin relations x %u tuples\n\n",
      processors, std::thread::hardware_concurrency(), kRelations,
      cardinality);

  Database db = MakeWisconsinDatabase(kRelations, cardinality, /*seed=*/2);
  auto query = MakeWisconsinChainQuery(QueryShape::kRightOrientedBushy,
                                       kRelations, cardinality);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  auto reference = ReferenceSummary(*query, db);
  if (!reference.ok()) {
    std::fprintf(stderr, "%s\n", reference.status().ToString().c_str());
    return 1;
  }

  ThreadExecutor executor(&db);
  TablePrinter table({"strategy", "wall time [s]", "result tuples",
                      "verified"});
  for (StrategyKind kind : kAllStrategies) {
    auto plan = MakeStrategy(kind)->Parallelize(*query, processors,
                                                TotalCostModel());
    if (!plan.ok()) {
      table.AddRow({StrategyName(kind), "-", "-",
                    plan.status().ToString()});
      continue;
    }
    ThreadExecOptions options;
    auto run = executor.Execute(*plan, options);
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", StrategyName(kind).c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    table.AddRow({StrategyName(kind), FormatDouble(run->seconds, 3),
                  StrCat(run->result.cardinality),
                  run->result == *reference ? "yes" : "NO!"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nNote: wall-clock differences between strategies only appear with "
      "enough hardware\ncores; on a small machine this mainly demonstrates "
      "correctness of the real parallel\nexecution (threads, queues, "
      "repartitioning) for all four strategies.\n");
  return 0;
}
