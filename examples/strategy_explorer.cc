// Strategy explorer: run all four parallelization strategies on a chosen
// query shape / problem size / machine size, print the paper-style
// comparison plus a utilization diagram of the winner.
//
//   $ ./strategy_explorer [shape] [tuples_per_relation] [processors]
//     shape: left-linear | left-bushy | wide-bushy | right-bushy |
//            right-linear          (default wide-bushy)
//     tuples_per_relation: default 5000
//     processors: default 40
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

namespace {

bool ParseShape(const char* text, QueryShape* shape) {
  struct Entry {
    const char* name;
    QueryShape shape;
  };
  static const Entry kEntries[] = {
      {"left-linear", QueryShape::kLeftLinear},
      {"left-bushy", QueryShape::kLeftOrientedBushy},
      {"wide-bushy", QueryShape::kWideBushy},
      {"right-bushy", QueryShape::kRightOrientedBushy},
      {"right-linear", QueryShape::kRightLinear},
  };
  for (const Entry& e : kEntries) {
    if (std::strcmp(text, e.name) == 0) {
      *shape = e.shape;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  QueryShape shape = QueryShape::kWideBushy;
  uint32_t cardinality = 5000;
  uint32_t processors = 40;
  if (argc > 1 && !ParseShape(argv[1], &shape)) {
    std::fprintf(stderr,
                 "unknown shape '%s' (try left-linear, left-bushy, "
                 "wide-bushy, right-bushy, right-linear)\n",
                 argv[1]);
    return 2;
  }
  if (argc > 2) cardinality = static_cast<uint32_t>(std::atoi(argv[2]));
  if (argc > 3) processors = static_cast<uint32_t>(std::atoi(argv[3]));

  constexpr int kRelations = 10;
  std::printf("shape=%s  tuples/relation=%u  processors=%u\n\n",
              ShapeName(shape).c_str(), cardinality, processors);

  Database db = MakeWisconsinDatabase(kRelations, cardinality, /*seed=*/1995);
  auto query = MakeWisconsinChainQuery(shape, kRelations, cardinality);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  auto reference = ReferenceSummary(*query, db);
  if (!reference.ok()) {
    std::fprintf(stderr, "%s\n", reference.status().ToString().c_str());
    return 1;
  }

  SimExecutor executor(&db);
  TablePrinter table({"strategy", "response [s]", "processes", "streams",
                      "utilization", "verified"});
  StrategyKind best_kind = StrategyKind::kSP;
  double best_seconds = 1e100;
  std::string best_diagram;

  for (StrategyKind kind : kAllStrategies) {
    auto plan = MakeStrategy(kind)->Parallelize(*query, processors,
                                                TotalCostModel());
    if (!plan.ok()) {
      table.AddRow({StrategyName(kind), "-", "-", "-", "-",
                    plan.status().ToString()});
      continue;
    }
    SimExecOptions options;
    options.record_trace = true;
    options.trace_width = 64;
    auto run = executor.Execute(*plan, options);
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", StrategyName(kind).c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    bool verified = run->result == *reference;
    table.AddRow({StrategyName(kind), FormatDouble(run->seconds, 2),
                  StrCat(run->machine.processes_started),
                  StrCat(run->machine.streams_opened),
                  StrCat(FormatDouble(run->utilization * 100, 0), "%"),
                  verified ? "yes" : "NO!"});
    if (run->seconds < best_seconds) {
      best_seconds = run->seconds;
      best_kind = kind;
      best_diagram = run->utilization_diagram;
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("winner: %s (%.2f s). Utilization diagram (rows = %u workers "
              "+ scheduler + broker):\n%s",
              StrategyName(best_kind).c_str(), best_seconds, processors,
              best_diagram.c_str());
  return 0;
}
