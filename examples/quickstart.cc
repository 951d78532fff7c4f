// Quickstart: generate the paper's Wisconsin test data, build a multi-join
// query, parallelize it with the Full Parallel strategy, and execute it on
// the simulated shared-nothing machine.
//
//   $ ./quickstart
#include <cstdio>

#include "engine/database.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

int main() {
  // 1. A database of six Wisconsin relations, 10,000 tuples each.
  constexpr int kRelations = 6;
  constexpr uint32_t kCardinality = 10000;
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/1);
  std::printf("database: %d relations x %u tuples (208 bytes/tuple)\n",
              kRelations, kCardinality);

  // 2. The multi-join query: a wide bushy tree over the six relations
  //    (phase 1 of two-phase optimization would pick the tree; here we
  //    pick the shape directly).
  auto query =
      MakeWisconsinChainQuery(QueryShape::kWideBushy, kRelations, kCardinality);
  if (!query.ok()) {
    std::fprintf(stderr, "query: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("\njoin tree:\n%s", query->tree.ToString().c_str());

  // 3. Phase 2: parallelize with Full Parallel over 16 processors.
  auto strategy = MakeStrategy(StrategyKind::kFP);
  auto plan = strategy->Parallelize(*query, /*num_processors=*/16,
                                    TotalCostModel());
  if (!plan.ok()) {
    std::fprintf(stderr, "parallelize: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("\nparallel plan:\n%s", plan->ToString().c_str());

  // 4. Execute on the simulated machine and inspect the result.
  SimExecutor executor(&db);
  SimExecOptions options;
  options.record_trace = true;
  auto run = executor.Execute(*plan, options);
  if (!run.ok()) {
    std::fprintf(stderr, "execute: %s\n", run.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nresult: %llu tuples (checksum %016llx)\n"
      "simulated response time: %.2f s  (%lld ticks, utilization %.0f%%)\n",
      static_cast<unsigned long long>(run->result.cardinality),
      static_cast<unsigned long long>(run->result.checksum),
      run->seconds, static_cast<long long>(run->elapsed),
      run->utilization * 100);
  std::printf("\nprocessor utilization:\n%s",
              run->utilization_diagram.c_str());
  return 0;
}
