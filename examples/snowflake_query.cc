// General (non-benchmark) queries end-to-end: a randomly generated
// snowflake schema — a hub relation with foreign-key chains hanging off it
// — is optimized (phase 1), parallelized with all four strategies
// (phase 2), executed on the simulated machine, and verified against the
// reference executor. This demonstrates the engine is not hardwired to
// the paper's regular Wisconsin chain.
//
//   $ ./snowflake_query [num_relations] [base_cardinality] [seed]
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "opt/general_query.h"
#include "opt/optimizer.h"
#include "strategy/strategy.h"

using namespace mjoin;

int main(int argc, char** argv) {
  int num_relations = argc > 1 ? std::atoi(argv[1]) : 9;
  uint32_t base_cardinality =
      argc > 2 ? static_cast<uint32_t>(std::atoi(argv[2])) : 4000;
  uint64_t seed = argc > 3 ? static_cast<uint64_t>(std::atoll(argv[3])) : 7;
  constexpr uint32_t kProcessors = 32;

  auto instance =
      MakeRandomSnowflakeQuery(num_relations, base_cardinality, seed);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n", instance.status().ToString().c_str());
    return 1;
  }
  GeneralQuerySpec spec = instance->spec;

  Database db;
  for (size_t i = 0; i < instance->data.size(); ++i) {
    MJOIN_CHECK_OK(
        db.Add(spec.relations()[i].name, std::move(instance->data[i])));
  }
  std::printf("snowflake query: %d relations, %s of data, %zu fk-pk "
              "predicates, seed %llu\n",
              num_relations, FormatBytes(db.TotalBytes()).c_str(),
              spec.predicates().size(),
              static_cast<unsigned long long>(seed));
  for (const GeneralRelation& rel : spec.relations()) {
    std::printf("  %-4s %6u tuples  %s\n", rel.name.c_str(), rel.cardinality,
                rel.schema->ToString().c_str());
  }

  // Phase 1: minimal-total-cost join tree over the fk-pk graph.
  TotalCostModel cost_model;
  auto tree = OptimizeJoinOrder(spec.ToJoinGraph(), cost_model);
  if (!tree.ok()) {
    std::fprintf(stderr, "%s\n", tree.status().ToString().c_str());
    return 1;
  }
  std::printf("\nphase-1 tree (estimated cost %.0f):\n%s",
              cost_model.TotalCost(*tree), tree->ToString().c_str());

  auto query = spec.BindTree(*tree);
  MJOIN_CHECK(query.ok()) << query.status();
  auto reference = ReferenceSummary(*query, db);
  MJOIN_CHECK(reference.ok()) << reference.status();
  std::printf("\nactual result: %llu tuples\n\n",
              static_cast<unsigned long long>(reference->cardinality));

  // Phase 2.
  SimExecutor executor(&db);
  TablePrinter table({"strategy", "response [s]", "verified"});
  for (StrategyKind kind : kAllStrategies) {
    auto plan = MakeStrategy(kind)->Parallelize(*query, kProcessors,
                                                cost_model);
    if (!plan.ok()) {
      table.AddRow({StrategyName(kind), "-", plan.status().ToString()});
      continue;
    }
    auto run = executor.Execute(*plan, SimExecOptions());
    MJOIN_CHECK(run.ok()) << run.status();
    table.AddRow({StrategyName(kind), FormatDouble(run->seconds, 2),
                  run->result == *reference ? "yes" : "NO!"});
  }
  std::printf("phase 2 at P=%u:\n%s", kProcessors,
              table.ToString().c_str());
  return 0;
}
