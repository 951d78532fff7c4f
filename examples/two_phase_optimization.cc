// Two-phase optimization end-to-end (§1.2 of the paper): phase 1 finds the
// join tree with minimal total cost (dynamic programming over the query
// graph, System-R-style linear mode or full bushy mode); phase 2
// parallelizes that tree with each of the four strategies and the best
// parallelization is picked by simulated execution.
//
//   $ ./two_phase_optimization
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/sim_executor.h"
#include "opt/optimizer.h"
#include "plan/query.h"
#include "plan/wisconsin_query.h"
#include "storage/wisconsin.h"
#include "strategy/strategy.h"

using namespace mjoin;

namespace {

// Binds the paper's chain-query semantics (join on column 0, project back
// to a Wisconsin tuple) to an arbitrary optimizer-produced tree over the
// Wisconsin relations.
JoinQuery BindWisconsinSemantics(JoinTree tree) {
  auto templ = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 2, 100);
  MJOIN_CHECK(templ.ok());
  JoinQuery query;
  query.tree = std::move(tree);
  auto wisconsin = std::make_shared<const Schema>(WisconsinSchema());
  for (int id : query.tree.PostOrder()) {
    const JoinTreeNode& node = query.tree.node(id);
    if (node.is_leaf()) query.base_schemas[node.relation] = wisconsin;
  }
  query.join_spec_factory = templ->join_spec_factory;
  return query;
}

}  // namespace

int main() {
  constexpr int kRelations = 10;
  constexpr uint32_t kCardinality = 5000;
  constexpr uint32_t kProcessors = 48;

  // Phase 1: optimize the regular 10-relation chain query.
  JoinGraph graph = JoinGraph::RegularChain(kRelations, kCardinality);
  TotalCostModel cost_model;

  OptimizerOptions bushy_options;
  auto bushy = OptimizeJoinOrder(graph, cost_model, bushy_options);
  OptimizerOptions linear_options;
  linear_options.linear_only = true;
  auto linear = OptimizeJoinOrder(graph, cost_model, linear_options);
  if (!bushy.ok() || !linear.ok()) {
    std::fprintf(stderr, "phase 1 failed\n");
    return 1;
  }
  std::printf(
      "phase 1 (min total cost): bushy search cost=%.0f depth=%d, "
      "System-R linear search cost=%.0f depth=%d\n",
      cost_model.TotalCost(*bushy), bushy->JoinDepth(),
      cost_model.TotalCost(*linear), linear->JoinDepth());
  std::printf(
      "(the regular query makes all trees equally expensive in total cost "
      "— the paper's point:\n phase 1 cannot distinguish them, but phase 2 "
      "parallelization can.)\n\n");
  std::printf("chosen tree (bushy search):\n%s\n",
              bushy->ToString().c_str());

  // Phase 2: try all four strategies on both phase-1 answers.
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/4);
  SimExecutor executor(&db);
  TablePrinter table(
      {"phase-1 tree", "SP [s]", "SE [s]", "RD [s]", "FP [s]", "best"});
  struct Row {
    const char* name;
    const JoinTree* tree;
  };
  for (const Row& row : {Row{"bushy search", &*bushy},
                         Row{"linear-only search", &*linear}}) {
    JoinQuery query = BindWisconsinSemantics(*row.tree);
    std::vector<std::string> cells = {row.name};
    double best = 1e100;
    std::string best_name = "-";
    for (StrategyKind kind : kAllStrategies) {
      auto plan = MakeStrategy(kind)->Parallelize(query, kProcessors,
                                                  cost_model);
      if (!plan.ok()) {
        cells.push_back("-");
        continue;
      }
      auto run = executor.Execute(*plan, SimExecOptions());
      if (!run.ok()) {
        std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
        return 1;
      }
      cells.push_back(FormatDouble(run->seconds, 2));
      if (run->seconds < best) {
        best = run->seconds;
        best_name = StrategyName(kind);
      }
    }
    cells.push_back(best_name);
    table.AddRow(std::move(cells));
  }
  std::printf("phase 2 at P=%u:\n%s", kProcessors, table.ToString().c_str());
  std::printf(
      "\nGuideline reproduced: when a bushy and a linear tree cost the "
      "same, pick the bushy\none — it parallelizes better (§5).\n");
  return 0;
}
