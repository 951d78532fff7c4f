// Reproduces the §2.3.1 result ([WFA92]) that motivates the paper's
// tradeoff analysis: speedup of a single-join query saturates, the optimal
// number of processors grows with the operand size (roughly like its
// square root), and beyond it the startup/coordination overhead dominates.
#include <cmath>
#include <cstdio>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

int main() {
  const uint32_t cardinalities[] = {1000, 4000, 16000, 64000};
  const uint32_t processors[] = {1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 80};

  std::printf(
      "Single-join query (2 Wisconsin relations): response time [s] vs "
      "processors.\nOptimal processor count should grow ~ sqrt(operand "
      "size) [WFA92].\n\n");

  std::vector<std::string> headers = {"processors"};
  for (uint32_t card : cardinalities) headers.push_back(StrCat(card, " tup"));
  TablePrinter table(headers);

  std::vector<uint32_t> best_p(std::size(cardinalities), 0);
  std::vector<double> best_s(std::size(cardinalities), 1e100);

  // One row per processor count; sweep sizes in columns.
  std::vector<std::vector<double>> cells(
      std::size(processors), std::vector<double>(std::size(cardinalities)));
  for (size_t ci = 0; ci < std::size(cardinalities); ++ci) {
    uint32_t card = cardinalities[ci];
    Database db = MakeWisconsinDatabase(2, card, /*seed=*/7);
    auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 2, card);
    MJOIN_CHECK(query.ok()) << query.status();
    SimExecutor executor(&db);
    auto strategy = MakeStrategy(StrategyKind::kSP);
    for (size_t pi = 0; pi < std::size(processors); ++pi) {
      auto plan = strategy->Parallelize(*query, processors[pi],
                                        TotalCostModel());
      MJOIN_CHECK(plan.ok()) << plan.status();
      auto run = executor.Execute(*plan, SimExecOptions());
      MJOIN_CHECK(run.ok()) << run.status();
      cells[pi][ci] = run->seconds;
      if (run->seconds < best_s[ci]) {
        best_s[ci] = run->seconds;
        best_p[ci] = processors[pi];
      }
    }
  }
  for (size_t pi = 0; pi < std::size(processors); ++pi) {
    std::vector<std::string> row = {StrCat(processors[pi])};
    for (size_t ci = 0; ci < std::size(cardinalities); ++ci) {
      row.push_back(FormatDouble(cells[pi][ci], 2));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  TablePrinter summary(
      {"operand size", "optimal P", "best [s]", "optimal P / sqrt(size)"});
  for (size_t ci = 0; ci < std::size(cardinalities); ++ci) {
    summary.AddRow({StrCat(cardinalities[ci]), StrCat(best_p[ci]),
                    FormatDouble(best_s[ci], 2),
                    FormatDouble(best_p[ci] /
                                     std::sqrt(double(cardinalities[ci])),
                                 3)});
  }
  std::printf("%s", summary.ToString().c_str());
  std::printf(
      "\nThe last column should stay roughly constant: the optimal degree "
      "of parallelism\nis proportional to the square root of the operand "
      "size.\n");
  return 0;
}
