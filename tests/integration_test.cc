#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

struct Case {
  StrategyKind strategy;
  QueryShape shape;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  std::string shape = ShapeName(info.param.shape);
  for (char& c : shape) {
    if (c == ' ') c = '_';
  }
  return StrategyName(info.param.strategy) + "_" + shape;
}

/// End-to-end: every strategy on every query shape must produce exactly
/// the multiset of tuples the single-threaded reference executor produces.
class StrategyShapeTest : public testing::TestWithParam<Case> {};

TEST_P(StrategyShapeTest, MatchesReferenceResult) {
  constexpr int kRelations = 6;
  constexpr uint32_t kCardinality = 200;
  constexpr uint32_t kProcessors = 12;

  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/42);
  auto query_or = MakeWisconsinChainQuery(GetParam().shape, kRelations,
                                          kCardinality);
  ASSERT_TRUE(query_or.ok()) << query_or.status();
  const JoinQuery& query = *query_or;

  auto reference_or = ReferenceSummary(query, db);
  ASSERT_TRUE(reference_or.ok()) << reference_or.status();
  // The 1:1 chain query keeps result size == operand size, on every shape.
  EXPECT_EQ(reference_or->cardinality, kCardinality);

  auto strategy = MakeStrategy(GetParam().strategy);
  auto plan_or =
      strategy->Parallelize(query, kProcessors, TotalCostModel());
  ASSERT_TRUE(plan_or.ok()) << plan_or.status();
  ASSERT_TRUE(plan_or->Validate().ok()) << plan_or->Validate();

  SimExecutor executor(&db);
  SimExecOptions options;
  auto result_or = executor.Execute(*plan_or, options);
  ASSERT_TRUE(result_or.ok()) << result_or.status();

  EXPECT_EQ(result_or->result.cardinality, reference_or->cardinality);
  EXPECT_EQ(result_or->result.checksum, reference_or->checksum)
      << "strategy produced a different tuple multiset than the reference";
  EXPECT_GT(result_or->elapsed, 0);
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (StrategyKind strategy : kAllStrategies) {
    for (QueryShape shape : kAllShapes) {
      cases.push_back({strategy, shape});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStrategiesAllShapes, StrategyShapeTest,
                         testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace mjoin
