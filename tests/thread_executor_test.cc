#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/reference.h"
#include "engine/thread_executor.h"
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

/// The threaded backend must produce reference-identical results for every
/// strategy on every shape — with real threads and real queues.
class ThreadBackendTest : public testing::TestWithParam<Case> {};

TEST_P(ThreadBackendTest, MatchesReference) {
  constexpr int kRelations = 5;
  constexpr uint32_t kCardinality = 400;
  constexpr uint32_t kProcessors = 8;

  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/7);
  auto query = MakeWisconsinChainQuery(GetParam().shape, kRelations,
                                       kCardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, db);
  ASSERT_TRUE(reference.ok());

  auto plan = MakeStrategy(GetParam().strategy)
                  ->Parallelize(*query, kProcessors, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();

  ThreadExecutor executor(&db);
  ThreadExecOptions options;
  options.batch_size = 64;
  auto run = executor.Execute(*plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->result.cardinality, reference->cardinality);
  EXPECT_EQ(run->result.checksum, reference->checksum);
  EXPECT_GT(run->seconds, 0.0);
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

INSTANTIATE_TEST_SUITE_P(AllStrategiesAllShapes, ThreadBackendTest,
                         testing::ValuesIn(AllCases()), CaseName);

TEST(ThreadBackendTest, MaterializesResult) {
  Database db = MakeWisconsinDatabase(3, 200, 9);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 3, 200);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  ThreadExecutor executor(&db);
  ThreadExecOptions options;
  options.materialize_result = true;
  auto run = executor.Execute(*plan, options);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->materialized.has_value());
  EXPECT_EQ(run->materialized->num_tuples(), 200u);
}

TEST(ThreadBackendTest, RepeatedRunsAgree) {
  // Thread scheduling varies between runs; the result multiset must not.
  Database db = MakeWisconsinDatabase(4, 300, 41);
  auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, 4, 300);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, 6, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  ThreadExecutor executor(&db);
  ThreadExecOptions options;
  options.batch_size = 16;  // more interleaving
  auto first = executor.Execute(*plan, options);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 4; ++i) {
    auto again = executor.Execute(*plan, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->result, first->result);
  }
}

}  // namespace
}  // namespace mjoin
