#include <gtest/gtest.h>

#include "engine/mjoin_engine.h"
#include "plan/wisconsin_query.h"
#include "xra/text.h"

namespace mjoin {
namespace {

// Every backend verifies the query and, with analyze set, reports the
// same EXPLAIN ANALYZE table.
TEST(MultiJoinEngineTest, ExecutesVerifiedQueryOnEveryBackend) {
  MultiJoinEngine engine(MakeWisconsinDatabase(5, 400, /*seed=*/73));
  auto query = MakeWisconsinChainQuery(QueryShape::kRightOrientedBushy, 5,
                                       400);
  ASSERT_TRUE(query.ok());

  EngineQueryOptions options;
  options.strategy = StrategyKind::kRD;
  options.processors = 8;
  options.analyze = true;
  for (Backend backend :
       {Backend::kSimulated, Backend::kThreaded, Backend::kProcess}) {
    options.backend = backend;
    auto run = engine.ExecuteQuery(*query, options);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(run->verified);
    EXPECT_EQ(run->result.cardinality, 400u);
    EXPECT_GT(run->seconds, 0);
    EXPECT_NE(run->analyze_report.find("rows in"), std::string::npos);
    EXPECT_NE(run->analyze_report.find("busy [s]"), std::string::npos);
  }
}

TEST(MultiJoinEngineTest, PlanTextIsReplayable) {
  MultiJoinEngine engine(MakeWisconsinDatabase(4, 200, /*seed=*/79));
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 4, 200);
  ASSERT_TRUE(query.ok());
  EngineQueryOptions options;
  options.strategy = StrategyKind::kSP;
  options.processors = 4;
  auto outcome = engine.ExecuteQuery(*query, options);
  ASSERT_TRUE(outcome.ok());
  auto plan = ParsePlan(outcome->plan_text);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(plan->Validate().ok());
}

TEST(MultiJoinEngineTest, ExecuteGraphRunsBothPhases) {
  auto instance = MakeRandomSnowflakeQuery(6, 150, /*seed=*/83);
  ASSERT_TRUE(instance.ok());
  Database db;
  for (size_t i = 0; i < instance->data.size(); ++i) {
    ASSERT_TRUE(db.Add(instance->spec.relations()[i].name,
                       std::move(instance->data[i]))
                    .ok());
  }
  MultiJoinEngine engine(std::move(db));
  EngineQueryOptions options;
  options.strategy = StrategyKind::kFP;
  options.processors = 10;
  auto outcome = engine.ExecuteGraph(instance->spec, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->verified);
}

TEST(MultiJoinEngineTest, SurfacesUnplaceableStrategies) {
  MultiJoinEngine engine(MakeWisconsinDatabase(6, 100, /*seed=*/89));
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 6, 100);
  ASSERT_TRUE(query.ok());
  EngineQueryOptions options;
  options.strategy = StrategyKind::kFP;
  options.processors = 3;  // < 5 joins
  EXPECT_EQ(engine.ExecuteQuery(*query, options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mjoin
