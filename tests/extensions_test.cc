#include <gtest/gtest.h>

#include <map>

#include "engine/database.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "plan/catalog.h"
#include "plan/wisconsin_query.h"
#include "storage/wisconsin.h"
#include "storage/zipf.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

// --- ZipfGenerator -----------------------------------------------------------

TEST(ZipfTest, ThetaZeroIsRoughlyUniform) {
  ZipfGenerator zipf(100, 0.0);
  Random rng(1);
  std::map<uint32_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next(&rng)];
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 700);
    EXPECT_LT(count, 1300);
  }
  EXPECT_NEAR(zipf.TopProbability(), 0.01, 0.001);
}

TEST(ZipfTest, HigherThetaConcentratesMass) {
  ZipfGenerator mild(1000, 0.5), strong(1000, 1.2);
  EXPECT_LT(mild.TopProbability(), strong.TopProbability());
  Random rng(2);
  int mild_zero = 0, strong_zero = 0;
  Random rng2(2);
  for (int i = 0; i < 20000; ++i) {
    mild_zero += mild.Next(&rng) == 0 ? 1 : 0;
    strong_zero += strong.Next(&rng2) == 0 ? 1 : 0;
  }
  EXPECT_LT(mild_zero, strong_zero);
}

TEST(ZipfTest, SamplesWithinRange) {
  ZipfGenerator zipf(17, 1.0);
  Random rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(&rng), 17u);
}

TEST(ZipfTest, SkewedWisconsinKeepsDerivedAttributes) {
  Relation rel = GenerateSkewedWisconsin(2000, 9, 1.0);
  EXPECT_EQ(rel.num_tuples(), 2000u);
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    TupleRef t = rel.tuple(i);
    EXPECT_EQ(t.GetInt32(kTwo), t.GetInt32(kUnique1) % 2);
    EXPECT_EQ(t.GetString(kStringU1),
              WisconsinString(t.GetInt32(kUnique1)));
  }
}

// --- Catalog / column stats -----------------------------------------------------

TEST(CatalogTest, StatsOnPermutationColumn) {
  Relation rel = GenerateWisconsin(1000, 11);
  auto stats = ComputeColumnStats(rel, kUnique1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_tuples, 1000u);
  EXPECT_EQ(stats->distinct, 1000u);
  EXPECT_EQ(stats->min, 0);
  EXPECT_EQ(stats->max, 999);
  EXPECT_EQ(stats->top_frequency, 1u);
  EXPECT_DOUBLE_EQ(stats->PartitioningSkewLowerBound(10), 0.0);
}

TEST(CatalogTest, StatsDetectSkew) {
  Relation skewed = GenerateSkewedWisconsin(10000, 13, 1.0);
  auto stats = ComputeColumnStats(skewed, kUnique1);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->distinct, 10000u);
  EXPECT_GT(stats->top_frequency, 100u);
  EXPECT_GT(stats->PartitioningSkewLowerBound(40), 1.0);
}

TEST(CatalogTest, EstimateEquiJoin) {
  Catalog catalog;
  Relation a = GenerateWisconsin(1000, 1);
  Relation b = GenerateWisconsin(1000, 2);
  ASSERT_TRUE(catalog.Analyze("a", a, kUnique1).ok());
  ASSERT_TRUE(catalog.Analyze("b", b, kUnique1).ok());
  auto estimate = catalog.EstimateEquiJoin("a", kUnique1, "b", kUnique1);
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 1000.0);  // key-key join
  EXPECT_FALSE(catalog.Get("missing", 0).ok());
}

TEST(CatalogTest, RejectsStringColumns) {
  Relation rel = GenerateWisconsin(10, 1);
  EXPECT_FALSE(ComputeColumnStats(rel, kStringU1).ok());
}

// --- Skewed execution stays correct -----------------------------------------------

TEST(SkewTest, AllStrategiesCorrectUnderSkew) {
  constexpr int kRelations = 5;
  constexpr uint32_t kCardinality = 600;
  Database db = MakeSkewedDatabase(kRelations, kCardinality, /*seed=*/21,
                                   /*theta=*/1.0);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, kRelations,
                                       kCardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, db);
  ASSERT_TRUE(reference.ok());
  // Unlike the regular workload, duplicate keys change intermediate
  // cardinalities; the reference defines the truth.
  EXPECT_GT(reference->cardinality, 0u);
  EXPECT_LE(reference->cardinality, kCardinality);

  SimExecutor executor(&db);
  for (StrategyKind kind : kAllStrategies) {
    auto plan = MakeStrategy(kind)->Parallelize(*query, 8, TotalCostModel());
    ASSERT_TRUE(plan.ok());
    auto run = executor.Execute(*plan, SimExecOptions());
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->result, *reference) << StrategyName(kind);
  }
}

TEST(SkewTest, SkewSlowsExecutionDespiteLessTotalWork) {
  constexpr int kRelations = 6;
  constexpr uint32_t kCardinality = 3000;
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, kRelations,
                                       kCardinality);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 16, TotalCostModel());
  ASSERT_TRUE(plan.ok());

  Database uniform = MakeSkewedDatabase(kRelations, kCardinality, 23, 0.0);
  Database skewed = MakeSkewedDatabase(kRelations, kCardinality, 23, 1.0);
  SimExecutor uniform_exec(&uniform);
  SimExecutor skewed_exec(&skewed);
  auto fast = uniform_exec.Execute(*plan, SimExecOptions());
  auto slow = skewed_exec.Execute(*plan, SimExecOptions());
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_GT(slow->elapsed, fast->elapsed);
}

// --- Memory-pressure simulation ----------------------------------------------------

TEST(MemoryPressureTest, TightBudgetSlowsMemoryHungryStrategies) {
  constexpr int kRelations = 5;
  constexpr uint32_t kCardinality = 2000;
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, 25);
  auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear, kRelations,
                                       kCardinality);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, 8, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  SimExecutor executor(&db);

  SimExecOptions roomy;
  SimExecOptions tight;
  tight.costs.memory_per_node_bytes = 64 * 1024;
  auto fast = executor.Execute(*plan, roomy);
  auto slow = executor.Execute(*plan, tight);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_GT(slow->elapsed, fast->elapsed);
  // Identical results regardless of the budget.
  EXPECT_EQ(slow->result, fast->result);
}

TEST(MemoryPressureTest, SpIsInsensitiveToModestBudgets) {
  // SP holds one build table per node at a time; a budget that fits one
  // table should not slow it down.
  constexpr uint32_t kCardinality = 2000;
  Database db = MakeWisconsinDatabase(4, kCardinality, 27);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 4,
                                       kCardinality);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 8, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  SimExecutor executor(&db);
  SimExecOptions roomy;
  SimExecOptions one_table;
  // One build table per node is ~ card/P tuples of 208B plus hash slots.
  one_table.costs.memory_per_node_bytes = 1024 * 1024;
  auto a = executor.Execute(*plan, roomy);
  auto b = executor.Execute(*plan, one_table);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->elapsed, b->elapsed);
}

}  // namespace
}  // namespace mjoin
