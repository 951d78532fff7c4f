#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

/// Property sweeps over the execution knobs that must never change the
/// result multiset: batch size, processor count, network latency, problem
/// size, and strategy. Every cell re-executes a query and compares the
/// order-insensitive digest with the reference executor.

// --- batch size ---------------------------------------------------------------

class BatchSizeProperty : public testing::TestWithParam<uint32_t> {};

TEST_P(BatchSizeProperty, ResultIndependentOfBatchSize) {
  constexpr int kRelations = 5;
  constexpr uint32_t kCardinality = 500;
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, 101);
  auto query = MakeWisconsinChainQuery(QueryShape::kRightOrientedBushy,
                                       kRelations, kCardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, db);
  ASSERT_TRUE(reference.ok());

  SimExecutor executor(&db);
  for (StrategyKind kind : {StrategyKind::kFP, StrategyKind::kRD}) {
    auto plan = MakeStrategy(kind)->Parallelize(*query, 8, TotalCostModel());
    ASSERT_TRUE(plan.ok());
    SimExecOptions options;
    options.costs.batch_size = GetParam();
    auto run = executor.Execute(*plan, options);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->result, *reference)
        << StrategyName(kind) << " batch=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchSizeProperty,
                         testing::Values(1u, 3u, 16u, 64u, 1000u));

// --- processor count -------------------------------------------------------------

class ProcessorCountProperty : public testing::TestWithParam<uint32_t> {};

TEST_P(ProcessorCountProperty, EveryStrategyCorrectAtEveryP) {
  constexpr int kRelations = 6;
  constexpr uint32_t kCardinality = 400;
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, 103);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftOrientedBushy,
                                       kRelations, kCardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, db);
  ASSERT_TRUE(reference.ok());

  SimExecutor executor(&db);
  for (StrategyKind kind : kAllStrategies) {
    auto plan = MakeStrategy(kind)->Parallelize(*query, GetParam(),
                                                TotalCostModel());
    if (!plan.ok()) continue;  // FP needs P >= #joins
    auto run = executor.Execute(*plan, SimExecOptions());
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->result, *reference)
        << StrategyName(kind) << " P=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Processors, ProcessorCountProperty,
                         testing::Values(1u, 2u, 5u, 7u, 13u, 32u, 61u));

// --- network latency & overhead knobs --------------------------------------------

class LatencyProperty : public testing::TestWithParam<Ticks> {};

TEST_P(LatencyProperty, TimingKnobsNeverChangeResults) {
  constexpr int kRelations = 4;
  constexpr uint32_t kCardinality = 300;
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, 107);
  auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, kRelations,
                                       kCardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, db);
  ASSERT_TRUE(reference.ok());
  SimExecutor executor(&db);
  for (StrategyKind kind : kAllStrategies) {
    auto plan = MakeStrategy(kind)->Parallelize(*query, 6, TotalCostModel());
    ASSERT_TRUE(plan.ok());
    SimExecOptions options;
    options.costs.network_latency = GetParam();
    options.costs.trigger_latency = GetParam();
    options.costs.process_startup = GetParam() / 2;
    auto run = executor.Execute(*plan, options);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->result, *reference) << StrategyName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Latencies, LatencyProperty,
                         testing::Values<Ticks>(0, 1, 100, 5000));

// --- problem size ------------------------------------------------------------------

class CardinalityProperty : public testing::TestWithParam<uint32_t> {};

TEST_P(CardinalityProperty, ChainInvariantHoldsAtEverySize) {
  constexpr int kRelations = 7;
  uint32_t cardinality = GetParam();
  Database db = MakeWisconsinDatabase(kRelations, cardinality, 109);
  auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear, kRelations,
                                       cardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, db);
  ASSERT_TRUE(reference.ok());
  // The regular query's defining property.
  EXPECT_EQ(reference->cardinality, cardinality);

  SimExecutor executor(&db);
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, 12, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  auto run = executor.Execute(*plan, SimExecOptions());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->result, *reference);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CardinalityProperty,
                         testing::Values(1u, 2u, 17u, 256u, 2048u));

// --- monotone work law --------------------------------------------------------------

TEST(ScalingProperty, ResponseGrowsWithProblemSize) {
  constexpr int kRelations = 6;
  SimExecutor* executor = nullptr;
  Ticks previous = 0;
  for (uint32_t cardinality : {500u, 2000u, 8000u}) {
    Database db = MakeWisconsinDatabase(kRelations, cardinality, 113);
    auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, kRelations,
                                         cardinality);
    ASSERT_TRUE(query.ok());
    auto plan = MakeStrategy(StrategyKind::kSE)
                    ->Parallelize(*query, 12, TotalCostModel());
    ASSERT_TRUE(plan.ok());
    SimExecutor local(&db);
    executor = &local;
    auto run = executor->Execute(*plan, SimExecOptions());
    ASSERT_TRUE(run.ok());
    EXPECT_GT(run->elapsed, previous);
    previous = run->elapsed;
  }
}

// --- seed sensitivity ---------------------------------------------------------------

TEST(SeedProperty, DifferentSeedsDifferentDataSameCardinality) {
  constexpr int kRelations = 4;
  constexpr uint32_t kCardinality = 200;
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, kRelations,
                                       kCardinality);
  ASSERT_TRUE(query.ok());
  ResultSummary first;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Database db = MakeWisconsinDatabase(kRelations, kCardinality, seed);
    auto reference = ReferenceSummary(*query, db);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(reference->cardinality, kCardinality);
    if (seed == 1u) {
      first = *reference;
    } else {
      EXPECT_NE(reference->checksum, first.checksum);
    }
  }
}

}  // namespace
}  // namespace mjoin
