#include <gtest/gtest.h>

#include <set>

#include "engine/database.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "engine/thread_executor.h"
#include "exec/sort_merge_join.h"
#include "plan/wisconsin_query.h"
#include "strategy/sp.h"
#include "xra/text.h"
#include "recording_context.h"

namespace mjoin {
namespace {

std::shared_ptr<const Schema> KvSchema() {
  return std::make_shared<const Schema>(
      Schema({Column::Int32("k"), Column::Int32("v")}));
}

JoinSpec KvSpec() {
  auto spec = MakeJoinSpec(KvSchema(), KvSchema(), 0, 0,
                           {JoinOutputColumn::Left(0),
                            JoinOutputColumn::Left(1),
                            JoinOutputColumn::Right(1)});
  MJOIN_CHECK(spec.ok());
  return *std::move(spec);
}

TupleBatch Rows(std::vector<std::pair<int32_t, int32_t>> rows) {
  TupleBatch batch(KvSchema());
  for (auto [k, v] : rows) {
    TupleWriter w = batch.AppendTuple();
    w.SetInt32(0, k);
    w.SetInt32(1, v);
  }
  return batch;
}

std::multiset<std::tuple<int32_t, int32_t, int32_t>> Collect(
    const TupleBatch& out) {
  std::multiset<std::tuple<int32_t, int32_t, int32_t>> rows;
  for (size_t i = 0; i < out.num_tuples(); ++i) {
    rows.insert({out.tuple(i).GetInt32(0), out.tuple(i).GetInt32(1),
                 out.tuple(i).GetInt32(2)});
  }
  return rows;
}

TEST(SortMergeJoinTest, JoinsWithDuplicateRuns) {
  SortMergeJoinOp join(KvSpec());
  RecordingContext ctx(join.output_schema());
  join.Consume(0, Rows({{3, 30}, {1, 10}, {2, 20}, {2, 21}}), &ctx);
  join.Consume(1, Rows({{2, 200}, {4, 400}, {2, 201}, {1, 100}}), &ctx);
  // Nothing until both inputs end: a pipeline breaker.
  EXPECT_EQ(ctx.out.num_tuples(), 0u);
  join.InputDone(0, &ctx);
  EXPECT_EQ(ctx.out.num_tuples(), 0u);
  EXPECT_FALSE(join.finished());
  join.InputDone(1, &ctx);
  EXPECT_TRUE(join.finished());
  EXPECT_EQ(Collect(ctx.out),
            (std::multiset<std::tuple<int32_t, int32_t, int32_t>>{
                {1, 10, 100},
                {2, 20, 200},
                {2, 20, 201},
                {2, 21, 200},
                {2, 21, 201}}));
}

TEST(SortMergeJoinTest, EmptySidesAndNoMatches) {
  {
    SortMergeJoinOp join(KvSpec());
    RecordingContext ctx(join.output_schema());
    join.InputDone(0, &ctx);
    join.Consume(1, Rows({{1, 1}}), &ctx);
    join.InputDone(1, &ctx);
    EXPECT_TRUE(join.finished());
    EXPECT_EQ(ctx.out.num_tuples(), 0u);
  }
  {
    SortMergeJoinOp join(KvSpec());
    RecordingContext ctx(join.output_schema());
    join.Consume(0, Rows({{1, 1}, {3, 3}}), &ctx);
    join.Consume(1, Rows({{2, 2}, {4, 4}}), &ctx);
    join.InputDone(0, &ctx);
    join.InputDone(1, &ctx);
    EXPECT_EQ(ctx.out.num_tuples(), 0u);
  }
}

TEST(SortMergeJoinTest, ChargesSortCost) {
  SortMergeJoinOp join(KvSpec());
  RecordingContext ctx(join.output_schema());
  std::vector<std::pair<int32_t, int32_t>> rows;
  for (int32_t i = 0; i < 1024; ++i) rows.push_back({i, i});
  join.Consume(0, Rows(rows), &ctx);
  join.Consume(1, Rows(rows), &ctx);
  Ticks before_merge = ctx.charged;
  join.InputDone(0, &ctx);
  join.InputDone(1, &ctx);
  // Sorting 2x1024 keys at ~n log2 n comparisons dominates the charges.
  EXPECT_GT(ctx.charged - before_merge, 2 * 1024 * 9);
  EXPECT_EQ(ctx.out.num_tuples(), 1024u);
}

TEST(SortMergeJoinTest, MemoryTrackedAndReleased) {
  SortMergeJoinOp join(KvSpec());
  RecordingContext ctx(join.output_schema());
  join.Consume(0, Rows({{1, 1}, {2, 2}}), &ctx);
  EXPECT_GT(join.memory_bytes(), 0u);
  join.InputDone(0, &ctx);
  join.InputDone(1, &ctx);
  join.ReleaseMemory();
  EXPECT_EQ(join.memory_bytes(), 0u);
  EXPECT_GT(join.peak_memory_bytes(), 0u);
}

TEST(SortMergeJoinTest, SpWithSortMergeMatchesReference) {
  constexpr int kRelations = 6;
  constexpr uint32_t kCardinality = 400;
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, 61);
  for (QueryShape shape : kAllShapes) {
    auto query = MakeWisconsinChainQuery(shape, kRelations, kCardinality);
    ASSERT_TRUE(query.ok());
    auto reference = ReferenceSummary(*query, db);
    ASSERT_TRUE(reference.ok());

    SequentialParallelStrategy strategy(XraOpKind::kSortMergeJoin);
    auto plan = strategy.Parallelize(*query, 8, TotalCostModel());
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_TRUE(plan->Validate().ok());

    SimExecutor sim(&db);
    auto run = sim.Execute(*plan, SimExecOptions());
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->result, *reference) << ShapeName(shape);

    ThreadExecutor threads(&db);
    auto wall = threads.Execute(*plan, ThreadExecOptions());
    ASSERT_TRUE(wall.ok()) << wall.status();
    EXPECT_EQ(wall->result, *reference) << ShapeName(shape);
  }
}

TEST(SortMergeJoinTest, TextRoundTripPreservesSortMergePlans) {
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 4, 100);
  ASSERT_TRUE(query.ok());
  SequentialParallelStrategy strategy(XraOpKind::kSortMergeJoin);
  auto plan = strategy.Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  std::string text = SerializePlan(*plan);
  EXPECT_NE(text.find("sort-merge-join"), std::string::npos);
  auto parsed = ParsePlan(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializePlan(*parsed), text);
}

}  // namespace
}  // namespace mjoin
