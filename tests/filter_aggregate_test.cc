#include <gtest/gtest.h>

#include <map>

#include "exec/aggregate.h"
#include "exec/filter.h"
#include "storage/wisconsin.h"
#include "recording_context.h"

namespace mjoin {
namespace {

std::shared_ptr<const Schema> Wisc() {
  return std::make_shared<const Schema>(WisconsinSchema());
}

TupleBatch ToBatch(const Relation& rel) {
  TupleBatch batch(std::make_shared<const Schema>(rel.schema()));
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    batch.AppendRow(rel.tuple(i).data());
  }
  return batch;
}

// --- Int64 columns ------------------------------------------------------------

TEST(Int64ColumnTest, LayoutAndRoundTrip) {
  Schema schema({Column::Int32("a"), Column::Int64("b")});
  EXPECT_EQ(schema.tuple_size(), 12u);
  std::vector<std::byte> row(schema.tuple_size());
  TupleWriter w(row.data(), &schema);
  w.SetInt32(0, 7);
  w.SetInt64(1, 123456789012345LL);
  TupleRef t(row.data(), &schema);
  EXPECT_EQ(t.GetInt64(1), 123456789012345LL);
  EXPECT_NE(schema.ToString().find("b:i64"), std::string::npos);
  EXPECT_EQ(t.ToString(), "(7, 123456789012345)");
}

// --- FilterPredicate ------------------------------------------------------------

TEST(FilterPredicateTest, AllOperators) {
  auto matches = [](CompareOp op, int32_t candidate, int32_t value,
                    int32_t value2 = 0) {
    return FilterPredicate{0, op, value, value2}.Matches(candidate);
  };
  EXPECT_TRUE(matches(CompareOp::kEq, 5, 5));
  EXPECT_FALSE(matches(CompareOp::kEq, 5, 6));
  EXPECT_TRUE(matches(CompareOp::kNe, 5, 6));
  EXPECT_TRUE(matches(CompareOp::kLt, 4, 5));
  EXPECT_FALSE(matches(CompareOp::kLt, 5, 5));
  EXPECT_TRUE(matches(CompareOp::kLe, 5, 5));
  EXPECT_TRUE(matches(CompareOp::kGt, 6, 5));
  EXPECT_TRUE(matches(CompareOp::kGe, 5, 5));
  EXPECT_TRUE(matches(CompareOp::kBetween, 5, 3, 7));
  EXPECT_FALSE(matches(CompareOp::kBetween, 8, 3, 7));
}

TEST(FilterPredicateTest, ToStringReadable) {
  FilterPredicate pred{kOnePercent, CompareOp::kLt, 25, 0};
  EXPECT_EQ(pred.ToString(WisconsinSchema()), "onePercent < 25");
  FilterPredicate between{kTen, CompareOp::kBetween, 2, 5};
  EXPECT_EQ(between.ToString(WisconsinSchema()), "ten between 2 and 5");
}

// --- FilterOp -------------------------------------------------------------------

TEST(FilterOpTest, PassesExactlyMatchingTuples) {
  Relation rel = GenerateWisconsin(1000, 3);
  auto filter = FilterOp::Make(
      Wisc(), FilterPredicate{kFiftyPercent, CompareOp::kEq, 1, 0});
  ASSERT_TRUE(filter.ok());
  RecordingContext ctx((*filter)->output_schema());
  (*filter)->Consume(0, ToBatch(rel), &ctx);
  (*filter)->InputDone(0, &ctx);
  EXPECT_TRUE((*filter)->finished());
  EXPECT_EQ(ctx.out.num_tuples(), 500u);  // unique1 % 2 == 1
  for (size_t i = 0; i < ctx.out.num_tuples(); ++i) {
    EXPECT_EQ(ctx.out.tuple(i).GetInt32(kFiftyPercent), 1);
  }
  EXPECT_EQ((*filter)->tuples_in(), 1000u);
  EXPECT_EQ((*filter)->tuples_out(), 500u);
}

TEST(FilterOpTest, RejectsBadPredicates) {
  EXPECT_FALSE(
      FilterOp::Make(Wisc(), FilterPredicate{99, CompareOp::kEq, 0, 0}).ok());
  EXPECT_FALSE(
      FilterOp::Make(Wisc(),
                     FilterPredicate{kStringU1, CompareOp::kEq, 0, 0})
          .ok());
  EXPECT_FALSE(
      FilterOp::Make(Wisc(),
                     FilterPredicate{kTen, CompareOp::kBetween, 9, 2})
          .ok());
}

// --- AggregateOp -----------------------------------------------------------------

TEST(AggregateOpTest, CountsSumsMinMaxPerGroup) {
  Relation rel = GenerateWisconsin(1000, 5);
  auto aggregate = AggregateOp::Make(Wisc(), kTen, kUnique1);
  ASSERT_TRUE(aggregate.ok());
  RecordingContext ctx((*aggregate)->output_schema());
  (*aggregate)->Consume(0, ToBatch(rel), &ctx);
  EXPECT_EQ(ctx.out.num_tuples(), 0u);  // pipeline breaker: nothing yet
  (*aggregate)->InputDone(0, &ctx);
  EXPECT_TRUE((*aggregate)->finished());
  ASSERT_EQ(ctx.out.num_tuples(), 10u);

  // unique1 covers 0..999 exactly once, so group g (unique1 % 10) has the
  // 100 members g, g+10, ..., g+990: sum = 100*g + 10*(0+1+...+99)*10
  // = 100*g + 49500, min = g, max = 990+g.
  for (size_t i = 0; i < 10; ++i) {
    TupleRef t = ctx.out.tuple(i);
    int32_t g = t.GetInt32(0);
    EXPECT_EQ(t.GetInt64(1), 100);
    EXPECT_EQ(t.GetInt64(2), 100LL * g + 49500LL);
    EXPECT_EQ(t.GetInt32(3), g);
    EXPECT_EQ(t.GetInt32(4), 990 + g);
  }
}

TEST(AggregateOpTest, OutputSchemaNames) {
  auto aggregate = AggregateOp::Make(Wisc(), kTen, kUnique2);
  ASSERT_TRUE(aggregate.ok());
  const Schema& schema = *(*aggregate)->output_schema();
  EXPECT_EQ(schema.column(0).name, "ten");
  EXPECT_EQ(schema.column(1).name, "count");
  EXPECT_EQ(schema.column(2).name, "sum_unique2");
  EXPECT_EQ(schema.column(2).type, ColumnType::kInt64);
}

TEST(AggregateOpTest, MemoryTrackedAndReleased) {
  Relation rel = GenerateWisconsin(500, 7);
  auto aggregate = AggregateOp::Make(Wisc(), kUnique1, kUnique2);
  ASSERT_TRUE(aggregate.ok());
  RecordingContext ctx((*aggregate)->output_schema());
  (*aggregate)->Consume(0, ToBatch(rel), &ctx);
  EXPECT_EQ((*aggregate)->num_groups(), 500u);
  EXPECT_GT((*aggregate)->memory_bytes(), 0u);
  (*aggregate)->ReleaseMemory();
  EXPECT_EQ((*aggregate)->memory_bytes(), 0u);
  EXPECT_GT((*aggregate)->peak_memory_bytes(), 0u);
}

TEST(AggregateOpTest, RejectsNonInt32Columns) {
  EXPECT_FALSE(AggregateOp::Make(Wisc(), kStringU1, kUnique1).ok());
  EXPECT_FALSE(AggregateOp::Make(Wisc(), kTen, 99).ok());
}

TEST(AggregateOpTest, SumsBeyondInt32Range) {
  // 100k tuples of value 100000 -> sum 1e10 > INT32_MAX.
  Schema schema({Column::Int32("g"), Column::Int32("v")});
  auto shared = std::make_shared<const Schema>(schema);
  Relation rel(schema);
  for (int i = 0; i < 100000; ++i) {
    TupleWriter w = rel.AppendTuple();
    w.SetInt32(0, 0);
    w.SetInt32(1, 100000);
  }
  auto aggregate = AggregateOp::Make(shared, 0, 1);
  ASSERT_TRUE(aggregate.ok());
  RecordingContext ctx((*aggregate)->output_schema());
  (*aggregate)->Consume(0, ToBatch(rel), &ctx);
  (*aggregate)->InputDone(0, &ctx);
  ASSERT_EQ(ctx.out.num_tuples(), 1u);
  EXPECT_EQ(ctx.out.tuple(0).GetInt64(2), 10000000000LL);
}

}  // namespace
}  // namespace mjoin
