#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/database.h"
#include "engine/thread_executor.h"
#include "exec/batch.h"
#include "exec/batch_pool.h"
#include "exec/emit.h"
#include "plan/wisconsin_query.h"
#include "storage/partitioner.h"
#include "storage/schema.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

std::shared_ptr<const Schema> KvSchema() {
  return std::make_shared<const Schema>(
      Schema({Column::Int32("k"), Column::Int32("v")}));
}

// --- BatchPool ---------------------------------------------------------------

TEST(BatchPoolTest, ReusesReleasedBuffers) {
  BatchPool pool;
  auto schema = KvSchema();
  {
    std::shared_ptr<TupleBatch> batch = pool.Acquire(schema);
    TupleWriter w = batch->AppendTuple();
    w.SetInt32(0, 1);
    w.SetInt32(1, 10);
  }  // last reference drops -> buffer returns to the freelist
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.reused(), 0u);

  std::shared_ptr<TupleBatch> again = pool.Acquire(schema);
  EXPECT_EQ(pool.allocated(), 1u);
  EXPECT_EQ(pool.reused(), 1u);
  // Recycled buffers come back empty but keep their capacity.
  EXPECT_EQ(again->num_tuples(), 0u);
  EXPECT_GT(again->capacity_bytes(), 0u);
}

TEST(BatchPoolTest, SharedReferencesReleaseOnce) {
  BatchPool pool;
  auto schema = KvSchema();
  std::shared_ptr<TupleBatch> batch = pool.Acquire(schema);
  std::shared_ptr<TupleBatch> alias = batch;  // duplicated delivery keeps a ref
  batch.reset();
  // The buffer is still live via `alias`: a new acquisition must allocate.
  std::shared_ptr<TupleBatch> other = pool.Acquire(schema);
  EXPECT_EQ(pool.allocated(), 2u);
  EXPECT_EQ(pool.reused(), 0u);
  alias.reset();
  std::shared_ptr<TupleBatch> recycled = pool.Acquire(schema);
  EXPECT_EQ(pool.reused(), 1u);
}

// --- EmitWriter --------------------------------------------------------------

/// Records which destinations reported full, and optionally drains them.
class RecordingSink : public EmitSink {
 public:
  explicit RecordingSink(std::vector<TupleBatch>* dests) : dests_(dests) {}

  void BatchFull(uint32_t dest) override {
    full_calls.push_back(dest);
    if (drain) (*dests_)[dest].Clear();
  }

  std::vector<uint32_t> full_calls;
  bool drain = true;

 private:
  std::vector<TupleBatch>* dests_;
};

TEST(EmitWriterTest, RoutesBySplitColumnAndFlushesAtThreshold) {
  auto schema = KvSchema();
  std::vector<TupleBatch> dests;
  dests.emplace_back(schema);
  dests.emplace_back(schema);
  RecordingSink sink(&dests);
  EmitWriter writer;
  writer.Configure(dests.data(), 2, /*split_column=*/0, /*fixed_dest=*/0,
                   /*flush_threshold=*/2, &sink);
  ASSERT_EQ(writer.split_column(), 0);

  // Six rows, keys 0..5: each key routes to FragmentOf(key, 2), and every
  // destination flushes exactly when its pending batch reaches 2 rows.
  for (int32_t key = 0; key < 6; ++key) {
    TupleWriter row = writer.Begin(key);
    row.SetInt32(0, key);
    row.SetInt32(1, key * 10);
    writer.Commit();
  }
  EXPECT_EQ(writer.rows_committed(), 6u);
  // 3 rows per fragment at threshold 2: each destination fired once, and
  // one row per destination is still pending.
  ASSERT_EQ(sink.full_calls.size(), 2u);
  EXPECT_NE(sink.full_calls[0], sink.full_calls[1]);
  EXPECT_EQ(dests[0].num_tuples() + dests[1].num_tuples(), 2u);
}

TEST(EmitWriterTest, FixedDestinationBulkAppendFlushesOnce) {
  auto schema = KvSchema();
  std::vector<TupleBatch> dests;
  dests.emplace_back(schema);
  RecordingSink sink(&dests);
  EmitWriter writer;
  writer.Configure(dests.data(), 1, /*split_column=*/-1, /*fixed_dest=*/0,
                   /*flush_threshold=*/4, &sink);
  ASSERT_LT(writer.split_column(), 0);

  // Build 10 contiguous finished rows, then bulk-append: the pending
  // batch legitimately exceeds the nominal threshold, and BatchFull fires
  // once for the oversized batch rather than once per threshold crossing.
  TupleBatch rows(schema);
  for (int32_t i = 0; i < 10; ++i) {
    TupleWriter w = rows.AppendTuple();
    w.SetInt32(0, i);
    w.SetInt32(1, -i);
  }
  sink.drain = false;
  writer.AppendRows(rows.raw_data(), rows.num_tuples(),
                    rows.schema().tuple_size());
  EXPECT_EQ(writer.rows_committed(), 10u);
  ASSERT_EQ(sink.full_calls.size(), 1u);
  EXPECT_EQ(dests[0].num_tuples(), 10u);
}

// --- TupleBatch schema validation (satellite: constructor-time error) --------

TEST(TupleBatchDeathTest, RejectsZeroSizeSchema) {
  auto empty = std::make_shared<const Schema>();
  EXPECT_DEATH({ TupleBatch batch(empty); }, "tuple_size");
}

// --- Executor option validation ---------------------------------------------

TEST(ThreadExecutorValidationTest, RejectsZeroBatchSize) {
  Database db = MakeWisconsinDatabase(3, 100, 5);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 3, 100);
  ASSERT_TRUE(query.ok());
  auto plan =
      MakeStrategy(StrategyKind::kFP)->Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok());

  ThreadExecutor executor(&db);
  ThreadExecOptions options;
  options.batch_size = 0;
  auto run = executor.Execute(*plan, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

// --- Stored-result budget accounting (satellite: chunked reservation) --------

// Reserving stored-result bytes per flushed batch instead of per row must
// not move the budget high-water mark: the bytes reserved are exactly the
// bytes stored, independent of how they were chunked. SP stores every
// intermediate result, so it exercises the path hardest.
TEST(StoredResultBudgetTest, HighWaterMarkIndependentOfBatchSize) {
  Database db = MakeWisconsinDatabase(4, 300, 11);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 4, 300);
  ASSERT_TRUE(query.ok());
  auto plan =
      MakeStrategy(StrategyKind::kSP)->Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok());

  ThreadExecutor executor(&db);
  std::vector<size_t> peaks;
  for (uint32_t batch_size : {1u, 64u}) {
    ThreadExecOptions options;
    options.batch_size = batch_size;
    auto run = executor.Execute(*plan, options);
    ASSERT_TRUE(run.ok()) << run.status();
    peaks.push_back(run->stats.peak_memory_bytes);
  }
  EXPECT_EQ(peaks[0], peaks[1]);
}

// --- Steady-state pooling ----------------------------------------------------

// On a pipelined plan with many batches in flight, recycled buffers must
// dominate: far fewer buffers are heap-allocated than batches shipped.
TEST(BatchPoolingTest, SteadyStateReusesBuffers) {
  Database db = MakeWisconsinDatabase(5, 400, 7);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 5, 400);
  ASSERT_TRUE(query.ok());
  auto plan =
      MakeStrategy(StrategyKind::kFP)->Parallelize(*query, 8, TotalCostModel());
  ASSERT_TRUE(plan.ok());

  ThreadExecutor executor(&db);
  ThreadExecOptions options;
  options.batch_size = 16;  // many batches -> pooling pays off
  auto run = executor.Execute(*plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  const QueryStats& stats = run->stats;
  EXPECT_GT(stats.batches_sent, 0u);
  EXPECT_GT(stats.batch_buffers_reused, 0u);
  EXPECT_LT(stats.batch_buffers_allocated,
            stats.batch_buffers_allocated + stats.batch_buffers_reused);
}

}  // namespace
}  // namespace mjoin
