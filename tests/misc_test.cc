#include <gtest/gtest.h>

#include <set>

#include "engine/database.h"
#include "engine/experiment.h"
#include "engine/query_result.h"
#include "engine/sim_executor.h"
#include "engine/thread_executor.h"
#include "exec/batch.h"
#include "plan/wisconsin_query.h"
#include "storage/wisconsin.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

// --- TupleBatch -----------------------------------------------------------------

TEST(TupleBatchTest, AppendAndRead) {
  auto schema = std::make_shared<const Schema>(
      Schema({Column::Int32("a"), Column::Int32("b")}));
  TupleBatch batch(schema);
  EXPECT_TRUE(batch.empty());
  for (int32_t i = 0; i < 10; ++i) {
    TupleWriter w = batch.AppendTuple();
    w.SetInt32(0, i);
    w.SetInt32(1, i * 2);
  }
  EXPECT_EQ(batch.num_tuples(), 10u);
  EXPECT_EQ(batch.tuple(7).GetInt32(1), 14);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
}

TEST(TupleBatchTest, MoveTransfersOwnership) {
  auto schema = std::make_shared<const Schema>(Schema({Column::Int32("a")}));
  TupleBatch a(schema);
  TupleWriter w = a.AppendTuple();
  w.SetInt32(0, 5);
  TupleBatch b = std::move(a);
  EXPECT_EQ(b.num_tuples(), 1u);
  EXPECT_EQ(b.tuple(0).GetInt32(0), 5);
}

TEST(TupleBatchTest, AppendRowCopies) {
  auto schema = std::make_shared<const Schema>(Schema({Column::Int32("a")}));
  TupleBatch a(schema), b(schema);
  TupleWriter w = a.AppendTuple();
  w.SetInt32(0, 9);
  b.AppendRow(a.tuple(0).data());
  a.Clear();
  EXPECT_EQ(b.tuple(0).GetInt32(0), 9);
}

// --- CSV exports -----------------------------------------------------------------

TEST(CsvExportTest, ExperimentCsvSkipsUnplaceableCells) {
  ExperimentConfig config;
  config.shape = QueryShape::kLeftLinear;
  config.num_relations = 6;
  config.cardinality = 100;
  config.processors = {3, 8};  // FP unplaceable at 3 (5 joins)
  config.verify = false;
  auto result = RunShapeExperiment(config);
  ASSERT_TRUE(result.ok());
  std::string csv = result->ToCsv();
  EXPECT_NE(csv.find("SP,3,"), std::string::npos);
  EXPECT_EQ(csv.find("FP,3,"), std::string::npos);
  EXPECT_NE(csv.find("FP,8,"), std::string::npos);
}

// --- EXPLAIN ANALYZE ---------------------------------------------------------------

TEST(OpStatsTest, CountersAreConsistent) {
  constexpr uint32_t kCardinality = 500;
  Database db = MakeWisconsinDatabase(4, kCardinality, 67);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 4,
                                       kCardinality);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 6, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  SimExecutor executor(&db);
  auto run = executor.Execute(*plan, SimExecOptions());
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->stats.per_op.size(), plan->ops.size());

  for (const QueryOpStats& stats : run->stats.per_op) {
    ASSERT_GE(stats.op_id, 0);
    const XraOp& op = plan->ops[static_cast<size_t>(stats.op_id)];
    const OpMetrics& m = stats.metrics;
    if (op.is_source()) {
      EXPECT_EQ(m.rows_in[0] + m.rows_in[1], 0u);
      // Base relations and intermediates all hold kCardinality tuples.
      EXPECT_EQ(m.rows_out, kCardinality);
    } else {
      // Each join reads both operands and emits one result per tuple.
      EXPECT_EQ(m.rows_in[0] + m.rows_in[1], 2 * kCardinality);
      EXPECT_EQ(m.rows_out, kCardinality);
    }
    EXPECT_GT(m.busy_seconds(), 0);
  }
  std::string rendered = ExplainAnalyze(*run);
  EXPECT_NE(rendered.find("rows in"), std::string::npos);
  EXPECT_NE(rendered.find("simple-hash-join"), std::string::npos);
}

// The coordinator folds each worker's report into the query's stats:
// counters and the workers' own budget peaks add up, the deepest queue
// wins, and per-op stats merge by op id. Report bytes are untrusted, so
// an op id outside the plan is InvalidArgument, not an out-of-range write.
TEST(OpStatsTest, MergeQueryStatsAddsWorkersAndRejectsUnknownOps) {
  QueryStats query;
  query.per_op.resize(3);
  QueryStats worker;
  worker.batches_sent = 5;
  worker.batches_processed = 4;
  worker.batch_buffers_reused = 3;
  worker.peak_queue_depth = 7;
  worker.peak_memory_bytes = 100;
  worker.per_op.resize(1);
  worker.per_op[0].op_id = 2;
  worker.per_op[0].instances = 1;
  worker.per_op[0].metrics.rows_out = 10;
  ASSERT_TRUE(MergeQueryStats(worker, &query).ok());
  worker.peak_queue_depth = 2;
  ASSERT_TRUE(MergeQueryStats(worker, &query).ok());
  EXPECT_EQ(query.batches_sent, 10u);
  EXPECT_EQ(query.batches_processed, 8u);
  EXPECT_EQ(query.batch_buffers_reused, 6u);
  EXPECT_EQ(query.peak_queue_depth, 7u);
  EXPECT_EQ(query.peak_memory_bytes, 200u);
  EXPECT_EQ(query.per_op[2].instances, 2u);
  EXPECT_EQ(query.per_op[2].metrics.rows_out, 20u);
  EXPECT_EQ(query.per_op[0].instances, 0u);

  for (int bad : {-1, 3}) {
    worker.per_op[0].op_id = bad;
    EXPECT_EQ(MergeQueryStats(worker, &query).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

// The sim bills each task's charged cost to its op's phase bucket and
// records the same task as one interval on its node's trace lane, so an
// op's phase seconds are its worker-lane ticks times tick_seconds. The
// scheduler and broker lanes are service time, billed to no op's buckets.
TEST(OpStatsTest, SimPhaseSecondsMatchTrace) {
  Database db = MakeWisconsinDatabase(6, 400, 29);
  auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, 6, 400);
  ASSERT_TRUE(query.ok());
  SimExecOptions options;
  options.record_trace = true;
  for (StrategyKind kind : kAllStrategies) {
    auto plan = MakeStrategy(kind)->Parallelize(*query, 10, TotalCostModel());
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto run = SimExecutor(&db).Execute(*plan, options);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_NE(run->trace, nullptr);
    std::vector<int64_t> traced_ticks(plan->ops.size(), 0);
    const auto& lanes = run->trace->events_by_worker();
    for (uint32_t lane = 0; lane < run->trace->num_workers(); ++lane) {
      for (const ThreadTraceEvent& event : lanes[lane]) {
        ASSERT_GE(event.op_id, 0);
        traced_ticks[static_cast<size_t>(event.op_id)] +=
            event.end_ns - event.start_ns;
      }
    }
    for (const QueryOpStats& op : run->stats.per_op) {
      const double traced =
          static_cast<double>(traced_ticks[static_cast<size_t>(op.op_id)]) *
          options.costs.tick_seconds;
      EXPECT_GT(traced, 0) << StrategyName(kind) << " " << op.name;
      EXPECT_NEAR(op.metrics.busy_seconds(), traced, traced * 1e-9)
          << StrategyName(kind) << " " << op.name;
    }
  }
}

// --- PlanBuilder label overflow ------------------------------------------------------

TEST(BuilderTest, ManyJoinsGetDistinctishLabels) {
  // 12 joins: labels run '1'..'9' then 'a'..; must not crash and plans
  // stay valid.
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 13, 50);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->Validate().ok());
  std::set<char> labels;
  for (const XraOp& op : plan->ops) {
    if (op.is_join()) labels.insert(op.trace_label);
  }
  EXPECT_EQ(labels.size(), 12u);
}

// --- Scheduler/broker node accounting ------------------------------------------------

TEST(ServiceNodeTest, WorkerUtilizationExcludesServiceNodes) {
  Database db = MakeWisconsinDatabase(4, 300, 71);
  auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, 4, 300);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  SimExecutor executor(&db);
  SimExecOptions options;
  options.record_trace = true;
  auto run = executor.Execute(*plan, options);
  ASSERT_TRUE(run.ok());
  // The diagram shows workers + 2 service rows; utilization averages
  // workers only and must be a sane fraction.
  EXPECT_GT(run->utilization, 0.05);
  EXPECT_LE(run->utilization, 1.0);
  // Scheduler ('s' init tasks) and broker ('b') appear in the diagram.
  EXPECT_NE(run->utilization_diagram.find('s'), std::string::npos);
  EXPECT_NE(run->utilization_diagram.find('b'), std::string::npos);
}

// --- Executor failure surfacing --------------------------------------------------

TEST(ExecutorErrorTest, UnknownRelationFailsCleanly) {
  Database db = MakeWisconsinDatabase(2, 100, 73);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 2, 100);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  // Point a scan at a relation the database does not have.
  for (XraOp& op : plan->ops) {
    if (op.kind == XraOpKind::kScan) op.relation = "missing";
  }
  SimExecutor executor(&db);
  EXPECT_EQ(executor.Execute(*plan, SimExecOptions()).status().code(),
            StatusCode::kNotFound);
}

TEST(ExecutorErrorTest, InvalidPlanRejectedBeforeExecution) {
  Database db = MakeWisconsinDatabase(2, 100, 73);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 2, 100);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  plan->final_result = 99;  // structural corruption
  SimExecutor executor(&db);
  EXPECT_EQ(executor.Execute(*plan, SimExecOptions()).status().code(),
            StatusCode::kInternal);
  ThreadExecutor threads(&db);
  EXPECT_EQ(threads.Execute(*plan, ThreadExecOptions()).status().code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace mjoin
