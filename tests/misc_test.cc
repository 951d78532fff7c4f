#include <gtest/gtest.h>

#include <set>

#include "engine/database.h"
#include "engine/experiment.h"
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
  ASSERT_EQ(run->op_stats.size(), plan->ops.size());

  for (const OpStats& stats : run->op_stats) {
    ASSERT_GE(stats.op_id, 0);
    const XraOp& op = plan->ops[static_cast<size_t>(stats.op_id)];
    if (op.is_source()) {
      EXPECT_EQ(stats.tuples_in, 0u);
      // Base relations and intermediates all hold kCardinality tuples.
      EXPECT_EQ(stats.tuples_out, kCardinality);
    } else {
      // Each join reads both operands and emits one result per tuple.
      EXPECT_EQ(stats.tuples_in, 2 * kCardinality);
      EXPECT_EQ(stats.tuples_out, kCardinality);
    }
    EXPECT_GT(stats.busy_ticks, 0);
    EXPECT_LE(stats.last_finish, run->response_ticks);
  }
  std::string rendered = RenderOpStats(*plan, *run);
  EXPECT_NE(rendered.find("tuples in"), std::string::npos);
  EXPECT_NE(rendered.find("simple-hash-join"), std::string::npos);
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
