// Observability of the threaded backend: per-operator metrics, stats
// invariants that must hold for every strategy, trace recording, and the
// Chrome trace export.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "engine/thread_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

constexpr int kRelations = 5;
constexpr uint32_t kCardinality = 400;
constexpr uint32_t kProcessors = 8;
// Generous: same-node sends bypass the backpressure bound by design, so
// peak depth may exceed max_queued_batches — but never by this much
// without a real leak.
constexpr size_t kMaxQueued = 256;

struct Fixture {
  Database db;
  JoinQuery query;
  ResultSummary reference;
  ParallelPlan plan;
};

Fixture MakeFixture(StrategyKind strategy) {
  Fixture f{MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/7),
            {}, {}, {}};
  auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, kRelations,
                                       kCardinality);
  EXPECT_TRUE(query.ok());
  f.query = *query;
  auto reference = ReferenceSummary(f.query, f.db);
  EXPECT_TRUE(reference.ok());
  f.reference = *reference;
  auto plan = MakeStrategy(strategy)->Parallelize(f.query, kProcessors,
                                                  TotalCostModel());
  EXPECT_TRUE(plan.ok()) << plan.status();
  f.plan = *plan;
  return f;
}

class ThreadMetricsTest : public testing::TestWithParam<StrategyKind> {};

/// The cross-strategy stats invariants: batch conservation, bounded
/// queues, and per-operator row accounting consistent with the plan's
/// data flow and the reference result.
TEST_P(ThreadMetricsTest, StatsInvariants) {
  Fixture f = MakeFixture(GetParam());
  ThreadExecutor executor(&f.db);
  ThreadExecOptions options;
  options.batch_size = 64;
  options.max_queued_batches = kMaxQueued;
  options.collect_metrics = true;
  auto run = executor.Execute(f.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  const QueryStats& stats = run->stats;

  // Every processed batch was sent (duplicates are counted into
  // batches_sent as extra copies; drops only lower the processed side).
  EXPECT_LE(stats.batches_processed,
            stats.batches_sent + stats.batches_duplicated);
  if (stats.queue_overflows == 0) {
    EXPECT_LE(stats.peak_queue_depth, kMaxQueued);
  }

  ASSERT_EQ(stats.per_op.size(), f.plan.ops.size());
  uint64_t total_busy_ops = 0;
  for (const QueryOpStats& per_op : stats.per_op) {
    const XraOp& op = f.plan.ops[static_cast<size_t>(per_op.op_id)];
    EXPECT_EQ(per_op.instances, op.processors.size());
    EXPECT_EQ(per_op.name, op.label);

    // Without faults, everything a producer emitted arrives at its
    // consumer: rows out == the consumer's rows in on our port.
    if (op.consumer >= 0) {
      const OpMetrics& consumer_metrics =
          stats.per_op[static_cast<size_t>(op.consumer)].metrics;
      EXPECT_EQ(per_op.metrics.rows_out,
                consumer_metrics.rows_in[op.consumer_port])
          << "op " << per_op.op_id << " -> op " << op.consumer;
    }
    // The operation storing the final result produced exactly the
    // reference cardinality.
    if (op.store_result == f.plan.final_result) {
      EXPECT_EQ(per_op.metrics.rows_out, f.reference.cardinality);
    }
    if (per_op.metrics.busy_seconds() > 0) ++total_busy_ops;
    EXPECT_GE(per_op.metrics.busy_seconds(), 0.0);
  }
  EXPECT_GT(total_busy_ops, 0u);

  // The rendered table mentions every op id and the header columns.
  std::string table = ExplainAnalyze(*run);
  EXPECT_NE(table.find("rows out"), std::string::npos);
  EXPECT_NE(table.find("collisions"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ThreadMetricsTest,
                         testing::ValuesIn(kAllStrategies),
                         [](const testing::TestParamInfo<StrategyKind>& info) {
                           return StrategyName(info.param);
                         });

/// Joins must report hash-table fill; scans must report scan-time rows.
TEST(ThreadMetricsTest, PerOpDetailCounters) {
  Fixture f = MakeFixture(StrategyKind::kFP);
  ThreadExecutor executor(&f.db);
  ThreadExecOptions options;
  options.batch_size = 64;
  auto run = executor.Execute(f.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  for (const QueryOpStats& per_op : run->stats.per_op) {
    const XraOp& op = f.plan.ops[static_cast<size_t>(per_op.op_id)];
    if (op.is_join()) {
      EXPECT_EQ(per_op.metrics.rows_in[0] + per_op.metrics.rows_in[1],
                2 * kCardinality)
          << "join " << per_op.op_id;
      if (op.kind != XraOpKind::kSortMergeJoin) {
        EXPECT_GT(per_op.metrics.hash_table_rows, 0u);
        EXPECT_GT(per_op.metrics.peak_memory_bytes, 0u);
      }
      EXPECT_GT(per_op.metrics.batch_seconds.count(), 0u);
    }
    if (op.kind == XraOpKind::kScan) {
      EXPECT_EQ(per_op.metrics.rows_out, kCardinality);
      EXPECT_EQ(per_op.metrics.batch_seconds.count(), 0u);
    }
  }
}

/// With both observability switches off nothing is gathered — the
/// disabled path stays free of per-batch bookkeeping.
TEST(ThreadMetricsTest, DisabledPathGathersNothing) {
  Fixture f = MakeFixture(StrategyKind::kFP);
  ThreadExecutor executor(&f.db);
  ThreadExecOptions options;
  options.collect_metrics = false;
  options.record_trace = false;
  auto run = executor.Execute(f.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->stats.per_op.empty());
  EXPECT_EQ(run->trace, nullptr);
  EXPECT_TRUE(run->utilization_diagram.empty());
  EXPECT_EQ(ExplainAnalyze(*run), "");
}

/// Run-level counters land in the caller's registry.
TEST(ThreadMetricsTest, PublishesToRegistry) {
  Fixture f = MakeFixture(StrategyKind::kFP);
  ThreadExecutor executor(&f.db);
  MetricsRegistry registry;
  ThreadExecOptions options;
  options.batch_size = 64;
  options.metrics_registry = &registry;
  auto run = executor.Execute(f.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(registry.counter("thread.batches_sent")->value(),
            run->stats.batches_sent);
  EXPECT_EQ(registry.counter("thread.batches_processed")->value(),
            run->stats.batches_processed);
  EXPECT_GT(registry.histogram("thread.batch_seconds")->count(), 0);
  EXPECT_EQ(registry.histogram("thread.wall_seconds")->count(), 1);
  std::string table = registry.RenderTable();
  EXPECT_NE(table.find("thread.batches_sent"), std::string::npos);
}

/// Minimal JSON syntax check: balanced containers outside of strings,
/// no trailing garbage. Enough to catch an escaping or comma bug without
/// a JSON library.
void CheckJsonSyntax(const std::string& json) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '{');
        stack.pop_back();
        break;
      case ']':
        ASSERT_FALSE(stack.empty());
        ASSERT_EQ(stack.back(), '[');
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_TRUE(stack.empty());
}

/// End-to-end trace: recorded events, sane utilization, a renderable
/// diagram, and a syntactically valid Chrome trace export.
TEST(ThreadMetricsTest, TraceRecordsAndExports) {
  Fixture f = MakeFixture(StrategyKind::kFP);
  ThreadExecutor executor(&f.db);
  ThreadExecOptions options;
  options.batch_size = 64;
  options.record_trace = true;
  auto run = executor.Execute(f.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();

  ASSERT_NE(run->trace, nullptr);
  EXPECT_EQ(run->trace->num_workers(), kProcessors);
  EXPECT_GT(run->trace->num_events(), 0u);
  EXPECT_GT(run->utilization, 0.0);
  EXPECT_LE(run->utilization, 1.0);
  // One row per worker plus the time axis.
  EXPECT_NE(run->utilization_diagram.find("> time ("), std::string::npos);
  EXPECT_NE(run->utilization_diagram.find("us)"), std::string::npos);

  std::string json = run->trace->ToChromeJson();
  EXPECT_EQ(json.rfind("{", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  CheckJsonSyntax(json);
}

/// The recorder itself: intervals land on the right worker row, blocked
/// time is excluded from utilization, rendering uses the op labels.
TEST(ThreadTraceRecorderTest, RecordUtilizationAndRender) {
  ThreadTraceRecorder recorder(
      2, {ThreadTraceOpInfo{"join#1", '1'}, ThreadTraceOpInfo{"scan", 's'}});
  // Worker 0 busy the first half, worker 1 blocked the second half.
  recorder.Record(0, 0, 500'000, ThreadWorkType::kBuild, /*op_id=*/0);
  recorder.Record(1, 500'000, 1'000'000, ThreadWorkType::kBlocked, -1);
  EXPECT_EQ(recorder.num_events(), 2u);

  // Only worker 0's interval counts: 0.5ms busy of 2 * 1ms capacity.
  EXPECT_NEAR(recorder.Utilization(1'000'000), 0.25, 1e-9);

  std::string diagram = recorder.RenderAscii(1'000'000, /*width=*/10);
  EXPECT_NE(diagram.find("11111"), std::string::npos);  // op 0's label
  EXPECT_NE(diagram.find("~~~~~"), std::string::npos);  // blocked fill

  // Out-of-range worker and empty intervals are ignored.
  recorder.Record(7, 0, 100, ThreadWorkType::kScan, 1);
  recorder.Record(0, 100, 100, ThreadWorkType::kScan, 1);
  EXPECT_EQ(recorder.num_events(), 2u);

  std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("\"cat\":\"blocked\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"join#1\""), std::string::npos);
}

// Intervals are clipped to [0, makespan]: one that starts after the
// makespan adds nothing (it used to subtract its overhang), one that
// straddles it counts only the part inside.
TEST(ThreadTraceRecorderTest, UtilizationClipsToMakespan) {
  ThreadTraceRecorder recorder(1, {ThreadTraceOpInfo{"join#1", '1'}});
  recorder.Record(0, 2'000'000, 3'000'000, ThreadWorkType::kBuild, 0);
  EXPECT_DOUBLE_EQ(recorder.Utilization(1'000'000), 0.0);
  recorder.Record(0, 500'000, 1'500'000, ThreadWorkType::kBuild, 0);
  EXPECT_DOUBLE_EQ(recorder.Utilization(1'000'000), 0.5);
  EXPECT_DOUBLE_EQ(recorder.Utilization(4'000'000), 0.5);
}

}  // namespace
}  // namespace mjoin
