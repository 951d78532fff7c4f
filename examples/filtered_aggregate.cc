// Beyond joins: hand-assemble an XRA parallel plan — the engine's plan
// language is not limited to what the four strategies generate. The query:
//
//   SELECT twenty, COUNT(*), SUM(unique2), MIN(unique2), MAX(unique2)
//   FROM rel0 WHERE onePercent < 25 GROUP BY twenty
//
// as: scan (8-way) -> colocated filter -> hash-split aggregate (4-way),
// executed on both the simulated and the threaded backend and checked
// against a hand-computed answer.
#include <cstdio>
#include <map>

#include "engine/database.h"
#include "exec/aggregate.h"
#include "engine/sim_executor.h"
#include "engine/thread_executor.h"
#include "storage/wisconsin.h"
#include "xra/plan.h"

using namespace mjoin;

namespace {

ParallelPlan BuildPlan(const std::shared_ptr<const Schema>& wisconsin) {
  ParallelPlan plan;
  plan.strategy = "manual";
  plan.num_processors = 8;

  XraOp scan;
  scan.id = 0;
  scan.kind = XraOpKind::kScan;
  scan.label = "scan(rel0)";
  scan.trace_label = 's';
  scan.relation = "rel0";
  scan.processors = {0, 1, 2, 3, 4, 5, 6, 7};
  scan.output_schema = wisconsin;
  scan.consumer = 1;
  scan.consumer_port = 0;
  scan.trigger_group = 0;

  XraOp filter;
  filter.id = 1;
  filter.kind = XraOpKind::kFilter;
  filter.label = "filter(onePercent<25)";
  filter.trace_label = 'f';
  filter.filter = FilterPredicate{kOnePercent, CompareOp::kLt, 25, 0};
  filter.processors = scan.processors;  // colocated with the scan
  filter.input_schema = wisconsin;
  filter.output_schema = wisconsin;
  filter.inputs[0] = XraInput{0, Routing::kColocated, 0};
  filter.consumer = 2;
  filter.consumer_port = 0;
  filter.trigger_group = 0;

  XraOp aggregate;
  aggregate.id = 2;
  aggregate.kind = XraOpKind::kAggregate;
  aggregate.label = "aggregate(twenty)";
  aggregate.trace_label = 'a';
  aggregate.group_column = kTwenty;
  aggregate.value_column = kUnique2;
  aggregate.processors = {0, 2, 4, 6};
  aggregate.input_schema = wisconsin;
  aggregate.inputs[0] = XraInput{1, Routing::kHashSplit, kTwenty};
  aggregate.trigger_group = 0;

  plan.ops = {std::move(scan), std::move(filter), std::move(aggregate)};
  plan.groups.push_back(TriggerGroup{{}, {0, 1, 2}});
  plan.num_results = 1;
  plan.ops[2].store_result = 0;
  plan.final_result = 0;

  // Derive the aggregate's output schema via the operator factory.
  auto agg = AggregateOp::Make(wisconsin, kTwenty, kUnique2);
  MJOIN_CHECK(agg.ok());
  plan.ops[2].output_schema = (*agg)->output_schema();
  return plan;
}

}  // namespace

int main() {
  constexpr uint32_t kCardinality = 20000;
  Database db = MakeWisconsinDatabase(1, kCardinality, /*seed=*/6);
  auto wisconsin = std::make_shared<const Schema>(WisconsinSchema());
  ParallelPlan plan = BuildPlan(wisconsin);
  MJOIN_CHECK_OK(plan.Validate());

  std::printf("manual XRA plan:\n%s\n", plan.ToString().c_str());

  // Hand-computed expected answer.
  auto rel = db.Get("rel0");
  MJOIN_CHECK(rel.ok());
  std::map<int32_t, std::pair<int64_t, int64_t>> expected;  // count, sum
  for (size_t i = 0; i < (*rel)->num_tuples(); ++i) {
    TupleRef t = (*rel)->tuple(i);
    if (t.GetInt32(kOnePercent) < 25) {
      auto& [count, sum] = expected[t.GetInt32(kTwenty)];
      count += 1;
      sum += t.GetInt32(kUnique2);
    }
  }

  // Simulated backend.
  SimExecutor sim(&db);
  SimExecOptions sim_options;
  sim_options.materialize_result = true;
  auto sim_run = sim.Execute(plan, sim_options);
  MJOIN_CHECK(sim_run.ok()) << sim_run.status();

  // Threaded backend.
  ThreadExecutor threads(&db);
  ThreadExecOptions thread_options;
  thread_options.materialize_result = true;
  auto thread_run = threads.Execute(plan, thread_options);
  MJOIN_CHECK(thread_run.ok()) << thread_run.status();

  MJOIN_CHECK(sim_run->result == thread_run->result)
      << "backends disagree";

  std::printf("groups (simulated %.2f s, threaded %.3f s wall):\n",
              sim_run->seconds, thread_run->seconds);
  const Relation& result = *sim_run->materialized;
  size_t correct = 0;
  for (size_t i = 0; i < result.num_tuples(); ++i) {
    TupleRef t = result.tuple(i);
    int32_t group = t.GetInt32(0);
    auto it = expected.find(group);
    bool ok = it != expected.end() && it->second.first == t.GetInt64(1) &&
              it->second.second == t.GetInt64(2);
    correct += ok ? 1 : 0;
    std::printf("  twenty=%2d  count=%5lld  sum(unique2)=%9lld  "
                "min=%5d max=%5d  %s\n",
                group, static_cast<long long>(t.GetInt64(1)),
                static_cast<long long>(t.GetInt64(2)), t.GetInt32(3),
                t.GetInt32(4), ok ? "ok" : "WRONG");
  }
  std::printf("%zu/%zu groups verified against the hand-computed answer\n",
              correct, expected.size());
  return correct == expected.size() && result.num_tuples() == expected.size()
             ? 0
             : 1;
}
