// The original Wisconsin benchmark query classes [BDT83] — the benchmark
// the paper's test data comes from — expressed as parallel XRA plans and
// executed on both backends: selections, selective joins (joinAselB,
// joinABprime), duplicate-eliminating projection, and grouped aggregation.
// Every query's cardinality is verified against a hand computation over
// the generated data, and both backends must agree exactly.
#include <cstdio>
#include <map>
#include <set>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/sim_executor.h"
#include "engine/thread_executor.h"
#include "exec/aggregate.h"
#include "storage/wisconsin.h"
#include "xra/plan.h"

using namespace mjoin;

namespace {

constexpr uint32_t kCardA = 10000;       // relation "A"
constexpr uint32_t kCardB = 10000;       // relation "B"
constexpr uint32_t kCardBprime = 1000;   // relation "Bprime"
constexpr uint32_t kProcs = 8;

std::shared_ptr<const Schema> Wisc() {
  return std::make_shared<const Schema>(WisconsinSchema());
}

std::vector<uint32_t> AllProcs() {
  std::vector<uint32_t> procs;
  for (uint32_t p = 0; p < kProcs; ++p) procs.push_back(p);
  return procs;
}

XraOp MakeScan(int id, const std::string& relation, int consumer, int port,
               Routing routing, size_t split_key, int group) {
  XraOp scan;
  scan.id = id;
  scan.kind = XraOpKind::kScan;
  scan.label = StrCat("scan(", relation, ")");
  scan.trace_label = 's';
  scan.relation = relation;
  scan.processors = AllProcs();
  scan.output_schema = Wisc();
  scan.consumer = consumer;
  scan.consumer_port = port;
  scan.trigger_group = group;
  (void)routing;
  (void)split_key;
  return scan;
}

/// SELECT * FROM A WHERE unique2 BETWEEN lo AND hi: scan -> filter.
ParallelPlan SelectionPlan(int32_t lo, int32_t hi) {
  ParallelPlan plan;
  plan.strategy = "wisconsin-suite";
  plan.num_processors = kProcs;

  XraOp scan = MakeScan(0, "A", 1, 0, Routing::kColocated, 0, 0);

  XraOp filter;
  filter.id = 1;
  filter.kind = XraOpKind::kFilter;
  filter.label = StrCat("filter(unique2 in [", lo, ",", hi, "])");
  filter.trace_label = 'f';
  filter.filter = FilterPredicate{kUnique2, CompareOp::kBetween, lo, hi};
  filter.processors = AllProcs();
  filter.input_schema = Wisc();
  filter.output_schema = Wisc();
  filter.inputs[0] = XraInput{0, Routing::kColocated, 0};
  filter.store_result = 0;
  filter.trigger_group = 0;

  plan.ops = {std::move(scan), std::move(filter)};
  plan.groups.push_back(TriggerGroup{{}, {0, 1}});
  plan.num_results = 1;
  plan.final_result = 0;
  return plan;
}

/// SELECT * FROM A, B WHERE A.unique1 = B.unique1 [AND B.unique2 < limit]:
/// scan(A) builds, scan(B) (-> optional filter) probes.
ParallelPlan JoinPlan(const std::string& probe_relation,
                      std::optional<int32_t> probe_sel_limit) {
  ParallelPlan plan;
  plan.strategy = "wisconsin-suite";
  plan.num_processors = kProcs;

  auto spec = MakeNaturalConcatJoinSpec(Wisc(), Wisc(), kUnique1, kUnique1);
  MJOIN_CHECK(spec.ok());

  int join_id = probe_sel_limit.has_value() ? 3 : 2;
  XraOp build_scan = MakeScan(0, "A", join_id, 0, Routing::kColocated, 0, 0);

  XraOp join;
  join.id = join_id;
  join.kind = XraOpKind::kSimpleHashJoin;
  join.label = "join(A,B)";
  join.trace_label = 'j';
  join.join_spec = *spec;
  join.output_schema = spec->output_schema;
  join.processors = AllProcs();
  join.inputs[0] = XraInput{0, Routing::kColocated, 0};
  join.store_result = 0;
  join.trigger_group = 0;

  if (probe_sel_limit.has_value()) {
    // scan(B) -> filter -> (split on unique1) -> join probe.
    XraOp probe_scan = MakeScan(1, probe_relation, 2, 0,
                                Routing::kColocated, 0, 1);
    XraOp filter;
    filter.id = 2;
    filter.kind = XraOpKind::kFilter;
    filter.label = StrCat("filter(unique2<", *probe_sel_limit, ")");
    filter.trace_label = 'f';
    filter.filter =
        FilterPredicate{kUnique2, CompareOp::kLt, *probe_sel_limit, 0};
    filter.processors = AllProcs();
    filter.input_schema = Wisc();
    filter.output_schema = Wisc();
    filter.inputs[0] = XraInput{1, Routing::kColocated, 0};
    filter.consumer = join_id;
    filter.consumer_port = 1;
    filter.trigger_group = 1;
    join.inputs[1] = XraInput{2, Routing::kHashSplit, kUnique1};
    plan.ops = {std::move(build_scan), std::move(probe_scan),
                std::move(filter), std::move(join)};
    plan.groups.push_back(TriggerGroup{{}, {0, 3}});
    plan.groups.push_back(
        TriggerGroup{{{join_id, Milestone::kBuildDone}}, {1, 2}});
  } else {
    // Probe relation streams into the join after the build completes; the
    // scan is colocated with the join (ideal fragmentation on unique1).
    XraOp probe_scan = MakeScan(1, probe_relation, join_id, 1,
                                Routing::kColocated, 0, 1);
    join.inputs[1] = XraInput{1, Routing::kColocated, 0};
    plan.ops = {std::move(build_scan), std::move(probe_scan),
                std::move(join)};
    plan.groups.push_back(TriggerGroup{{}, {0, 2}});
    plan.groups.push_back(
        TriggerGroup{{{join_id, Milestone::kBuildDone}}, {1}});
  }
  plan.num_results = 1;
  plan.final_result = 0;
  return plan;
}

/// SELECT group_col, COUNT(*), SUM/MIN/MAX(value_col) FROM A GROUP BY
/// group_col — also the benchmark's duplicate-eliminating projection when
/// only the group column is kept.
ParallelPlan AggregatePlan(size_t group_col, size_t value_col) {
  ParallelPlan plan;
  plan.strategy = "wisconsin-suite";
  plan.num_processors = kProcs;

  XraOp scan = MakeScan(0, "A", 1, 0, Routing::kHashSplit, group_col, 0);

  XraOp aggregate;
  aggregate.id = 1;
  aggregate.kind = XraOpKind::kAggregate;
  aggregate.label = StrCat("aggregate(group=",
                           WisconsinSchema().column(group_col).name, ")");
  aggregate.trace_label = 'a';
  aggregate.group_column = group_col;
  aggregate.value_column = value_col;
  aggregate.processors = AllProcs();
  aggregate.input_schema = Wisc();
  aggregate.inputs[0] = XraInput{0, Routing::kHashSplit, group_col};
  aggregate.store_result = 0;
  aggregate.trigger_group = 0;
  auto agg_op = AggregateOp::Make(Wisc(), group_col, value_col);
  MJOIN_CHECK(agg_op.ok());
  aggregate.output_schema = (*agg_op)->output_schema();

  // The scan feeds a hash split, so wire it as a streaming producer.
  scan.consumer = 1;
  scan.consumer_port = 0;

  plan.ops = {std::move(scan), std::move(aggregate)};
  plan.groups.push_back(TriggerGroup{{}, {0, 1}});
  plan.num_results = 1;
  plan.final_result = 0;
  return plan;
}

struct SuiteQuery {
  std::string name;
  std::string description;
  ParallelPlan plan;
  uint64_t expected;
};

}  // namespace

int main() {
  // The benchmark's classic instance: A and B with 10,000 tuples, Bprime
  // with the first 1,000 unique1 values.
  Database db;
  Relation a = GenerateWisconsin(kCardA, 1);
  Relation b = GenerateWisconsin(kCardB, 2);
  Relation bprime(WisconsinSchema());
  for (size_t i = 0; i < b.num_tuples(); ++i) {
    if (b.tuple(i).GetInt32(kUnique1) < static_cast<int32_t>(kCardBprime)) {
      bprime.AppendRow(b.tuple(i).data());
    }
  }
  // Hand-computed expectations.
  uint64_t sel1 = 0, sel10 = 0, join_a_sel_b = 0;
  for (size_t i = 0; i < a.num_tuples(); ++i) {
    int32_t u2 = a.tuple(i).GetInt32(kUnique2);
    sel1 += (u2 >= 100 && u2 <= 199) ? 1 : 0;
    sel10 += (u2 >= 1000 && u2 <= 1999) ? 1 : 0;
  }
  for (size_t i = 0; i < b.num_tuples(); ++i) {
    join_a_sel_b += b.tuple(i).GetInt32(kUnique2) < 1000 ? 1 : 0;
  }
  MJOIN_CHECK_OK(db.Add("A", std::move(a)));
  MJOIN_CHECK_OK(db.Add("B", std::move(b)));
  MJOIN_CHECK_OK(db.Add("Bprime", std::move(bprime)));

  std::vector<SuiteQuery> suite;
  suite.push_back({"sel1%", "1% selection on unique2",
                   SelectionPlan(100, 199), sel1});
  suite.push_back({"sel10%", "10% selection on unique2",
                   SelectionPlan(1000, 1999), sel10});
  suite.push_back({"joinABprime", "A join Bprime (1:10 sizes)",
                   JoinPlan("Bprime", std::nullopt), kCardBprime});
  suite.push_back({"joinAselB", "A join (10% of B)",
                   JoinPlan("B", 1000), join_a_sel_b});
  suite.push_back({"proj1%", "duplicate-eliminating projection onePercent",
                   AggregatePlan(kOnePercent, kUnique2), 100});
  suite.push_back({"aggGroup", "MIN/MAX/SUM(unique2) group by twenty",
                   AggregatePlan(kTwenty, kUnique2), 20});

  std::printf(
      "Wisconsin benchmark query classes [BDT83] on the parallel engine "
      "(P=%u, A/B=%u, Bprime=%u):\n\n",
      kProcs, kCardA, kCardBprime);

  SimExecutor sim(&db);
  ThreadExecutor threads(&db);
  TablePrinter table({"query", "description", "rows", "expected",
                      "simulated [s]", "threads agree"});
  bool all_ok = true;
  for (SuiteQuery& q : suite) {
    MJOIN_CHECK_OK(q.plan.Validate());
    auto run = sim.Execute(q.plan, SimExecOptions());
    MJOIN_CHECK(run.ok()) << q.name << ": " << run.status();
    auto wall = threads.Execute(q.plan, ThreadExecOptions());
    MJOIN_CHECK(wall.ok()) << q.name << ": " << wall.status();
    bool agree = run->result == wall->result;
    bool expected_ok = run->result.cardinality == q.expected;
    all_ok &= agree && expected_ok;
    table.AddRow({q.name, q.description, StrCat(run->result.cardinality),
                  StrCat(q.expected),
                  FormatDouble(run->seconds, 2),
                  agree ? "yes" : "NO!"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\n%s\n", all_ok
                            ? "All cardinalities match the hand computation "
                              "and both backends agree."
                            : "MISMATCH detected!");
  return all_ok ? 0 : 1;
}
