#include "engine/query_result.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace mjoin {

std::vector<QueryOpStats> NewOpStats(const ParallelPlan& plan) {
  std::vector<QueryOpStats> per_op;
  per_op.reserve(plan.ops.size());
  for (const XraOp& o : plan.ops) {
    QueryOpStats op;
    op.op_id = o.id;
    op.name = o.label;
    op.kind = XraOpKindName(o.kind);
    op.trace_label = o.trace_label;
    per_op.push_back(std::move(op));
  }
  return per_op;
}

void AttachTrace(std::shared_ptr<const ThreadTraceRecorder> trace,
                 int64_t makespan, uint32_t width, QueryResult* result) {
  result->utilization = trace->Utilization(makespan);
  result->utilization_diagram = trace->RenderAscii(makespan, width);
  result->trace = std::move(trace);
}

void PublishExecMetrics(const std::string& prefix, const QueryStats& stats,
                        double wall_seconds, MetricsRegistry* registry) {
  auto name = [&prefix](const char* metric) {
    return StrCat(prefix, ".", metric);
  };
  registry->counter(name("batches_sent"))->Add(stats.batches_sent);
  registry->counter(name("batches_processed"))->Add(stats.batches_processed);
  registry->counter(name("batches_dropped"))->Add(stats.batches_dropped);
  registry->counter(name("batches_duplicated"))
      ->Add(stats.batches_duplicated);
  registry->counter(name("queue_overflows"))->Add(stats.queue_overflows);
  registry->counter(name("batch_buffers_allocated"))
      ->Add(stats.batch_buffers_allocated);
  registry->counter(name("batch_buffers_reused"))
      ->Add(stats.batch_buffers_reused);
  registry->gauge(name("peak_queue_depth"))
      ->Set(static_cast<int64_t>(stats.peak_queue_depth));
  registry->gauge(name("peak_memory_bytes"))
      ->Set(static_cast<int64_t>(stats.peak_memory_bytes));
  registry->histogram(name("wall_seconds"))->Observe(wall_seconds);
  Histogram* batch_hist = registry->histogram(name("batch_seconds"));
  uint64_t rows_out = 0;
  uint64_t hot_keys = 0;
  uint64_t replicated = 0;
  uint64_t repartitioned = 0;
  uint64_t bloom_filtered = 0;
  double bloom_fp_rate = 0;
  for (const QueryOpStats& per_op : stats.per_op) {
    for (double sample : per_op.metrics.batch_seconds.values()) {
      batch_hist->Observe(sample);
    }
    rows_out += per_op.metrics.rows_out;
    hot_keys += per_op.metrics.skew_hot_keys;
    replicated += per_op.metrics.skew_replicated_rows;
    repartitioned += per_op.metrics.skew_repartitioned_rows;
    bloom_filtered += per_op.metrics.skew_bloom_filtered_rows;
    bloom_fp_rate =
        std::max(bloom_fp_rate, per_op.metrics.skew_bloom_fp_rate);
  }
  registry->counter(name("rows_emitted"))->Add(rows_out);
  registry->counter("skew.hot_keys_detected")->Add(hot_keys);
  registry->counter("skew.replicated_rows")->Add(replicated);
  registry->counter("skew.repartitioned_rows")->Add(repartitioned);
  registry->counter("skew.bloom_filtered_rows")->Add(bloom_filtered);
  registry->histogram("skew.bloom_fp_rate")->Observe(bloom_fp_rate);
}

std::string ExplainAnalyze(const QueryResult& result) {
  if (result.stats.per_op.empty()) return "";
  TablePrinter table({"op", "kind", "label", "inst", "rows in", "rows out",
                      "busy [s]", "build [s]", "probe [s]", "batch p95 [ms]",
                      "ht rows", "collisions", "peak mem"});
  for (const QueryOpStats& per_op : result.stats.per_op) {
    const OpMetrics& m = per_op.metrics;
    std::string p95 = "-";
    if (m.batch_seconds.count() > 0) {
      p95 = FormatDouble(m.batch_seconds.Percentile(95) * 1e3, 3);
    }
    table.AddRow(
        {StrCat(per_op.op_id), per_op.kind,
         StrCat(per_op.name, " '", std::string(1, per_op.trace_label), "'"),
         StrCat(per_op.instances), StrCat(m.rows_in[0] + m.rows_in[1]),
         StrCat(m.rows_out), FormatDouble(m.busy_seconds(), 3),
         FormatDouble(m.build_seconds, 3), FormatDouble(m.probe_seconds, 3),
         p95, StrCat(m.hash_table_rows), StrCat(m.hash_collisions),
         FormatBytes(m.peak_memory_bytes)});
  }
  return table.ToString();
}

}  // namespace mjoin
