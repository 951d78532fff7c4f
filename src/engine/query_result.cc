#include "engine/query_result.h"

#include <algorithm>
#include <utility>

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

Status MergeQueryStats(const QueryStats& from, QueryStats* into) {
  for (const QueryOpStats& op : from.per_op) {
    if (op.op_id < 0 || static_cast<size_t>(op.op_id) >= into->per_op.size()) {
      return Status::InvalidArgument(StrCat("stats of unknown op ", op.op_id));
    }
    QueryOpStats& agg = into->per_op[static_cast<size_t>(op.op_id)];
    agg.instances += op.instances;
    agg.metrics.MergeFrom(op.metrics);
  }
  into->batches_sent += from.batches_sent;
  into->batches_processed += from.batches_processed;
  into->batches_dropped += from.batches_dropped;
  into->batches_duplicated += from.batches_duplicated;
  into->queue_overflows += from.queue_overflows;
  into->batch_buffers_allocated += from.batch_buffers_allocated;
  into->batch_buffers_reused += from.batch_buffers_reused;
  into->peak_queue_depth =
      std::max(into->peak_queue_depth, from.peak_queue_depth);
  into->peak_memory_bytes += from.peak_memory_bytes;
  return Status::OK();
}

void AttachTrace(std::shared_ptr<const ThreadTraceRecorder> trace,
                 int64_t makespan, uint32_t width, QueryResult* result) {
  result->utilization = trace->Utilization(makespan);
  result->utilization_diagram = trace->RenderAscii(makespan, width);
  result->trace = std::move(trace);
}

std::string ExplainAnalyze(const QueryResult& result) {
  if (result.stats.per_op.empty()) return "";
  TablePrinter table({"op", "kind", "label", "inst", "rows in", "rows out",
                      "busy [s]", "build [s]", "probe [s]", "pipeline [s]",
                      "scan [s]", "emit [s]", "bloom [s]", "other [s]",
                      "batch p95 [ms]", "ht rows", "collisions", "peak mem"});
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
         FormatDouble(m.pipeline_seconds, 3), FormatDouble(m.scan_seconds, 3),
         FormatDouble(m.emit_seconds, 3),
         FormatDouble(m.skew_bloom_build_seconds, 3),
         FormatDouble(m.other_seconds, 3), p95, StrCat(m.hash_table_rows),
         StrCat(m.hash_collisions), FormatBytes(m.peak_memory_bytes)});
  }
  return table.ToString();
}

}  // namespace mjoin
