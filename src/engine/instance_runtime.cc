#include "engine/instance_runtime.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "engine/fault_injector.h"
#include "exec/batch_pool.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/pipelining_hash_join.h"
#include "exec/scan.h"
#include "exec/simple_hash_join.h"
#include "exec/sort_merge_join.h"

namespace mjoin {

ThreadWorkType ConsumeWorkType(XraOpKind kind, int port) {
  switch (kind) {
    case XraOpKind::kSimpleHashJoin:
      return port == SimpleHashJoinOp::kBuildPort ? ThreadWorkType::kBuild
                                                  : ThreadWorkType::kProbe;
    case XraOpKind::kPipeliningHashJoin:
    case XraOpKind::kFilter:
      return ThreadWorkType::kPipeline;
    case XraOpKind::kSortMergeJoin:
      return ThreadWorkType::kBuild;  // run-buffer fill
    case XraOpKind::kAggregate:
      return ThreadWorkType::kBuild;  // group-table fill
    default:
      return ThreadWorkType::kOther;
  }
}

ThreadWorkType InputDoneWorkType(XraOpKind kind, int port) {
  switch (kind) {
    case XraOpKind::kSimpleHashJoin:
      return port == SimpleHashJoinOp::kBuildPort ? ThreadWorkType::kProbe
                                                  : ThreadWorkType::kOther;
    case XraOpKind::kSortMergeJoin:
      return ThreadWorkType::kMerge;
    case XraOpKind::kAggregate:
      return ThreadWorkType::kEmit;
    default:
      return ThreadWorkType::kOther;
  }
}

double* PhaseBucket(OpMetrics* m, ThreadWorkType type) {
  switch (type) {
    case ThreadWorkType::kBuild:
      return &m->build_seconds;
    case ThreadWorkType::kProbe:
    case ThreadWorkType::kMerge:
      return &m->probe_seconds;
    case ThreadWorkType::kPipeline:
      return &m->pipeline_seconds;
    case ThreadWorkType::kScan:
      return &m->scan_seconds;
    case ThreadWorkType::kEmit:
      return &m->emit_seconds;
    case ThreadWorkType::kBloomBuild:
      return &m->skew_bloom_build_seconds;
    default:
      return &m->other_seconds;
  }
}

namespace {

std::vector<Relation> EmptyFragments(const XraOp& o) {
  std::vector<Relation> frags;
  frags.reserve(o.processors.size());
  for (size_t i = 0; i < o.processors.size(); ++i) {
    frags.emplace_back(*o.output_schema);
  }
  return frags;
}

/// A scan reads fragment `fragment` of base relation `input` by `rule`; a
/// rescan reads all of its stored fragment `input`.
StatusOr<std::unique_ptr<Operator>> MakeOperator(const XraOp& o,
                                                 const Relation* input,
                                                 const FragmentRule& rule,
                                                 uint32_t fragment) {
  switch (o.kind) {
    case XraOpKind::kScan:
    case XraOpKind::kRescan:
      return std::unique_ptr<Operator>(std::make_unique<ScanOp>(
          [input] { return input; }, o.output_schema, rule, fragment));
    case XraOpKind::kSimpleHashJoin:
      return std::unique_ptr<Operator>(
          std::make_unique<SimpleHashJoinOp>(o.join_spec));
    case XraOpKind::kPipeliningHashJoin:
      return std::unique_ptr<Operator>(
          std::make_unique<PipeliningHashJoinOp>(o.join_spec));
    case XraOpKind::kSortMergeJoin:
      return std::unique_ptr<Operator>(
          std::make_unique<SortMergeJoinOp>(o.join_spec));
    case XraOpKind::kFilter: {
      MJOIN_ASSIGN_OR_RETURN(std::unique_ptr<FilterOp> filter,
                             FilterOp::Make(o.input_schema, o.filter));
      return std::unique_ptr<Operator>(std::move(filter));
    }
    case XraOpKind::kAggregate: {
      MJOIN_ASSIGN_OR_RETURN(
          std::unique_ptr<AggregateOp> aggregate,
          AggregateOp::Make(o.input_schema, o.group_column, o.value_column));
      return std::unique_ptr<Operator>(std::move(aggregate));
    }
  }
  return Status::Internal(StrCat("op ", o.id, " has an unknown kind"));
}

}  // namespace

void OpInstance::BatchFull(uint32_t dest) { runtime->FlushDest(this, dest); }

const CostParams& OpInstance::costs() const {
  return runtime->settings().costs;
}

MemoryBudget* OpInstance::memory_budget() const {
  return runtime->settings().budget;
}

bool OpInstance::cancelled() const { return runtime->cancelled(); }

void OpInstance::ReportError(const Status& status) {
  runtime->host()->Abort(status);
}

OpMetrics* OpInstance::metrics() const {
  return runtime->settings().collect_metrics ? &op_metrics : nullptr;
}

StatusOr<FragmentRule> DeclusterScan(const ParallelPlan& plan,
                                     const XraOp& scan) {
  auto m = static_cast<uint32_t>(scan.processors.size());
  const XraOp& consumer = plan.ops[static_cast<size_t>(scan.consumer)];
  if (consumer.inputs[scan.consumer_port].routing == Routing::kColocated &&
      consumer.is_join()) {
    size_t key = scan.consumer_port == 0 ? consumer.join_spec.left_key
                                         : consumer.join_spec.right_key;
    return FragmentRule::Hash(*scan.output_schema, key, m);
  }
  return FragmentRule::RoundRobin(m);
}

bool SendsOverNetwork(const ParallelPlan& plan, const XraOp& producer) {
  const XraOp& consumer = plan.ops[static_cast<size_t>(producer.consumer)];
  return consumer.inputs[producer.consumer_port].routing ==
         Routing::kHashSplit;
}

InstanceRuntime::InstanceRuntime(const ParallelPlan& plan, InstanceHost* host,
                                 RuntimeSettings settings)
    : plan_(plan),
      host_(host),
      settings_(std::move(settings)),
      observe_(settings_.collect_metrics || settings_.record_trace) {}

Status InstanceRuntime::Build(const Database& db) {
  const size_t num_ops = plan_.ops.size();
  defended_.assign(num_ops, false);
  if (settings_.skew_defense.enabled()) {
    for (int id : DefendedJoinOps(plan_)) {
      defended_[static_cast<size_t>(id)] = true;
    }
  }
  stored_.resize(static_cast<size_t>(plan_.num_results));
  for (const XraOp& o : plan_.ops) {
    if (o.store_result >= 0) {
      stored_[static_cast<size_t>(o.store_result)] = EmptyFragments(o);
    }
  }

  // A zero batch_size cost model degrades to flush-per-row (threshold 1).
  const uint32_t flush_threshold =
      std::max<uint32_t>(1, settings_.costs.batch_size);
  instances_.resize(num_ops);
  for (const XraOp& o : plan_.ops) {
    const Relation* base = nullptr;
    FragmentRule rule = FragmentRule::RoundRobin(1);
    if (o.kind == XraOpKind::kScan) {
      MJOIN_ASSIGN_OR_RETURN(base, db.Get(o.relation));
      MJOIN_ASSIGN_OR_RETURN(rule, DeclusterScan(plan_, o));
    }
    auto& list = instances_[static_cast<size_t>(o.id)];
    list.resize(o.processors.size());
    for (uint32_t i = 0; i < o.processors.size(); ++i) {
      if (!host_->Hosts(o.processors[i])) continue;
      auto inst = std::make_unique<OpInstance>(this, o, i);
      if (o.kind == XraOpKind::kRescan) {
        const Relation* stored =
            &stored_[static_cast<size_t>(o.stored_result)][i];
        MJOIN_ASSIGN_OR_RETURN(inst->oper, MakeOperator(o, stored, rule, 0));
      } else {
        MJOIN_ASSIGN_OR_RETURN(inst->oper, MakeOperator(o, base, rule, i));
      }
      // Expected end-of-stream messages per port.
      for (int port = 0; port < inst->oper->num_input_ports(); ++port) {
        const XraInput& in = o.inputs[port];
        inst->eos_remaining[port] =
            in.routing == Routing::kColocated
                ? 1
                : static_cast<int>(op(in.producer).processors.size());
      }
      // Store-mode output accumulates in a single pending batch that each
      // flush bulk-appends to the local stored fragment; otherwise one
      // pending batch per consumer instance.
      uint32_t num_dests = 1;
      int split_column = -1;
      uint32_t fixed_dest = 0;
      if (o.consumer >= 0) {
        const XraOp& consumer = op(o.consumer);
        const XraInput& in = consumer.inputs[o.consumer_port];
        num_dests = static_cast<uint32_t>(consumer.processors.size());
        if (in.routing == Routing::kHashSplit) {
          split_column = static_cast<int>(in.split_key);
        }
        if (in.routing == Routing::kColocated) fixed_dest = i;
      }
      inst->out_pending.reserve(num_dests);
      for (uint32_t d = 0; d < num_dests; ++d) {
        inst->out_pending.emplace_back(o.output_schema);
      }
      inst->writer.Configure(inst->out_pending.data(), num_dests, split_column,
                             fixed_dest, flush_threshold, inst.get());
      list[i] = std::move(inst);
    }
  }
  return Status::OK();
}

thread_local InstanceRuntime::Slice* InstanceRuntime::innermost_ = nullptr;

void InstanceRuntime::EnterSlice(Slice* slice) {
  slice->start = slice->segment_start = NowNs();
  slice->outer = innermost_;
  innermost_ = slice;
}

int64_t InstanceRuntime::ExitSlice(Slice* slice) {
  const int64_t now = NowNs();
  innermost_ = slice->outer;
  CloseSegment(slice, now);
  if (Slice* outer = slice->outer) {
    // The enclosing slice paused for this one's whole span.
    CloseSegment(outer, slice->start);
    outer->segment_start = now;
  }
  return slice->own_ns;
}

void InstanceRuntime::CloseSegment(Slice* slice, int64_t end_ns) {
  slice->own_ns += end_ns - slice->segment_start;
  if (slice->runtime->settings_.record_trace) {
    slice->runtime->host_->RecordTrace(slice->processor,
                                       slice->segment_start, end_ns,
                                       slice->type, slice->op_id);
  }
}

void InstanceRuntime::RecordSlice(uint32_t processor, int64_t t0_ns,
                                  int64_t t1_ns, ThreadWorkType type,
                                  int op_id) {
  if (settings_.record_trace) {
    host_->RecordTrace(processor, t0_ns, t1_ns, type, op_id);
  }
  if (Slice* outer = innermost_) {
    CloseSegment(outer, t0_ns);
    outer->segment_start = t1_ns;
  }
}

template <typename Fn>
int64_t InstanceRuntime::Observed(OpInstance* inst, ThreadWorkType type,
                                  Fn&& fn) {
  if (!observe_) {
    fn();
    return 0;
  }
  const int64_t ns = TimeSlice(inst->processor, type, inst->op.id, fn);
  if (settings_.collect_metrics) {
    *PhaseBucket(&inst->op_metrics, type) += static_cast<double>(ns) * 1e-9;
  }
  return ns;
}

bool InstanceRuntime::Live() {
  if (aborted()) return false;
  if (settings_.limits == nullptr) return true;
  Status stop = settings_.limits->Check();
  if (stop.ok()) return true;
  host_->Abort(std::move(stop));
  return false;
}

void InstanceRuntime::Start(OpInstance* inst) {
  if (!Live()) return;
  MJOIN_CHECK(!inst->started);
  inst->started = true;
  Open(inst);
  ReleasePreStart(inst);
}

void InstanceRuntime::Open(OpInstance* inst) {
  Observed(inst, ThreadWorkType::kStartup, [inst] { inst->oper->Open(inst); });
  if (inst->oper->is_source()) host_->SchedulePump(inst);
}

void InstanceRuntime::ReleasePreStart(OpInstance* inst) {
  while (!inst->pre_start.empty() && !aborted()) {
    auto fn = std::move(inst->pre_start.front());
    inst->pre_start.pop_front();
    fn();
  }
}

bool InstanceRuntime::Produce(OpInstance* inst) {
  if (!Live()) return false;
  bool more = false;
  Observed(inst, ThreadWorkType::kScan,
           [inst, &more] { more = inst->oper->Produce(inst); });
  if (!more) FinishInstance(inst);
  return more;
}

void InstanceRuntime::FlushDest(OpInstance* inst, uint32_t dest) {
  TupleBatch& pending = inst->out_pending[dest];
  if (pending.empty()) return;
  if (aborted_.load(std::memory_order_relaxed)) {
    // Teardown: the rows are going nowhere; drop them but keep the buffer.
    pending.Clear();
    return;
  }
  const XraOp& o = inst->op;
  if (o.store_result >= 0) {
    // Local store: reserve the budget for exactly the flushed bytes in one
    // call (not per row), then bulk-append into the stored fragment. The
    // pending batch keeps its capacity for the next fill.
    if (settings_.budget != nullptr) {
      Status reserved = settings_.budget->Reserve(pending.byte_size());
      if (!reserved.ok()) {
        host_->Abort(std::move(reserved));
        return;
      }
    }
    stored_[static_cast<size_t>(o.store_result)][inst->index].AppendRows(
        pending.raw_data(), pending.num_tuples());
    pending.Clear();
    return;
  }
  int copies = 1;
  if (settings_.injector != nullptr) {
    if (settings_.injector->ShouldDropBatch(o.consumer)) {
      batches_dropped_.fetch_add(1, std::memory_order_relaxed);
      pending.Clear();
      return;
    }
    if (settings_.injector->ShouldDuplicateBatch(o.consumer)) {
      batches_duplicated_.fetch_add(1, std::memory_order_relaxed);
      copies = 2;
    }
  }
  batches_sent_.fetch_add(static_cast<uint64_t>(copies),
                          std::memory_order_relaxed);
  host_->DeliverBatch(inst, dest, pending, copies);
}

void InstanceRuntime::OnBatch(OpInstance* inst, int port,
                              const TupleBatch& batch) {
  if (!Live()) return;
  if (settings_.injector != nullptr) {
    Status status = settings_.injector->BeforeConsume(inst->op.id);
    if (!status.ok()) {
      host_->Abort(std::move(status));
      return;
    }
  }
  OpMetrics& m = inst->op_metrics;
  m.rows_in[port] += batch.num_tuples();
  ++m.batches_in[port];
  const int64_t ns =
      Observed(inst, ConsumeWorkType(inst->op.kind, port),
               [inst, port, &batch] { inst->oper->Consume(port, batch, inst); });
  if (settings_.collect_metrics) {
    m.batch_seconds.Add(static_cast<double>(ns) * 1e-9);
  }
  AfterCallback(inst);
}

void InstanceRuntime::OnEos(OpInstance* inst, int port) {
  if (!Live()) return;
  MJOIN_CHECK(inst->eos_remaining[port] > 0)
      << "unexpected EOS on port " << port << " of " << inst->op.label;
  if (--inst->eos_remaining[port] == 0) {
    if (port == SimpleHashJoinOp::kBuildPort && defended(inst->op.id)) {
      // Defended join: the build table is complete but InputDone(build)
      // waits for the merged skew directive (probe batches buffer inside
      // the operator meanwhile).
      HandleDefendedBuildEos(inst);
      return;
    }
    Observed(inst, InputDoneWorkType(inst->op.kind, port),
             [inst, port] { inst->oper->InputDone(port, inst); });
  }
  AfterCallback(inst);
}

void InstanceRuntime::HandleDefendedBuildEos(OpInstance* inst) {
  auto* join = static_cast<SimpleHashJoinOp*>(inst->oper.get());
  SkewJoinReport report;
  Observed(inst, ThreadWorkType::kBloomBuild, [&] {
    report = BuildSkewReport(
        join->table(), inst->op.id, inst->index,
        static_cast<uint32_t>(inst->op.processors.size()),
        settings_.skew_defense);
  });
  // The report goes out before the milestone, so by the time the scheduler
  // can act on this build being done, the merge already holds the report.
  host_->SubmitSkewReport(inst, std::move(report));
  // The table itself is done: report the milestone now so dependent groups
  // overlap with the directive round-trip. AfterCallback must not
  // re-report it once InputDone(build) eventually runs.
  inst->build_done_reported = true;
  host_->ReportMilestone(inst, Milestone::kBuildDone);
}

void InstanceRuntime::ApplyDirective(
    std::shared_ptr<const SkewDirective> directive) {
  const XraOp& o = op(directive->op);
  // Producers first: once the deferred InputDone below releases the probe,
  // every row they emit is already defended. Each gets its own hook
  // (writers are single-threaded, the hook holds per-instance state); a
  // producer that has not started yet gets it before its first row.
  const int producer = o.inputs[SimpleHashJoinOp::kProbePort].producer;
  if (producer >= 0) {
    for (const auto& p : instances(producer)) {
      if (p == nullptr) continue;
      OpInstance* raw = p.get();
      host_->Post(raw, [this, raw, directive] {
        // A producer that already finished emitted its rows undefended:
        // correct (hot rows at their owner still match), just unsprayed.
        if (raw->complete) return;
        raw->skew_hook = std::make_unique<SkewEmitDefense>(*directive);
        raw->writer.SetDefense(raw->skew_hook.get());
        double& fp = raw->op_metrics.skew_bloom_fp_rate;
        fp = std::max(fp, directive->bloom.EstimateFpRate());
      });
    }
  }
  // Every join instance has started: each one reported its build EOS.
  for (const auto& j : instances(directive->op)) {
    if (j == nullptr) continue;
    OpInstance* raw = j.get();
    host_->Post(raw,
                [this, raw, directive] { ApplyDirectiveAt(raw, *directive); });
  }
}

void InstanceRuntime::ApplyDirectiveAt(OpInstance* inst,
                                       const SkewDirective& directive) {
  if (!Live()) return;
  auto* join = static_cast<SimpleHashJoinOp*>(inst->oper.get());
  inst->op_metrics.skew_replicated_rows +=
      ApplySkewDirective(directive, join->mutable_table());
  join->NoteTableGrowth();
  // Hot-key count is a per-join fact, not per-instance: record it once
  // (instance 0) so the post-run merge does not multiply it.
  if (inst->index == 0) {
    inst->op_metrics.skew_hot_keys += directive.hot_keys.size();
  }
  Observed(inst,
           InputDoneWorkType(XraOpKind::kSimpleHashJoin,
                             SimpleHashJoinOp::kBuildPort),
           [inst] {
             inst->oper->InputDone(SimpleHashJoinOp::kBuildPort, inst);
           });
  AfterCallback(inst);
}

void InstanceRuntime::AfterCallback(OpInstance* inst) {
  if (aborted()) return;
  if (inst->op.kind == XraOpKind::kSimpleHashJoin &&
      !inst->build_done_reported) {
    auto* join = static_cast<SimpleHashJoinOp*>(inst->oper.get());
    if (join->build_done()) {
      inst->build_done_reported = true;
      host_->ReportMilestone(inst, Milestone::kBuildDone);
    }
  }
  if (!inst->complete && inst->oper->finished()) FinishInstance(inst);
}

void InstanceRuntime::FinishInstance(OpInstance* inst) {
  if (aborted()) return;
  MJOIN_CHECK(!inst->complete);
  inst->complete = true;
  host_->OnComplete(inst);
  // Flush every pending destination (the stored-result tail included),
  // then signal end-of-stream downstream.
  for (uint32_t d = 0; d < inst->out_pending.size(); ++d) FlushDest(inst, d);
  if (aborted()) return;
  const XraOp& o = inst->op;
  if (o.store_result == plan_.final_result) {
    // The result stays where it was stored, so its fragment is summarized
    // here, on the storer's own thread: in parallel across nodes, inside
    // the run, and in this instance's phase bucket and trace lane.
    Observed(inst, ThreadWorkType::kEmit, [this, inst, &o] {
      inst->result_summary = SummarizeRelation(
          stored_[static_cast<size_t>(o.store_result)][inst->index]);
    });
  }
  if (o.consumer >= 0) {
    if (SendsOverNetwork(plan_, o)) {
      for (uint32_t d = 0; d < op(o.consumer).processors.size(); ++d) {
        host_->SendEos(inst, d);
      }
    } else {
      host_->SendEos(inst, inst->index);
    }
  }
  host_->ReportMilestone(inst, Milestone::kComplete);
}

ResultSummary InstanceRuntime::HostedResultSummary() const {
  ResultSummary summary;
  for (const XraOp& o : plan_.ops) {
    if (o.store_result != plan_.final_result) continue;
    for (const auto& inst : instances(o.id)) {
      if (inst != nullptr) summary += inst->result_summary;
    }
  }
  return summary;
}

std::vector<QueryOpStats> InstanceRuntime::HostedOpStats() const {
  std::vector<QueryOpStats> per_op;
  for (QueryOpStats& op : NewOpStats(plan_)) {
    OpMetrics& out = op.metrics;
    for (const auto& inst : instances(op.op_id)) {
      if (inst == nullptr) continue;
      ++op.instances;
      out.MergeFrom(inst->op_metrics);
      // Every output row passes through the writer, so its commit count is
      // the instance's rows-out; the writer also carries the skew-defense
      // drop/re-route counts (attributed to the producer that saved the
      // wire bytes).
      out.rows_out += inst->writer.rows_committed();
      out.skew_bloom_filtered_rows += inst->writer.rows_dropped();
      out.skew_repartitioned_rows += inst->writer.rows_repartitioned();
      inst->oper->CollectMetrics(&out);
      out.peak_memory_bytes += inst->oper->peak_memory_bytes();
    }
    if (op.instances > 0) per_op.push_back(std::move(op));
  }
  return per_op;
}

void InstanceRuntime::PinPools(std::vector<const BatchPool*> pools) {
  pools_ = std::move(pools);
  for (const BatchPool* pool : pools_) {
    pool_base_allocated_ += pool->allocated();
    pool_base_reused_ += pool->reused();
  }
}

QueryStats InstanceRuntime::GatherStats() const {
  QueryStats stats;
  for (const BatchPool* pool : pools_) {
    stats.batch_buffers_allocated += pool->allocated();
    stats.batch_buffers_reused += pool->reused();
  }
  stats.batch_buffers_allocated -= pool_base_allocated_;
  stats.batch_buffers_reused -= pool_base_reused_;
  if (settings_.budget != nullptr) {
    stats.peak_memory_bytes = settings_.budget->peak();
  }
  stats.batches_sent = batches_sent_.load(std::memory_order_relaxed);
  stats.batches_dropped = batches_dropped_.load(std::memory_order_relaxed);
  stats.batches_duplicated =
      batches_duplicated_.load(std::memory_order_relaxed);
  for (const auto& op_instances : instances_) {
    for (const auto& inst : op_instances) {
      if (inst == nullptr) continue;
      stats.batches_processed +=
          inst->op_metrics.batches_in[0] + inst->op_metrics.batches_in[1];
    }
  }
  if (settings_.collect_metrics) stats.per_op = HostedOpStats();
  return stats;
}

}  // namespace mjoin
