#include "engine/process_worker.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/string_util.h"
#include "engine/fault_injector.h"
#include "engine/instance_runtime.h"
#include "engine/process_protocol.h"
#include "engine/result.h"
#include "exec/batch.h"
#include "exec/batch_pool.h"
#include "net/channel.h"
#include "net/shm_ring.h"
#include "skew/defense.h"
#include "xra/text.h"

namespace mjoin {

namespace {

/// Bytes parked behind full rings at which the worker stops pumping its
/// sources and lets the consumers drain first. Ring capacity bounds what
/// is in flight; this bounds what waits behind it.
constexpr size_t kBacklogWatermark = 4u << 20;

/// Worker-side state of one query: the runtime's hosted instances, the
/// frame loop and shm transport, and the query's one report. The whole
/// worker is one thread, so Post() runs inline; output leaves through each
/// instance's EmitWriter, whose pending batch is touched again only by the
/// one copy onto a ring (or not at all for a local consumer).
class WorkerRun : public InstanceHost {
 public:
  WorkerRun(FrameChannel* chan, PlanEnvelope env, ParallelPlan plan,
            const Database* database, ShmDataPlane* plane, BatchPool* pool)
      : chan_(chan),
        env_(std::move(env)),
        plan_(std::move(plan)),
        database_(database),
        registry_(plan_),
        budget_(env_.memory_budget_bytes),
        pool_(pool),
        pool_allocated_base_(pool->allocated()),
        pool_reused_base_(pool->reused()),
        plane_(plane),
        coord_ep_(env_.num_workers) {}

  Status Setup();
  /// Runs the event loop until kShutdown (returns OK) or a fatal error.
  Status Loop();

  // InstanceHost:
  bool Hosts(uint32_t processor) const override {
    return WorkerOf(processor) == env_.worker_id;
  }
  void SchedulePump(OpInstance* inst) override { pump_queue_.push_back(inst); }
  void DeliverBatch(OpInstance* producer, uint32_t dest, TupleBatch& pending,
                    int copies) override;
  void SendEos(OpInstance* producer, uint32_t dest) override;
  void ReportMilestone(OpInstance* inst, Milestone milestone) override;
  /// Defended joins defer InputDone(build): the report travels inline in a
  /// kSkewReport frame, and the deferred InputDone runs when the
  /// coordinator's kSkewDirective comes back. Probe rows arriving in
  /// between buffer inside the join, so the deferral absorbs every
  /// ordering race.
  void SubmitSkewReport(OpInstance* inst, SkewJoinReport report) override;
  void Abort(Status status) override {
    if (!run_status_.ok()) return;
    run_status_ = std::move(status);
    runtime_->MarkAborted();
  }
  void RecordTrace(uint32_t processor, int64_t t0, int64_t t1,
                   ThreadWorkType type, int op_id) override {
    if (env_.record_trace && t1 > t0) {
      trace_events_.push_back(WireTraceEvent{
          processor, t0, t1, type, static_cast<int32_t>(op_id)});
    }
  }

 private:
  bool aborted() const { return !run_status_.ok(); }
  const XraOp& op(int id) const { return plan_.ops[static_cast<size_t>(id)]; }
  uint32_t WorkerOf(uint32_t processor) const {
    return WorkerOfProcessor(processor, env_.num_workers,
                             plan_.num_processors);
  }
  /// The hosted instance a data or EOS message is routed to; an error when
  /// the route names no input port of an instance of this worker.
  StatusOr<OpInstance*> RouteTarget(int op_id, uint32_t index, uint32_t port,
                                    const char* what) const;

  Status HandleFrame(const Frame& frame);
  Status HandleTrigger(const Frame& frame);
  Status HandleSkewDirective(const Frame& frame);
  /// kFinish: pushes this worker's final-result fragments onto its relay
  /// ring when the query materializes them, and builds the report.
  Status FinishQuery();
  void PumpSources();
  /// Delivers a received batch (or EOS) to a hosted instance.
  void Receive(OpInstance* target, int port,
               std::shared_ptr<TupleBatch> batch);
  void ReceiveEos(OpInstance* target, int port);

  // -- shm data plane ----------------------------------------------------
  void PushShmRecord(uint32_t dest_ep, ShmRecordType type, const void* hdr,
                     size_t hdr_bytes, const std::byte* body,
                     size_t body_bytes);
  void RetryBacklogs();
  void RingDirtyDoorbells();
  bool InboundRingsNonEmpty();
  Status DrainInboundRings();
  Status ConsumeShmRecord(ShmRing* ring, const ShmRecordView& rec);
  Status ConsumeShmData(ShmRing* ring, const ShmRecordView& rec);
  Status ConsumeShmEos(ShmRing* ring, const ShmRecordView& rec);

  FrameChannel* chan_;
  PlanEnvelope env_;
  ParallelPlan plan_;
  /// The coordinator's database, inherited at fork; scans read it in place.
  const Database* database_;
  SchemaRegistry registry_;
  MemoryBudget budget_;
  /// Worker-lifetime buffer pool (owned by RunProcessWorker): a worker's
  /// buffers survive across queries, so steady-state runs reuse instead
  /// of allocating. The *_base_ counters pin the pool's lifetime
  /// totals at run start — the reported buffer stats are per-run deltas,
  /// identical from a warm or a freshly forked worker.
  BatchPool* pool_;
  const uint64_t pool_allocated_base_;
  const uint64_t pool_reused_base_;
  std::unique_ptr<FaultInjector> injector_;

  std::deque<OpInstance*> pump_queue_;
  /// Per-op schema id of its output rows (only used on remote sends).
  std::vector<uint32_t> out_schema_id_;

  Status run_status_;
  bool shutdown_ = false;
  WorkerRunStats stats_;
  std::vector<WireTraceEvent> trace_events_;

  /// This query's ring directory over the inherited arena.
  ShmDataPlane* plane_;
  /// The coordinator's endpoint id in the ring directory.
  const uint32_t coord_ep_;
  struct ShmBacklogRecord {
    ShmRecordType type;
    std::vector<std::byte> bytes;  // header + rows, render-complete
  };
  /// Per-ring FIFO of records that found their ring full. New records are
  /// appended behind the backlog, so per-edge order is preserved; the loop
  /// retries the backlog every turn and on the producer-side doorbell.
  std::unordered_map<size_t, std::deque<ShmBacklogRecord>> ring_backlog_;
  size_t ring_backlog_bytes_ = 0;
  uint64_t ring_backlog_records_ = 0;
  /// Endpoints whose doorbell should ring this loop turn (coalesced: one
  /// eventfd write per endpoint per turn, not one per record).
  std::vector<bool> doorbell_dirty_;
  /// Built at kFinish, held until every backlog drained onto its ring, so
  /// the coordinator never tears the fleet down with result rows still
  /// queued.
  std::optional<WorkerReport> report_;

  /// Built in Setup once the fault scenario is parsed; declared last so
  /// its instances release their budget into a live budget_.
  std::optional<InstanceRuntime> runtime_;
};

Status WorkerRun::Setup() {
  // Records never split a row, so a row too wide for the rings could never
  // be sent; the coordinator sizes the rings to rule that out.
  const size_t widest = WidestShmRecordPayload(plan_);
  if (widest > plane_->max_payload()) {
    return Status::InvalidArgument(
        StrCat("plan rows need ", widest, "-byte ring records, but ",
               plane_->ring_bytes(), "-byte rings hold at most ",
               plane_->max_payload()));
  }
  doorbell_dirty_.assign(plane_->num_endpoints(), false);
  out_schema_id_.assign(plan_.ops.size(), 0);
  for (const XraOp& o : plan_.ops) {
    if (o.consumer < 0) continue;
    MJOIN_ASSIGN_OR_RETURN(out_schema_id_[static_cast<size_t>(o.id)],
                           registry_.IdOf(*o.output_schema));
  }
  if (!env_.fault_scenario.empty()) {
    MJOIN_ASSIGN_OR_RETURN(FaultScenario scenario,
                           ParseFaultScenario(env_.fault_scenario));
    // An attempt-scoped scenario arms only on its attempt: retries of a
    // first-attempt-only fault run entirely clean.
    if (scenario.on_attempt < 0 ||
        scenario.on_attempt == static_cast<int>(env_.attempt)) {
      injector_ = std::make_unique<FaultInjector>(scenario);
    }
  }
  RuntimeSettings settings;
  settings.costs.batch_size = env_.batch_size;
  settings.budget = &budget_;
  settings.injector = injector_.get();
  // Derived from the shipped options and the parsed plan, so the defended
  // set always matches the coordinator's.
  settings.skew_defense = env_.skew_defense;
  settings.collect_metrics = env_.collect_metrics;
  settings.record_trace = env_.record_trace;
  runtime_.emplace(plan_, this, std::move(settings));
  runtime_->set_time_origin_ns(env_.trace_origin_ns);
  return runtime_->Build(*database_);
}

void WorkerRun::PumpSources() {
  OpInstance* inst = pump_queue_.front();
  pump_queue_.pop_front();
  if (inst->complete || aborted()) return;
  if (injector_ != nullptr) injector_->OnDequeue(inst->processor);
  if (runtime_->Produce(inst)) pump_queue_.push_back(inst);
}

void WorkerRun::DeliverBatch(OpInstance* producer, uint32_t dest,
                             TupleBatch& pending, int copies) {
  const XraOp& o = producer->op;
  const XraOp& consumer_op = op(o.consumer);
  const int port = o.consumer_port;
  if (OpInstance* consumer = runtime_->instance(o.consumer, dest)) {
    // Local consumer: the pending batch is consumed in place — no
    // serialization, no copy. Only a not-yet-started consumer forces a
    // pooled buffer swap so the rows survive until its trigger.
    stats_.local_deliveries += static_cast<uint64_t>(copies);
    if (consumer->started) {
      for (int c = 0; c < copies && !aborted(); ++c) {
        runtime_->OnBatch(consumer, port, pending);
      }
      pending.Clear();
    } else {
      std::shared_ptr<TupleBatch> batch = pool_->Acquire(o.output_schema);
      std::swap(*batch, pending);
      for (int c = 0; c < copies; ++c) Receive(consumer, port, batch);
    }
    return;
  }
  // Remote consumer: one copy onto the ring toward its worker — the
  // "serialize" of this plane is a bounds-checked memcpy of the raw rows,
  // chunked so every record fits one ring reservation. The copy is timed
  // whether or not metrics collection is on: transport cost is what the
  // net bench exists to surface, so the timers must not vanish with
  // observability. It is its own slice, out of the producer's.
  const uint32_t tuple_size = pending.schema().tuple_size();
  const uint32_t dest_ep = WorkerOf(consumer_op.processors[dest]);
  const size_t rows_per_record =
      (plane_->max_payload() - sizeof(ShmDataHeader)) / tuple_size;
  auto copy_out = [&] {
    for (int c = 0; c < copies; ++c) {
      size_t offset = 0;
      while (offset < pending.num_tuples()) {
        size_t count =
            std::min(rows_per_record, pending.num_tuples() - offset);
        ShmDataHeader hdr;
        hdr.consumer_op = o.consumer;
        hdr.dest_index = dest;
        hdr.port = static_cast<uint32_t>(port);
        hdr.schema_id = out_schema_id_[static_cast<size_t>(o.id)];
        hdr.tuple_size = tuple_size;
        hdr.num_tuples = static_cast<uint32_t>(count);
        PushShmRecord(dest_ep, ShmRecordType::kData, &hdr, sizeof(hdr),
                      pending.raw_data() + offset * tuple_size,
                      count * tuple_size);
        offset += count;
      }
    }
  };
  const int64_t ns = runtime_->TimeSlice(
      producer->processor, ThreadWorkType::kSerialize, o.id, copy_out);
  stats_.serialize_seconds += static_cast<double>(ns) * 1e-9;
  pending.Clear();
}

void WorkerRun::PushShmRecord(uint32_t dest_ep, ShmRecordType type,
                              const void* hdr, size_t hdr_bytes,
                              const std::byte* body, size_t body_bytes) {
  const size_t ring_index = plane_->RingIndexTo(env_.worker_id, dest_ep);
  MJOIN_CHECK(ring_index != kNoShmRing)
      << "no ring toward endpoint " << dest_ep;
  ++stats_.shm_records_sent;
  stats_.shm_bytes_sent += hdr_bytes + body_bytes;
  auto& backlog = ring_backlog_[ring_index];
  if (backlog.empty() && plane_->ring(ring_index)
                             ->TryPush(type, hdr, hdr_bytes, body,
                                       body_bytes)) {
    doorbell_dirty_[dest_ep] = true;
    return;
  }
  // Ring full (or draining a backlog already): park the rendered record
  // instead of blocking — the single-threaded worker must keep consuming
  // its own inbound rings or two full rings facing each other deadlock.
  ++stats_.ring_full_stalls;
  ShmBacklogRecord rec;
  rec.type = type;
  rec.bytes.resize(hdr_bytes + body_bytes);
  std::memcpy(rec.bytes.data(), hdr, hdr_bytes);
  if (body_bytes > 0) {
    std::memcpy(rec.bytes.data() + hdr_bytes, body, body_bytes);
  }
  ring_backlog_bytes_ += rec.bytes.size();
  backlog.push_back(std::move(rec));
  stats_.peak_backlog_records =
      std::max(stats_.peak_backlog_records, ++ring_backlog_records_);
}

void WorkerRun::RetryBacklogs() {
  for (auto& [ring_index, backlog] : ring_backlog_) {
    if (backlog.empty()) continue;
    ShmRing* ring = plane_->ring(ring_index);
    bool pushed = false;
    while (!backlog.empty()) {
      ShmBacklogRecord& rec = backlog.front();
      if (!ring->TryPush(rec.type, rec.bytes.data(), rec.bytes.size(),
                         nullptr, 0)) {
        break;
      }
      ring_backlog_bytes_ -= rec.bytes.size();
      --ring_backlog_records_;
      backlog.pop_front();
      pushed = true;
    }
    if (pushed) doorbell_dirty_[plane_->spec(ring_index).to] = true;
  }
}

void WorkerRun::RingDirtyDoorbells() {
  for (uint32_t ep = 0; ep < doorbell_dirty_.size(); ++ep) {
    if (!doorbell_dirty_[ep]) continue;
    doorbell_dirty_[ep] = false;
    plane_->RingDoorbell(ep);
  }
}

void WorkerRun::SubmitSkewReport(OpInstance* inst, SkewJoinReport report) {
  // Report before milestone, on the same FIFO socket: by the time the
  // coordinator's scheduler can act on this build being done, it already
  // holds the report.
  chan_->QueueMsg(FrameType::kSkewReport, report);
}

Status WorkerRun::HandleSkewDirective(const Frame& frame) {
  WireReader reader(frame.payload);
  auto directive = std::make_shared<SkewDirective>();
  MJOIN_RETURN_IF_ERROR(DecodeMsg(&reader, directive.get()));
  if (directive->op < 0 ||
      static_cast<size_t>(directive->op) >= plan_.ops.size() ||
      !runtime_->defended(directive->op)) {
    return Status::InvalidArgument(
        StrCat("skew directive for undefended op ", directive->op));
  }
  // Replicated rows go into the join's build table as they are.
  const size_t width = op(directive->op).join_spec.left_schema->tuple_size();
  if (directive->tuple_size != width) {
    return Status::InvalidArgument(StrCat(
        "skew directive for op ", directive->op, " carries ",
        directive->tuple_size, "-byte rows, not the join's ", width));
  }
  runtime_->ApplyDirective(std::move(directive));
  return Status::OK();
}

void WorkerRun::SendEos(OpInstance* producer, uint32_t dest) {
  const int consumer_op = producer->op.consumer;
  const int port = producer->op.consumer_port;
  if (OpInstance* target = runtime_->instance(consumer_op, dest)) {
    ReceiveEos(target, port);
    return;
  }
  // EOS rides the ring its data took, behind the stream's last record,
  // so it can never overtake the last batch.
  ShmEosHeader hdr;
  hdr.consumer_op = consumer_op;
  hdr.dest_index = dest;
  hdr.port = static_cast<uint32_t>(port);
  PushShmRecord(WorkerOf(op(consumer_op).processors[dest]),
                ShmRecordType::kEos, &hdr, sizeof(hdr), nullptr, 0);
}

void WorkerRun::ReportMilestone(OpInstance* inst, Milestone milestone) {
  chan_->QueueMsg(FrameType::kMilestone,
                  MilestoneMsg{static_cast<int32_t>(inst->op.id),
                               inst->index, milestone});
}

void WorkerRun::Receive(OpInstance* target, int port,
                        std::shared_ptr<TupleBatch> batch) {
  runtime_->RunWhenStarted(
      target, [this, target, port, batch = std::move(batch)] {
        runtime_->OnBatch(target, port, *batch);
      });
}

void WorkerRun::ReceiveEos(OpInstance* target, int port) {
  runtime_->RunWhenStarted(
      target, [this, target, port] { runtime_->OnEos(target, port); });
}

StatusOr<OpInstance*> WorkerRun::RouteTarget(int op_id, uint32_t index,
                                             uint32_t port,
                                             const char* what) const {
  OpInstance* target = nullptr;
  if (op_id >= 0 && static_cast<size_t>(op_id) < plan_.ops.size() &&
      index < op(op_id).processors.size()) {
    target = runtime_->instance(op_id, index);
  }
  if (target == nullptr ||
      port >= static_cast<uint32_t>(target->oper->num_input_ports())) {
    return Status::InvalidArgument(
        StrCat(what, " for op ", op_id, " instance ", index, " port ", port,
               " is routed to worker ", env_.worker_id,
               ", which hosts no such input"));
  }
  if (injector_ != nullptr) injector_->OnDequeue(target->processor);
  return target;
}

Status WorkerRun::HandleTrigger(const Frame& frame) {
  WireReader reader(frame.payload);
  TriggerMsg trigger;
  MJOIN_RETURN_IF_ERROR(DecodeMsg(&reader, &trigger));
  const int32_t group = trigger.group;
  if (group < 0 || static_cast<size_t>(group) >= plan_.groups.size()) {
    return Status::OutOfRange(StrCat("trigger for unknown group ", group));
  }
  for (int op_id : plan_.groups[static_cast<size_t>(group)].ops) {
    for (const auto& inst : runtime_->instances(op_id)) {
      if (inst != nullptr) runtime_->Start(inst.get());
    }
  }
  return Status::OK();
}

bool WorkerRun::InboundRingsNonEmpty() {
  for (size_t i : plane_->InboundRings(env_.worker_id)) {
    if (!plane_->ring(i)->Empty()) return true;
  }
  return false;
}

Status WorkerRun::DrainInboundRings() {
  for (size_t ring_index : plane_->InboundRings(env_.worker_id)) {
    ShmRing* ring = plane_->ring(ring_index);
    // Bounded drain: only records already published when we got here. A
    // producer publishing at full speed cannot pin this loop turn forever.
    const uint64_t limit = ring->tail_cursor();
    bool released = false;
    while (ring->head_cursor() < limit && !aborted()) {
      ShmRecordView rec;
      MJOIN_ASSIGN_OR_RETURN(bool any, ring->TryRead(&rec));
      if (!any) break;  // only pads remained below the snapshot
      MJOIN_RETURN_IF_ERROR(ConsumeShmRecord(ring, rec));
      released = true;
    }
    if (released) {
      // Space doorbell: the producer may be sitting on a full-ring backlog.
      doorbell_dirty_[plane_->spec(ring_index).from] = true;
    }
  }
  return Status::OK();
}

Status WorkerRun::ConsumeShmRecord(ShmRing* ring, const ShmRecordView& rec) {
  ++stats_.shm_records_received;
  stats_.shm_bytes_received += rec.payload_bytes;
  switch (rec.type) {
    case ShmRecordType::kData:
      return ConsumeShmData(ring, rec);
    case ShmRecordType::kEos:
      return ConsumeShmEos(ring, rec);
    // kResultRows flows worker -> coordinator only, and TryRead swallows
    // pads; listing them keeps -Wswitch honest about new record types.
    case ShmRecordType::kResultRows:
    case ShmRecordType::kPad:
      break;
  }
  ring->Release();
  return Status::InvalidArgument(StrCat("worker received unexpected shm ",
                                        ShmRecordTypeName(rec.type),
                                        " record"));
}

Status WorkerRun::ConsumeShmData(ShmRing* ring, const ShmRecordView& rec) {
  ShmDataHeader hdr;
  if (rec.payload_bytes < sizeof(hdr)) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: short data header");
  }
  std::memcpy(&hdr, rec.payload, sizeof(hdr));
  StatusOr<OpInstance*> target = RouteTarget(
      hdr.consumer_op, hdr.dest_index, hdr.port, "shm data record");
  if (!target.ok()) {
    ring->Release();
    return target.status();
  }
  if (hdr.schema_id >= registry_.size()) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: unknown schema id");
  }
  const std::shared_ptr<const Schema>& schema = registry_.Get(hdr.schema_id);
  if (schema->tuple_size() != hdr.tuple_size ||
      rec.payload_bytes !=
          sizeof(hdr) + uint64_t{hdr.num_tuples} * hdr.tuple_size) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: row bytes disagree "
                               "with the data header");
  }
  // "Deserialize" here is the plane's whole point: one bounds-checked
  // memcpy out of the shared region. Timed unconditionally like the wire
  // decode so the bench sees where transport time goes.
  std::shared_ptr<TupleBatch> batch = pool_->Acquire(schema);
  const int64_t ns = runtime_->TimeSlice(
      (*target)->processor, ThreadWorkType::kDeserialize, hdr.consumer_op,
      [&] { batch->AppendRows(rec.payload + sizeof(hdr), hdr.num_tuples); });
  stats_.deserialize_seconds += static_cast<double>(ns) * 1e-9;
  // Rows are copied out: hand the space back before the possibly long
  // Consume below, so the producer keeps streaming while we join.
  ring->Release();
  Receive(*target, static_cast<int>(hdr.port), std::move(batch));
  return Status::OK();
}

Status WorkerRun::ConsumeShmEos(ShmRing* ring, const ShmRecordView& rec) {
  ShmEosHeader hdr;
  if (rec.payload_bytes != sizeof(hdr)) {
    ring->Release();
    return Status::Unavailable("corrupt shm record: bad eos header");
  }
  std::memcpy(&hdr, rec.payload, sizeof(hdr));
  ring->Release();
  MJOIN_ASSIGN_OR_RETURN(
      OpInstance* target,
      RouteTarget(hdr.consumer_op, hdr.dest_index, hdr.port,
                  "shm eos record"));
  ReceiveEos(target, static_cast<int>(hdr.port));
  return Status::OK();
}

Status WorkerRun::FinishQuery() {
  const XraOp* storer = nullptr;
  for (const XraOp& o : plan_.ops) {
    if (o.store_result == plan_.final_result) storer = &o;
  }
  MJOIN_CHECK(storer != nullptr);
  WorkerReport& report = report_.emplace();

  // Partial result summary over this worker's fragments of the final
  // result (the checksum is a sum mod 2^64, so per-worker summaries add up
  // to the query's).
  const ResultSummary summary = runtime_->HostedResultSummary();
  report.summary.cardinality = summary.cardinality;
  report.summary.checksum = summary.checksum;

  if (env_.materialize_result) {
    MJOIN_ASSIGN_OR_RETURN(uint32_t schema_id,
                           registry_.IdOf(*storer->output_schema));
    uint32_t tuple_size = storer->output_schema->tuple_size();
    // Ship fragments in chunks that each fit one ring record.
    const size_t rows_per_record =
        (plane_->max_payload() - sizeof(ShmResultRowsHeader)) / tuple_size;
    const auto& final_frags = runtime_->stored(plan_.final_result);
    for (size_t i = 0; i < final_frags.size(); ++i) {
      if (!Hosts(storer->processors[i])) continue;
      const Relation& frag = final_frags[i];
      size_t offset = 0;
      while (offset < frag.num_tuples()) {
        size_t count = std::min(rows_per_record, frag.num_tuples() - offset);
        ShmResultRowsHeader hdr;
        hdr.schema_id = schema_id;
        hdr.tuple_size = tuple_size;
        hdr.num_tuples = static_cast<uint32_t>(count);
        PushShmRecord(coord_ep_, ShmRecordType::kResultRows, &hdr,
                      sizeof(hdr), frag.raw_data() + offset * tuple_size,
                      count * tuple_size);
        offset += count;
      }
    }
  }

  for (const XraOp& o : plan_.ops) {
    OpStatsMsg msg;
    msg.op = o.id;
    msg.instances = runtime_->MergeOpMetrics(o.id, &msg.metrics);
    stats_.batches_processed +=
        msg.metrics.batches_in[0] + msg.metrics.batches_in[1];
    if (!env_.collect_metrics || msg.instances == 0) continue;
    report.ops.push_back(std::move(msg));
  }

  stats_.buffers_allocated = pool_->allocated() - pool_allocated_base_;
  stats_.buffers_reused = pool_->reused() - pool_reused_base_;
  stats_.peak_memory_bytes = budget_.peak();
  stats_.batches_dropped = runtime_->batches_dropped();
  stats_.batches_duplicated = runtime_->batches_duplicated();
  if (injector_ != nullptr) {
    stats_.faults_injected = injector_->faults_injected();
  }
  report.stats = stats_;
  report.trace = std::move(trace_events_);
  return Status::OK();
}

Status WorkerRun::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kTrigger:
      return HandleTrigger(frame);
    case FrameType::kSkewDirective:
      return HandleSkewDirective(frame);
    case FrameType::kFinish:
      return FinishQuery();
    case FrameType::kPing: {
      // Answer immediately, before any query work: liveness must not queue
      // behind a long build. The pong reuses the ping's sequence number.
      WireReader reader(frame.payload);
      HeartbeatMsg ping;
      MJOIN_RETURN_IF_ERROR(DecodeMsg(&reader, &ping));
      chan_->QueueMsg(FrameType::kPong, ping);
      return Status::OK();
    }
    case FrameType::kShutdown:
      shutdown_ = true;
      return Status::OK();
    // Frames the table says never arrive at a worker (worker-to-
    // coordinator and serve-layer classes), generated from
    // MJOIN_FRAME_TABLE. kPlan is class CW but handled by the parked
    // outer loop, never here. The switch stays default:-free so -Wswitch
    // flags any new wire frame that is silently unrouted here.
    case FrameType::kPlan:
    MJOIN_FRAME_CASES(NOT_CW)
      break;
  }
  return Status::InvalidArgument(StrCat(
      "worker received unexpected ", FrameTypeName(frame.type), " frame"));
}

Status WorkerRun::Loop() {
  for (;;) {
    RetryBacklogs();
    RingDirtyDoorbells();
    MJOIN_RETURN_IF_ERROR(chan_->Flush());
    bool peer_closed = false;
    MJOIN_RETURN_IF_ERROR(chan_->ReadAvailable(&peer_closed));
    // Ring records are consumed before any control frame: the peer rings,
    // then sends its frames, so a kTrigger or kFinish read just now can
    // rely on every record published before it being delivered already.
    MJOIN_RETURN_IF_ERROR(DrainInboundRings());
    if (aborted()) return run_status_;
    Frame frame;
    while (chan_->NextFrame(&frame)) {
      MJOIN_RETURN_IF_ERROR(HandleFrame(frame));
      if (aborted()) return run_status_;
      if (shutdown_) {
        return chan_->Flush();
      }
    }
    if (aborted()) return run_status_;
    if (peer_closed) {
      return Status::Unavailable("coordinator closed the socket");
    }
    if (report_.has_value() && ring_backlog_bytes_ == 0) {
      chan_->QueueMsg(FrameType::kReport, *report_);
      report_.reset();
      continue;  // flush before waiting
    }
    if (!pump_queue_.empty()) {
      if (ring_backlog_bytes_ < kBacklogWatermark) {
        PumpSources();
        if (aborted()) return run_status_;
        continue;
      }
      ++stats_.pump_stalls;
    }
    RingDirtyDoorbells();
    if (chan_->has_frames()) continue;
    if (InboundRingsNonEmpty()) continue;
    // Nothing runnable: wait for the socket (readable, or writable when
    // the outbox is backed up) or our doorbell (a peer published records
    // or released ring space). A nonempty backlog caps the wait — the
    // space we need may already exist with no doorbell owed to us.
    struct pollfd pfds[2];
    pfds[0].fd = chan_->fd();
    pfds[0].events = static_cast<short>(
        POLLIN | (chan_->has_pending_output() ? POLLOUT : 0));
    pfds[0].revents = 0;
    pfds[1].fd = plane_->doorbell(env_.worker_id);
    pfds[1].events = POLLIN;
    pfds[1].revents = 0;
    int rc = poll(pfds, 2, ring_backlog_bytes_ > 0 ? 10 : 1000);
    if (rc < 0 && errno != EINTR) {
      return Status::Internal("worker poll failed");
    }
    plane_->DrainDoorbell(env_.worker_id);
  }
}

/// Flushes `chan`, giving the socket a bounded moment (100 polls of 50 ms)
/// to take the whole outbox; false when the peer is gone or the outbox is
/// still not drained.
bool FlushBounded(FrameChannel& chan) {
  for (int i = 0; i < 100; ++i) {
    if (!chan.Flush().ok()) return false;
    if (!chan.has_pending_output()) return true;
    struct pollfd pfd;
    pfd.fd = chan.fd();
    pfd.events = POLLOUT;
    pfd.revents = 0;
    poll(&pfd, 1, 50);
  }
  return false;
}

}  // namespace

int RunProcessWorker(int fd, ShmArena* arena, const Database* database) {
  // The channel sends with MSG_NOSIGNAL, but ignore SIGPIPE anyway so no
  // stray write to a dead coordinator can kill the worker with a signal
  // instead of the EPIPE -> kUnavailable path the supervisor understands.
  signal(SIGPIPE, SIG_IGN);
  if (!SetNonBlocking(fd).ok()) return 1;
  FrameChannel chan(fd, "coordinator", LinkRole::kWorker);
  // Worker-lifetime buffer pool: on a fleet that serves many queries, the
  // ones after the first reuse its freelist instead of allocating.
  BatchPool pool;

  auto fail = [&chan](const Status& status) {
    chan.QueueMsg(FrameType::kError,
                  ErrorMsg{status.code(), status.message()});
    // Best effort: the coordinator may already be gone.
    (void)FlushBounded(chan);
    return 1;
  };

  for (;;) {
    // Parked: wait for the next kPlan. A warm fleet idles here for
    // arbitrarily long between queries, so a WaitReadable timeout just
    // re-arms the wait; death of the coordinating process surfaces as EOF
    // (peer_closed) because the socketpair end it held is closed then.
    Frame plan_frame;
    for (;;) {
      bool peer_closed = false;
      if (!chan.ReadAvailable(&peer_closed).ok()) return 1;
      if (chan.NextFrame(&plan_frame)) break;
      if (peer_closed || chan.poisoned()) return 1;
      StatusOr<bool> readable = WaitReadable(fd, 30'000);
      if (!readable.ok()) return 1;
    }
    // Every worker parks after its kIdle ack; the fleet's teardown then
    // sends a bare kShutdown to exit it cleanly.
    if (plan_frame.type == FrameType::kShutdown) return 0;
    if (plan_frame.type != FrameType::kPlan) return 1;

    PlanEnvelope env;
    {
      WireReader reader(plan_frame.payload);
      Status status = DecodeMsg(&reader, &env);
      if (!status.ok()) return fail(status);
    }
    if (env.protocol_version != kNetProtocolVersion) {
      return fail(Status::FailedPrecondition(
          StrCat("protocol version mismatch: coordinator speaks ",
                 env.protocol_version, ", worker speaks ",
                 kNetProtocolVersion)));
    }
    StatusOr<ParallelPlan> plan = ParsePlan(env.plan_text);
    if (!plan.ok()) return fail(plan.status());

    // The hello hash is FNV over our *re-serialization* of the parsed plan:
    // every process-backend query round-trips the textual XRA format and
    // the coordinator verifies the result. The hello also echoes the ring
    // directory this worker derived from its own parse — the coordinator
    // rejects the fleet before any record can cross a divergent directory.
    HelloMsg hello;
    hello.protocol_version = kNetProtocolVersion;
    hello.plan_hash = FnvHash64(SerializePlan(*plan));
    std::vector<ShmRingSpec> directory =
        ComputeRingDirectory(*plan, env.num_workers);
    hello.ring_directory_hash = ShmDataPlane::HashDirectory(
        directory, env.num_workers + 1, env.shm_ring_bytes);
    // Lay this query's ring view over the inherited arena. The coordinator
    // formatted the rings before sending kPlan, so the worker only attaches.
    StatusOr<std::unique_ptr<ShmDataPlane>> plane =
        ShmDataPlane::CreateInArena(arena, std::move(directory),
                                    env.num_workers + 1, env.shm_ring_bytes,
                                    /*format=*/false);
    if (!plane.ok()) return fail(plane.status());
    chan.QueueMsg(FrameType::kHello, hello);
    if (!chan.Flush().ok()) return 1;

    {
      WorkerRun run(&chan, std::move(env), std::move(plan).value(), database,
                    plane->get(), &pool);
      Status status = run.Setup();
      if (status.ok()) status = run.Loop();
      if (!status.ok()) return fail(status);
    }
    // The query's state (and its arena view) is down before the idle ack:
    // once the coordinator sees kIdle from every worker it may reformat the
    // arena's rings for the next query.
    plane->reset();
    chan.QueueFrame(FrameType::kIdle, {});
    if (!FlushBounded(chan)) return 1;
  }
}

}  // namespace mjoin
