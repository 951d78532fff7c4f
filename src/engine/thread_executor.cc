#include "engine/thread_executor.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/sync.h"
#include "engine/controller.h"
#include "engine/fault_injector.h"
#include "engine/instance_runtime.h"
#include "exec/batch.h"
#include "exec/batch_pool.h"
#include "skew/defense.h"

namespace mjoin {

namespace {

/// Producer stalls on a full queue shorter than this are not worth a trace
/// event (they are indistinguishable from lock hand-off noise).
constexpr int64_t kBlockedTraceThresholdNs = 50'000;  // 50 us

/// How long a producer waits on a full queue before enqueueing anyway. The
/// escape hatch keeps pathological cross-node cycles live; each use is
/// counted in QueryStats::queue_overflows.
constexpr std::chrono::milliseconds kQueueBlockTimeout{250};

/// A worker node: one OS thread draining a message queue. Messages for all
/// operation processes placed on this node run serialized here, exactly
/// like on a shared-nothing node.
///
/// Control messages (triggers, end-of-stream, source self-pumps) enqueue
/// unconditionally; data batches respect `max_data` — a producer on
/// another node blocks in PostData() until the consumer drains below the
/// bound, the run aborts, or kQueueBlockTimeout passes (then it enqueues
/// anyway and the overflow is counted). Same-node sends bypass the bound:
/// blocking on one's own queue would deadlock, and a same-node producer is
/// self-throttled by the shared message loop anyway.
class WorkerNode {
 public:
  WorkerNode(uint32_t id, size_t max_data, FaultInjector* injector,
             const std::atomic<bool>* aborted)
      : id_(id),
        max_data_(max_data),
        injector_(injector),
        aborted_(aborted) {}

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }

  /// Control message: never blocks, never dropped.
  void Post(std::function<void()> fn) {
    {
      MutexLock lock(&mutex_);
      queue_.push_back({std::move(fn), false});
    }
    not_empty_.NotifyOne();
  }

  /// Data batch from another node (or the same node with `bypass_bound`).
  /// Dropped when the run is stopping; the caller's query is being torn
  /// down anyway.
  void PostData(std::function<void()> fn, bool bypass_bound) {
    {
      MutexLock lock(&mutex_);
      if (max_data_ != 0 && !bypass_bound) {
        // Absolute deadline so spurious wakeups never extend the total
        // wait beyond kQueueBlockTimeout (matches the old wait_for
        // predicate).
        // lint:allow-clock backpressure timeout, read only on a full queue
        auto deadline = std::chrono::steady_clock::now() + kQueueBlockTimeout;
        bool drained = true;
        while (!QueueDrained()) {
          if (!not_full_.WaitUntil(mutex_, deadline)) {
            drained = QueueDrained();
            break;
          }
        }
        if (stop_ || aborted_->load(std::memory_order_acquire)) return;
        if (!drained) overflows_.fetch_add(1, std::memory_order_relaxed);
      }
      if (stop_) return;
      queue_.push_back({std::move(fn), true});
      ++data_in_queue_;
      peak_depth_ = std::max(peak_depth_, data_in_queue_);
    }
    not_empty_.NotifyOne();
  }

  /// Wakes blocked producers and the loop; used when the run aborts.
  void Interrupt() {
    MutexLock lock(&mutex_);
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  /// Drains the remaining queue (callbacks are no-ops once the run
  /// aborted) and joins the thread.
  void Stop() {
    {
      MutexLock lock(&mutex_);
      stop_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyOne();
    if (thread_.joinable()) thread_.join();
  }

  size_t peak_depth() const {
    MutexLock lock(&mutex_);
    return peak_depth_;
  }
  uint64_t overflows() const {
    return overflows_.load(std::memory_order_relaxed);
  }

 private:
  struct Message {
    std::function<void()> fn;
    bool is_data;
  };

  /// True once a blocked producer may proceed: the run is stopping, or the
  /// queue drained below the data bound.
  bool QueueDrained() const MJOIN_REQUIRES(mutex_) {
    return stop_ || aborted_->load(std::memory_order_acquire) ||
           data_in_queue_ < max_data_;
  }

  void Loop() {
    for (;;) {
      Message msg;
      {
        MutexLock lock(&mutex_);
        while (!stop_ && queue_.empty()) not_empty_.Wait(mutex_);
        // stop_ drains the queue before exiting: queued callbacks are
        // no-ops once the run aborted, but must still be destroyed here.
        if (queue_.empty()) return;
        msg = std::move(queue_.front());
        queue_.pop_front();
        if (msg.is_data) {
          --data_in_queue_;
          not_full_.NotifyOne();
        }
      }
      if (injector_ != nullptr) injector_->OnDequeue(id_);
      msg.fn();
    }
  }

  const uint32_t id_;
  const size_t max_data_;
  FaultInjector* const injector_;
  const std::atomic<bool>* const aborted_;

  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<Message> queue_ MJOIN_GUARDED_BY(mutex_);
  size_t data_in_queue_ MJOIN_GUARDED_BY(mutex_) = 0;
  size_t peak_depth_ MJOIN_GUARDED_BY(mutex_) = 0;
  bool stop_ MJOIN_GUARDED_BY(mutex_) = false;
  std::atomic<uint64_t> overflows_{0};
  std::thread thread_;
};

RuntimeSettings ThreadSettings(const ThreadExecOptions& options,
                               MemoryBudget* budget,
                               const QueryLimits* limits) {
  RuntimeSettings settings;
  // Only batch_size is consulted by operators in this backend.
  settings.costs.batch_size = options.batch_size;
  settings.budget = budget;
  settings.injector = options.fault_injector;
  settings.limits = limits;
  settings.skew_defense = options.skew_defense;
  settings.collect_metrics = options.collect_metrics;
  settings.record_trace = options.record_trace;
  return settings;
}

/// One threaded execution: the runtime's operation processes, each pinned
/// to the WorkerNode of its processor, so all of an instance's callbacks
/// run on one thread and its state needs no locking.
class ThreadRun : public InstanceHost {
 public:
  ThreadRun(const ParallelPlan& plan, const Database& db,
            const ThreadExecOptions& options,
            std::vector<BatchPool*> pools)
      : plan_(plan),
        db_(db),
        options_(options),
        budget_(options.memory_budget_bytes),
        pools_(std::move(pools)),
        controller_(&plan, options.skew_defense,
                    QueryLimits(options.cancellation, options.deadline)),
        // Immutable: the runtime checks them without the scheduler mutex.
        runtime_(plan, this,
                 ThreadSettings(options, &budget_, &controller_.limits())) {
    if (options.record_trace) {
      trace_ = NewPlanTrace(plan, WallClockTraceFormat("thread"));
    }
  }

  Status Prepare();
  StatusOr<QueryResult> Run(QueryStats* stats_out);

  // InstanceHost:
  void Post(OpInstance* inst, std::function<void()> fn) override;
  /// The first batch runs inside the trigger; later ones are re-posted.
  void SchedulePump(OpInstance* inst) override { PumpSource(inst); }
  void DeliverBatch(OpInstance* producer, uint32_t dest, TupleBatch& pending,
                    int copies) override;
  void SendEos(OpInstance* producer, uint32_t dest) override;
  void ReportMilestone(OpInstance* inst, Milestone milestone) override;
  /// Merged under the scheduler mutex; the directive is applied outside
  /// it, before the caller reports the build milestone.
  void SubmitSkewReport(OpInstance* inst, SkewJoinReport report) override;
  /// Records the first failure and starts teardown: wakes blocked
  /// producers, the scheduler wait, and turns every queued callback into a
  /// no-op. Later calls, and calls once every op completed, are ignored.
  void Abort(Status status) override;
  void RecordTrace(uint32_t processor, int64_t t0_ns, int64_t t1_ns,
                   ThreadWorkType type, int op_id) override {
    trace_->Record(processor, t0_ns, t1_ns, type, op_id);
  }

 private:
  void PumpSource(OpInstance* inst);
  void DispatchGroups(const std::vector<int>& groups);
  /// True once the run completed or failed.
  bool Finished() const MJOIN_REQUIRES(scheduler_mutex_) {
    return controller_.AllOpsComplete() || controller_.failed();
  }

  const ParallelPlan& plan_;
  const Database& db_;
  const ThreadExecOptions& options_;

  // Budget precedes runtime_ so operator reservations release into a live
  // budget during destruction.
  MemoryBudget budget_;

  // One batch pool per worker node, owned by the ThreadExecutor (they
  // outlive the run, keeping their freelists warm for the next query);
  // flushes acquire from the *destination* node's pool. The runtime pins
  // their counters in Prepare() and reports this run's traffic.
  std::vector<BatchPool*> pools_;

  std::vector<std::unique_ptr<WorkerNode>> nodes_;

  // The scheduler (milestones, skew merges, the first failure), mutex-
  // protected: any worker thread may deliver a milestone, a skew report or
  // an abort. QueryController itself is not thread-safe; guarding the
  // member is what serializes it (the contract its header documents).
  Mutex scheduler_mutex_;
  QueryController controller_ MJOIN_GUARDED_BY(scheduler_mutex_);
  CondVar done_cv_;

  // The recorder exists only when tracing is on; its timestamps are
  // relative to the run start (the runtime's time origin).
  std::shared_ptr<ThreadTraceRecorder> trace_;

  InstanceRuntime runtime_;
};

Status ThreadRun::Prepare() {
  nodes_.reserve(plan_.num_processors);
  for (uint32_t n = 0; n < plan_.num_processors; ++n) {
    nodes_.push_back(std::make_unique<WorkerNode>(
        n, options_.max_queued_batches, options_.fault_injector,
        runtime_.abort_flag()));
  }
  runtime_.PinPools({pools_.begin(), pools_.end()});
  return runtime_.Build(db_);
}

void ThreadRun::Abort(Status status) {
  {
    MutexLock lock(&scheduler_mutex_);
    if (controller_.AllOpsComplete() || !controller_.Fail(std::move(status))) {
      return;
    }
    runtime_.MarkAborted();
  }
  for (auto& node : nodes_) node->Interrupt();
  done_cv_.NotifyAll();
}

void ThreadRun::Post(OpInstance* inst, std::function<void()> fn) {
  nodes_[inst->processor]->Post(std::move(fn));
}

void ThreadRun::DispatchGroups(const std::vector<int>& groups) {
  for (int g : groups) {
    for (int op_id : plan_.groups[static_cast<size_t>(g)].ops) {
      for (const auto& inst : runtime_.instances(op_id)) {
        OpInstance* raw = inst.get();
        nodes_[raw->processor]->Post([this, raw] { runtime_.Start(raw); });
      }
    }
  }
}

void ThreadRun::PumpSource(OpInstance* inst) {
  // One batch per message so other processes on this node interleave.
  if (runtime_.Produce(inst)) {
    nodes_[inst->processor]->Post([this, inst] {
      if (!inst->complete) PumpSource(inst);
    });
  }
}

void ThreadRun::DeliverBatch(OpInstance* producer, uint32_t dest,
                             TupleBatch& pending, int copies) {
  const XraOp& o = producer->op;
  OpInstance* consumer = runtime_.instance(o.consumer, dest);
  // Swap the filled buffer out against a pooled one: the batch that ships
  // carries pending's bytes, and pending inherits the recycled buffer's
  // capacity — steady state allocates nothing on either side. The pool is
  // the destination node's, so the consumer's release feeds its own next
  // acquisition.
  std::shared_ptr<TupleBatch> batch =
      pools_[consumer->processor]->Acquire(o.output_schema);
  std::swap(*batch, pending);
  const int port = o.consumer_port;
  // Blocking on one's own queue would starve the very loop that drains
  // it, so same-node sends bypass the backpressure bound (the shared
  // message loop already throttles such producers).
  bool same_node = consumer->processor == producer->processor;
  // A cross-node PostData may block on backpressure; record stalls as
  // blocked-on-queue trace intervals, carved out of the producer's busy
  // slice when the flush happens mid-callback.
  bool watch_block = trace_ != nullptr && !same_node;
  for (int c = 0; c < copies; ++c) {
    int64_t t0 = watch_block ? runtime_.NowNs() : 0;
    nodes_[consumer->processor]->PostData(
        [this, consumer, port, batch] {
          runtime_.RunWhenStarted(consumer, [this, consumer, port, batch] {
            runtime_.OnBatch(consumer, port, *batch);
          });
        },
        same_node);
    if (watch_block) {
      int64_t t1 = runtime_.NowNs();
      if (t1 - t0 >= kBlockedTraceThresholdNs) {
        runtime_.RecordSlice(producer->processor, t0, t1,
                             ThreadWorkType::kBlocked, /*op_id=*/-1);
      }
    }
  }
}

void ThreadRun::SendEos(OpInstance* producer, uint32_t dest) {
  OpInstance* consumer = runtime_.instance(producer->op.consumer, dest);
  const int port = producer->op.consumer_port;
  // Pre-start buffering happens on the consumer's own thread (the started
  // flag is only touched there).
  Post(consumer, [this, consumer, port] {
    runtime_.RunWhenStarted(
        consumer, [this, consumer, port] { runtime_.OnEos(consumer, port); });
  });
}

void ThreadRun::SubmitSkewReport(OpInstance* inst, SkewJoinReport report) {
  StatusOr<std::shared_ptr<const SkewDirective>> directive =
      std::shared_ptr<const SkewDirective>();
  {
    MutexLock lock(&scheduler_mutex_);
    if (runtime_.aborted()) return;
    directive = controller_.OnSkewReport(std::move(report));
  }
  if (!directive.ok()) {
    Abort(directive.status());
    return;
  }
  // Broadcast before the milestone: install/apply posts enqueue ahead of
  // any probe-group trigger the milestone may dispatch.
  if (*directive != nullptr) runtime_.ApplyDirective(*std::move(directive));
}

void ThreadRun::ReportMilestone(OpInstance* inst, Milestone milestone) {
  StatusOr<std::vector<int>> ready = std::vector<int>();
  bool all_done = false;
  {
    MutexLock lock(&scheduler_mutex_);
    if (runtime_.aborted()) return;
    ready = controller_.OnInstanceMilestone(inst->op.id, inst->index,
                                            milestone);
    all_done = controller_.AllOpsComplete();
  }
  if (!ready.ok()) {
    Abort(ready.status());
    return;
  }
  DispatchGroups(*ready);
  if (all_done) done_cv_.NotifyAll();
}

StatusOr<QueryResult> ThreadRun::Run(QueryStats* stats_out) {
  // lint:allow-clock run wall-clock start, once per query
  auto start = std::chrono::steady_clock::now();
  // Trace t=0 and metric timestamps are run-relative.
  runtime_.set_time_origin_ns(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count());
  for (auto& node : nodes_) node->Start();

  // A pre-cancelled token (or a deadline that expires before dispatch)
  // aborts before any work is posted — but workers still started and must
  // be joined below, exercising the same teardown as a mid-flight abort.
  if (runtime_.Live()) {
    std::vector<int> initial;
    {
      MutexLock lock(&scheduler_mutex_);
      initial = controller_.TakeInitialGroups();
    }
    DispatchGroups(initial);
  }

  // Workers promote cancellation/deadline at batch boundaries; the 10 ms
  // poll here covers the corner where every worker is idle (or stalled by
  // an injected fault) when the token fires.
  for (;;) {
    {
      MutexLock lock(&scheduler_mutex_);
      auto poll_deadline =
          // lint:allow-clock scheduler poll tick, not a per-batch read
          std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
      while (!Finished()) {
        if (!done_cv_.WaitUntil(scheduler_mutex_, poll_deadline)) break;
      }
      if (Finished()) break;
    }
    if (!runtime_.Live()) break;
  }
  // lint:allow-clock run wall-clock end, once per query
  auto end = std::chrono::steady_clock::now();

  // Teardown: always join every worker, success or abort. Stop() wakes
  // blocked producers, drains queued messages (no-ops once aborted), and
  // joins, so no thread or queue outlives this function.
  for (auto& node : nodes_) node->Stop();

  // The runtime's ledger plus the queue counters, which are this host's.
  QueryStats stats = runtime_.GatherStats();
  for (const auto& node : nodes_) {
    stats.queue_overflows += node->overflows();
    stats.peak_queue_depth =
        std::max(stats.peak_queue_depth, node->peak_depth());
  }
  if (stats_out != nullptr) *stats_out = stats;

  {
    MutexLock lock(&scheduler_mutex_);
    if (controller_.failed()) return controller_.failure();
  }

  QueryResult result;
  result.seconds = std::chrono::duration<double>(end - start).count();
  result.elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  result.result = runtime_.HostedResultSummary();
  if (options_.materialize_result) {
    result.materialized = ConcatFragments(runtime_.stored(plan_.final_result));
  }
  result.stats = stats;
  if (trace_ != nullptr) {
    AttachTrace(trace_, result.elapsed, options_.trace_width, &result);
  }
  return result;
}

}  // namespace

Status CheckExecRequest(const ParallelPlan& plan,
                        const ThreadExecOptions& options) {
  if (options.batch_size == 0) {
    return Status::InvalidArgument(
        "ThreadExecOptions::batch_size must be positive");
  }
  if (options.deadline.has_value() && options.deadline->count() <= 0) {
    return Status::InvalidArgument(
        "ThreadExecOptions::deadline must be positive when set");
  }
  MJOIN_RETURN_IF_ERROR(CheckSkewDefenseOptions(options.skew_defense));
  return plan.Validate();
}

StatusOr<QueryResult> ThreadExecutor::Execute(
    const ParallelPlan& plan, const ThreadExecOptions& options,
    QueryStats* stats_out) const {
  MJOIN_RETURN_IF_ERROR(CheckExecRequest(plan, options));
  std::vector<BatchPool*> pools;
  {
    MutexLock lock(&pools_mutex_);
    while (pools_.size() < plan.num_processors) {
      pools_.push_back(std::make_unique<BatchPool>());
    }
    pools.reserve(plan.num_processors);
    for (uint32_t n = 0; n < plan.num_processors; ++n) {
      pools.push_back(pools_[n].get());
    }
  }
  ThreadRun run(plan, *database_, options, std::move(pools));
  MJOIN_RETURN_IF_ERROR(run.Prepare());
  return run.Run(stats_out);
}

ThreadExecutor::ThreadExecutor(const Database* database)
    : database_(database) {}

ThreadExecutor::~ThreadExecutor() = default;

}  // namespace mjoin
