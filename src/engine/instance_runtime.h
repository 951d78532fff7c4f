#ifndef MJOIN_ENGINE_INSTANCE_RUNTIME_H_
#define MJOIN_ENGINE_INSTANCE_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/statusor.h"
#include "engine/controller.h"
#include "engine/database.h"
#include "engine/result.h"
#include "engine/thread_trace.h"
#include "exec/emit.h"
#include "exec/operator.h"
#include "skew/defense.h"
#include "storage/partitioner.h"
#include "xra/plan.h"

namespace mjoin {

class FaultInjector;
class InstanceRuntime;

/// One operation process: an operator instance pinned to a processor, and
/// the OpContext/EmitSink it runs against. The same class serves the
/// simulator, the thread backend and the process worker; every callback of
/// one instance runs on one thread, so its state needs no locking.
///
/// Output leaves only through the instance's EmitWriter: operators build
/// each row in place in out_pending, and scans bulk-append their rows
/// there. The writer's flush threshold fires BatchFull(), and the runtime
/// stores or ships the batch.
class OpInstance final : public OpContext, public EmitSink {
 public:
  OpInstance(InstanceRuntime* runtime, const XraOp& op, uint32_t index)
      : runtime(runtime),
        op(op),
        index(index),
        processor(op.processors[index]) {}

  // OpContext:
  void Charge(Ticks cost) override { charged += cost; }
  EmitWriter& emit_writer() override { return writer; }
  void BatchFull(uint32_t dest) override;
  const CostParams& costs() const override;
  MemoryBudget* memory_budget() const override;
  bool cancelled() const override;
  void ReportError(const Status& status) override;
  OpMetrics* metrics() const override;

  InstanceRuntime* const runtime;
  const XraOp& op;
  const uint32_t index;
  const uint32_t processor;
  std::unique_ptr<Operator> oper;

  bool started = false;
  bool complete = false;
  bool build_done_reported = false;
  int eos_remaining[2] = {0, 0};
  /// Pending output: one batch per consumer instance, or a single batch
  /// when this op stores its result locally.
  std::vector<TupleBatch> out_pending;
  /// The output channel over out_pending, configured by Build (every op
  /// has exactly one output); rows_committed() is this instance's rows-out
  /// count.
  EmitWriter writer;
  /// Messages that arrived before the instance started.
  std::deque<std::function<void()>> pre_start;
  /// The skew-defense routing hook installed on this instance's writer
  /// when a directive for its consumer join arrives (probe-edge producers
  /// only). Owned here so it lives exactly as long as the writer uses it.
  std::unique_ptr<EmitDefense> skew_hook;
  /// Rows in per port are counted always; the rest is filled only when
  /// the runtime collects metrics.
  mutable OpMetrics op_metrics;
  /// Simulated ticks charged since the host last reset it (the simulator
  /// bills them per task; wall-clock hosts ignore them).
  Ticks charged = 0;
  /// Summary of this instance's fragment of the plan's final result, set
  /// when a storer of that result finishes.
  ResultSummary result_summary;
};

/// What the runtime needs from the backend hosting it: a scheduler and a
/// transport. Each call happens at most once per batch, message or
/// callback, never per row.
class InstanceHost {
 public:
  virtual ~InstanceHost() = default;

  /// Whether `processor` is hosted here (a process worker hosts a subset).
  virtual bool Hosts(uint32_t processor) const { return true; }
  /// Runs `fn` on `inst`'s thread, whether or not it started (inline by
  /// default, which is right for single-threaded hosts).
  virtual void Post(OpInstance* inst, std::function<void()> fn) { fn(); }
  /// A source instance opened: drive InstanceRuntime::Produce until it
  /// returns false.
  virtual void SchedulePump(OpInstance* inst) = 0;
  /// Ships `copies` copies of producer's full pending batch for consumer
  /// instance `dest`; `pending` must be empty and appendable afterwards.
  virtual void DeliverBatch(OpInstance* producer, uint32_t dest,
                            TupleBatch& pending, int copies) = 0;
  /// End of producer's stream toward consumer instance `dest`.
  virtual void SendEos(OpInstance* producer, uint32_t dest) = 0;
  virtual void ReportMilestone(OpInstance* inst, Milestone milestone) = 0;
  /// A defended join instance scanned its build table; the host merges the
  /// reports of all instances and hands the directive back through
  /// InstanceRuntime::ApplyDirective.
  virtual void SubmitSkewReport(OpInstance* inst, SkewJoinReport report) {}
  /// The instance completed, before its final flush.
  virtual void OnComplete(OpInstance* inst) {}
  /// Records the first failure and starts teardown; the runtime calls it
  /// with an operator's error or a stop of the query's limits.
  virtual void Abort(Status status) {}
  /// Trace sink for one timed callback (only when tracing is on).
  virtual void RecordTrace(uint32_t processor, int64_t t0_ns, int64_t t1_ns,
                           ThreadWorkType type, int op_id) {}
};

/// Work type of a Consume() callback on `port`, for trace lanes and the
/// phase buckets of OpMetrics (the build/probe split of the per-layer
/// ledger).
ThreadWorkType ConsumeWorkType(XraOpKind kind, int port);
/// Work type of an InputDone() callback on `port`. The interesting cases
/// do real work there: a simple hash-join replays buffered probe batches
/// when the build side completes, a sort-merge join sorts and merges, an
/// aggregation emits its groups.
ThreadWorkType InputDoneWorkType(XraOpKind kind, int port);

/// The OpMetrics phase bucket a work type's seconds accumulate into, on
/// every backend (the sim adds each task's simulated seconds).
double* PhaseBucket(OpMetrics* m, ThreadWorkType type);

/// Execution settings the runtime applies to every instance.
struct RuntimeSettings {
  /// Cost model handed to operators; batch_size is the flush threshold.
  CostParams costs;
  /// Per-query operator memory budget; null when not enforced.
  MemoryBudget* budget = nullptr;
  FaultInjector* injector = nullptr;
  /// The query's cancellation and deadline, checked at every callback;
  /// null when the host enforces them elsewhere (or has none).
  const QueryLimits* limits = nullptr;
  SkewDefenseOptions skew_defense;
  bool collect_metrics = false;
  bool record_trace = false;
};

/// How a scan's base relation is declustered over its processors:
/// hash-partitioned on the consumer's join key when the consumer is a
/// colocated join, round-robin otherwise (the paper's ideal initial
/// fragmentation). Each scan instance reads its fragment out of the base
/// relation by this rule; no fragment is ever materialized.
StatusOr<FragmentRule> DeclusterScan(const ParallelPlan& plan,
                                     const XraOp& scan);

/// True when `producer`'s output crosses the network (a hash-split edge).
bool SendsOverNetwork(const ParallelPlan& plan, const XraOp& producer);

/// The operation-process state machine shared by every backend: builds
/// the instances of the plan, runs their callbacks, routes and flushes
/// their output, applies the skew defense, detects milestones, and fans
/// out end-of-stream. The host decides when and where callbacks run.
class InstanceRuntime {
 public:
  InstanceRuntime(const ParallelPlan& plan, InstanceHost* host,
                  RuntimeSettings settings);

  /// Creates the hosted instances. Scans read their fragments in place out
  /// of `db`'s base relations, so `db` must outlive the runtime.
  Status Build(const Database& db);

  // --- callbacks, each run on the instance's thread ------------------------

  /// Runs `fn` now if `inst` started, else buffers it until it does.
  template <typename Fn>
  void RunWhenStarted(OpInstance* inst, Fn&& fn) {
    if (inst->started) {
      fn();
    } else {
      inst->pre_start.emplace_back(std::forward<Fn>(fn));
    }
  }
  /// Open() + release of the buffered messages (the trigger).
  void Start(OpInstance* inst);
  /// Opens the operator; a source is handed to SchedulePump.
  void Open(OpInstance* inst);
  void ReleasePreStart(OpInstance* inst);
  /// One Produce() call of a source; finishes it when nothing remains.
  /// Returns whether to pump again.
  bool Produce(OpInstance* inst);
  void OnBatch(OpInstance* inst, int port, const TupleBatch& batch);
  void OnEos(OpInstance* inst, int port);
  /// Applies a merged directive of a defended join: installs the routing
  /// hook on every hosted probe-edge producer, then replicates the hot
  /// build rows into every hosted join instance and runs its deferred
  /// InputDone(build). Posts through the host.
  void ApplyDirective(std::shared_ptr<const SkewDirective> directive);

  // --- emit path (the writer's BatchFull lands here) -----------------------

  void FlushDest(OpInstance* inst, uint32_t dest);

  // --- state ----------------------------------------------------------------

  const XraOp& op(int id) const { return plan_.ops[static_cast<size_t>(id)]; }
  /// Null when `index` is not hosted here.
  OpInstance* instance(int op, uint32_t index) const {
    return instances_[static_cast<size_t>(op)][index].get();
  }
  const std::vector<std::unique_ptr<OpInstance>>& instances(int op) const {
    return instances_[static_cast<size_t>(op)];
  }
  const std::vector<Relation>& stored(int result) const {
    return stored_[static_cast<size_t>(result)];
  }
  /// Summary of the hosted fragments of the plan's final result, which each
  /// storer instance computed as it finished (complete once every hosted
  /// storer instance has).
  ResultSummary HostedResultSummary() const;
  bool defended(int op) const { return defended_[static_cast<size_t>(op)]; }
  const RuntimeSettings& settings() const { return settings_; }
  InstanceHost* host() const { return host_; }

  /// Merges the metrics of `op`'s hosted instances into `out`, with the
  /// writer and operator detail folded in; returns the instance count.
  uint32_t MergeOpMetrics(int op, OpMetrics* out) const;

  /// Teardown flag: set once by the host's Abort; every callback and emit
  /// becomes a no-op after it.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  void MarkAborted() { aborted_.store(true, std::memory_order_release); }
  const std::atomic<bool>* abort_flag() const { return &aborted_; }
  /// The per-callback check, lock-free: false once the query should do no
  /// more work. A stop of the query's limits goes to the host's Abort.
  bool Live();
  bool cancelled() const {
    return aborted() ||
           (settings_.limits != nullptr && settings_.limits->cancelled());
  }
  uint64_t batches_dropped() const {
    return batches_dropped_.load(std::memory_order_relaxed);
  }
  uint64_t batches_duplicated() const {
    return batches_duplicated_.load(std::memory_order_relaxed);
  }

  /// Runs `fn` as one timed slice of `type` work on `processor` and returns
  /// the slice's own nanoseconds. Slices on one thread nest — a producer's
  /// callback delivers a batch inline to a colocated consumer, or copies
  /// it onto a ring — and an enclosing slice excludes the time of the
  /// slices nested in it, so no nanosecond lands in two phase buckets or
  /// two trace segments. Always timed; traced when the settings say so.
  template <typename Fn>
  int64_t TimeSlice(uint32_t processor, ThreadWorkType type, int op_id,
                    Fn&& fn) {
    Slice slice{this, processor, type, op_id};
    EnterSlice(&slice);
    fn();
    return ExitSlice(&slice);
  }
  /// Traces [t0_ns, t1_ns], which the host timed on this thread, as `type`
  /// work on `processor`, and carves it out of the enclosing slice.
  void RecordSlice(uint32_t processor, int64_t t0_ns, int64_t t1_ns,
                   ThreadWorkType type, int op_id);

  /// Steady-clock nanoseconds since the host's time origin (t=0 of its
  /// trace), in steady_clock's epoch.
  void set_time_origin_ns(int64_t origin_ns) { origin_ns_ = origin_ns; }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               // lint:allow-clock observability + transport timers only
               std::chrono::steady_clock::now().time_since_epoch())
               .count() -
           origin_ns_;
  }

 private:
  /// One open TimeSlice. Its trace segments run from `segment_start` to
  /// the start of the next nested slice, and resume when that one ends.
  struct Slice {
    InstanceRuntime* runtime;
    uint32_t processor;
    ThreadWorkType type;
    int op_id;
    int64_t start = 0;
    int64_t segment_start = 0;
    int64_t own_ns = 0;
    Slice* outer = nullptr;
  };
  /// The innermost open slice of this thread (the thread backend shares
  /// one runtime across threads, so nesting is per thread).
  static thread_local Slice* innermost_;
  void EnterSlice(Slice* slice);
  int64_t ExitSlice(Slice* slice);
  /// Ends `slice`'s open trace segment at `end_ns`.
  static void CloseSegment(Slice* slice, int64_t end_ns);

  /// Runs one operator callback, as a TimeSlice when observability is on:
  /// the slice's own time lands in the instance's phase bucket and (when
  /// tracing) in the host's trace. With both switches off this is a plain,
  /// clock-free call. Returns the slice's own nanoseconds (0 when off).
  template <typename Fn>
  int64_t Observed(OpInstance* inst, ThreadWorkType type, Fn&& fn);
  void HandleDefendedBuildEos(OpInstance* inst);
  void ApplyDirectiveAt(OpInstance* inst, const SkewDirective& directive);
  void AfterCallback(OpInstance* inst);
  void FinishInstance(OpInstance* inst);

  const ParallelPlan& plan_;
  InstanceHost* const host_;
  const RuntimeSettings settings_;
  const bool observe_;
  int64_t origin_ns_ = 0;
  std::vector<bool> defended_;
  std::atomic<bool> aborted_{false};
  std::atomic<uint64_t> batches_dropped_{0};
  std::atomic<uint64_t> batches_duplicated_{0};
  // Stored results precede instances_: rescans read them until destruction.
  std::vector<std::vector<Relation>> stored_;
  // [op][instance]; null entries are hosted elsewhere.
  std::vector<std::vector<std::unique_ptr<OpInstance>>> instances_;
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_INSTANCE_RUNTIME_H_
