#include "engine/sim_executor.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/string_util.h"
#include "engine/controller.h"
#include "engine/instance_runtime.h"
#include "exec/batch.h"
#include "exec/batch_pool.h"

namespace mjoin {

namespace {

/// Simulator-only state of one operation process.
struct SimProc {
  bool initialized = false;      // the scheduler's serial init reached us
  bool triggered = false;        // our trigger group fired
  bool start_requested = false;  // brokerage requested (gates re-entry)
  /// Memory last reported to the node-level accounting.
  size_t reported_memory = 0;
};

RuntimeSettings SimSettings(const SimExecOptions& options) {
  RuntimeSettings settings;
  settings.costs = options.costs;
  return settings;
}

/// One full simulated execution of a plan: the runtime's operation
/// processes, with every callback run as a task on its simulated node and
/// every message delivered as a deferred action of the task that sent it.
/// An instance counts as started once its start task is submitted: later
/// messages queue behind it on the node (FIFO per node).
class SimRun : public InstanceHost {
 public:
  SimRun(const ParallelPlan& plan, const Database& db,
         const SimExecOptions& options)
      : plan_(plan),
        db_(db),
        options_(options),
        machine_(plan.num_processors, options.costs),
        controller_(&plan),
        runtime_(plan, this, SimSettings(options)) {
    if (options.record_trace) {
      trace_ = NewPlanTrace(plan, SimTraceFormat(options.costs.tick_seconds));
    }
  }

  Status Prepare();
  StatusOr<QueryResult> Run();

  // InstanceHost:
  void SchedulePump(OpInstance* inst) override {
    deferred_.push_back({0, [this, inst] { PumpSource(inst); }});
  }
  void DeliverBatch(OpInstance* producer, uint32_t dest, TupleBatch& pending,
                    int copies) override;
  void SendEos(OpInstance* producer, uint32_t dest) override;
  void ReportMilestone(OpInstance* inst, Milestone milestone) override;
  /// A finished operator frees its hash tables / buffers (the memory-
  /// pressure model counts only live operators).
  void OnComplete(OpInstance* inst) override { inst->oper->ReleaseMemory(); }

 private:
  const CostParams& costs() const { return machine_.costs(); }
  const XraOp& op(int id) const { return runtime_.op(id); }
  SimProc& proc(const OpInstance* inst) {
    return procs_[static_cast<size_t>(inst->op.id)][inst->index];
  }

  // Submits `body` to `node`; when tracing, the task's busy interval is
  // recorded as `type` work of op `op_id` on the node's lane.
  void Submit(uint32_t node, ThreadWorkType type, int op_id,
              std::function<TaskResult()> body);
  // Submits a task running `fn(inst)` on the instance's node; the task's
  // cost is whatever fn charges, billed to `type`'s phase bucket of the
  // instance, and its deferred actions are released at completion.
  void SubmitTask(OpInstance* inst, ThreadWorkType type,
                  std::function<void(OpInstance*)> fn);
  void TryStart(OpInstance* inst);
  void BeginStart(OpInstance* inst);
  void PumpSource(OpInstance* inst);
  void DispatchGroups(const std::vector<int>& groups);

  const ParallelPlan& plan_;
  const Database& db_;
  const SimExecOptions& options_;
  // The pool precedes machine_ and runtime_ (whose queued events and
  // pre-start buffers hold pooled batches), so it is destroyed last.
  BatchPool pool_;
  SimMachine machine_;
  QueryController controller_;
  InstanceRuntime runtime_;
  // [op][instance]
  std::vector<std::vector<SimProc>> procs_;

  // Live operator memory per node, for the memory-pressure simulation.
  std::vector<size_t> node_memory_;
  // Deferred actions of the task running now (tasks never nest).
  std::vector<DeferredAction> deferred_;
  // Null unless options.record_trace; lanes are the machine's node ids.
  std::shared_ptr<ThreadTraceRecorder> trace_;

  Ticks last_finish_ = 0;
};

Status SimRun::Prepare() {
  node_memory_.assign(plan_.num_processors + 2, 0);
  procs_.resize(plan_.ops.size());
  for (const XraOp& o : plan_.ops) {
    procs_[static_cast<size_t>(o.id)].resize(o.processors.size());
  }
  return runtime_.Build(db_);
}

void SimRun::Submit(uint32_t node, ThreadWorkType type, int op_id,
                    std::function<TaskResult()> body) {
  if (trace_ != nullptr) {
    body = [this, node, type, op_id, body = std::move(body)] {
      const Ticks start = machine_.sim().Now();
      TaskResult result = body();
      trace_->Record(node, start, start + result.cost, type, op_id);
      return result;
    };
  }
  machine_.node(node).Submit(std::move(body));
}

void SimRun::SubmitTask(OpInstance* inst, ThreadWorkType type,
                        std::function<void(OpInstance*)> fn) {
  auto body = [this, inst, type, fn = std::move(fn)] {
    inst->charged = 0;
    deferred_.clear();
    fn(inst);
    // Node-level memory accounting; a node over its memory budget pays
    // the paper's "increased disk traffic" penalty on its CPU work.
    SimProc& p = proc(inst);
    size_t current = inst->oper->memory_bytes();
    node_memory_[inst->processor] += current;
    node_memory_[inst->processor] -= p.reported_memory;
    p.reported_memory = current;
    Ticks cost = inst->charged;
    size_t limit = costs().memory_per_node_bytes;
    if (limit > 0 && node_memory_[inst->processor] > limit) {
      cost = static_cast<Ticks>(static_cast<double>(cost) *
                                costs().memory_pressure_factor);
    }
    *PhaseBucket(&inst->op_metrics, type) += costs().ToSeconds(cost);
    return TaskResult{cost, std::move(deferred_)};
  };
  Submit(inst->processor, type, inst->op.id, std::move(body));
}

void SimRun::DispatchGroups(const std::vector<int>& groups) {
  for (int g : groups) {
    for (int op_id : plan_.groups[static_cast<size_t>(g)].ops) {
      for (const auto& inst : runtime_.instances(op_id)) {
        OpInstance* raw = inst.get();
        machine_.sim().Schedule(costs().trigger_latency, [this, raw] {
          proc(raw).triggered = true;
          TryStart(raw);
        });
      }
    }
  }
}

void SimRun::TryStart(OpInstance* inst) {
  // A process starts once the scheduler's serial initialization reached it
  // *and* its trigger group fired.
  SimProc& p = proc(inst);
  if (!p.initialized || !p.triggered || p.start_requested) return;
  p.start_requested = true;

  // Outgoing networked streams must be registered with the (serial)
  // stream broker before the process may open them; an n x m
  // refragmentation therefore costs n*m serialized broker ticks in total —
  // the quadratic part of the paper's coordination overhead.
  Ticks broker_cost = 0;
  const XraOp& o = inst->op;
  if (o.consumer >= 0 && SendsOverNetwork(plan_, o)) {
    broker_cost = static_cast<Ticks>(op(o.consumer).processors.size()) *
                  costs().broker_handshake;
  }
  if (broker_cost == 0) {
    BeginStart(inst);
    return;
  }
  machine_.counters().handshake_ticks += broker_cost;
  Submit(machine_.broker_id(), ThreadWorkType::kStreamSetup, o.id,
         [this, inst, broker_cost] {
    TaskResult result;
    result.cost = broker_cost;
    result.after.push_back(
        {costs().trigger_latency, [this, inst] { BeginStart(inst); }});
    return result;
  });
}

void SimRun::BeginStart(OpInstance* inst) {
  inst->started = true;
  SubmitTask(inst, ThreadWorkType::kHandshake, [this](OpInstance* inst) {
    // Handshake: one unit of coordination per networked stream endpoint
    // this process participates in.
    const XraOp& o = inst->op;
    Ticks handshake = 0;
    if (o.is_join()) {
      for (int port = 0; port < 2; ++port) {
        const XraInput& input = o.inputs[port];
        if (input.routing == Routing::kHashSplit) {
          handshake += static_cast<Ticks>(
              op(input.producer).processors.size());
        }
      }
    }
    if (o.consumer >= 0 && SendsOverNetwork(plan_, o)) {
      handshake += static_cast<Ticks>(op(o.consumer).processors.size());
    }
    Ticks handshake_cost = handshake * costs().stream_handshake;
    inst->Charge(handshake_cost);
    machine_.counters().handshake_ticks += handshake_cost;
    runtime_.Open(inst);
  });
  // Release anything that arrived early; it runs after the start task on
  // the same node (FIFO per node).
  runtime_.ReleasePreStart(inst);
}

void SimRun::PumpSource(OpInstance* inst) {
  SubmitTask(inst, ThreadWorkType::kScan, [this](OpInstance* inst) {
    if (runtime_.Produce(inst)) SchedulePump(inst);
  });
}

void SimRun::DeliverBatch(OpInstance* producer, uint32_t dest,
                          TupleBatch& pending, int copies) {
  // The simulator injects no faults, so `copies` is always 1. Swap the
  // filled buffer against a pooled one: pending inherits the recycled
  // capacity, and the batch ships without a copy.
  const XraOp& o = producer->op;
  std::shared_ptr<TupleBatch> batch = pool_.Acquire(o.output_schema);
  std::swap(*batch, pending);
  const bool networked = SendsOverNetwork(plan_, o);
  OpInstance* consumer = runtime_.instance(o.consumer, dest);
  const int port = o.consumer_port;
  Ticks latency = 0;
  if (networked) {
    auto n = static_cast<Ticks>(batch->num_tuples());
    producer->Charge(costs().batch_overhead + n * costs().tuple_send);
    machine_.counters().batches_sent += 1;
    machine_.counters().tuples_sent += static_cast<uint64_t>(n);
    latency = costs().network_latency;
  }
  deferred_.push_back(
      {latency, [this, consumer, port, batch = std::move(batch), networked] {
         runtime_.RunWhenStarted(consumer, [this, consumer, port, batch,
                                            networked] {
           SubmitTask(consumer, ConsumeWorkType(consumer->op.kind, port),
                      [this, port, batch, networked](OpInstance* inst) {
                        if (networked) {
                          inst->Charge(costs().batch_overhead +
                                       static_cast<Ticks>(batch->num_tuples()) *
                                           costs().tuple_recv);
                        }
                        runtime_.OnBatch(inst, port, *batch);
                      });
         });
       }});
}

void SimRun::SendEos(OpInstance* producer, uint32_t dest) {
  OpInstance* consumer = runtime_.instance(producer->op.consumer, dest);
  const int port = producer->op.consumer_port;
  const Ticks latency =
      SendsOverNetwork(plan_, producer->op) ? costs().network_latency : 0;
  deferred_.push_back({latency, [this, consumer, port] {
    runtime_.RunWhenStarted(consumer, [this, consumer, port] {
      SubmitTask(consumer, InputDoneWorkType(consumer->op.kind, port),
                 [this, port](OpInstance* c) { runtime_.OnEos(c, port); });
    });
  }});
}

void SimRun::ReportMilestone(OpInstance* inst, Milestone milestone) {
  if (milestone == Milestone::kComplete) {
    // Record the completion time, at this task's completion.
    deferred_.push_back({0, [this] {
      last_finish_ = std::max(last_finish_, machine_.sim().Now());
    }});
  }
  const int op_id = inst->op.id;
  const uint32_t index = inst->index;
  deferred_.push_back(
      {costs().trigger_latency, [this, op_id, index, milestone] {
         Submit(machine_.scheduler_id(), ThreadWorkType::kMilestone, op_id,
                [this, op_id, index, milestone] {
                  StatusOr<std::vector<int>> ready =
                      controller_.OnInstanceMilestone(op_id, index, milestone);
                  TaskResult result;
                  result.cost = 0;
                  if (!ready.ok()) {
                    controller_.Fail(ready.status());
                  } else if (!ready->empty()) {
                    result.after.push_back({0, [this, groups = *ready] {
                                              DispatchGroups(groups);
                                            }});
                  }
                  return result;
                });
       }});
}

StatusOr<QueryResult> SimRun::Run() {
  // The scheduler claims and initializes every operation process from the
  // pool, serially, in trigger-group order: the paper's startup barrier.
  // Join processes carry the full initialization cost; their colocated
  // scan/rescan pumps are part of the same claim and are near-free, which
  // matches the paper's process accounting (SP on 80 processors = 10 ops x
  // 80 = 800 processes; FP = one process per processor).
  for (const TriggerGroup& group : plan_.groups) {
    for (int op_id : group.ops) {
      bool is_join = op(op_id).is_join();
      for (const auto& inst : runtime_.instances(op_id)) {
        OpInstance* raw = inst.get();
        Submit(machine_.scheduler_id(), ThreadWorkType::kProcessInit, op_id,
               [this, raw, is_join] {
          Ticks init_cost = is_join ? costs().process_startup : 1;
          if (is_join) {
            machine_.counters().processes_started += 1;
            machine_.counters().startup_ticks += init_cost;
          }
          TaskResult result;
          result.cost = init_cost;
          // The init message reaches the worker after the trigger latency;
          // the process starts at max(init time, group trigger time).
          result.after.push_back({costs().trigger_latency, [this, raw] {
                                    proc(raw).initialized = true;
                                    TryStart(raw);
                                  }});
          return result;
        });
      }
    }
  }
  machine_.counters().streams_opened = plan_.CountStreams();

  // Dependency-free groups fire at query start; each of their processes
  // still waits for the scheduler's serial initialization to reach it.
  DispatchGroups(controller_.TakeInitialGroups());

  machine_.sim().Run();
  if (controller_.failed()) return controller_.failure();

  // Verify global completion (a wiring bug would leave ops pending).
  if (!controller_.AllOpsComplete()) {
    std::vector<std::string> pending;
    for (const XraOp& o : plan_.ops) {
      if (!controller_.OpMilestoneFired(o.id, Milestone::kComplete)) {
        pending.push_back(o.label);
      }
    }
    return Status::Internal(
        StrCat("simulation drained but ops never completed: ",
               StrJoin(pending, ", ")));
  }

  QueryResult result;
  result.elapsed = last_finish_;
  result.seconds = costs().ToSeconds(last_finish_);
  result.result = runtime_.HostedResultSummary();
  if (options_.materialize_result) {
    result.materialized = ConcatFragments(runtime_.stored(plan_.final_result));
  }
  result.machine = machine_.counters();
  result.machine.events = machine_.sim().num_events_processed();
  result.stats.per_op = runtime_.HostedOpStats();
  if (trace_ != nullptr) {
    AttachTrace(trace_, result.elapsed, options_.trace_width, &result);
  }
  return result;
}

}  // namespace

StatusOr<QueryResult> SimExecutor::Execute(
    const ParallelPlan& plan, const SimExecOptions& options) const {
  MJOIN_RETURN_IF_ERROR(plan.Validate());
  SimRun run(plan, *database_, options);
  MJOIN_RETURN_IF_ERROR(run.Prepare());
  return run.Run();
}

}  // namespace mjoin
