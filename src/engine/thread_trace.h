#ifndef MJOIN_ENGINE_THREAD_TRACE_H_
#define MJOIN_ENGINE_THREAD_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "xra/plan.h"

namespace mjoin {

/// What a lane was doing during a recorded interval: the phase vocabulary
/// of the paper's utilization diagrams (Figures 3-7), shared by the sim,
/// thread and process backends.
enum class ThreadWorkType : uint8_t {
  kStartup,   // operator Open() and trigger handling
  kBuild,     // hash-table build / run-buffer fill
  kProbe,     // probe phase, buffered-probe replay
  kPipeline,  // symmetric pipelining work, filters
  kScan,      // source Produce() calls
  kMerge,     // sort-merge final sort+merge
  kEmit,         // result output: aggregation groups, the final summary
  kBlocked,      // producer blocked on a full consumer queue
  kSerialize,    // batch -> wire-format encoding (process backend)
  kDeserialize,  // wire-format -> batch decoding (process backend)
  kBloomBuild,   // skew defense: sketch + Bloom scan of a build table
  kOther,
  // Simulator service work. Listed after kOther, the wire's maximum, so
  // a process worker can never send one.
  kProcessInit,  // the scheduler initializing an operation process
  kStreamSetup,  // the stream broker registering a networked stream
  kMilestone,    // the scheduler handling a reported milestone
  kHandshake,    // a process's stream handshakes and operator Open()
};

/// Lowercase name used as the Chrome trace category ("build", "probe",
/// "blocked", ...).
const char* ThreadWorkTypeName(ThreadWorkType type);

/// Per-op identity shown in rendered traces: the plan label as the event
/// name, the plan's single-character trace label as the diagram fill char.
struct ThreadTraceOpInfo {
  std::string name;
  char label = '?';
};

/// One busy interval of one lane, in the recorder's time unit (see
/// TraceFormat): nanoseconds since the run started on the thread and
/// process backends, simulated ticks on the sim backend — the field names
/// keep their historical `_ns` suffix either way. op_id indexes the
/// recorder's op table; -1 for intervals that belong to no operation
/// (blocked-on-queue).
struct ThreadTraceEvent {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int op_id = -1;
  ThreadWorkType type = ThreadWorkType::kOther;
};

/// How a recorder's lanes and integer timestamps read.
struct TraceFormat {
  /// The backend that recorded ("thread", "process", "sim"); names the
  /// Chrome trace's process.
  std::string backend = "thread";
  /// Lanes after the workers (the sim's scheduler and stream broker):
  /// drawn above them, named in the Chrome trace, and left out of
  /// Utilization().
  std::vector<std::string> service_lanes;
  /// Recorded units per diagram axis unit, and that unit's caption.
  int64_t units_per_axis_step = 1000;
  std::string axis_unit = "us";
  /// Recorded units per microsecond, the Chrome trace's time unit.
  double units_per_us = 1000;
};

/// Thread and process backends: nanoseconds, diagram axis in microseconds.
TraceFormat WallClockTraceFormat(std::string backend);
/// Sim backend: ticks of `tick_seconds` (CostParams::tick_seconds),
/// diagram axis in ticks, scheduler and broker as service lanes.
TraceFormat SimTraceFormat(double tick_seconds);

/// The one work trace of every backend: collects busy intervals per lane
/// during an execution and renders them as (a) the paper's ASCII
/// processor-utilization diagram and (b) a Chrome trace_event JSON
/// document loadable in chrome://tracing and Perfetto.
///
/// Thread-safety contract: each worker records only under its own lane
/// (one writer per buffer, no locking); readers run after the workers
/// have been joined.
class ThreadTraceRecorder {
 public:
  ThreadTraceRecorder(uint32_t num_workers, std::vector<ThreadTraceOpInfo> ops,
                      TraceFormat format = TraceFormat());

  /// Worker lanes, without the service lanes.
  uint32_t num_workers() const { return num_workers_; }

  /// Appends one interval to `lane`'s buffer; empty intervals are
  /// dropped. Must be called from the lane's own thread (see the
  /// thread-safety contract above).
  void Record(uint32_t lane, int64_t start, int64_t end, ThreadWorkType type,
              int op_id);

  size_t num_events() const;
  /// Every lane's intervals: the workers, then the service lanes.
  const std::vector<std::vector<ThreadTraceEvent>>& events_by_worker() const {
    return events_;
  }

  /// Mean busy fraction of the worker lanes over [0, makespan]; blocked
  /// time is not busy, and intervals are clipped to the window.
  double Utilization(int64_t makespan) const;

  /// The paper's utilization diagram over [0, makespan]: one row per lane,
  /// highest lane on top; each cell shows the fill char covering most of
  /// it ('.' when idle). The fill char is '~' for blocked time, 's'/'b'/
  /// 'n'/'h' for the sim's process-init/stream-setup/milestone/handshake
  /// work, and the op's plan trace label for everything else.
  std::string RenderAscii(int64_t makespan, uint32_t width = 72) const;

  /// Chrome trace_event JSON: one complete ("ph":"X") event per interval,
  /// named after the op, categorized by work type, one tid per lane.
  /// Loads directly in chrome://tracing and ui.perfetto.dev.
  std::string ToChromeJson() const;

 private:
  char FillChar(const ThreadTraceEvent& ev) const;

  uint32_t num_workers_;
  std::vector<ThreadTraceOpInfo> ops_;
  TraceFormat format_;
  std::vector<std::vector<ThreadTraceEvent>> events_;
};

/// The recorder of one traced run of `plan`: a worker lane per plan
/// processor and the op table from the plan's labels, in plan op order.
std::shared_ptr<ThreadTraceRecorder> NewPlanTrace(const ParallelPlan& plan,
                                                  TraceFormat format);

}  // namespace mjoin

#endif  // MJOIN_ENGINE_THREAD_TRACE_H_
