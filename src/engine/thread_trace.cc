#include "engine/thread_trace.h"

#include <algorithm>
#include <array>

#include "common/string_util.h"

namespace mjoin {

namespace {

/// Escapes the characters JSON string literals cannot contain verbatim.
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* ThreadWorkTypeName(ThreadWorkType type) {
  switch (type) {
    case ThreadWorkType::kStartup:
      return "startup";
    case ThreadWorkType::kBuild:
      return "build";
    case ThreadWorkType::kProbe:
      return "probe";
    case ThreadWorkType::kPipeline:
      return "pipeline";
    case ThreadWorkType::kScan:
      return "scan";
    case ThreadWorkType::kMerge:
      return "merge";
    case ThreadWorkType::kEmit:
      return "emit";
    case ThreadWorkType::kBlocked:
      return "blocked";
    case ThreadWorkType::kSerialize:
      return "serialize";
    case ThreadWorkType::kDeserialize:
      return "deserialize";
    case ThreadWorkType::kBloomBuild:
      return "bloom-build";
    case ThreadWorkType::kOther:
      return "other";
    case ThreadWorkType::kProcessInit:
      return "process-init";
    case ThreadWorkType::kStreamSetup:
      return "stream-setup";
    case ThreadWorkType::kMilestone:
      return "milestone";
    case ThreadWorkType::kHandshake:
      return "handshake";
  }
  return "other";
}

TraceFormat WallClockTraceFormat(std::string backend) {
  TraceFormat format;
  format.backend = std::move(backend);
  return format;
}

TraceFormat SimTraceFormat(double tick_seconds) {
  TraceFormat format;
  format.backend = "sim";
  format.service_lanes = {"scheduler", "stream broker"};
  format.units_per_axis_step = 1;
  format.axis_unit = "ticks";
  format.units_per_us = 1e-6 / tick_seconds;
  return format;
}

ThreadTraceRecorder::ThreadTraceRecorder(uint32_t num_workers,
                                         std::vector<ThreadTraceOpInfo> ops,
                                         TraceFormat format)
    : num_workers_(num_workers),
      ops_(std::move(ops)),
      format_(std::move(format)),
      events_(num_workers + format_.service_lanes.size()) {}

void ThreadTraceRecorder::Record(uint32_t lane, int64_t start, int64_t end,
                                 ThreadWorkType type, int op_id) {
  if (lane >= events_.size() || start >= end) return;
  events_[lane].push_back(ThreadTraceEvent{start, end, op_id, type});
}

size_t ThreadTraceRecorder::num_events() const {
  size_t n = 0;
  for (const auto& per_lane : events_) n += per_lane.size();
  return n;
}

char ThreadTraceRecorder::FillChar(const ThreadTraceEvent& ev) const {
  switch (ev.type) {
    case ThreadWorkType::kBlocked:
      return '~';
    case ThreadWorkType::kProcessInit:
      return 's';
    case ThreadWorkType::kStreamSetup:
      return 'b';
    case ThreadWorkType::kMilestone:
      return 'n';
    case ThreadWorkType::kHandshake:
      return 'h';
    default:
      if (ev.op_id >= 0 && static_cast<size_t>(ev.op_id) < ops_.size()) {
        return ops_[static_cast<size_t>(ev.op_id)].label;
      }
      return '?';
  }
}

double ThreadTraceRecorder::Utilization(int64_t makespan) const {
  if (makespan <= 0 || num_workers_ == 0) return 0;
  double busy = 0;
  for (uint32_t w = 0; w < num_workers_; ++w) {
    for (const ThreadTraceEvent& ev : events_[w]) {
      // Blocked-on-queue time is not useful work.
      if (ev.type == ThreadWorkType::kBlocked) continue;
      const int64_t start = std::max<int64_t>(ev.start_ns, 0);
      const int64_t end = std::min(ev.end_ns, makespan);
      if (start < end) busy += static_cast<double>(end - start);
    }
  }
  return busy /
         (static_cast<double>(makespan) * static_cast<double>(num_workers_));
}

std::string ThreadTraceRecorder::RenderAscii(int64_t makespan,
                                             uint32_t width) const {
  // Intervals are drawn in axis units; ones shorter than a unit vanish.
  const int64_t step = format_.units_per_axis_step;
  const int64_t axis =
      makespan <= 0 ? 0 : std::max<int64_t>(makespan / step, 1);
  if (axis <= 0 || width == 0) return "";
  const double units_per_cell = static_cast<double>(axis) / width;
  const auto lanes = static_cast<uint32_t>(events_.size());

  // coverage[lane][cell][fill char] -> covered axis units; fill chars are
  // 7-bit, so a small fixed table per cell works.
  std::vector<std::vector<std::array<double, 128>>> coverage(
      lanes,
      std::vector<std::array<double, 128>>(width, std::array<double, 128>{}));
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    for (const ThreadTraceEvent& ev : events_[lane]) {
      const int64_t start = ev.start_ns / step;
      const int64_t end = ev.end_ns / step;
      if (start >= end) continue;
      double s = static_cast<double>(start) / units_per_cell;
      double e = static_cast<double>(end) / units_per_cell;
      auto first = static_cast<uint32_t>(std::max(0.0, s));
      auto last = static_cast<uint32_t>(
          std::min<double>(width - 1, std::max(0.0, e - 1e-9)));
      const auto idx =
          static_cast<size_t>(static_cast<unsigned char>(FillChar(ev))) % 128;
      for (uint32_t cell = first; cell <= last && cell < width; ++cell) {
        double cell_start = cell;
        double cell_end = cell + 1;
        double covered = std::min(e, cell_end) - std::max(s, cell_start);
        if (covered > 0) coverage[lane][cell][idx] += covered;
      }
    }
  }

  std::string out;
  // Top row = highest lane, like the paper's diagrams.
  for (uint32_t lane = lanes; lane-- > 0;) {
    out += PadLeft(StrCat(lane), 3);
    out += " ";
    for (uint32_t cell = 0; cell < width; ++cell) {
      char best = '.';
      double best_cover = 0;
      for (size_t idx = 0; idx < 128; ++idx) {
        if (coverage[lane][cell][idx] > best_cover) {
          best_cover = coverage[lane][cell][idx];
          best = static_cast<char>(idx);
        }
      }
      out += best;
    }
    out += "\n";
  }
  out += "    ";
  out += std::string(width, '-');
  out += StrCat("> time (", axis, " ", format_.axis_unit, ")\n");
  return out;
}

std::string ThreadTraceRecorder::ToChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append = [&out, &first](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += event;
  };
  // Metadata: name the process after the backend and each lane so the
  // Perfetto track list reads "worker 0", "worker 1", ..., "scheduler".
  append(StrCat(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"mjoin ",
      JsonEscape(format_.backend), " backend\"}}"));
  for (uint32_t lane = 0; lane < events_.size(); ++lane) {
    std::string name =
        lane < num_workers_ ? StrCat("worker ", lane)
                            : format_.service_lanes[lane - num_workers_];
    append(StrCat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":",
                  lane, ",\"args\":{\"name\":\"", JsonEscape(name), "\"}}"));
  }
  for (uint32_t lane = 0; lane < events_.size(); ++lane) {
    for (const ThreadTraceEvent& ev : events_[lane]) {
      std::string name = "(blocked on queue)";
      if (ev.type != ThreadWorkType::kBlocked) {
        name = "op?";
        if (ev.op_id >= 0 && static_cast<size_t>(ev.op_id) < ops_.size()) {
          name = ops_[static_cast<size_t>(ev.op_id)].name;
        }
      }
      // trace_event timestamps are microseconds; keep sub-microsecond
      // precision with a fractional part.
      double ts_us = static_cast<double>(ev.start_ns) / format_.units_per_us;
      double dur_us =
          static_cast<double>(ev.end_ns - ev.start_ns) / format_.units_per_us;
      append(StrCat("{\"name\":\"", JsonEscape(name), "\",\"cat\":\"",
                    ThreadWorkTypeName(ev.type),
                    "\",\"ph\":\"X\",\"ts\":", FormatDouble(ts_us, 3),
                    ",\"dur\":", FormatDouble(dur_us, 3),
                    ",\"pid\":1,\"tid\":", lane, ",\"args\":{\"op_id\":",
                    ev.op_id, "}}"));
    }
  }
  out += "\n]}\n";
  return out;
}

std::shared_ptr<ThreadTraceRecorder> NewPlanTrace(const ParallelPlan& plan,
                                                  TraceFormat format) {
  std::vector<ThreadTraceOpInfo> ops;
  ops.reserve(plan.ops.size());
  for (const XraOp& o : plan.ops) {
    ops.push_back(ThreadTraceOpInfo{o.label, o.trace_label});
  }
  return std::make_shared<ThreadTraceRecorder>(plan.num_processors,
                                               std::move(ops),
                                               std::move(format));
}

}  // namespace mjoin
