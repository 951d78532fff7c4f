#ifndef MJOIN_ENGINE_PROCESS_PROTOCOL_H_
#define MJOIN_ENGINE_PROCESS_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/statusor.h"
#include "engine/thread_trace.h"
#include "exec/operator.h"
#include "net/shm_ring.h"
#include "net/wire.h"
#include "skew/defense.h"
#include "xra/plan.h"

namespace mjoin {

/// Payloads of the process backend's frame protocol (net/wire.h defines
/// the frames themselves). Each payload is a struct plus one field list,
/// `Fields`, that names its fields in wire order; EncodeMsg and DecodeMsg
/// (net/wire.h) walk that list, so a field is added in one place and both
/// ends pick it up. The lists of structs declared elsewhere (OpMetrics,
/// SkewDefenseOptions, SkewJoinReport, SkewDirective) live in
/// process_protocol.cc, so those headers stay free of wire code; the
/// messages that contain them are instantiated there too (the extern
/// templates at the end of this block).

/// kPlan: everything a worker needs to run its share of a query. The plan
/// itself travels as textual XRA (xra/text.h) — the same serialization a
/// cluster deployment would ship — and the worker echoes a hash of its
/// re-serialized parse in kHello, making every query a round-trip test of
/// the plan format.
struct PlanEnvelope {
  uint32_t protocol_version = kNetProtocolVersion;
  uint32_t worker_id = 0;
  uint32_t num_workers = 1;
  uint32_t batch_size = 256;
  bool materialize_result = false;
  /// Applied verbatim in each worker: a shared-nothing node budgets its
  /// own memory, so the effective query-wide budget is num_workers times
  /// this value.
  uint64_t memory_budget_bytes = 0;
  bool collect_metrics = true;
  bool record_trace = false;
  /// The coordinator's trace origin (steady_clock time-since-epoch, ns).
  /// CLOCK_MONOTONIC is process-agnostic on Linux, so workers timestamp
  /// their trace events against the coordinator's t=0 directly.
  int64_t trace_origin_ns = 0;
  /// SerializeFaultScenario text; empty = no injection.
  std::string fault_scenario;
  std::string plan_text;
  /// 0-based execution attempt (> 0 on coordinator-driven retries). Lets a
  /// shipped FaultScenario with `on_attempt` fire on one attempt only.
  uint32_t attempt = 0;
  /// Per-ring data bytes of the directory the coordinator mapped.
  uint32_t shm_ring_bytes = 0;
  /// Skew defense configuration. Shipped in full so the worker derives the
  /// same defended-join set (DefendedJoinOps + enabled()) and the same
  /// local hot thresholds the coordinator's merger assumes.
  SkewDefenseOptions skew_defense;
};

template <class V, WireFieldsOf<PlanEnvelope> M>
void Fields(V& v, M& m) {
  v(m.protocol_version, m.worker_id, m.num_workers, m.batch_size,
    m.materialize_result, m.memory_budget_bytes, m.collect_metrics,
    m.record_trace, m.trace_origin_ns, m.fault_scenario, m.plan_text,
    m.attempt, m.shm_ring_bytes, m.skew_defense);
}

/// kHello.
struct HelloMsg {
  uint32_t protocol_version = 0;
  /// FNV-1a over SerializePlan(worker's parsed plan).
  uint64_t plan_hash = 0;
  /// ShmDataPlane::HashDirectory over the ring directory the worker derived
  /// from its parsed plan. The coordinator compares it against the
  /// directory it actually mapped, so a divergent plan parse can never
  /// read or write the wrong ring.
  uint64_t ring_directory_hash = 0;
};

template <class V, WireFieldsOf<HelloMsg> M>
void Fields(V& v, M& m) {
  v(m.protocol_version, m.plan_hash, m.ring_directory_hash);
}

/// kPing / kPong: liveness probes. The payload carries its own checksum on
/// top of the channel's frame CRC, so the codec alone (as exercised by the
/// wire tests) detects a corrupted sequence number.
struct HeartbeatMsg {
  uint32_t seq = 0;
};

template <class V, WireFieldsOf<HeartbeatMsg> M>
void Fields(V& v, M& m) {
  v(m.seq);
  v.Checksum();
}

/// kMilestone.
struct MilestoneMsg {
  int32_t op = -1;
  uint32_t instance = 0;
  Milestone milestone = Milestone::kComplete;
};

template <class V, WireFieldsOf<MilestoneMsg> M>
void Fields(V& v, M& m) {
  v(m.op, m.instance, WireEnumAs<uint8_t>(m.milestone, Milestone::kBuildDone));
}

/// kSummary.
struct SummaryMsg {
  uint64_t cardinality = 0;
  uint64_t checksum = 0;
};

template <class V, WireFieldsOf<SummaryMsg> M>
void Fields(V& v, M& m) {
  v(m.cardinality, m.checksum);
}

/// kOpStats: one op's metrics merged over the sending worker's hosted
/// instances (the coordinator further merges across workers).
struct OpStatsMsg {
  int32_t op = -1;
  uint32_t instances = 0;
  OpMetrics metrics;
};

template <class V, WireFieldsOf<OpStatsMsg> M>
void Fields(V& v, M& m) {
  v(m.op, m.instances, m.metrics);
}

/// kSkewReport carries a SkewJoinReport (skew/defense.h): one defended join
/// instance's build-side summary. Candidate build rows travel inline in the
/// frame — never over the shm rings — so the report can overtake no data
/// record it logically follows. kSkewDirective carries a SkewDirective, the
/// merged plan of action for one defended join.

/// kNetStats: one worker's run-level counters.
struct WorkerRunStats {
  /// Batches handed directly to a consumer instance on the same worker
  /// (never serialized — the process analogue of a same-node send).
  uint64_t local_deliveries = 0;
  /// Batches consumed by operators (remote + local).
  uint64_t batches_processed = 0;
  uint64_t batches_dropped = 0;
  uint64_t batches_duplicated = 0;
  /// Times the source pump deferred because the records parked behind
  /// full rings were over the watermark.
  uint64_t pump_stalls = 0;
  uint64_t buffers_allocated = 0;
  uint64_t buffers_reused = 0;
  uint64_t faults_injected = 0;
  uint64_t peak_memory_bytes = 0;
  double serialize_seconds = 0;
  double deserialize_seconds = 0;
  /// Shm data-plane traffic as seen from this worker (records carry data,
  /// EOS, fragments, and result rows; pads are excluded).
  uint64_t shm_records_sent = 0;
  uint64_t shm_records_received = 0;
  uint64_t shm_bytes_sent = 0;
  uint64_t shm_bytes_received = 0;
  /// Records that found their ring full and were parked in the outbound
  /// backlog.
  uint64_t ring_full_stalls = 0;
};

template <class V, WireFieldsOf<WorkerRunStats> M>
void Fields(V& v, M& m) {
  v(m.local_deliveries, m.batches_processed, m.batches_dropped,
    m.batches_duplicated, m.pump_stalls, m.buffers_allocated,
    m.buffers_reused, m.faults_injected, m.peak_memory_bytes,
    m.serialize_seconds, m.deserialize_seconds, m.shm_records_sent,
    m.shm_records_received, m.shm_bytes_sent, m.shm_bytes_received,
    m.ring_full_stalls);
}

/// kTraceEvents carries a std::vector<WireTraceEvent>: a worker's recorded
/// busy intervals, timestamped against the coordinator's origin. `node` is
/// the plan processor (its lane).
struct WireTraceEvent {
  uint32_t node = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  ThreadWorkType type = ThreadWorkType::kOther;
  int32_t op_id = -1;
};

template <class V, WireFieldsOf<WireTraceEvent> M>
void Fields(V& v, M& m) {
  v(m.node, m.start_ns, m.end_ns,
    WireEnumAs<uint8_t>(m.type, ThreadWorkType::kOther), m.op_id);
}

/// kTrigger: start the instances of one dispatch group the worker hosts.
struct TriggerMsg {
  int32_t group = -1;
};

template <class V, WireFieldsOf<TriggerMsg> M>
void Fields(V& v, M& m) {
  v(m.group);
}

/// kError: a worker's fatal status, reconstructed coordinator-side.
struct ErrorMsg {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

template <class V, WireFieldsOf<ErrorMsg> M>
void Fields(V& v, M& m) {
  v(WireEnumAs<int32_t>(m.code, StatusCode::kUnavailable), m.message);
}

extern template void EncodeMsg(const PlanEnvelope&, std::vector<std::byte>*);
extern template Status DecodeMsg(WireReader*, PlanEnvelope*);
extern template void EncodeMsg(const OpStatsMsg&, std::vector<std::byte>*);
extern template Status DecodeMsg(WireReader*, OpStatsMsg*);
extern template void EncodeMsg(const SkewJoinReport&,
                               std::vector<std::byte>*);
extern template Status DecodeMsg(WireReader*, SkewJoinReport*);
extern template void EncodeMsg(const SkewDirective&, std::vector<std::byte>*);
extern template Status DecodeMsg(WireReader*, SkewDirective*);

/// FNV-1a (64-bit) over arbitrary text; the kHello plan-echo hash.
uint64_t FnvHash64(const std::string& text);

/// Payload layouts of the shm data plane's records (net/shm_ring.h). These
/// are memcpy'd PODs, not byte-order codecs: every process in the fleet is
/// forked from one binary and shares one mapping, so the in-memory layout
/// IS the wire layout — exactly the property that makes "serialize" a
/// bounds-checked memcpy. Raw rows (tuple_size * num_tuples bytes) follow
/// each header inside the record payload.
struct ShmDataHeader {
  int32_t consumer_op = -1;
  uint32_t dest_index = 0;
  uint32_t port = 0;
  uint32_t schema_id = 0;
  uint32_t tuple_size = 0;
  uint32_t num_tuples = 0;
};
static_assert(std::is_trivially_copyable_v<ShmDataHeader> &&
                  sizeof(ShmDataHeader) == 24,
              "shm record headers are raw-copied PODs");

struct ShmEosHeader {
  int32_t consumer_op = -1;
  uint32_t dest_index = 0;
  uint32_t port = 0;
};
static_assert(std::is_trivially_copyable_v<ShmEosHeader> &&
                  sizeof(ShmEosHeader) == 12,
              "shm record headers are raw-copied PODs");

struct ShmFragmentHeader {
  int32_t op = -1;
  uint32_t instance = 0;
  uint32_t schema_id = 0;
  uint32_t tuple_size = 0;
  uint32_t num_tuples = 0;
};
static_assert(std::is_trivially_copyable_v<ShmFragmentHeader> &&
                  sizeof(ShmFragmentHeader) == 20,
              "shm record headers are raw-copied PODs");

struct ShmResultRowsHeader {
  uint32_t schema_id = 0;
  uint32_t tuple_size = 0;
  uint32_t num_tuples = 0;
};
static_assert(std::is_trivially_copyable_v<ShmResultRowsHeader> &&
                  sizeof(ShmResultRowsHeader) == 12,
              "shm record headers are raw-copied PODs");

/// The ring directory of one plan on `num_workers` workers: the relay
/// rings (coordinator <-> each worker, for fragments and result rows)
/// first, then one ring per communicating worker pair in plan order. The
/// coordinator's endpoint id is num_workers. Deterministic given (plan,
/// num_workers): the coordinator and every worker compute it independently
/// and cross-check HashDirectory in the kHello handshake.
std::vector<ShmRingSpec> ComputeRingDirectory(const ParallelPlan& plan,
                                              uint32_t num_workers);

/// Largest record payload the plan can put on a ring: one row of an op's
/// output behind the header of the record that carries it (a scan's
/// fragment chunk, a batch toward a consumer, a chunk of the final
/// result). Records never split a row, so every ring of the plan's
/// directory must accept a payload this large (ShmMaxPayload).
size_t WidestShmRecordPayload(const ParallelPlan& plan);

/// Block placement of plan processors onto worker processes: processor p
/// lives in worker p*num_workers/num_processors. Contiguous processor
/// ranges keep kColocated producer/consumer pairs (and stored-result →
/// rescan pairs, which share a processor list) inside one worker whenever
/// instance counts allow.
inline uint32_t WorkerOfProcessor(uint32_t processor, uint32_t num_workers,
                                  uint32_t num_processors) {
  return static_cast<uint32_t>(static_cast<uint64_t>(processor) *
                               num_workers / num_processors);
}

}  // namespace mjoin

#endif  // MJOIN_ENGINE_PROCESS_PROTOCOL_H_
