#include "engine/process_protocol.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/string_util.h"

namespace mjoin {

namespace {

void PutBool(std::vector<std::byte>* out, bool v) { PutU8(out, v ? 1 : 0); }

Status ReadBool(WireReader* reader, bool* v) {
  uint8_t raw;
  MJOIN_RETURN_IF_ERROR(reader->ReadU8(&raw));
  *v = raw != 0;
  return Status::OK();
}

}  // namespace

void EncodePlanEnvelope(const PlanEnvelope& env, std::vector<std::byte>* out) {
  PutU32(out, env.protocol_version);
  PutU32(out, env.worker_id);
  PutU32(out, env.num_workers);
  PutU32(out, env.batch_size);
  PutBool(out, env.materialize_result);
  PutU64(out, env.memory_budget_bytes);
  PutBool(out, env.collect_metrics);
  PutBool(out, env.record_trace);
  PutI64(out, env.trace_origin_ns);
  PutString(out, env.fault_scenario);
  PutString(out, env.plan_text);
  PutU32(out, env.attempt);
  PutU32(out, env.shm_ring_bytes);
  PutU8(out, static_cast<uint8_t>(env.skew_defense.mode));
  PutU32(out, env.skew_defense.bloom_bits);
  PutU32(out, env.skew_defense.sketch_capacity);
  PutF64(out, env.skew_defense.hot_fraction);
  PutU64(out, env.skew_defense.min_hot_count);
  PutF64(out, env.skew_defense.auto_imbalance_threshold);
  PutU64(out, env.skew_defense.max_hot_row_bytes);
}

Status DecodePlanEnvelope(WireReader* reader, PlanEnvelope* env) {
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&env->protocol_version));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&env->worker_id));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&env->num_workers));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&env->batch_size));
  MJOIN_RETURN_IF_ERROR(ReadBool(reader, &env->materialize_result));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&env->memory_budget_bytes));
  MJOIN_RETURN_IF_ERROR(ReadBool(reader, &env->collect_metrics));
  MJOIN_RETURN_IF_ERROR(ReadBool(reader, &env->record_trace));
  MJOIN_RETURN_IF_ERROR(reader->ReadI64(&env->trace_origin_ns));
  MJOIN_RETURN_IF_ERROR(reader->ReadString(&env->fault_scenario));
  MJOIN_RETURN_IF_ERROR(reader->ReadString(&env->plan_text));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&env->attempt));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&env->shm_ring_bytes));
  uint8_t mode;
  MJOIN_RETURN_IF_ERROR(reader->ReadU8(&mode));
  if (mode > static_cast<uint8_t>(SkewDefenseMode::kAuto)) {
    return Status::InvalidArgument(
        StrCat("unknown skew defense mode code ", mode));
  }
  env->skew_defense.mode = static_cast<SkewDefenseMode>(mode);
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&env->skew_defense.bloom_bits));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&env->skew_defense.sketch_capacity));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&env->skew_defense.hot_fraction));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&env->skew_defense.min_hot_count));
  MJOIN_RETURN_IF_ERROR(
      reader->ReadF64(&env->skew_defense.auto_imbalance_threshold));
  uint64_t max_hot_row_bytes;
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&max_hot_row_bytes));
  env->skew_defense.max_hot_row_bytes =
      static_cast<size_t>(max_hot_row_bytes);
  return Status::OK();
}

void EncodeHello(const HelloMsg& msg, std::vector<std::byte>* out) {
  PutU32(out, msg.protocol_version);
  PutU64(out, msg.plan_hash);
  PutU64(out, msg.ring_directory_hash);
}

Status DecodeHello(WireReader* reader, HelloMsg* msg) {
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&msg->protocol_version));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&msg->plan_hash));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&msg->ring_directory_hash));
  return Status::OK();
}

void EncodeHeartbeat(const HeartbeatMsg& msg, std::vector<std::byte>* out) {
  size_t base = out->size();
  PutU32(out, msg.seq);
  PutU32(out, Crc32(out->data() + base, 4));
}

Status DecodeHeartbeat(WireReader* reader, HeartbeatMsg* msg) {
  const std::byte* seq_bytes = reader->cursor();
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&msg->seq));
  uint32_t crc = 0;
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&crc));
  if (Crc32(seq_bytes, 4) != crc) {
    return Status::InvalidArgument("heartbeat checksum mismatch");
  }
  return Status::OK();
}

void EncodeMilestone(const MilestoneMsg& msg, std::vector<std::byte>* out) {
  PutI32(out, msg.op);
  PutU32(out, msg.instance);
  PutU8(out, static_cast<uint8_t>(msg.milestone));
}

Status DecodeMilestone(WireReader* reader, MilestoneMsg* msg) {
  MJOIN_RETURN_IF_ERROR(reader->ReadI32(&msg->op));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&msg->instance));
  uint8_t raw;
  MJOIN_RETURN_IF_ERROR(reader->ReadU8(&raw));
  if (raw > static_cast<uint8_t>(Milestone::kBuildDone)) {
    return Status::InvalidArgument(StrCat("unknown milestone code ", raw));
  }
  msg->milestone = static_cast<Milestone>(raw);
  return Status::OK();
}

void EncodeSummary(const SummaryMsg& msg, std::vector<std::byte>* out) {
  PutU64(out, msg.cardinality);
  PutU64(out, msg.checksum);
}

Status DecodeSummary(WireReader* reader, SummaryMsg* msg) {
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&msg->cardinality));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&msg->checksum));
  return Status::OK();
}

void EncodeOpStats(const OpStatsMsg& msg, std::vector<std::byte>* out) {
  PutI32(out, msg.op);
  PutU32(out, msg.instances);
  const OpMetrics& m = msg.metrics;
  for (int port = 0; port < 2; ++port) {
    PutU64(out, m.rows_in[port]);
    PutU64(out, m.batches_in[port]);
  }
  PutU64(out, m.rows_out);
  PutF64(out, m.build_seconds);
  PutF64(out, m.probe_seconds);
  PutF64(out, m.pipeline_seconds);
  PutF64(out, m.scan_seconds);
  PutF64(out, m.emit_seconds);
  PutF64(out, m.other_seconds);
  PutU64(out, m.hash_table_rows);
  PutU64(out, m.hash_collisions);
  PutU64(out, m.peak_memory_bytes);
  PutU64(out, m.skew_hot_keys);
  PutU64(out, m.skew_replicated_rows);
  PutU64(out, m.skew_repartitioned_rows);
  PutU64(out, m.skew_bloom_filtered_rows);
  PutF64(out, m.skew_bloom_build_seconds);
  PutF64(out, m.skew_bloom_fp_rate);
  const std::vector<double>& samples = m.batch_seconds.values();
  PutU32(out, static_cast<uint32_t>(samples.size()));
  for (double sample : samples) PutF64(out, sample);
}

Status DecodeOpStats(WireReader* reader, OpStatsMsg* msg) {
  MJOIN_RETURN_IF_ERROR(reader->ReadI32(&msg->op));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&msg->instances));
  OpMetrics& m = msg->metrics;
  for (int port = 0; port < 2; ++port) {
    MJOIN_RETURN_IF_ERROR(reader->ReadU64(&m.rows_in[port]));
    MJOIN_RETURN_IF_ERROR(reader->ReadU64(&m.batches_in[port]));
  }
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&m.rows_out));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&m.build_seconds));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&m.probe_seconds));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&m.pipeline_seconds));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&m.scan_seconds));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&m.emit_seconds));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&m.other_seconds));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&m.hash_table_rows));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&m.hash_collisions));
  uint64_t peak;
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&peak));
  m.peak_memory_bytes = static_cast<size_t>(peak);
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&m.skew_hot_keys));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&m.skew_replicated_rows));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&m.skew_repartitioned_rows));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&m.skew_bloom_filtered_rows));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&m.skew_bloom_build_seconds));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&m.skew_bloom_fp_rate));
  uint32_t num_samples;
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&num_samples));
  if (static_cast<size_t>(num_samples) * 8 > reader->remaining()) {
    return Status::OutOfRange(
        StrCat("op stats claim ", num_samples, " latency samples but only ",
               reader->remaining(), " bytes remain"));
  }
  for (uint32_t i = 0; i < num_samples; ++i) {
    double sample;
    MJOIN_RETURN_IF_ERROR(reader->ReadF64(&sample));
    m.batch_seconds.Add(sample);
  }
  return Status::OK();
}

namespace {

/// Raw length-prefixed byte blobs (candidate rows, Bloom bits). The
/// u32 length is bounds-checked against the payload before any copy, so a
/// corrupted count cannot drive a huge allocation past the frame.
void PutBlob(std::vector<std::byte>* out, const std::byte* data,
             size_t size) {
  PutU32(out, static_cast<uint32_t>(size));
  out->insert(out->end(), data, data + size);
}

Status ReadBlob(WireReader* reader, std::vector<std::byte>* blob,
                const char* what) {
  uint32_t size;
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&size));
  if (size > reader->remaining()) {
    return Status::OutOfRange(StrCat(what, " claims ", size,
                                     " bytes but only ", reader->remaining(),
                                     " remain"));
  }
  const std::byte* data;
  MJOIN_RETURN_IF_ERROR(reader->ReadBytes(size, &data));
  blob->assign(data, data + size);
  return Status::OK();
}

void PutBloom(std::vector<std::byte>* out, const BloomFilter& bloom) {
  const std::vector<uint8_t>& bytes = bloom.bytes();
  PutBlob(out, reinterpret_cast<const std::byte*>(bytes.data()),
          bytes.size());
}

Status ReadBloom(WireReader* reader, BloomFilter* bloom) {
  std::vector<std::byte> blob;
  MJOIN_RETURN_IF_ERROR(ReadBlob(reader, &blob, "bloom filter"));
  const size_t size = blob.size();
  if (size != 0 && (size < 8 || (size & (size - 1)) != 0)) {
    return Status::InvalidArgument(
        StrCat("bloom filter payload of ", size, " bytes is not a power of",
               " two"));
  }
  std::vector<uint8_t> bytes(size);
  if (size != 0) std::memcpy(bytes.data(), blob.data(), size);
  *bloom = BloomFilter::FromBytes(std::move(bytes));
  return Status::OK();
}

}  // namespace

void EncodeSkewReport(const SkewJoinReport& report,
                      std::vector<std::byte>* out) {
  PutI32(out, report.op);
  PutU32(out, report.instance);
  PutU64(out, report.build_rows);
  PutU32(out, report.tuple_size);
  PutU32(out, static_cast<uint32_t>(report.candidates.size()));
  for (const SkewCandidate& candidate : report.candidates) {
    PutI32(out, candidate.key);
    PutU64(out, candidate.count);
    PutBool(out, candidate.rows_included);
    PutBlob(out, candidate.rows.data(), candidate.rows.size());
  }
  PutBloom(out, report.bloom);
}

Status DecodeSkewReport(WireReader* reader, SkewJoinReport* report) {
  MJOIN_RETURN_IF_ERROR(reader->ReadI32(&report->op));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&report->instance));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&report->build_rows));
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&report->tuple_size));
  uint32_t num_candidates;
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&num_candidates));
  constexpr size_t kCandidateMinBytes = 4 + 8 + 1 + 4;
  if (static_cast<size_t>(num_candidates) * kCandidateMinBytes >
      reader->remaining()) {
    return Status::OutOfRange(
        StrCat("skew report claims ", num_candidates,
               " candidates but only ", reader->remaining(),
               " bytes remain"));
  }
  report->candidates.clear();
  report->candidates.reserve(num_candidates);
  for (uint32_t i = 0; i < num_candidates; ++i) {
    SkewCandidate candidate;
    MJOIN_RETURN_IF_ERROR(reader->ReadI32(&candidate.key));
    MJOIN_RETURN_IF_ERROR(reader->ReadU64(&candidate.count));
    MJOIN_RETURN_IF_ERROR(ReadBool(reader, &candidate.rows_included));
    MJOIN_RETURN_IF_ERROR(
        ReadBlob(reader, &candidate.rows, "skew candidate rows"));
    if (report->tuple_size != 0 &&
        candidate.rows.size() % report->tuple_size != 0) {
      return Status::InvalidArgument(
          StrCat("skew candidate carries ", candidate.rows.size(),
                 " row bytes, not a multiple of tuple size ",
                 report->tuple_size));
    }
    report->candidates.push_back(std::move(candidate));
  }
  return ReadBloom(reader, &report->bloom);
}

void EncodeSkewDirective(const SkewDirective& directive,
                         std::vector<std::byte>* out) {
  PutI32(out, directive.op);
  PutBool(out, directive.repartition);
  PutU32(out, static_cast<uint32_t>(directive.hot_keys.size()));
  for (int32_t key : directive.hot_keys) PutI32(out, key);
  PutU32(out, directive.tuple_size);
  PutBlob(out, directive.hot_rows.data(), directive.hot_rows.size());
  PutBloom(out, directive.bloom);
  PutU64(out, directive.total_build_rows);
  PutF64(out, directive.imbalance);
}

Status DecodeSkewDirective(WireReader* reader, SkewDirective* directive) {
  MJOIN_RETURN_IF_ERROR(reader->ReadI32(&directive->op));
  MJOIN_RETURN_IF_ERROR(ReadBool(reader, &directive->repartition));
  uint32_t num_keys;
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&num_keys));
  if (static_cast<size_t>(num_keys) * 4 > reader->remaining()) {
    return Status::OutOfRange(
        StrCat("skew directive claims ", num_keys, " hot keys but only ",
               reader->remaining(), " bytes remain"));
  }
  directive->hot_keys.clear();
  directive->hot_keys.reserve(num_keys);
  for (uint32_t i = 0; i < num_keys; ++i) {
    int32_t key;
    MJOIN_RETURN_IF_ERROR(reader->ReadI32(&key));
    directive->hot_keys.push_back(key);
  }
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&directive->tuple_size));
  MJOIN_RETURN_IF_ERROR(
      ReadBlob(reader, &directive->hot_rows, "skew directive rows"));
  if (directive->tuple_size != 0 &&
      directive->hot_rows.size() % directive->tuple_size != 0) {
    return Status::InvalidArgument(
        StrCat("skew directive carries ", directive->hot_rows.size(),
               " row bytes, not a multiple of tuple size ",
               directive->tuple_size));
  }
  MJOIN_RETURN_IF_ERROR(ReadBloom(reader, &directive->bloom));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&directive->total_build_rows));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&directive->imbalance));
  return Status::OK();
}

void EncodeWorkerRunStats(const WorkerRunStats& stats,
                          std::vector<std::byte>* out) {
  PutU64(out, stats.local_deliveries);
  PutU64(out, stats.batches_processed);
  PutU64(out, stats.batches_dropped);
  PutU64(out, stats.batches_duplicated);
  PutU64(out, stats.pump_stalls);
  PutU64(out, stats.buffers_allocated);
  PutU64(out, stats.buffers_reused);
  PutU64(out, stats.faults_injected);
  PutU64(out, stats.peak_memory_bytes);
  PutF64(out, stats.serialize_seconds);
  PutF64(out, stats.deserialize_seconds);
  PutU64(out, stats.shm_records_sent);
  PutU64(out, stats.shm_records_received);
  PutU64(out, stats.shm_bytes_sent);
  PutU64(out, stats.shm_bytes_received);
  PutU64(out, stats.ring_full_stalls);
}

Status DecodeWorkerRunStats(WireReader* reader, WorkerRunStats* stats) {
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->local_deliveries));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->batches_processed));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->batches_dropped));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->batches_duplicated));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->pump_stalls));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->buffers_allocated));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->buffers_reused));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->faults_injected));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->peak_memory_bytes));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&stats->serialize_seconds));
  MJOIN_RETURN_IF_ERROR(reader->ReadF64(&stats->deserialize_seconds));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->shm_records_sent));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->shm_records_received));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->shm_bytes_sent));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->shm_bytes_received));
  MJOIN_RETURN_IF_ERROR(reader->ReadU64(&stats->ring_full_stalls));
  return Status::OK();
}

void EncodeTraceEvents(const std::vector<WireTraceEvent>& events,
                       std::vector<std::byte>* out) {
  PutU32(out, static_cast<uint32_t>(events.size()));
  for (const WireTraceEvent& ev : events) {
    PutU32(out, ev.node);
    PutI64(out, ev.start_ns);
    PutI64(out, ev.end_ns);
    PutU8(out, static_cast<uint8_t>(ev.type));
    PutI32(out, ev.op_id);
  }
}

Status DecodeTraceEvents(WireReader* reader,
                         std::vector<WireTraceEvent>* events) {
  uint32_t count;
  MJOIN_RETURN_IF_ERROR(reader->ReadU32(&count));
  constexpr size_t kEventWireBytes = 4 + 8 + 8 + 1 + 4;
  if (static_cast<size_t>(count) * kEventWireBytes > reader->remaining()) {
    return Status::OutOfRange(
        StrCat("trace payload claims ", count, " events but only ",
               reader->remaining(), " bytes remain"));
  }
  events->reserve(events->size() + count);
  for (uint32_t i = 0; i < count; ++i) {
    WireTraceEvent ev;
    MJOIN_RETURN_IF_ERROR(reader->ReadU32(&ev.node));
    MJOIN_RETURN_IF_ERROR(reader->ReadI64(&ev.start_ns));
    MJOIN_RETURN_IF_ERROR(reader->ReadI64(&ev.end_ns));
    uint8_t raw;
    MJOIN_RETURN_IF_ERROR(reader->ReadU8(&raw));
    if (raw > static_cast<uint8_t>(ThreadWorkType::kOther)) {
      return Status::InvalidArgument(StrCat("unknown work type code ", raw));
    }
    ev.type = static_cast<ThreadWorkType>(raw);
    MJOIN_RETURN_IF_ERROR(reader->ReadI32(&ev.op_id));
    events->push_back(ev);
  }
  return Status::OK();
}

void EncodeStatusPayload(const Status& status, std::vector<std::byte>* out) {
  PutI32(out, static_cast<int32_t>(status.code()));
  PutString(out, status.message());
}

Status DecodeStatusPayload(WireReader* reader, Status* status) {
  int32_t code;
  std::string message;
  MJOIN_RETURN_IF_ERROR(reader->ReadI32(&code));
  MJOIN_RETURN_IF_ERROR(reader->ReadString(&message));
  if (code < 0 || code > static_cast<int32_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument(StrCat("unknown status code ", code));
  }
  *status = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

uint64_t FnvHash64(const std::string& text) {
  uint64_t hash = 0xCBF2'9CE4'8422'2325ull;
  for (char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x0000'0100'0000'01B3ull;
  }
  return hash;
}

std::vector<ShmRingSpec> ComputeRingDirectory(const ParallelPlan& plan,
                                              uint32_t num_workers) {
  std::vector<ShmRingSpec> specs;
  std::unordered_set<uint64_t> seen;
  auto add = [&specs, &seen](uint32_t from, uint32_t to) {
    if (from == to) return;
    if (seen.insert((uint64_t{from} << 32) | to).second) {
      specs.push_back(ShmRingSpec{from, to});
    }
  };
  // Relay rings first: fragments flow coordinator -> worker, materialized
  // result rows flow worker -> coordinator.
  const uint32_t coordinator = num_workers;
  for (uint32_t w = 0; w < num_workers; ++w) {
    add(coordinator, w);
    add(w, coordinator);
  }
  // Pair rings, in plan order: one directed ring per worker pair that any
  // producer -> consumer edge can put a batch on. Hash-split edges fan out
  // every producer instance to every consumer instance; colocated edges
  // pair instances index-to-index (usually the same worker, so usually no
  // ring at all).
  for (const XraOp& o : plan.ops) {
    if (o.consumer < 0 || o.store_result >= 0) continue;
    const XraOp& consumer = plan.ops[static_cast<size_t>(o.consumer)];
    const XraInput& input = consumer.inputs[o.consumer_port];
    if (input.routing == Routing::kHashSplit) {
      for (uint32_t p : o.processors) {
        for (uint32_t c : consumer.processors) {
          add(WorkerOfProcessor(p, num_workers, plan.num_processors),
              WorkerOfProcessor(c, num_workers, plan.num_processors));
        }
      }
    } else {
      const size_t n =
          std::min(o.processors.size(), consumer.processors.size());
      for (size_t i = 0; i < n; ++i) {
        add(WorkerOfProcessor(o.processors[i], num_workers,
                              plan.num_processors),
            WorkerOfProcessor(consumer.processors[i], num_workers,
                              plan.num_processors));
      }
    }
  }
  return specs;
}

size_t WidestShmRecordPayload(const ParallelPlan& plan) {
  size_t widest = 0;
  for (const XraOp& o : plan.ops) {
    const size_t row = o.output_schema->tuple_size();
    if (o.kind == XraOpKind::kScan) {
      widest = std::max(widest, sizeof(ShmFragmentHeader) + row);
    }
    if (o.consumer >= 0 && o.store_result < 0) {
      widest = std::max(widest, sizeof(ShmDataHeader) + row);
    }
    if (o.store_result == plan.final_result) {
      widest = std::max(widest, sizeof(ShmResultRowsHeader) + row);
    }
  }
  return widest;
}

}  // namespace mjoin
