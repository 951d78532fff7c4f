#include "engine/process_protocol.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"

namespace mjoin {

// Field lists of the payload parts whose own headers stay free of wire
// code, and the conversions of the two fields that are not plain data.

template <class V, WireFieldsOf<SkewDefenseOptions> M>
void Fields(V& v, M& m) {
  v(WireEnumAs<uint8_t>(m.mode, SkewDefenseMode::kAuto), m.bloom_bits,
    m.sketch_capacity, m.hot_fraction, m.min_hot_count,
    m.auto_imbalance_threshold, m.max_hot_row_bytes);
}

template <class V, WireFieldsOf<OpMetrics> M>
void Fields(V& v, M& m) {
  v(m.rows_in[0], m.batches_in[0], m.rows_in[1], m.batches_in[1], m.rows_out,
    m.build_seconds, m.probe_seconds, m.pipeline_seconds, m.scan_seconds,
    m.emit_seconds, m.other_seconds, m.hash_table_rows, m.hash_collisions,
    m.peak_memory_bytes, m.skew_hot_keys, m.skew_replicated_rows,
    m.skew_repartitioned_rows, m.skew_bloom_filtered_rows,
    m.skew_bloom_build_seconds, m.skew_bloom_fp_rate, m.batch_seconds);
}

template <class V, WireFieldsOf<ResultSummary> M>
void Fields(V& v, M& m) {
  v(m.cardinality, m.checksum);
}

/// Plan identity (name, kind, trace label) stays home: the coordinator
/// has the plan.
template <class V, WireFieldsOf<QueryOpStats> M>
void Fields(V& v, M& m) {
  v(m.op_id, m.instances, m.metrics);
}

template <class V, WireFieldsOf<QueryStats> M>
void Fields(V& v, M& m) {
  v(m.batches_sent, m.batches_processed, m.batches_dropped,
    m.batches_duplicated, m.queue_overflows, m.batch_buffers_allocated,
    m.batch_buffers_reused, m.peak_queue_depth, m.peak_memory_bytes,
    m.per_op);
}

template <class V, WireFieldsOf<ProcessNetStats> M>
void Fields(V& v, M& m) {
  v(m.num_workers, m.bytes_sent, m.bytes_received, m.frames_sent,
    m.frames_received, m.local_deliveries, m.pump_stalls, m.faults_injected,
    m.serialize_seconds, m.deserialize_seconds, m.shm_rings,
    m.shm_records_sent, m.shm_records_received, m.shm_bytes_sent,
    m.shm_bytes_received, m.ring_full_stalls);
}

ProcessNetStats& ProcessNetStats::operator+=(const ProcessNetStats& other) {
  auto add = [&other](auto&... mine) {
    auto add_theirs = [&](const auto&... theirs) { ((mine += theirs), ...); };
    Fields(add_theirs, other);
  };
  Fields(add, *this);
  return *this;
}

template <class V, WireFieldsOf<SkewCandidate> M>
void Fields(V& v, M& m) {
  v(m.key, m.count, m.rows_included, m.rows);
}

template <class V, WireFieldsOf<SkewJoinReport> M>
void Fields(V& v, M& m) {
  v(m.op, m.instance, m.build_rows, m.tuple_size, m.candidates, m.bloom);
}

template <class V, WireFieldsOf<SkewDirective> M>
void Fields(V& v, M& m) {
  v(m.op, m.repartition, m.hot_keys, m.tuple_size, m.hot_rows, m.bloom,
    m.total_build_rows, m.imbalance);
}

/// Latency samples travel as the retained values; decoding re-adds them.
void Fields(MessageWriter& w, const PercentileTracker& samples) {
  w(samples.values());
}

void Fields(MessageReader& r, PercentileTracker& samples) {
  std::vector<double> values;
  r(values);
  for (double value : values) samples.Add(value);
}

/// A Bloom filter travels as its raw bytes, which must be empty or a power
/// of two of at least 8 bytes before a filter is rebuilt from them.
void Fields(MessageWriter& w, const BloomFilter& bloom) { w(bloom.bytes()); }

void Fields(MessageReader& r, BloomFilter& bloom) {
  std::vector<uint8_t> bytes;
  r(bytes);
  const size_t size = bytes.size();
  if (size != 0 && (size < 8 || (size & (size - 1)) != 0)) {
    r.Fail(Status::InvalidArgument(StrCat(
        "bloom filter payload of ", size, " bytes is not a power of two")));
    return;
  }
  bloom = BloomFilter::FromBytes(std::move(bytes));
}

namespace {

Status CheckRowBytes(size_t row_bytes, uint32_t tuple_size) {
  if (tuple_size == 0 || row_bytes % tuple_size == 0) return Status::OK();
  return Status::InvalidArgument(StrCat(row_bytes,
                                        " row bytes are not a multiple of "
                                        "tuple size ",
                                        tuple_size));
}

}  // namespace

Status CheckFields(const SkewJoinReport& report) {
  for (const SkewCandidate& candidate : report.candidates) {
    MJOIN_RETURN_IF_ERROR(
        CheckRowBytes(candidate.rows.size(), report.tuple_size));
  }
  return Status::OK();
}

Status CheckFields(const SkewDirective& directive) {
  return CheckRowBytes(directive.hot_rows.size(), directive.tuple_size);
}

template void EncodeMsg(const PlanEnvelope&, std::vector<std::byte>*);
template Status DecodeMsg(WireReader*, PlanEnvelope*);
template void EncodeMsg(const ResultSummary&, std::vector<std::byte>*);
template Status DecodeMsg(WireReader*, ResultSummary*);
template void EncodeMsg(const QueryOpStats&, std::vector<std::byte>*);
template Status DecodeMsg(WireReader*, QueryOpStats*);
template void EncodeMsg(const QueryStats&, std::vector<std::byte>*);
template Status DecodeMsg(WireReader*, QueryStats*);
template void EncodeMsg(const ProcessNetStats&, std::vector<std::byte>*);
template Status DecodeMsg(WireReader*, ProcessNetStats*);
template void EncodeMsg(const WorkerReport&, std::vector<std::byte>*);
template Status DecodeMsg(WireReader*, WorkerReport*);
template void EncodeMsg(const SkewJoinReport&, std::vector<std::byte>*);
template Status DecodeMsg(WireReader*, SkewJoinReport*);
template void EncodeMsg(const SkewDirective&, std::vector<std::byte>*);
template Status DecodeMsg(WireReader*, SkewDirective*);

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
  // Relay rings first: materialized result rows flow worker ->
  // coordinator.
  const uint32_t coordinator = num_workers;
  for (uint32_t w = 0; w < num_workers; ++w) add(w, coordinator);
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
