// Golden wire bytes of every control payload: one fixed, fully populated
// instance per message, encoded and compared with a hex literal. The
// literals pin the byte layout of protocol v11, so any change to a codec
// that moves a byte fails here, whether or not both ends still agree.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "engine/process_protocol.h"
#include "serve/serve_protocol.h"

namespace mjoin {
namespace {

template <class Msg>
std::string EncodedHex(const Msg& msg) {
  std::vector<std::byte> bytes;
  EncodeMsg(msg, &bytes);
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (std::byte b : bytes) {
    hex += kDigits[static_cast<uint8_t>(b) >> 4];
    hex += kDigits[static_cast<uint8_t>(b) & 0xF];
  }
  return hex;
}

TEST(WireGoldenTest, ProtocolVersionIsEleven) {
  EXPECT_EQ(kNetProtocolVersion, 11u);
}

TEST(WireGoldenTest, PlanEnvelope) {
  PlanEnvelope m;
  m.protocol_version = 7;
  m.worker_id = 2;
  m.num_workers = 3;
  m.batch_size = 64;
  m.materialize_result = true;
  m.memory_budget_bytes = 0x0102030405060708ull;
  m.collect_metrics = false;
  m.record_trace = true;
  m.trace_origin_ns = -5;
  m.fault_scenario = "fs";
  m.plan_text = "plan";
  m.attempt = 1;
  m.shm_ring_bytes = 4096;
  m.skew_defense.mode = SkewDefenseMode::kAuto;
  m.skew_defense.bloom_bits = 1024;
  m.skew_defense.sketch_capacity = 17;
  m.skew_defense.hot_fraction = 0.75;
  m.skew_defense.min_hot_count = 99;
  m.skew_defense.auto_imbalance_threshold = 1.5;
  m.skew_defense.max_hot_row_bytes = 12345;
  EXPECT_EQ(EncodedHex(m),
            "070000000200000003000000400000000108070605040302010001"
            "fbffffffffffffff02000000667304000000706c616e01000000"
            "00100000020004000011000000000000000000e83f"
            "6300000000000000000000000000f83f3930000000000000");
}

TEST(WireGoldenTest, Hello) {
  HelloMsg m;
  m.protocol_version = 7;
  m.plan_hash = 0x0123456789abcdefull;
  m.ring_directory_hash = 0xfeedfacecafef00dull;
  EXPECT_EQ(EncodedHex(m), "07000000efcdab89674523010df0fecacefaedfe");
}

TEST(WireGoldenTest, Heartbeat) {
  HeartbeatMsg m;
  m.seq = 0xA5A5A5A5u;
  EXPECT_EQ(EncodedHex(m), "a5a5a5a56bb68ef1");
}

TEST(WireGoldenTest, Milestone) {
  MilestoneMsg m;
  m.op = 4;
  m.instance = 2;
  m.milestone = Milestone::kBuildDone;
  EXPECT_EQ(EncodedHex(m), "040000000200000001");
}

// The parts of a WorkerReport, each with its golden bytes; the
// WorkerReport golden below is made of these.
ResultSummary SampleSummary() {
  ResultSummary m;
  m.cardinality = 1000;
  m.checksum = 0x8877665544332211ull;
  return m;
}
constexpr const char* kSummaryHex = "e8030000000000001122334455667788";

TEST(WireGoldenTest, Summary) {
  EXPECT_EQ(EncodedHex(SampleSummary()), kSummaryHex);
}

QueryOpStats SampleOpStats() {
  QueryOpStats m;
  m.op_id = 3;
  m.instances = 2;
  OpMetrics& x = m.metrics;
  x.rows_in[0] = 1;
  x.rows_in[1] = 2;
  x.batches_in[0] = 3;
  x.batches_in[1] = 4;
  x.rows_out = 5;
  x.build_seconds = 0.5;
  x.probe_seconds = 0.25;
  x.pipeline_seconds = 0.125;
  x.scan_seconds = 1.0;
  x.emit_seconds = 2.0;
  x.other_seconds = 4.0;
  x.hash_table_rows = 6;
  x.hash_collisions = 7;
  x.peak_memory_bytes = 8;
  x.skew_hot_keys = 9;
  x.skew_replicated_rows = 10;
  x.skew_repartitioned_rows = 11;
  x.skew_bloom_filtered_rows = 12;
  x.skew_bloom_build_seconds = 0.0625;
  x.skew_bloom_fp_rate = 0.03125;
  x.batch_seconds.Add(0.5);
  x.batch_seconds.Add(1.5);
  return m;
}
constexpr const char* kOpStatsHex =
    "030000000200000001000000000000000300000000000000"
    "020000000000000004000000000000000500000000000000"
    "000000000000e03f000000000000d03f000000000000c03f"
    "000000000000f03f00000000000000400000000000001040"
    "060000000000000007000000000000000800000000000000"
    "09000000000000000a000000000000000b00000000000000"
    "0c00000000000000000000000000b03f000000000000a03f02000000"
    "000000000000e03f000000000000f83f";

TEST(WireGoldenTest, OpStats) {
  EXPECT_EQ(EncodedHex(SampleOpStats()), kOpStatsHex);
}

TEST(WireGoldenTest, SkewReport) {
  SkewJoinReport m;
  m.op = 5;
  m.instance = 1;
  m.build_rows = 777;
  m.tuple_size = 4;
  SkewCandidate with_rows;
  with_rows.key = 42;
  with_rows.count = 700;
  with_rows.rows_included = true;
  with_rows.rows = {std::byte{0x01}, std::byte{0x02}, std::byte{0x03},
                    std::byte{0x04}, std::byte{0x05}, std::byte{0x06},
                    std::byte{0x07}, std::byte{0x08}};
  m.candidates.push_back(with_rows);
  SkewCandidate count_only;
  count_only.key = -7;
  count_only.count = 3;
  m.candidates.push_back(count_only);
  BloomFilter bloom(64);
  bloom.Insert(42);
  m.bloom = bloom;
  EXPECT_EQ(EncodedHex(m),
            "0500000001000000090300000000000004000000020000002a000000"
            "bc0200000000000001080000000102030405060708f9ffffff"
            "03000000000000000000000000080000000004200008000010");
}

TEST(WireGoldenTest, SkewDirective) {
  SkewDirective m;
  m.op = 4;
  m.repartition = true;
  m.hot_keys = {-3, 9};
  m.tuple_size = 2;
  m.hot_rows = {std::byte{0xAA}, std::byte{0xBB}, std::byte{0xCC},
                std::byte{0xDD}};
  BloomFilter bloom(64);
  bloom.Insert(9);
  m.bloom = bloom;
  m.total_build_rows = 4096;
  m.imbalance = 2.25;
  EXPECT_EQ(EncodedHex(m),
            "040000000102000000fdffffff0900000002000000"
            "04000000aabbccdd08000000000000001e0000000010000000000000"
            "0000000000000240");
}

// The run-stats part: a worker's QueryStats (its per_op list empty here)
// and its ProcessNetStats.
QueryStats SampleRunStats() {
  QueryStats m;
  m.batches_sent = 1;
  m.batches_processed = 2;
  m.batches_dropped = 3;
  m.batches_duplicated = 4;
  m.queue_overflows = 5;
  m.batch_buffers_allocated = 6;
  m.batch_buffers_reused = 7;
  m.peak_queue_depth = 8;
  m.peak_memory_bytes = 9;
  return m;
}
// The nine counters; the per_op list's u32 count follows them.
constexpr const char* kRunStatsHex =
    "010000000000000002000000000000000300000000000000"
    "040000000000000005000000000000000600000000000000"
    "070000000000000008000000000000000900000000000000";

TEST(WireGoldenTest, QueryStats) {
  EXPECT_EQ(EncodedHex(SampleRunStats()),
            std::string(kRunStatsHex) + "00000000");
}

ProcessNetStats SampleNetStats() {
  ProcessNetStats m;
  m.num_workers = 1;
  m.bytes_sent = 2;
  m.bytes_received = 3;
  m.frames_sent = 4;
  m.frames_received = 5;
  m.local_deliveries = 6;
  m.pump_stalls = 7;
  m.faults_injected = 8;
  m.serialize_seconds = 0.5;
  m.deserialize_seconds = 0.25;
  m.shm_rings = 9;
  m.shm_records_sent = 10;
  m.shm_records_received = 11;
  m.shm_bytes_sent = 12;
  m.shm_bytes_received = 13;
  m.ring_full_stalls = 14;
  return m;
}
constexpr const char* kNetStatsHex =
    "010000000200000000000000030000000000000004000000"
    "000000000500000000000000060000000000000007000000"
    "000000000800000000000000000000000000e03f00000000"
    "0000d03f090000000a000000000000000b00000000000000"
    "0c000000000000000d000000000000000e00000000000000";

TEST(WireGoldenTest, ProcessNetStats) {
  EXPECT_EQ(EncodedHex(SampleNetStats()), kNetStatsHex);
}

std::vector<WireTraceEvent> SampleTraceEvents() {
  std::vector<WireTraceEvent> m(2);
  m[0].node = 1;
  m[0].start_ns = 100;
  m[0].end_ns = 250;
  m[0].type = ThreadWorkType::kBuild;
  m[0].op_id = 3;
  m[1].node = 5;
  m[1].start_ns = 300;
  m[1].end_ns = 301;
  m[1].type = ThreadWorkType::kOther;
  m[1].op_id = -1;
  return m;
}
// A vector's u32 count (2) leads its elements.
constexpr const char* kTraceEventsHex =
    "02000000010000006400000000000000fa0000000000000001"
    "03000000050000002c010000000000002d010000000000000b"
    "ffffffff";

TEST(WireGoldenTest, TraceEvents) {
  EXPECT_EQ(EncodedHex(SampleTraceEvents()), kTraceEventsHex);
}

TEST(WireGoldenTest, WorkerReport) {
  // The parts' own bytes in field order; the stats' per-op list carries
  // its u32 count (1) before its one element, the trace its count (2).
  WorkerReport m;
  m.summary = SampleSummary();
  m.stats = SampleRunStats();
  m.stats.per_op.push_back(SampleOpStats());
  m.net = SampleNetStats();
  m.trace = SampleTraceEvents();
  EXPECT_EQ(EncodedHex(m), std::string(kSummaryHex) + kRunStatsHex +
                               "01000000" + kOpStatsHex + kNetStatsHex +
                               kTraceEventsHex);
}

TEST(WireGoldenTest, Trigger) {
  TriggerMsg m;
  m.group = 6;
  EXPECT_EQ(EncodedHex(m), "06000000");
}

TEST(WireGoldenTest, Error) {
  ErrorMsg m;
  m.code = StatusCode::kResourceExhausted;
  m.message = "oom";
  EXPECT_EQ(EncodedHex(m), "08000000030000006f6f6d");
}

TEST(WireGoldenTest, Submit) {
  SubmitMsg m;
  m.client_seq = 0x1122334455667788ull;
  m.tenant = "t";
  m.backend = ServeBackend::kProcess;
  m.plan_text = "plan";
  m.batch_size = 777;
  m.deadline_ms = 250;
  m.memory_budget_bytes = 1ull << 33;
  EXPECT_EQ(EncodedHex(m),
            "887766554433221101000000740104000000706c616e09030000"
            "fa000000000000000000000002000000");
}

TEST(WireGoldenTest, QueryResult) {
  QueryResultMsg m;
  m.client_seq = 42;
  m.status_code = static_cast<int32_t>(StatusCode::kDeadlineExceeded);
  m.message = "slow";
  m.cardinality = 123456;
  m.checksum = 0xdeadbeefcafef00dull;
  m.wall_seconds = 1.5;
  m.queue_seconds = 0.25;
  m.plan_cache_hit = true;
  m.backend = ServeBackend::kProcess;
  m.attempts = 3;
  EXPECT_EQ(EncodedHex(m),
            "2a000000000000000a00000004000000736c6f7740e2010000000000"
            "0df0fecaefbeadde000000000000f83f000000000000d03f0101"
            "03000000");
}

}  // namespace
}  // namespace mjoin
