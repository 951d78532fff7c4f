// One codec test for every control payload of the process and serve
// protocols. Each message is one table row holding a fully populated sample;
// every row gets the same checks, so a new message needs only a row:
//
//   - encode -> decode -> encode reproduces the bytes exactly;
//   - every truncation fails with a non-OK Status;
//   - one trailing byte fails with InvalidArgument, and so does a bool byte
//     of 2 at each of the message's bools;
//   - a seeded mutation loop (byte flips, inserted bytes, u32 prefixes
//     inflated at every offset) never crashes, and whatever still decodes
//     re-encodes to exactly the mutated bytes, so decoding is canonical.
//
// This is the protocol's fuzz target: tools/ci.sh runs it under ASan and
// UBSan. The mutation loop is deterministic; a failure names its seed.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "engine/process_protocol.h"
#include "serve/serve_protocol.h"

namespace mjoin {
namespace {

using Bytes = std::vector<std::byte>;

struct CodecCase {
  std::string name;
  /// The sample's encoding.
  Bytes bytes;
  /// Decodes `input` into a fresh message; on success re-encodes it into
  /// `*reencoded`.
  std::function<Status(const Bytes& input, Bytes* reencoded)> decode;
  /// Offsets of the sample's bool bytes.
  std::vector<size_t> bool_offsets;
};

// Builds a row from a sample plus one mutator per bool field. Each mutator
// flips one bool; the single byte that changes is that bool's offset.
template <class M>
CodecCase Row(std::string name, const M& sample,
              const std::vector<std::function<void(M&)>>& bool_flips = {}) {
  CodecCase row;
  row.name = std::move(name);
  EncodeMsg(sample, &row.bytes);
  row.decode = [](const Bytes& input, Bytes* reencoded) {
    WireReader reader(input);
    M msg;
    MJOIN_RETURN_IF_ERROR(DecodeMsg(&reader, &msg));
    reencoded->clear();
    EncodeMsg(msg, reencoded);
    return Status::OK();
  };
  for (const auto& flip : bool_flips) {
    M flipped = sample;
    flip(flipped);
    Bytes other;
    EncodeMsg(flipped, &other);
    EXPECT_EQ(other.size(), row.bytes.size()) << row.name;
    std::vector<size_t> diff;
    for (size_t i = 0; i < row.bytes.size() && i < other.size(); ++i) {
      if (row.bytes[i] != other[i]) diff.push_back(i);
    }
    EXPECT_EQ(diff.size(), 1u) << row.name << ": a bool must be one byte";
    if (diff.size() == 1) row.bool_offsets.push_back(diff[0]);
  }
  return row;
}

BloomFilter SmallBloom(int32_t key) {
  BloomFilter bloom(64);
  bloom.Insert(key);
  return bloom;
}

std::vector<CodecCase> AllCases() {
  std::vector<CodecCase> rows;

  PlanEnvelope env;
  env.worker_id = 3;
  env.num_workers = 7;
  env.batch_size = 64;
  env.materialize_result = true;
  env.memory_budget_bytes = 1 << 20;
  env.collect_metrics = false;
  env.record_trace = true;
  env.trace_origin_ns = 1234567890123;
  env.fault_scenario = "drop-batch op=2 after=5";
  env.plan_text = "plan text";
  env.attempt = 2;
  env.shm_ring_bytes = 1u << 18;
  env.skew_defense.mode = SkewDefenseMode::kAuto;
  env.skew_defense.bloom_bits = 1u << 10;
  env.skew_defense.sketch_capacity = 17;
  env.skew_defense.hot_fraction = 0.75;
  env.skew_defense.min_hot_count = 99;
  env.skew_defense.auto_imbalance_threshold = 1.75;
  env.skew_defense.max_hot_row_bytes = 12345;
  rows.push_back(Row<PlanEnvelope>(
      "PlanEnvelope", env,
      {[](PlanEnvelope& m) { m.materialize_result = !m.materialize_result; },
       [](PlanEnvelope& m) { m.collect_metrics = !m.collect_metrics; },
       [](PlanEnvelope& m) { m.record_trace = !m.record_trace; }}));

  rows.push_back(Row("Hello", HelloMsg{kNetProtocolVersion,
                                       0x0123'4567'89ab'cdefull,
                                       0xfeed'face'cafe'f00dull}));
  rows.push_back(Row("Heartbeat", HeartbeatMsg{0xA5A5A5A5u}));
  rows.push_back(
      Row("Milestone", MilestoneMsg{4, 2, Milestone::kBuildDone}));
  rows.push_back(Row("Summary", SummaryMsg{1000, 0x8877665544332211ull}));

  OpStatsMsg stats;
  stats.op = 3;
  stats.instances = 2;
  stats.metrics.rows_in[0] = 10;
  stats.metrics.rows_in[1] = 20;
  stats.metrics.batches_in[1] = 2;
  stats.metrics.rows_out = 30;
  stats.metrics.build_seconds = 0.5;
  stats.metrics.peak_memory_bytes = 4096;
  stats.metrics.skew_hot_keys = 1;
  stats.metrics.skew_bloom_fp_rate = 0.01;
  stats.metrics.batch_seconds.Add(0.25);
  stats.metrics.batch_seconds.Add(0.125);
  rows.push_back(Row("OpStats", stats));

  SkewJoinReport report;
  report.op = 5;
  report.instance = 2;
  report.build_rows = 777;
  report.tuple_size = 8;
  SkewCandidate candidate;
  candidate.key = 42;
  candidate.count = 700;
  candidate.rows_included = true;
  candidate.rows.assign(16, std::byte{0xAB});
  report.candidates.push_back(candidate);
  report.candidates.push_back(SkewCandidate{-7, 3, false, {}});
  report.bloom = SmallBloom(42);
  rows.push_back(Row<SkewJoinReport>(
      "SkewReport", report, {[](SkewJoinReport& m) {
        m.candidates[1].rows_included = !m.candidates[1].rows_included;
      }}));

  SkewDirective directive;
  directive.op = 4;
  directive.repartition = true;
  directive.hot_keys = {-3, 9};
  directive.tuple_size = 4;
  directive.hot_rows.assign(12, std::byte{0x5C});
  directive.bloom = SmallBloom(9);
  directive.total_build_rows = 4096;
  directive.imbalance = 2.25;
  rows.push_back(Row<SkewDirective>(
      "SkewDirective", directive,
      {[](SkewDirective& m) { m.repartition = !m.repartition; }}));

  WorkerRunStats run;
  run.local_deliveries = 22;
  run.batches_processed = 33;
  run.pump_stalls = 44;
  run.peak_memory_bytes = 1 << 16;
  run.serialize_seconds = 0.125;
  run.deserialize_seconds = 0.0625;
  run.shm_records_sent = 55;
  run.shm_records_received = 66;
  run.shm_bytes_sent = 77777;
  run.shm_bytes_received = 88888;
  run.ring_full_stalls = 9;
  rows.push_back(Row("WorkerRunStats", run));

  rows.push_back(Row(
      "TraceEvents",
      std::vector<WireTraceEvent>{
          {1, 100, 250, ThreadWorkType::kBuild, 3},
          {5, 300, 301, ThreadWorkType::kOther, -1},
          {0, 0, 7, ThreadWorkType::kStartup, 0}}));
  rows.push_back(Row("Trigger", TriggerMsg{6}));
  rows.push_back(Row("Error", ErrorMsg{StatusCode::kUnavailable,
                                       "worker 2 (pid 123) killed"}));

  SubmitMsg submit;
  submit.client_seq = 0x1122334455667788ull;
  submit.tenant = "tenant-a";
  submit.backend = ServeBackend::kProcess;
  submit.plan_text = "plan text with\nnewlines";
  submit.batch_size = 777;
  submit.deadline_ms = 250;
  submit.memory_budget_bytes = 1ull << 33;
  submit.collect_metrics = true;
  rows.push_back(Row<SubmitMsg>(
      "Submit", submit,
      {[](SubmitMsg& m) { m.collect_metrics = !m.collect_metrics; }}));

  QueryResultMsg result;
  result.client_seq = 42;
  result.status_code = static_cast<int32_t>(StatusCode::kDeadlineExceeded);
  result.message = "too slow";
  result.cardinality = 123456;
  result.checksum = 0xdeadbeefcafef00dull;
  result.wall_seconds = 1.5;
  result.queue_seconds = 0.25;
  result.plan_cache_hit = true;
  result.backend = ServeBackend::kThread;
  result.attempts = 3;
  rows.push_back(Row<QueryResultMsg>(
      "QueryResult", result,
      {[](QueryResultMsg& m) { m.plan_cache_hit = !m.plan_cache_hit; }}));
  return rows;
}

class WireCodecTest : public testing::TestWithParam<CodecCase> {};

TEST_P(WireCodecTest, RoundTripIsAFixedPoint) {
  Bytes again;
  ASSERT_TRUE(GetParam().decode(GetParam().bytes, &again).ok());
  EXPECT_EQ(again, GetParam().bytes);
}

TEST_P(WireCodecTest, EveryTruncationFails) {
  const Bytes& bytes = GetParam().bytes;
  for (size_t len = 0; len < bytes.size(); ++len) {
    Bytes cut(bytes.begin(), bytes.begin() + static_cast<ptrdiff_t>(len));
    Bytes ignored;
    EXPECT_FALSE(GetParam().decode(cut, &ignored).ok())
        << "truncated to " << len << " of " << bytes.size() << " bytes";
  }
}

TEST_P(WireCodecTest, TrailingByteIsInvalidArgument) {
  Bytes longer = GetParam().bytes;
  longer.push_back(std::byte{0});
  Bytes ignored;
  EXPECT_EQ(GetParam().decode(longer, &ignored).code(),
            StatusCode::kInvalidArgument);
}

TEST_P(WireCodecTest, BoolByteAboveOneIsInvalidArgument) {
  for (size_t offset : GetParam().bool_offsets) {
    Bytes bad = GetParam().bytes;
    bad[offset] = std::byte{2};
    Bytes ignored;
    EXPECT_EQ(GetParam().decode(bad, &ignored).code(),
              StatusCode::kInvalidArgument)
        << "bool at offset " << offset;
  }
}

// Decodes `input`; if it decodes, the re-encoding must be `input` itself.
void ExpectCanonical(const CodecCase& row, const Bytes& input,
                     const std::string& what) {
  Bytes again;
  if (row.decode(input, &again).ok()) {
    EXPECT_EQ(again, input) << what << ": accepted a non-canonical encoding";
  }
}

TEST_P(WireCodecTest, InflatedPrefixAtEveryOffsetFailsCleanly) {
  const Bytes& bytes = GetParam().bytes;
  for (uint32_t value : {0xFFFF'FFFFu, 0x8000'0000u,
                         static_cast<uint32_t>(bytes.size())}) {
    for (size_t at = 0; at + 4 <= bytes.size(); ++at) {
      Bytes bad = bytes;
      for (size_t i = 0; i < 4; ++i) {
        bad[at + i] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
      }
      ExpectCanonical(GetParam(), bad,
                      "u32 " + std::to_string(value) + " at offset " +
                          std::to_string(at));
    }
  }
}

TEST_P(WireCodecTest, SeededMutationsNeverCrash) {
  constexpr int kIterations = 2000;
  const Bytes& bytes = GetParam().bytes;
  for (int iter = 0; iter < kIterations; ++iter) {
    const uint64_t seed = 0x5eed'0000ull + static_cast<uint64_t>(iter);
    std::mt19937_64 rng(seed);
    Bytes bad = bytes;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) {
      const size_t at = bad.empty() ? 0 : rng() % bad.size();
      switch (rng() % 3) {
        case 0:  // flip bits of one byte
          if (!bad.empty()) {
            bad[at] ^= static_cast<std::byte>(1 + rng() % 255);
          }
          break;
        case 1:  // insert a byte
          bad.insert(bad.begin() + static_cast<ptrdiff_t>(at),
                     static_cast<std::byte>(rng() & 0xFF));
          break;
        case 2:  // inflate the u32 at `at`, as a length or count prefix
          for (size_t i = 0; i < 4 && at + i < bad.size(); ++i) {
            bad[at + i] = std::byte{0xFF};
          }
          break;
      }
    }
    ExpectCanonical(GetParam(), bad,
                    "mutation seed " + std::to_string(seed));
    if (HasFailure()) {
      FAIL() << "stopping at mutation seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryMessage, WireCodecTest, testing::ValuesIn(AllCases()),
    [](const testing::TestParamInfo<CodecCase>& info) {
      return info.param.name;
    });

TEST(WireCodecRulesTest, EveryMessageWithABoolIsChecked) {
  // The bool check only has teeth where the table names each bool.
  size_t with_bools = 0;
  for (const CodecCase& row : AllCases()) {
    if (!row.bool_offsets.empty()) ++with_bools;
  }
  EXPECT_EQ(with_bools, 5u);
}

TEST(WireCodecRulesTest, EnumOutsideItsRangeIsInvalidArgument) {
  Bytes bytes;
  EncodeMsg(MilestoneMsg{1, 0, Milestone::kBuildDone}, &bytes);
  bytes.back() = std::byte{2};
  WireReader reader(bytes);
  MilestoneMsg msg;
  EXPECT_EQ(DecodeMsg(&reader, &msg).code(), StatusCode::kInvalidArgument);

  bytes.clear();
  EncodeMsg(ErrorMsg{StatusCode::kInternal, ""}, &bytes);
  bytes[3] = std::byte{0x80};  // code < 0
  WireReader negative(bytes);
  ErrorMsg error;
  EXPECT_EQ(DecodeMsg(&negative, &error).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireCodecRulesTest, InflatedCountIsRejectedBeforeAllocation) {
  // 0xFFFFFFFF trace events of 25 bytes each cannot fit; the reader says
  // so from the count alone instead of reserving ~100 GiB.
  Bytes bytes = {std::byte{0xFF}, std::byte{0xFF}, std::byte{0xFF},
                 std::byte{0xFF}};
  WireReader reader(bytes);
  std::vector<WireTraceEvent> events;
  EXPECT_EQ(DecodeMsg(&reader, &events).code(), StatusCode::kOutOfRange);
}

TEST(WireCodecRulesTest, CrossFieldChecksRunAfterDecoding) {
  SkewDirective directive;
  directive.tuple_size = 4;
  directive.hot_rows.assign(6, std::byte{1});  // not a multiple of 4
  Bytes bytes;
  EncodeMsg(directive, &bytes);
  WireReader reader(bytes);
  SkewDirective decoded;
  EXPECT_EQ(DecodeMsg(&reader, &decoded).code(),
            StatusCode::kInvalidArgument);

  SkewJoinReport report;
  report.tuple_size = 8;
  report.candidates.push_back(SkewCandidate{1, 1, true, Bytes(12)});
  bytes.clear();
  EncodeMsg(report, &bytes);
  WireReader report_reader(bytes);
  SkewJoinReport decoded_report;
  EXPECT_EQ(DecodeMsg(&report_reader, &decoded_report).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireCodecRulesTest, BloomSizeMustBeEmptyOrAPowerOfTwo) {
  SkewDirective directive;
  Bytes bytes;
  EncodeMsg(directive, &bytes);
  // Layout: op i32, repartition u8, hot_keys u32 count, tuple_size u32,
  // hot_rows u32 count, then the bloom's u32 byte count.
  const size_t bloom_at = 4 + 1 + 4 + 4 + 4;
  Bytes bad(bytes.begin(), bytes.begin() + bloom_at);
  for (std::byte b : {std::byte{12}, std::byte{0}, std::byte{0},
                      std::byte{0}}) {
    bad.push_back(b);
  }
  bad.insert(bad.end(), 12, std::byte{0});
  bad.insert(bad.end(), bytes.begin() + bloom_at + 4, bytes.end());
  WireReader reader(bad);
  SkewDirective decoded;
  EXPECT_EQ(DecodeMsg(&reader, &decoded).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mjoin
