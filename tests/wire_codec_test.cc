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
// The frame envelope around the payloads gets its own seeded loop: whole
// frame streams, mutated, go through a FrameChannel over a socketpair.
//
// This is the protocol's fuzz target: tools/ci.sh runs it under ASan and
// UBSan. The mutation loops are deterministic; a failure names its seed.
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "engine/process_protocol.h"
#include "net/channel.h"
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
  rows.push_back(Row("Summary", ResultSummary{1000, 0x8877665544332211ull}));

  QueryOpStats stats;
  stats.op_id = 3;
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

  QueryStats run;
  run.batches_sent = 11;
  run.batches_processed = 33;
  run.batch_buffers_reused = 12;
  run.peak_queue_depth = 7;
  run.peak_memory_bytes = 1 << 16;
  run.per_op = {stats, stats};
  run.per_op[1].op_id = 4;
  rows.push_back(Row("QueryStats", run));

  ProcessNetStats net;
  net.local_deliveries = 22;
  net.pump_stalls = 44;
  net.serialize_seconds = 0.125;
  net.deserialize_seconds = 0.0625;
  net.shm_records_sent = 55;
  net.shm_records_received = 66;
  net.shm_bytes_sent = 77777;
  net.shm_bytes_received = 88888;
  net.ring_full_stalls = 9;
  rows.push_back(Row("ProcessNetStats", net));

  const std::vector<WireTraceEvent> events{
      {1, 100, 250, ThreadWorkType::kBuild, 3},
      {5, 300, 301, ThreadWorkType::kOther, -1},
      {0, 0, 7, ThreadWorkType::kStartup, 0}};
  rows.push_back(Row("TraceEvents", events));

  WorkerReport worker_report;
  worker_report.summary = ResultSummary{1000, 0x8877665544332211ull};
  worker_report.stats = run;
  worker_report.net = net;
  worker_report.trace = events;
  rows.push_back(Row("WorkerReport", worker_report));
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
  rows.push_back(Row("Submit", submit));

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
  EXPECT_EQ(with_bools, 4u);
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

// --- The frame envelope ----------------------------------------------------

// [len][type][payload][crc], as FrameChannel::QueueFrame writes it.
Bytes EncodeFrame(FrameType type, const Bytes& payload) {
  Bytes frame;
  PutU32(&frame, static_cast<uint32_t>(1 + payload.size() + 4));
  PutU8(&frame, static_cast<uint8_t>(type));
  frame.insert(frame.end(), payload.begin(), payload.end());
  PutU32(&frame, Crc32(frame.data() + 4, frame.size() - 4));
  return frame;
}

// One worker's side of a query as its coordinator reads it, with the
// sample payloads of the codec table: hello, a skew report, milestones
// and a pong, then the report.
struct FrameStream {
  Bytes bytes;
  std::vector<size_t> frame_starts;
};

FrameStream WorkerQueryStream() {
  const std::vector<std::pair<FrameType, std::string>> frames = {
      {FrameType::kHello, "Hello"},
      {FrameType::kSkewReport, "SkewReport"},
      {FrameType::kMilestone, "Milestone"},
      {FrameType::kPong, "Heartbeat"},
      {FrameType::kMilestone, "Milestone"},
      {FrameType::kReport, "WorkerReport"}};
  const std::vector<CodecCase> rows = AllCases();
  FrameStream stream;
  for (const auto& [type, row_name] : frames) {
    for (const CodecCase& row : rows) {
      if (row.name != row_name) continue;
      stream.frame_starts.push_back(stream.bytes.size());
      Bytes frame = EncodeFrame(type, row.bytes);
      stream.bytes.insert(stream.bytes.end(), frame.begin(), frame.end());
    }
  }
  EXPECT_EQ(stream.frame_starts.size(), frames.size());
  return stream;
}

uint32_t GetU32(const Bytes& bytes, size_t at) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) |
            static_cast<uint8_t>(bytes[at + static_cast<size_t>(i)]);
  }
  return value;
}

void SetU32(Bytes* bytes, size_t at, uint32_t value) {
  for (size_t i = 0; i < 4 && at + i < bytes->size(); ++i) {
    (*bytes)[at + i] = static_cast<std::byte>((value >> (8 * i)) & 0xFF);
  }
}

// Feeds `input` to a coordinator's FrameChannel and pops every frame it
// yields. The link is put through the coordinator's half of the query
// (kPlan before the stream, kFinish once the skew report is in), so every
// frame of the unmutated stream is legal where it arrives. Returns the
// yielded frames re-encoded, back to back, and the final read status.
std::pair<Bytes, Status> ReadThroughChannel(const Bytes& input) {
  int sv[2];
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EXPECT_TRUE(SetNonBlocking(sv[0]).ok());
  FrameChannel channel(sv[0], "worker 0", LinkRole::kCoordinator);
  channel.QueueFrame(FrameType::kPlan, {});
  // The socket buffer holds any stream here whole.
  EXPECT_EQ(write(sv[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  close(sv[1]);
  Bytes reencoded;
  Status status = Status::OK();
  for (bool closed = false; status.ok() && !closed;) {
    status = channel.ReadAvailable(&closed);
    Frame frame;
    while (channel.NextFrame(&frame)) {
      Bytes again = EncodeFrame(frame.type, frame.payload);
      reencoded.insert(reencoded.end(), again.begin(), again.end());
      if (frame.type == FrameType::kSkewReport) {
        channel.QueueFrame(FrameType::kFinish, {});
      }
    }
  }
  if (!status.ok()) {
    // Poisoned: the channel keeps failing the same way.
    bool closed = false;
    EXPECT_EQ(channel.ReadAvailable(&closed).code(), status.code());
  }
  EXPECT_FALSE(channel.poisoned()) << "a frame of the stream broke the table";
  return {reencoded, status};
}

TEST(FrameEnvelopeFuzzTest, UnmutatedStreamYieldsEveryFrame) {
  const FrameStream stream = WorkerQueryStream();
  auto [reencoded, status] = ReadThroughChannel(stream.bytes);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(reencoded, stream.bytes);
}

TEST(FrameEnvelopeFuzzTest, SeededMutationsYieldExactFramesOrPoison) {
  // Each mutant either yields frames that re-encode to exactly the bytes
  // they came from (a prefix of the mutant: a truncated or still-awaited
  // frame yields nothing), or poisons the channel with kUnavailable. No
  // damage may reach a handler as a different frame, and nothing crashes.
  constexpr int kIterations = 3000;
  constexpr uint8_t kRetired[] = {3, 5, 6, 8, 10, 11, 12, 13, 14, 22};
  const FrameStream stream = WorkerQueryStream();
  for (int iter = 0; iter < kIterations; ++iter) {
    const uint64_t seed = 0xf4a3'0000ull + static_cast<uint64_t>(iter);
    std::mt19937_64 rng(seed);
    Bytes bad = stream.bytes;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits && !bad.empty(); ++e) {
      const size_t start =
          stream.frame_starts[rng() % stream.frame_starts.size()];
      if (start + 5 > bad.size()) continue;  // cut off by a truncation
      const uint32_t len = GetU32(bad, start);
      switch (rng() % 5) {
        case 0: {  // flip bits of any byte
          const size_t at = rng() % bad.size();
          bad[at] ^= static_cast<std::byte>(1 + rng() % 255);
          break;
        }
        case 1: {  // inflate a frame's length
          const uint32_t inflated[] = {
              0xFFFF'FFFFu, kMaxFrameBytes + 1, kMaxFrameBytes,
              len + 1 + static_cast<uint32_t>(rng() % 64)};
          SetU32(&bad, start, inflated[rng() % 4]);
          break;
        }
        case 2: {  // shorten a frame's length, below the minimum or not
          const uint64_t bound = rng() % 2 == 0 || len == 0 ? 5 : len;
          SetU32(&bad, start, static_cast<uint32_t>(rng() % bound));
          break;
        }
        case 3: {  // a retired frame id, in an otherwise well-formed frame
          if (len < 5 || start + 4 + len > bad.size()) break;
          bad[start + 4] = static_cast<std::byte>(kRetired[rng() % 10]);
          const size_t body = len - 4;
          SetU32(&bad, start + 4 + body,
                 Crc32(bad.data() + start + 4, body));
          break;
        }
        case 4:  // truncate the tail
          bad.resize(rng() % bad.size());
          break;
      }
    }
    auto [reencoded, status] = ReadThroughChannel(bad);
    const std::string what = "mutation seed " + std::to_string(seed);
    ASSERT_LE(reencoded.size(), bad.size()) << what;
    EXPECT_TRUE(std::equal(reencoded.begin(), reencoded.end(), bad.begin()))
        << what << ": a yielded frame differs from the bytes it came from";
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable) << what << status;
    }
    if (HasFailure()) FAIL() << "stopping at " << what;
  }
}

}  // namespace
}  // namespace mjoin
