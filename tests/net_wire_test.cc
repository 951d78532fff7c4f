#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>

#include "engine/process_protocol.h"
#include "net/channel.h"
#include "net/frame_conformance.h"
#include "net/net_fault.h"
#include "net/wire.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"
#include "xra/text.h"

namespace mjoin {
namespace {

// Wire-level guards for the process backend: the TupleBatch encoding must
// survive a round trip bit-for-bit, and every way the bytes can be damaged
// in transit — truncation, corruption, a stale schema id — must surface as
// a Status, never as a partial batch or out-of-bounds read.

ParallelPlan MakePlan(QueryShape shape = QueryShape::kLeftLinear) {
  auto query = MakeWisconsinChainQuery(shape, /*relations=*/5,
                                       /*cardinality=*/400);
  MJOIN_CHECK(query.ok()) << query.status();
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, /*processors=*/8, TotalCostModel());
  MJOIN_CHECK(plan.ok()) << plan.status();
  return *std::move(plan);
}

// Fills `batch` with `rows` distinct tuples so a shifted or dropped row
// changes the bytes.
void FillBatch(TupleBatch* batch, size_t rows) {
  const uint32_t tuple_size = batch->schema().tuple_size();
  std::vector<std::byte> row(tuple_size);
  for (size_t r = 0; r < rows; ++r) {
    for (uint32_t b = 0; b < tuple_size; ++b) {
      row[b] = static_cast<std::byte>((r * 131 + b * 7 + 13) & 0xff);
    }
    batch->AppendRow(row.data());
  }
}

TEST(BatchWireTest, RoundTripsAcrossRowCounts) {
  ParallelPlan plan = MakePlan();
  SchemaRegistry registry(plan);
  ASSERT_GT(registry.size(), 0u);

  for (uint32_t schema_id = 0; schema_id < registry.size(); ++schema_id) {
    for (size_t rows : {size_t{0}, size_t{1}, size_t{7}, size_t{256}}) {
      TupleBatch batch(registry.Get(schema_id));
      FillBatch(&batch, rows);

      std::vector<std::byte> wire;
      AppendBatchWire(batch, schema_id, &wire);
      EXPECT_EQ(wire.size(),
                BatchWireSize(batch.schema().tuple_size(), rows));

      WireReader reader(wire);
      TupleBatch decoded(registry.Get(0));  // rebound by ReadBatchWire
      ASSERT_TRUE(ReadBatchWire(&reader, registry, &decoded).ok())
          << "schema " << schema_id << " rows " << rows;
      EXPECT_TRUE(reader.exhausted());
      ASSERT_EQ(decoded.num_tuples(), rows);
      EXPECT_EQ(&decoded.schema(), registry.Get(schema_id).get());
      // raw_data() is null for an empty batch, and memcmp takes nonnull
      // arguments even for a zero length (UBSan enforces this).
      if (rows != 0) {
        EXPECT_EQ(std::memcmp(decoded.raw_data(), batch.raw_data(),
                              batch.byte_size()),
                  0);
      }
    }
  }
}

TEST(BatchWireTest, AppendRowsWireMatchesAppendBatchWire) {
  ParallelPlan plan = MakePlan();
  SchemaRegistry registry(plan);
  TupleBatch batch(registry.Get(0));
  FillBatch(&batch, 42);

  std::vector<std::byte> from_batch;
  AppendBatchWire(batch, /*schema_id=*/0, &from_batch);
  std::vector<std::byte> from_rows;
  AppendRowsWire(0, batch.schema().tuple_size(), batch.raw_data(),
                 batch.num_tuples(), &from_rows);
  EXPECT_EQ(from_batch, from_rows);
}

TEST(BatchWireTest, EveryTruncationFailsCleanly) {
  ParallelPlan plan = MakePlan();
  SchemaRegistry registry(plan);
  TupleBatch batch(registry.Get(0));
  FillBatch(&batch, 7);

  std::vector<std::byte> wire;
  AppendBatchWire(batch, 0, &wire);

  for (size_t len = 0; len < wire.size(); ++len) {
    WireReader reader(wire.data(), len);
    TupleBatch decoded(registry.Get(0));
    EXPECT_FALSE(ReadBatchWire(&reader, registry, &decoded).ok())
        << "truncated to " << len << " of " << wire.size() << " bytes";
  }
}

TEST(BatchWireTest, EverySingleByteCorruptionFailsCleanly) {
  ParallelPlan plan = MakePlan();
  SchemaRegistry registry(plan);
  TupleBatch batch(registry.Get(0));
  FillBatch(&batch, 3);

  std::vector<std::byte> wire;
  AppendBatchWire(batch, 0, &wire);

  // Flipping any bit anywhere — header, rows, or the CRC itself — must be
  // caught by the field validation or the checksum.
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    std::vector<std::byte> damaged = wire;
    damaged[pos] ^= std::byte{0x01};
    WireReader reader(damaged);
    TupleBatch decoded(registry.Get(0));
    Status status = ReadBatchWire(&reader, registry, &decoded);
    EXPECT_FALSE(status.ok()) << "corrupted byte " << pos << " undetected";
  }
}

TEST(BatchWireTest, RejectsUnknownSchemaId) {
  ParallelPlan plan = MakePlan();
  SchemaRegistry registry(plan);
  TupleBatch batch(registry.Get(0));
  FillBatch(&batch, 2);

  std::vector<std::byte> wire;
  AppendBatchWire(batch, static_cast<uint32_t>(registry.size()) + 5, &wire);
  WireReader reader(wire);
  TupleBatch decoded(registry.Get(0));
  EXPECT_FALSE(ReadBatchWire(&reader, registry, &decoded).ok());
}

TEST(SchemaRegistryTest, DeterministicAcrossBuildsAndEnds) {
  ParallelPlan plan = MakePlan();
  // Coordinator side: registry from the in-memory plan. Worker side:
  // registry from the plan as it arrives through the textual handshake.
  SchemaRegistry coordinator(plan);
  auto reparsed = ParsePlan(SerializePlan(plan));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  SchemaRegistry worker(*reparsed);

  ASSERT_EQ(coordinator.size(), worker.size());
  for (uint32_t id = 0; id < coordinator.size(); ++id) {
    EXPECT_EQ(coordinator.Get(id)->ToString(), worker.Get(id)->ToString())
        << "schema " << id << " diverged across the handshake";
    auto echo = worker.IdOf(*coordinator.Get(id));
    ASSERT_TRUE(echo.ok());
    EXPECT_EQ(*echo, id);
  }

  Schema foreign({Column::Int64("never_in_any_plan")});
  EXPECT_EQ(coordinator.IdOf(foreign).status().code(),
            StatusCode::kNotFound);
}

TEST(PlanHandshakeTest, SerializeParseSerializeIsAFixedPoint) {
  // The coordinator ships SerializePlan(plan) and checks the worker's
  // FnvHash64(SerializePlan(ParsePlan(text))) echo — so serialize->parse->
  // serialize must be byte-identical for every strategy and shape.
  for (StrategyKind strategy : kAllStrategies) {
    for (QueryShape shape : kAllShapes) {
      auto query = MakeWisconsinChainQuery(shape, 5, 400);
      ASSERT_TRUE(query.ok());
      auto plan =
          MakeStrategy(strategy)->Parallelize(*query, 8, TotalCostModel());
      ASSERT_TRUE(plan.ok()) << plan.status();

      std::string text = SerializePlan(*plan);
      auto parsed = ParsePlan(text);
      ASSERT_TRUE(parsed.ok())
          << parsed.status() << " strategy " << StrategyName(strategy);
      EXPECT_EQ(SerializePlan(*parsed), text);
      EXPECT_EQ(FnvHash64(SerializePlan(*parsed)), FnvHash64(text));
    }
  }
}

TEST(PlanEnvelopeTest, RoundTrips) {
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
  env.plan_text = SerializePlan(MakePlan());
  env.shm_ring_bytes = 1u << 18;
  env.attempt = 2;

  std::vector<std::byte> wire;
  EncodeMsg(env, &wire);
  WireReader reader(wire);
  PlanEnvelope decoded;
  ASSERT_TRUE(DecodeMsg(&reader, &decoded).ok());
  EXPECT_EQ(decoded.protocol_version, env.protocol_version);
  EXPECT_EQ(decoded.worker_id, env.worker_id);
  EXPECT_EQ(decoded.num_workers, env.num_workers);
  EXPECT_EQ(decoded.batch_size, env.batch_size);
  EXPECT_EQ(decoded.materialize_result, env.materialize_result);
  EXPECT_EQ(decoded.memory_budget_bytes, env.memory_budget_bytes);
  EXPECT_EQ(decoded.collect_metrics, env.collect_metrics);
  EXPECT_EQ(decoded.record_trace, env.record_trace);
  EXPECT_EQ(decoded.trace_origin_ns, env.trace_origin_ns);
  EXPECT_EQ(decoded.fault_scenario, env.fault_scenario);
  EXPECT_EQ(decoded.plan_text, env.plan_text);
  EXPECT_EQ(decoded.shm_ring_bytes, env.shm_ring_bytes);
  EXPECT_EQ(decoded.attempt, env.attempt);

  // A truncated envelope (e.g. from a frame cut short) errors cleanly.
  for (size_t len = 0; len < wire.size(); len += 13) {
    WireReader short_reader(wire.data(), len);
    PlanEnvelope ignored;
    EXPECT_FALSE(DecodeMsg(&short_reader, &ignored).ok())
        << "truncated to " << len;
  }
}

TEST(HelloTest, RoundTripsWithRingDirectoryHash) {
  HelloMsg msg;
  msg.protocol_version = kNetProtocolVersion;
  msg.plan_hash = 0x0123'4567'89ab'cdefull;
  msg.ring_directory_hash = 0xfeed'face'cafe'f00dull;

  std::vector<std::byte> wire;
  EncodeMsg(msg, &wire);
  WireReader reader(wire);
  HelloMsg decoded;
  ASSERT_TRUE(DecodeMsg(&reader, &decoded).ok());
  EXPECT_EQ(decoded.protocol_version, msg.protocol_version);
  EXPECT_EQ(decoded.plan_hash, msg.plan_hash);
  EXPECT_EQ(decoded.ring_directory_hash, msg.ring_directory_hash);

  for (size_t len = 0; len < wire.size(); ++len) {
    WireReader short_reader(wire.data(), len);
    HelloMsg ignored;
    EXPECT_FALSE(DecodeMsg(&short_reader, &ignored).ok())
        << "truncated to " << len;
  }
}

TEST(WorkerRunStatsTest, RoundTripsIncludingShmCounters) {
  WorkerRunStats stats;
  stats.local_deliveries = 22;
  stats.batches_processed = 33;
  stats.pump_stalls = 44;
  stats.serialize_seconds = 0.125;
  stats.deserialize_seconds = 0.0625;
  stats.shm_records_sent = 55;
  stats.shm_records_received = 66;
  stats.shm_bytes_sent = 77777;
  stats.shm_bytes_received = 88888;
  stats.ring_full_stalls = 9;

  std::vector<std::byte> wire;
  EncodeMsg(stats, &wire);
  WireReader reader(wire);
  WorkerRunStats decoded;
  ASSERT_TRUE(DecodeMsg(&reader, &decoded).ok());
  EXPECT_EQ(decoded.local_deliveries, stats.local_deliveries);
  EXPECT_EQ(decoded.batches_processed, stats.batches_processed);
  EXPECT_EQ(decoded.pump_stalls, stats.pump_stalls);
  EXPECT_EQ(decoded.serialize_seconds, stats.serialize_seconds);
  EXPECT_EQ(decoded.deserialize_seconds, stats.deserialize_seconds);
  EXPECT_EQ(decoded.shm_records_sent, stats.shm_records_sent);
  EXPECT_EQ(decoded.shm_records_received, stats.shm_records_received);
  EXPECT_EQ(decoded.shm_bytes_sent, stats.shm_bytes_sent);
  EXPECT_EQ(decoded.shm_bytes_received, stats.shm_bytes_received);
  EXPECT_EQ(decoded.ring_full_stalls, stats.ring_full_stalls);

  for (size_t len = 0; len < wire.size(); len += 7) {
    WireReader short_reader(wire.data(), len);
    WorkerRunStats ignored;
    EXPECT_FALSE(DecodeMsg(&short_reader, &ignored).ok())
        << "truncated to " << len;
  }
}

TEST(StatusPayloadTest, RoundTripsCodeAndMessage) {
  for (Status status :
       {Status::Unavailable("worker 2 (pid 123) killed by signal 9"),
        Status::ResourceExhausted("memory budget exceeded"),
        Status::Internal("injected fault: operator 9 failed")}) {
    std::vector<std::byte> wire;
    EncodeMsg(ErrorMsg{status.code(), status.message()}, &wire);
    WireReader reader(wire);
    ErrorMsg decoded;
    ASSERT_TRUE(DecodeMsg(&reader, &decoded).ok());
    EXPECT_EQ(decoded.code, status.code());
    EXPECT_EQ(decoded.message, status.message());
  }
}

TEST(HeartbeatTest, SerializeParseIsAFixedPoint) {
  for (uint32_t seq : {0u, 1u, 41u, 0xFFFFFFFFu}) {
    HeartbeatMsg ping;
    ping.seq = seq;
    std::vector<std::byte> wire;
    EncodeMsg(ping, &wire);
    WireReader reader(wire);
    HeartbeatMsg decoded;
    ASSERT_TRUE(DecodeMsg(&reader, &decoded).ok());
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(decoded.seq, seq);
    // Re-encoding the parse reproduces the bytes exactly.
    std::vector<std::byte> again;
    EncodeMsg(decoded, &again);
    EXPECT_EQ(again, wire);
  }
}

TEST(HeartbeatTest, EveryTruncationFailsCleanly) {
  HeartbeatMsg ping;
  ping.seq = 12345;
  std::vector<std::byte> wire;
  EncodeMsg(ping, &wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    WireReader reader(wire.data(), len);
    HeartbeatMsg decoded;
    EXPECT_FALSE(DecodeMsg(&reader, &decoded).ok())
        << "truncated to " << len << " of " << wire.size() << " bytes";
  }
}

TEST(HeartbeatTest, EverySingleByteCorruptionFailsCleanly) {
  // The payload carries its own checksum on top of the frame CRC, so the
  // codec alone detects a damaged sequence number or checksum.
  HeartbeatMsg ping;
  ping.seq = 0xA5A5A5A5;
  std::vector<std::byte> wire;
  EncodeMsg(ping, &wire);
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    std::vector<std::byte> damaged = wire;
    damaged[pos] ^= std::byte{0x01};
    WireReader reader(damaged);
    HeartbeatMsg decoded;
    Status status = DecodeMsg(&reader, &decoded);
    ASSERT_FALSE(status.ok()) << "corrupted byte " << pos << " undetected";
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(FrameTypeTest, HeartbeatFramesHaveNames) {
  // FrameTypeName's switch is lint-enforced exhaustive; pin the two
  // supervision frames so a renumbering cannot swap them silently.
  EXPECT_STREQ(FrameTypeName(FrameType::kPing), "ping");
  EXPECT_STREQ(FrameTypeName(FrameType::kPong), "pong");
}

// --- FrameChannel: reassembly from arbitrary read() boundaries ------------

class FrameChannelTest : public testing::Test {
 protected:
  void SetUp() override {
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(SetNonBlocking(sv[0]).ok());
    channel_ = std::make_unique<FrameChannel>(sv[0], "test peer");
    raw_fd_ = sv[1];
  }

  void TearDown() override {
    if (raw_fd_ >= 0) close(raw_fd_);
  }

  // Writes `bytes` to the raw end in chunks of `chunk` bytes, calling
  // ReadAvailable after every chunk — simulating a stream that fragments
  // frames at every possible boundary.
  void DripFeed(const std::vector<std::byte>& bytes, size_t chunk) {
    for (size_t off = 0; off < bytes.size(); off += chunk) {
      size_t n = std::min(chunk, bytes.size() - off);
      ASSERT_EQ(write(raw_fd_, bytes.data() + off, n),
                static_cast<ssize_t>(n));
      bool peer_closed = false;
      ASSERT_TRUE(channel_->ReadAvailable(&peer_closed).ok());
      ASSERT_FALSE(peer_closed);
    }
  }

  // Hand-encodes the v2 frame envelope: [len][type][payload][crc] with the
  // CRC over type+payload. Must stay in sync with FrameChannel::QueueFrame
  // (the QueueAndFlush test below enforces that).
  static std::vector<std::byte> EncodeFrame(
      FrameType type, const std::vector<std::byte>& payload) {
    std::vector<std::byte> bytes;
    PutU32(&bytes, static_cast<uint32_t>(1 + payload.size() + 4));
    PutU8(&bytes, static_cast<uint8_t>(type));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    PutU32(&bytes, Crc32(bytes.data() + 4, bytes.size() - 4));
    return bytes;
  }

  std::unique_ptr<FrameChannel> channel_;
  int raw_fd_ = -1;
};

TEST_F(FrameChannelTest, ReassemblesFramesFromSingleByteReads) {
  std::vector<std::byte> payload;
  PutU64(&payload, 0xDEADBEEFCAFEF00Dull);
  PutString(&payload, "hello across the wire");
  std::vector<std::byte> bytes = EncodeFrame(FrameType::kSummary, payload);
  // Two back-to-back frames, dripped one byte at a time.
  std::vector<std::byte> stream = bytes;
  stream.insert(stream.end(), bytes.begin(), bytes.end());

  DripFeed(stream, 1);

  for (int i = 0; i < 2; ++i) {
    Frame frame;
    ASSERT_TRUE(channel_->NextFrame(&frame)) << "frame " << i;
    EXPECT_EQ(frame.type, FrameType::kSummary);
    EXPECT_EQ(frame.payload, payload);
  }
  Frame none;
  EXPECT_FALSE(channel_->NextFrame(&none));
  EXPECT_EQ(channel_->stats().frames_received, 2u);
}

TEST_F(FrameChannelTest, QueueAndFlushDeliversAcrossTheSocket) {
  std::vector<std::byte> payload;
  PutU32(&payload, 7);
  channel_->QueueFrame(FrameType::kTrigger, payload);
  ASSERT_TRUE(channel_->Flush().ok());
  EXPECT_FALSE(channel_->has_pending_output());

  // Read the raw bytes off the far end and check the frame envelope.
  std::vector<std::byte> expected = EncodeFrame(FrameType::kTrigger, payload);
  std::vector<std::byte> got(expected.size());
  ASSERT_EQ(read(raw_fd_, got.data(), got.size()),
            static_cast<ssize_t>(got.size()));
  EXPECT_EQ(got, expected);
  EXPECT_EQ(channel_->stats().frames_sent, 1u);
  EXPECT_EQ(channel_->stats().bytes_sent, expected.size());
}

TEST_F(FrameChannelTest, OversizedLengthPoisonsTheChannel) {
  std::vector<std::byte> bogus;
  PutU32(&bogus, kMaxFrameBytes + 1);
  ASSERT_EQ(write(raw_fd_, bogus.data(), bogus.size()),
            static_cast<ssize_t>(bogus.size()));
  bool peer_closed = false;
  Status status = channel_->ReadAvailable(&peer_closed);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(FrameChannelTest, UndersizedLengthPoisonsTheChannel) {
  // A frame length below 5 cannot hold the type byte plus the CRC: only a
  // damaged length field produces one.
  std::vector<std::byte> bogus;
  PutU32(&bogus, 2);
  ASSERT_EQ(write(raw_fd_, bogus.data(), bogus.size()),
            static_cast<ssize_t>(bogus.size()));
  bool peer_closed = false;
  Status status = channel_->ReadAvailable(&peer_closed);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(FrameChannelTest, AnySingleByteFrameCorruptionIsUnavailable) {
  // Flip every byte past the length header — type, payload, and the CRC
  // trailer itself — and require the frame CRC to catch each one as a
  // retryable corrupt-wire error. (Damage to the length field instead
  // mis-frames the stream: the bounds check or a checksum mismatch on the
  // mis-framed bytes catches that, covered by the length tests above.)
  std::vector<std::byte> payload;
  PutU64(&payload, 0x0123456789ABCDEFull);
  PutString(&payload, "checksummed frame");
  std::vector<std::byte> bytes = EncodeFrame(FrameType::kSummary, payload);
  for (size_t pos = 4; pos < bytes.size(); ++pos) {
    // Fresh channel per corruption: a wire error poisons the stream.
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(SetNonBlocking(sv[0]).ok());
    FrameChannel channel(sv[0], "test peer");
    std::vector<std::byte> damaged = bytes;
    damaged[pos] ^= std::byte{0x10};
    ASSERT_EQ(write(sv[1], damaged.data(), damaged.size()),
              static_cast<ssize_t>(damaged.size()));
    bool peer_closed = false;
    Status status = channel.ReadAvailable(&peer_closed);
    close(sv[1]);
    ASSERT_FALSE(status.ok()) << "corrupted byte " << pos << " undetected";
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << "byte " << pos;
  }
}

TEST_F(FrameChannelTest, PeerCloseReportedAfterFinalFrames) {
  std::vector<std::byte> payload;
  PutU32(&payload, 42);
  std::vector<std::byte> bytes = EncodeFrame(FrameType::kMilestone, payload);
  ASSERT_EQ(write(raw_fd_, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  close(raw_fd_);
  raw_fd_ = -1;

  // The first call drains the frame bytes (a short read ends the recv
  // loop); the EOF surfaces on the next call, as it does in the
  // coordinator's poll loop when the close generates its own POLLIN.
  bool peer_closed = false;
  ASSERT_TRUE(channel_->ReadAvailable(&peer_closed).ok());
  if (!peer_closed) {
    ASSERT_TRUE(channel_->ReadAvailable(&peer_closed).ok());
  }
  EXPECT_TRUE(peer_closed);
  // The frame that arrived before the close is still recoverable.
  Frame frame;
  ASSERT_TRUE(channel_->NextFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kMilestone);
}

// --- Frame-protocol conformance: the table's rules at runtime -------------

// Armed before main() so FrameConformanceEnabled()'s one-shot env read
// sees it no matter which test in this binary runs first.
const bool kConformanceArmed = [] {
  setenv("MJOIN_CONFORMANCE", "1", /*overwrite=*/0);
  return true;
}();

TEST(FrameConformanceTest, WorkerLinkWalksThePhaseMachine) {
  // A link's whole life, observed from the coordinator end. Each query:
  // plan -> hello -> triggers/milestones -> finish -> report -> shutdown
  // -> idle, and the idle ack returns the link to await-plan. Data never
  // crosses this link: it rides the shm rings.
  FrameConformance link(LinkRole::kCoordinator, "worker 0");
  EXPECT_EQ(link.phase(), kPhAwaitPlan);
  auto walk_query = [&link] {
    ASSERT_TRUE(link.Observe(FrameType::kPlan, /*outbound=*/true).ok());
    EXPECT_EQ(link.phase(), kPhHandshake);
    // Triggers pipeline behind kPlan before the kHello echo arrives.
    ASSERT_TRUE(link.Observe(FrameType::kTrigger, /*outbound=*/true).ok());
    ASSERT_TRUE(link.Observe(FrameType::kHello, /*outbound=*/false).ok());
    EXPECT_EQ(link.phase(), kPhExecute);
    ASSERT_TRUE(link.Observe(FrameType::kTrigger, /*outbound=*/true).ok());
    ASSERT_TRUE(
        link.Observe(FrameType::kMilestone, /*outbound=*/false).ok());
    ASSERT_TRUE(link.Observe(FrameType::kFinish, /*outbound=*/true).ok());
    EXPECT_EQ(link.phase(), kPhReport);
    ASSERT_TRUE(link.Observe(FrameType::kSummary, /*outbound=*/false).ok());
    ASSERT_TRUE(link.Observe(FrameType::kNetStats, /*outbound=*/false).ok());
    ASSERT_TRUE(link.Observe(FrameType::kShutdown, /*outbound=*/true).ok());
    EXPECT_EQ(link.phase(), kPhDone);
    ASSERT_TRUE(link.Observe(FrameType::kIdle, /*outbound=*/false).ok());
    EXPECT_EQ(link.phase(), kPhAwaitPlan);
  };
  walk_query();
  // A fleet that serves many queries loops: the next plan is legal again.
  walk_query();
  // Every fleet's teardown: a bare kShutdown to the parked worker, which
  // exits without another ack.
  ASSERT_TRUE(link.Observe(FrameType::kShutdown, /*outbound=*/true).ok());
  EXPECT_EQ(link.phase(), kPhDone);
  EXPECT_FALSE(link.Observe(FrameType::kPlan, /*outbound=*/true).ok())
      << "a plan after the teardown shutdown";
}

TEST(FrameConformanceTest, DirectionViolationIsCaughtInAnyPhase) {
  // kPlan only ever travels coordinator->worker; a coordinator that
  // *receives* one has a confused or malicious peer, whatever phase the
  // link is in.
  FrameConformance coord(LinkRole::kCoordinator, "worker 0");
  Status status = coord.Observe(FrameType::kPlan, /*outbound=*/false);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("may never travel"), std::string::npos)
      << status.message();

  // Symmetrically, a worker never sends one.
  FrameConformance worker(LinkRole::kWorker, "coordinator");
  EXPECT_FALSE(worker.Observe(FrameType::kPlan, /*outbound=*/true).ok());
}

TEST(FrameConformanceTest, PhaseViolationNamesFrameAndPhase) {
  // kSummary is a report-phase frame; arriving on a parked link (no query
  // in flight) is a violation, and the message must name both the frame
  // and the phase so the log is actionable.
  FrameConformance link(LinkRole::kCoordinator, "worker 3");
  Status status = link.Observe(FrameType::kSummary, /*outbound=*/false);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("summary"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("await-plan"), std::string::npos)
      << status.message();
}

TEST(FrameConformanceTest, ServeLinksStayInTheServePhase) {
  FrameConformance server(LinkRole::kServer, "client");
  EXPECT_EQ(server.phase(), kPhServe);
  ASSERT_TRUE(server.Observe(FrameType::kSubmit, /*outbound=*/false).ok());
  ASSERT_TRUE(
      server.Observe(FrameType::kQueryResult, /*outbound=*/true).ok());
  // kBye doubles as the serve-layer close notice (client->server).
  ASSERT_TRUE(server.Observe(FrameType::kBye, /*outbound=*/false).ok());
  EXPECT_EQ(server.phase(), kPhServe);
  // Worker-protocol frames never appear on a serve link.
  EXPECT_FALSE(server.Observe(FrameType::kPlan, /*outbound=*/false).ok());
}

TEST_F(FrameChannelTest, ConformanceViolationPoisonsTheChannel) {
  ASSERT_TRUE(kConformanceArmed);
  ASSERT_TRUE(FrameConformanceEnabled());
  const uint64_t before = FrameConformanceViolations();
  channel_->EnableConformance(LinkRole::kCoordinator);

  // A coordinator emitting kHello is sending a worker's frame the wrong
  // way down the link. The violation lands at queue time and poisons the
  // channel exactly like corrupt wire: Flush and ReadAvailable both
  // surface it from then on.
  std::vector<std::byte> payload;
  channel_->QueueFrame(FrameType::kHello, payload);
  Status status = channel_->Flush();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("hello"), std::string::npos)
      << status.message();
  bool peer_closed = false;
  EXPECT_FALSE(channel_->ReadAvailable(&peer_closed).ok());
  EXPECT_EQ(FrameConformanceViolations(), before + 1);
}

TEST_F(FrameChannelTest, ConformanceAcceptsALegalHandshake) {
  ASSERT_TRUE(FrameConformanceEnabled());
  const uint64_t before = FrameConformanceViolations();
  channel_->EnableConformance(LinkRole::kCoordinator);
  ASSERT_TRUE(SetNonBlocking(raw_fd_).ok());
  FrameChannel worker(raw_fd_, "coordinator");
  raw_fd_ = -1;  // the channel owns (and closes) the fd now
  worker.EnableConformance(LinkRole::kWorker);

  // Coordinator ships the plan; the worker echoes hello. Both checkers
  // observe both frames (each its own send and the other's receive) and
  // neither trips.
  std::vector<std::byte> plan_payload;
  PutString(&plan_payload, "plan text");
  channel_->QueueFrame(FrameType::kPlan, plan_payload);
  ASSERT_TRUE(channel_->Flush().ok());
  bool peer_closed = false;
  ASSERT_TRUE(worker.ReadAvailable(&peer_closed).ok());
  Frame frame;
  ASSERT_TRUE(worker.NextFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kPlan);

  std::vector<std::byte> hello_payload;
  PutU32(&hello_payload, 2);
  worker.QueueFrame(FrameType::kHello, hello_payload);
  ASSERT_TRUE(worker.Flush().ok());
  ASSERT_TRUE(channel_->ReadAvailable(&peer_closed).ok());
  ASSERT_TRUE(channel_->NextFrame(&frame));
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(FrameConformanceViolations(), before);
}

TEST_F(FrameChannelTest, UnknownFrameTypePoisonsTheChannel) {
  // A type byte the table does not define must never reach a handler
  // switch; the channel rejects it at reassembly time, CRC-valid or not.
  std::vector<std::byte> payload;
  PutU32(&payload, 99);
  std::vector<std::byte> bytes =
      EncodeFrame(static_cast<FrameType>(200), payload);
  ASSERT_EQ(write(raw_fd_, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  bool peer_closed = false;
  Status status = channel_->ReadAvailable(&peer_closed);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("unknown frame type 200"),
            std::string::npos)
      << status.message();
}

TEST_F(FrameChannelTest, RetiredFrameIdsAreCorrupt) {
  // 3 (fragment), 5 (data), 6 (eos), 8 (credit) and 11 (result-rows)
  // carried the retired socket data plane. The table must never define
  // them again, and a peer still sending one is corrupt wire, however
  // well-formed the frame around it.
  for (uint8_t retired : {3, 5, 6, 8, 11}) {
    EXPECT_FALSE(ValidFrameType(retired)) << "id " << int{retired};
  }
  std::vector<std::byte> payload;
  PutU32(&payload, 7);
  std::vector<std::byte> bytes =
      EncodeFrame(static_cast<FrameType>(8), payload);
  ASSERT_EQ(write(raw_fd_, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  bool peer_closed = false;
  Status status = channel_->ReadAvailable(&peer_closed);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("unknown frame type 8"), std::string::npos)
      << status.message();
  Frame none;
  EXPECT_FALSE(channel_->NextFrame(&none));
}

// --- NetFaultInjector: deterministic link damage --------------------------

std::vector<std::byte> SomeFrame() {
  std::vector<std::byte> payload;
  PutU64(&payload, 0x1122334455667788ull);
  std::vector<std::byte> frame;
  PutU32(&frame, static_cast<uint32_t>(1 + payload.size() + 4));
  PutU8(&frame, static_cast<uint8_t>(FrameType::kSummary));
  frame.insert(frame.end(), payload.begin(), payload.end());
  PutU32(&frame, Crc32(frame.data() + 4, frame.size() - 4));
  return frame;
}

TEST(NetFaultInjectorTest, CorruptOutboundFiresOnceAfterCount) {
  NetFaultScenario scenario;
  scenario.kind = NetFaultKind::kCorruptOutbound;
  scenario.after_frames = 2;
  scenario.seed = 7;
  NetFaultInjector injector(scenario);

  const std::vector<std::byte> original = SomeFrame();
  for (int i = 0; i < 5; ++i) {
    std::vector<std::byte> frame = original;
    bool shutdown_write = false;
    injector.OnOutboundFrame(&frame, &shutdown_write);
    EXPECT_FALSE(shutdown_write);
    if (i == 2) {
      EXPECT_NE(frame, original) << "fault did not fire on frame 2";
      // The damage never lands in the length header, so the receiver sees
      // a well-framed but checksum-broken frame.
      EXPECT_TRUE(std::equal(frame.begin(), frame.begin() + 4,
                             original.begin()));
    } else {
      EXPECT_EQ(frame, original) << "frame " << i;
    }
  }
  EXPECT_EQ(injector.fires(), 1u);  // max_fires defaults to one-shot
}

TEST(NetFaultInjectorTest, TruncateShrinksAndShutsDownWrite) {
  NetFaultScenario scenario;
  scenario.kind = NetFaultKind::kTruncateOutbound;
  NetFaultInjector injector(scenario);

  std::vector<std::byte> frame = SomeFrame();
  const size_t full = frame.size();
  bool shutdown_write = false;
  injector.OnOutboundFrame(&frame, &shutdown_write);
  EXPECT_TRUE(shutdown_write);
  EXPECT_LT(frame.size(), full);
  EXPECT_GE(frame.size(), 4u);
}

TEST(NetFaultInjectorTest, ShortWritesCapEverySend) {
  NetFaultScenario scenario;
  scenario.kind = NetFaultKind::kShortWrites;
  scenario.write_cap = 3;
  NetFaultInjector injector(scenario);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(injector.CapWrite(100), 3u);
  }
  EXPECT_EQ(injector.CapWrite(2), 2u);
}

TEST(NetFaultInjectorTest, StallLatchesUntilRebind) {
  NetFaultScenario scenario;
  scenario.kind = NetFaultKind::kStallOutbound;
  NetFaultInjector injector(scenario);
  EXPECT_FALSE(injector.send_stalled());

  std::vector<std::byte> frame = SomeFrame();
  bool shutdown_write = false;
  injector.OnOutboundFrame(&frame, &shutdown_write);
  EXPECT_TRUE(injector.send_stalled());
  EXPECT_EQ(injector.CapWrite(100), 0u);
  EXPECT_EQ(injector.fires(), 1u);

  // A retry attempt installs the injector on a fresh channel: the latch
  // clears but the spent one-shot budget does not, so the retry runs clean.
  injector.OnChannelRebind();
  EXPECT_FALSE(injector.send_stalled());
  injector.OnOutboundFrame(&frame, &shutdown_write);
  EXPECT_FALSE(injector.send_stalled());
  EXPECT_EQ(injector.fires(), 1u);
}

TEST(NetFaultInjectorTest, ScenarioSerializesForReproduction) {
  NetFaultScenario scenario;
  scenario.kind = NetFaultKind::kDropConnection;
  scenario.worker = 3;
  scenario.after_frames = 17;
  scenario.seed = 42;
  std::string text = SerializeNetFaultScenario(scenario);
  EXPECT_NE(text.find("drop-conn"), std::string::npos);
  EXPECT_NE(text.find("worker=3"), std::string::npos);
  EXPECT_NE(text.find("seed=42"), std::string::npos);
}

}  // namespace
}  // namespace mjoin
