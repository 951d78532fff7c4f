// Network-layer throughput suite for the process backend, in three tiers
// (results written as JSON, committed as BENCH_net.json):
//
//   codec:  AppendBatchWire / ReadBatchWire bytes-per-second on a
//           Wisconsin-row batch, per batch size — the pure serialization
//           cost every remote delivery pays.
//   socket: whole frames pumped through a FrameChannel pair over a real
//           AF_UNIX socketpair, single-threaded (queue/flush one end, read
//           the other), so the figure includes framing, syscalls, and
//           reassembly but no scheduler noise.
//   query:  FP left-linear end to end — thread backend vs the process
//           backend (data on shared-memory rings, control on the socket)
//           at the same batch size: what shared-nothing isolation costs on
//           a real plan, with the traffic each run generated.
//
// The JSON also records the host it ran on (online CPUs, compiler, and
// whether assertions were compiled out).
//
// Flags: --smoke (tiny sweep, 1 rep — the CI guard),
//        --out=FILE (default BENCH_net.json),
//        --workers=N (process backend; default 0 = one per processor).
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "engine/database.h"
#include "engine/process_executor.h"
#include "engine/thread_executor.h"
#include "net/channel.h"
#include "net/wire.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

struct Config {
  bool smoke = false;
  std::string out = "BENCH_net.json";
  uint32_t batch_size = 256;
  int relations = 5;
  uint32_t cardinality = 8000;
  uint32_t processors = 8;
  uint32_t workers = 0;  // 0 = one per processor
  int reps = 3;
  uint64_t codec_bytes = 256ull << 20;   // bytes to push through the codec
  uint64_t socket_bytes = 128ull << 20;  // bytes to push through the socket
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ParallelPlan MakePlan(const Config& cfg) {
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear,
                                       cfg.relations, cfg.cardinality);
  MJOIN_CHECK(query.ok());
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, cfg.processors, TotalCostModel());
  MJOIN_CHECK(plan.ok()) << plan.status();
  return *std::move(plan);
}

TupleBatch MakeBatch(const SchemaRegistry& registry, uint32_t schema_id,
                     size_t rows) {
  TupleBatch batch(registry.Get(schema_id));
  const uint32_t tuple_size = batch.schema().tuple_size();
  std::vector<std::byte> row(tuple_size);
  for (size_t r = 0; r < rows; ++r) {
    for (uint32_t b = 0; b < tuple_size; ++b) {
      row[b] = static_cast<std::byte>((r * 131 + b * 7) & 0xff);
    }
    batch.AppendRow(row.data());
  }
  return batch;
}

struct CodecRow {
  size_t rows_per_batch = 0;
  size_t wire_bytes_per_batch = 0;
  double serialize_bytes_per_sec = 0;
  double deserialize_bytes_per_sec = 0;
};

CodecRow BenchCodec(const ParallelPlan& plan, size_t rows_per_batch,
                    const Config& cfg) {
  SchemaRegistry registry(plan);
  TupleBatch batch = MakeBatch(registry, 0, rows_per_batch);

  CodecRow row;
  row.rows_per_batch = rows_per_batch;
  row.wire_bytes_per_batch =
      BatchWireSize(batch.schema().tuple_size(), rows_per_batch);
  const uint64_t iters =
      std::max<uint64_t>(1, cfg.codec_bytes / row.wire_bytes_per_batch);

  std::vector<std::byte> wire;
  double best_ser = 0;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    double start = Now();
    for (uint64_t i = 0; i < iters; ++i) {
      wire.clear();
      AppendBatchWire(batch, /*schema_id=*/0, &wire);
    }
    double elapsed = Now() - start;
    if (best_ser == 0 || elapsed < best_ser) best_ser = elapsed;
  }
  row.serialize_bytes_per_sec =
      static_cast<double>(iters * row.wire_bytes_per_batch) / best_ser;

  double best_de = 0;
  TupleBatch decoded(registry.Get(0));
  for (int rep = 0; rep < cfg.reps; ++rep) {
    double start = Now();
    for (uint64_t i = 0; i < iters; ++i) {
      WireReader reader(wire);
      MJOIN_CHECK(ReadBatchWire(&reader, registry, &decoded).ok());
    }
    double elapsed = Now() - start;
    if (best_de == 0 || elapsed < best_de) best_de = elapsed;
  }
  row.deserialize_bytes_per_sec =
      static_cast<double>(iters * row.wire_bytes_per_batch) / best_de;
  return row;
}

struct SocketRow {
  size_t frame_bytes = 0;
  uint64_t frames = 0;
  double bytes_per_sec = 0;
  double frames_per_sec = 0;
};

SocketRow BenchSocket(size_t payload_bytes, const Config& cfg) {
  SocketRow row;
  row.frame_bytes = payload_bytes + 5;  // + length + type
  row.frames = std::max<uint64_t>(1, cfg.socket_bytes / row.frame_bytes);

  std::vector<std::byte> payload(payload_bytes, std::byte{0x5a});
  double best = 0;
  for (int rep = 0; rep < cfg.reps; ++rep) {
    int sv[2];
    MJOIN_CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
    MJOIN_CHECK(SetNonBlocking(sv[0]).ok());
    MJOIN_CHECK(SetNonBlocking(sv[1]).ok());
    // A worker link's two ends: every frame is checked against the frame
    // table, as on a real link.
    FrameChannel tx(sv[0], "bench tx", LinkRole::kWorker);
    FrameChannel rx(sv[1], "bench rx", LinkRole::kCoordinator);

    uint64_t sent = 0, received = 0;
    Frame frame;
    double start = Now();
    while (received < row.frames) {
      // Keep roughly a megabyte in flight, then drain the other end —
      // the coordinator's flush/read cadence in miniature.
      while (sent < row.frames && tx.pending_output_bytes() < (1u << 20)) {
        // kPong is legal in every phase of a worker link, and the channel
        // never looks at the payload.
        tx.QueueFrame(FrameType::kPong, payload);
        ++sent;
      }
      MJOIN_CHECK(tx.Flush().ok());
      bool closed = false;
      MJOIN_CHECK(rx.ReadAvailable(&closed).ok());
      while (rx.NextFrame(&frame)) ++received;
    }
    double elapsed = Now() - start;
    if (best == 0 || elapsed < best) best = elapsed;
  }
  row.bytes_per_sec =
      static_cast<double>(row.frames * row.frame_bytes) / best;
  row.frames_per_sec = static_cast<double>(row.frames) / best;
  return row;
}

/// One process-backend configuration's best-of-reps run.
struct ProcessRow {
  double wall = 0;
  uint32_t workers = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t local_deliveries = 0;
  double serialize_seconds = 0;
  double deserialize_seconds = 0;
  uint32_t shm_rings = 0;
  uint64_t shm_records_sent = 0;
  uint64_t shm_bytes_sent = 0;
  uint64_t ring_full_stalls = 0;
};

struct QueryRow {
  double thread_wall = 0;
  ProcessRow process;
};

ProcessRow BenchProcess(const Database& db, const ParallelPlan& plan,
                        const Config& cfg) {
  ProcessRow row;
  ProcessExecutor processes(&db);
  for (int rep = 0; rep < cfg.reps; ++rep) {
    ProcessExecOptions options;
    options.exec.batch_size = cfg.batch_size;
    options.exec.collect_metrics = false;
    options.num_workers = cfg.workers;
    auto run = processes.Execute(plan, options);
    MJOIN_CHECK(run.ok()) << run.status();
    if (row.wall == 0 || run->exec.wall_seconds < row.wall) {
      row.wall = run->exec.wall_seconds;
    }
    row.workers = run->net.num_workers;
    row.bytes_sent = run->net.bytes_sent;
    row.bytes_received = run->net.bytes_received;
    row.local_deliveries = run->net.local_deliveries;
    row.serialize_seconds = run->net.serialize_seconds;
    row.deserialize_seconds = run->net.deserialize_seconds;
    row.shm_rings = run->net.shm_rings;
    row.shm_records_sent = run->net.shm_records_sent;
    row.shm_bytes_sent = run->net.shm_bytes_sent;
    row.ring_full_stalls = run->net.ring_full_stalls;
  }
  return row;
}

QueryRow BenchQuery(const Database& db, const ParallelPlan& plan,
                    const Config& cfg) {
  QueryRow row;

  ThreadExecutor threads(&db);
  for (int rep = 0; rep < cfg.reps; ++rep) {
    ThreadExecOptions options;
    options.batch_size = cfg.batch_size;
    options.collect_metrics = false;
    auto run = threads.Execute(plan, options);
    MJOIN_CHECK(run.ok()) << run.status();
    if (row.thread_wall == 0 || run->wall_seconds < row.thread_wall) {
      row.thread_wall = run->wall_seconds;
    }
  }

  row.process = BenchProcess(db, plan, cfg);
  return row;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.cardinality = 400;
      cfg.reps = 1;
      cfg.codec_bytes = 8ull << 20;
      cfg.socket_bytes = 8ull << 20;
    } else if (arg.rfind("--out=", 0) == 0) {
      cfg.out = arg.substr(6);
    } else if (arg.rfind("--workers=", 0) == 0) {
      cfg.workers = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  Database db = MakeWisconsinDatabase(cfg.relations, cfg.cardinality,
                                      /*seed=*/7);
  ParallelPlan plan = MakePlan(cfg);

  std::vector<CodecRow> codec;
  for (size_t rows : {64u, 256u, 4096u}) {
    CodecRow r = BenchCodec(plan, rows, cfg);
    std::fprintf(stderr,
                 "codec  %5zu rows/batch  ser %7.0f MB/s  deser %7.0f MB/s\n",
                 r.rows_per_batch, r.serialize_bytes_per_sec / 1e6,
                 r.deserialize_bytes_per_sec / 1e6);
    codec.push_back(r);
  }

  std::vector<SocketRow> socket;
  for (size_t payload : {size_t{256}, size_t{4096}, size_t{65536}}) {
    SocketRow r = BenchSocket(payload, cfg);
    std::fprintf(stderr,
                 "socket %6zu B frames    %7.0f MB/s  %9.0f frames/s\n",
                 r.frame_bytes, r.bytes_per_sec / 1e6, r.frames_per_sec);
    socket.push_back(r);
  }

  QueryRow query = BenchQuery(db, plan, cfg);
  std::fprintf(stderr,
               "query  thread %.4fs  process %.4fs "
               "(%u workers, %u rings, %llu shm records, %llu ring stalls)\n",
               query.thread_wall, query.process.wall, query.process.workers,
               query.process.shm_rings,
               static_cast<unsigned long long>(query.process.shm_records_sent),
               static_cast<unsigned long long>(query.process.ring_full_stalls));

  FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", cfg.out.c_str());
    return 1;
  }
#ifdef NDEBUG
  const char* assertions = "off";
#else
  const char* assertions = "on";
#endif
#ifdef __clang__
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::fprintf(f,
               "{\n  \"host\": {\"nproc\": %ld, \"compiler\": \"%s %s\", "
               "\"assertions\": \"%s\"},\n",
               sysconf(_SC_NPROCESSORS_ONLN), compiler, __VERSION__,
               assertions);
  std::fprintf(f,
               "  \"config\": {\"relations\": %d, \"cardinality\": %u, "
               "\"processors\": %u, \"batch_size\": %u, \"reps\": %d, "
               "\"smoke\": %s},\n  \"codec\": [\n",
               cfg.relations, cfg.cardinality, cfg.processors, cfg.batch_size,
               cfg.reps, cfg.smoke ? "true" : "false");
  for (size_t i = 0; i < codec.size(); ++i) {
    const CodecRow& r = codec[i];
    std::fprintf(f,
                 "    {\"rows_per_batch\": %zu, \"wire_bytes\": %zu, "
                 "\"serialize_bytes_per_sec\": %.0f, "
                 "\"deserialize_bytes_per_sec\": %.0f}%s\n",
                 r.rows_per_batch, r.wire_bytes_per_batch,
                 r.serialize_bytes_per_sec, r.deserialize_bytes_per_sec,
                 i + 1 < codec.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"socket\": [\n");
  for (size_t i = 0; i < socket.size(); ++i) {
    const SocketRow& r = socket[i];
    std::fprintf(f,
                 "    {\"frame_bytes\": %zu, \"frames\": %llu, "
                 "\"bytes_per_sec\": %.0f, \"frames_per_sec\": %.0f}%s\n",
                 r.frame_bytes, static_cast<unsigned long long>(r.frames),
                 r.bytes_per_sec, r.frames_per_sec,
                 i + 1 < socket.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"query\": {\"strategy\": \"FP\", \"shape\": \"left linear\", "
      "\"thread_wall_seconds\": %.6f,\n",
      query.thread_wall);
  const ProcessRow& r = query.process;
  std::fprintf(
      f,
      "    \"process_shm\": {\"wall_seconds\": %.6f, \"workers\": %u, "
      "\"bytes_sent\": %llu, \"bytes_received\": %llu, "
      "\"local_deliveries\": %llu, "
      "\"serialize_seconds\": %.6f, \"deserialize_seconds\": %.6f, "
      "\"shm_rings\": %u, \"shm_records_sent\": %llu, "
      "\"shm_bytes_sent\": %llu, \"ring_full_stalls\": %llu}\n",
      r.wall, r.workers, static_cast<unsigned long long>(r.bytes_sent),
      static_cast<unsigned long long>(r.bytes_received),
      static_cast<unsigned long long>(r.local_deliveries),
      r.serialize_seconds, r.deserialize_seconds, r.shm_rings,
      static_cast<unsigned long long>(r.shm_records_sent),
      static_cast<unsigned long long>(r.shm_bytes_sent),
      static_cast<unsigned long long>(r.ring_full_stalls));
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", cfg.out.c_str());
  return 0;
}

}  // namespace
}  // namespace mjoin

int main(int argc, char** argv) { return mjoin::Main(argc, argv); }
