#include <unistd.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/reference.h"
#include "net/wire.h"
#include "plan/wisconsin_query.h"
#include "serve/client.h"
#include "serve/serve_protocol.h"
#include "serve/server.h"
#include "strategy/strategy.h"
#include "xra/text.h"

namespace mjoin {
namespace {

// The serving layer end to end: wire codecs, a live server with warm
// executors serving concurrent clients on both backends (results checked
// against the single-threaded reference), admission control, deadlines,
// plan-cache behavior, and tenant fairness.

std::string TempSocketPath(const std::string& tag) {
  return "/tmp/mjoin_serve_test_" + tag + "_" + std::to_string(getpid()) +
         ".sock";
}

StatusOr<std::string> PlanTextFor(QueryShape shape, StrategyKind strategy,
                                  int relations, uint32_t card,
                                  uint32_t procs) {
  MJOIN_ASSIGN_OR_RETURN(JoinQuery query,
                         MakeWisconsinChainQuery(shape, relations, card));
  MJOIN_ASSIGN_OR_RETURN(
      ParallelPlan plan,
      MakeStrategy(strategy)->Parallelize(query, procs, TotalCostModel()));
  return SerializePlan(plan);
}

TEST(ServeProtocolTest, SubmitRoundTrip) {
  SubmitMsg msg;
  msg.client_seq = 0x1122334455667788ull;
  msg.tenant = "tenant-a";
  msg.backend = ServeBackend::kProcess;
  msg.plan_text = "plan text with\nnewlines";
  msg.batch_size = 777;
  msg.deadline_ms = 250;
  msg.memory_budget_bytes = 1ull << 33;

  std::vector<std::byte> wire;
  EncodeMsg(msg, &wire);
  WireReader reader(wire);
  SubmitMsg decoded;
  ASSERT_TRUE(DecodeMsg(&reader, &decoded).ok());
  EXPECT_EQ(decoded.client_seq, msg.client_seq);
  EXPECT_EQ(decoded.tenant, msg.tenant);
  EXPECT_EQ(decoded.backend, msg.backend);
  EXPECT_EQ(decoded.plan_text, msg.plan_text);
  EXPECT_EQ(decoded.batch_size, msg.batch_size);
  EXPECT_EQ(decoded.deadline_ms, msg.deadline_ms);
  EXPECT_EQ(decoded.memory_budget_bytes, msg.memory_budget_bytes);

  // Trailing garbage is a decode error, not silently ignored.
  wire.push_back(std::byte{0});
  WireReader trailing(wire);
  EXPECT_FALSE(DecodeMsg(&trailing, &decoded).ok());
}

TEST(ServeProtocolTest, QueryResultRoundTrip) {
  QueryResultMsg msg;
  msg.client_seq = 42;
  msg.status_code = static_cast<int32_t>(StatusCode::kDeadlineExceeded);
  msg.message = "too slow";
  msg.cardinality = 123456;
  msg.checksum = 0xdeadbeefcafef00dull;
  msg.wall_seconds = 1.5;
  msg.queue_seconds = 0.25;
  msg.plan_cache_hit = true;
  msg.backend = ServeBackend::kThread;
  msg.attempts = 3;

  std::vector<std::byte> wire;
  EncodeMsg(msg, &wire);
  WireReader reader(wire);
  QueryResultMsg decoded;
  ASSERT_TRUE(DecodeMsg(&reader, &decoded).ok());
  EXPECT_EQ(decoded.client_seq, msg.client_seq);
  EXPECT_EQ(decoded.status_code, msg.status_code);
  EXPECT_EQ(decoded.message, msg.message);
  EXPECT_EQ(decoded.cardinality, msg.cardinality);
  EXPECT_EQ(decoded.checksum, msg.checksum);
  EXPECT_EQ(decoded.wall_seconds, msg.wall_seconds);
  EXPECT_EQ(decoded.queue_seconds, msg.queue_seconds);
  EXPECT_EQ(decoded.plan_cache_hit, msg.plan_cache_hit);
  EXPECT_EQ(decoded.backend, msg.backend);
  EXPECT_EQ(decoded.attempts, msg.attempts);
}

// Concurrent golden harness: N clients pipeline every (strategy, shape)
// combination through one server, alternating backends, and every result
// must be checksum-identical to the reference.
TEST(ServeGoldenTest, ConcurrentClientsAllStrategiesAllShapes) {
  constexpr int kRelations = 4;
  constexpr uint32_t kCard = 300;
  constexpr uint32_t kProcs = 6;
  constexpr int kClients = 4;
  Database db = MakeWisconsinDatabase(kRelations, kCard, /*seed=*/7);

  MjoinServeOptions options;
  options.socket_path = TempSocketPath("golden");
  options.exec_threads = 3;
  options.fleet.num_workers = 4;
  auto server = MjoinServer::Start(&db, options);
  ASSERT_TRUE(server.ok()) << server.status();

  const QueryShape kShapes[] = {
      QueryShape::kLeftLinear, QueryShape::kLeftOrientedBushy,
      QueryShape::kWideBushy, QueryShape::kRightOrientedBushy,
      QueryShape::kRightLinear};

  // Reference summary per shape (strategy never changes the result).
  std::vector<ResultSummary> expect;
  for (QueryShape shape : kShapes) {
    auto query = MakeWisconsinChainQuery(shape, kRelations, kCard);
    ASSERT_TRUE(query.ok());
    auto ref = ReferenceSummary(*query, db);
    ASSERT_TRUE(ref.ok());
    expect.push_back(*ref);
  }

  // The full (strategy, shape) matrix, dealt round-robin to the clients.
  struct Job {
    std::string plan_text;
    ResultSummary expect;
  };
  std::vector<std::vector<Job>> per_client(kClients);
  std::set<std::string> unique_texts;
  int dealt = 0;
  for (StrategyKind strategy : kAllStrategies) {
    for (size_t s = 0; s < std::size(kShapes); ++s) {
      auto text =
          PlanTextFor(kShapes[s], strategy, kRelations, kCard, kProcs);
      ASSERT_TRUE(text.ok()) << text.status();
      unique_texts.insert(*text);
      per_client[dealt++ % kClients].push_back(Job{*text, expect[s]});
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ServeClient::Connect(options.socket_path);
      if (!client.ok()) {
        ++mismatches;
        return;
      }
      // Pipeline all submits, alternating backends, then await them all
      // (results may return in any order; match on client_seq).
      const std::vector<Job>& jobs = per_client[c];
      for (size_t i = 0; i < jobs.size(); ++i) {
        SubmitMsg submit;
        submit.client_seq = i;
        submit.tenant = "client-" + std::to_string(c);
        submit.backend = (c + static_cast<int>(i)) % 2 == 0
                             ? ServeBackend::kThread
                             : ServeBackend::kProcess;
        submit.plan_text = jobs[i].plan_text;
        submit.deadline_ms = 60000;
        if (!client.value()->Submit(submit).ok()) {
          ++mismatches;
          return;
        }
      }
      for (size_t i = 0; i < jobs.size(); ++i) {
        auto result = client.value()->Await(60000);
        if (!result.ok() || result->status_code != 0 ||
            result->client_seq >= jobs.size() ||
            result->cardinality != jobs[result->client_seq].expect.cardinality ||
            result->checksum != jobs[result->client_seq].expect.checksum) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Strategies can serialize to identical plans on some shapes, so at
  // least each distinct text was parsed once; racing first lookups of the
  // same text may both miss (by design), never more than once per query.
  const PlanCacheStats cache = server.value()->plan_cache_stats();
  const size_t total = std::size(kAllStrategies) * std::size(kShapes);
  EXPECT_GE(cache.misses, unique_texts.size());
  EXPECT_EQ(cache.hits + cache.misses, total);
  EXPECT_GT(cache.hits, 0u);
  EXPECT_EQ(cache.collisions, 0u);
  server.value()->Shutdown();
}

TEST(ServeTest, AdmissionRejectsOversizedAndDeadlinesExpireInQueue) {
  constexpr int kRelations = 4;
  constexpr uint32_t kCard = 400;
  Database db = MakeWisconsinDatabase(kRelations, kCard, /*seed=*/7);

  MjoinServeOptions options;
  options.socket_path = TempSocketPath("admission");
  options.exec_threads = 1;  // serialize: lets the deadline case queue up
  options.admission_budget_bytes = 64ull << 20;
  options.enable_process_backend = false;
  auto server = MjoinServer::Start(&db, options);
  ASSERT_TRUE(server.ok()) << server.status();

  auto text = PlanTextFor(QueryShape::kLeftLinear, StrategyKind::kFP,
                          kRelations, kCard, 4);
  ASSERT_TRUE(text.ok());
  auto client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.status();

  // A query declaring more memory than the whole admission budget can
  // never run and is rejected, not queued forever.
  SubmitMsg oversized;
  oversized.client_seq = 1;
  oversized.tenant = "t";
  oversized.plan_text = *text;
  oversized.memory_budget_bytes = 128ull << 20;
  ASSERT_TRUE(client.value()->Submit(oversized).ok());
  auto rejected = client.value()->Await(30000);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->client_seq, 1u);
  EXPECT_EQ(rejected->status_code,
            static_cast<int32_t>(StatusCode::kResourceExhausted));

  // Process backend is disabled on this server: typed rejection.
  SubmitMsg process;
  process.client_seq = 2;
  process.tenant = "t";
  process.backend = ServeBackend::kProcess;
  process.plan_text = *text;
  ASSERT_TRUE(client.value()->Submit(process).ok());
  auto refused = client.value()->Await(30000);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status_code,
            static_cast<int32_t>(StatusCode::kFailedPrecondition));

  // Unparseable plans fail typed too (and are never cached).
  SubmitMsg garbage;
  garbage.client_seq = 3;
  garbage.tenant = "t";
  garbage.plan_text = "this is not XRA";
  ASSERT_TRUE(client.value()->Submit(garbage).ok());
  auto invalid = client.value()->Await(30000);
  ASSERT_TRUE(invalid.ok());
  EXPECT_NE(invalid->status_code, 0);

  // Deadline: jam the single exec thread with slow queries, then submit
  // one whose deadline cannot survive the queue wait.
  for (uint64_t i = 0; i < 8; ++i) {
    SubmitMsg slow;
    slow.client_seq = 100 + i;
    slow.tenant = "t";
    slow.plan_text = *text;
    slow.batch_size = 1;  // deliberately slow
    ASSERT_TRUE(client.value()->Submit(slow).ok());
  }
  SubmitMsg doomed;
  doomed.client_seq = 200;
  doomed.tenant = "t";
  doomed.plan_text = *text;
  doomed.deadline_ms = 1;
  ASSERT_TRUE(client.value()->Submit(doomed).ok());

  bool saw_deadline = false;
  for (int i = 0; i < 9; ++i) {
    auto result = client.value()->Await(60000);
    ASSERT_TRUE(result.ok()) << result.status();
    if (result->client_seq == 200) {
      saw_deadline = true;
      EXPECT_EQ(result->status_code,
                static_cast<int32_t>(StatusCode::kDeadlineExceeded));
      EXPECT_EQ(result->cardinality, 0u);
    } else {
      EXPECT_EQ(result->status_code, 0);
    }
  }
  EXPECT_TRUE(saw_deadline);
  server.value()->Shutdown();
}

TEST(ServeTest, PlanCacheHitsOnRepeatAndFairnessAcrossTenants) {
  constexpr int kRelations = 4;
  constexpr uint32_t kCard = 300;
  Database db = MakeWisconsinDatabase(kRelations, kCard, /*seed=*/7);

  MjoinServeOptions options;
  options.socket_path = TempSocketPath("cache");
  options.exec_threads = 1;  // deterministic scheduling order
  options.enable_process_backend = false;
  auto server = MjoinServer::Start(&db, options);
  ASSERT_TRUE(server.ok()) << server.status();

  auto text = PlanTextFor(QueryShape::kLeftLinear, StrategyKind::kFP,
                          kRelations, kCard, 4);
  ASSERT_TRUE(text.ok());

  // Tenant "flood" pipelines many slow queries; tenant "single" submits
  // one afterwards. Round-robin must interleave it near the front instead
  // of behind the whole flood.
  auto flood = ServeClient::Connect(options.socket_path);
  auto single = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(flood.ok() && single.ok());
  constexpr uint64_t kFlood = 12;
  for (uint64_t i = 0; i < kFlood; ++i) {
    SubmitMsg msg;
    msg.client_seq = i;
    msg.tenant = "flood";
    msg.plan_text = *text;
    msg.batch_size = 1;
    ASSERT_TRUE(flood.value()->Submit(msg).ok());
  }
  SubmitMsg one;
  one.client_seq = 99;
  one.tenant = "single";
  one.plan_text = *text;
  ASSERT_TRUE(single.value()->Submit(one).ok());

  auto single_result = single.value()->Await(60000);
  ASSERT_TRUE(single_result.ok()) << single_result.status();
  EXPECT_EQ(single_result->status_code, 0);

  double flood_last_queue = 0;
  for (uint64_t i = 0; i < kFlood; ++i) {
    auto result = flood.value()->Await(60000);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->status_code, 0);
    if (result->queue_seconds > flood_last_queue) {
      flood_last_queue = result->queue_seconds;
    }
  }
  // Fairness: the lone tenant never waits behind the whole flood.
  EXPECT_LT(single_result->queue_seconds, flood_last_queue);

  // Every submit after the first was a cache hit (identical plan text).
  const PlanCacheStats cache = server.value()->plan_cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, kFlood);  // flood[1..] + single
  EXPECT_EQ(cache.collisions, 0u);

  auto hit_result_probe = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(hit_result_probe.ok());
  SubmitMsg probe;
  probe.client_seq = 1;
  probe.tenant = "probe";
  probe.plan_text = *text;
  ASSERT_TRUE(hit_result_probe.value()->Submit(probe).ok());
  auto probed = hit_result_probe.value()->Await(30000);
  ASSERT_TRUE(probed.ok());
  EXPECT_TRUE(probed->plan_cache_hit);
  server.value()->Shutdown();
}

TEST(ServeTest, StartFailsOnAnInvalidFleetRingSize) {
  // The fleet checks its ring size before it maps or forks, so a server
  // configured with one refuses to start instead of failing every process
  // query it would later serve.
  Database db = MakeWisconsinDatabase(3, 100, /*seed=*/7);
  MjoinServeOptions options;
  options.socket_path = TempSocketPath("badring");
  options.exec_threads = 1;
  options.fleet.num_workers = 2;
  options.fleet.shm_ring_bytes = 3 * 1024;
  auto server = MjoinServer::Start(&db, options);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument)
      << server.status();
  EXPECT_NE(access(options.socket_path.c_str(), F_OK), 0)
      << "a server that failed to start left its socket behind";
}

TEST(ServeTest, ShutdownFailsQueuedQueriesAndUnlinksSocket) {
  Database db = MakeWisconsinDatabase(4, 2000, /*seed=*/7);
  MjoinServeOptions options;
  options.socket_path = TempSocketPath("shutdown");
  options.exec_threads = 1;
  options.enable_process_backend = false;
  auto server = MjoinServer::Start(&db, options);
  ASSERT_TRUE(server.ok()) << server.status();

  // Slow queries (one tuple per batch on a 2000-tuple database) behind a
  // single exec thread: by the time the first result returns, the rest
  // are ingested and deep in the queue.
  auto text =
      PlanTextFor(QueryShape::kLeftLinear, StrategyKind::kFP, 4, 2000, 4);
  ASSERT_TRUE(text.ok());
  auto client = ServeClient::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  for (uint64_t i = 0; i < 6; ++i) {
    SubmitMsg msg;
    msg.client_seq = i;
    msg.tenant = "t";
    msg.plan_text = *text;
    msg.batch_size = 1;
    ASSERT_TRUE(client.value()->Submit(msg).ok());
  }
  auto first = client.value()->Await(60000);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->status_code, 0);

  server.value()->Shutdown();

  // Every remaining submit got exactly one answer: completed OK (it was
  // already running) or failed Unavailable (drained from the queue) —
  // never silently dropped.
  int answered = 0;
  int unavailable = 0;
  for (uint64_t i = 0; i < 5; ++i) {
    auto result = client.value()->Await(5000);
    ASSERT_TRUE(result.ok()) << "submit dropped without an answer: "
                             << result.status();
    EXPECT_TRUE(result->status_code == 0 ||
                result->status_code ==
                    static_cast<int32_t>(StatusCode::kUnavailable))
        << "code " << result->status_code;
    if (result->status_code != 0) ++unavailable;
    ++answered;
  }
  EXPECT_EQ(answered, 5);
  EXPECT_GT(unavailable, 0) << "nothing was queued at shutdown";
  EXPECT_NE(access(options.socket_path.c_str(), F_OK), 0)
      << "socket path survived shutdown";
}

}  // namespace
}  // namespace mjoin
