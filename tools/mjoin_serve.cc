// mjoin_serve — long-lived multi-tenant query service on warm executors.
//
//   mjoin_serve serve    --socket /tmp/mjoin.sock --exec-threads 2
//                        --workers 4 [--no-process]
//                        [--budget BYTES] [--cache N]
//                        [--relations 5 --card 2000 --seed 1995]
//   mjoin_serve submit   --socket /tmp/mjoin.sock --shape wide-bushy
//                        --strategy FP --procs 8 [--backend thread|process]
//                        [--count N] [--deadline-ms N] [--tenant NAME]
//   mjoin_serve selftest [--relations 4 --card 500]
//
// `serve` builds the Wisconsin database in memory and serves queries over
// the AF_UNIX frame protocol until SIGINT/SIGTERM. `submit` builds a plan
// client-side (the same flags as mjoin_cli), sends it, and prints the
// result; server and client must agree on --relations/--card/--seed.
// `selftest` runs a server and clients inside one process and checks every
// result against the single-threaded reference — the CI smoke test.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "plan/wisconsin_query.h"
#include "serve/client.h"
#include "serve/server.h"
#include "strategy/strategy.h"
#include "tools/cli_flags.h"
#include "xra/text.h"

using namespace mjoin;

namespace {

volatile sig_atomic_t g_stop = 0;
void HandleStop(int) { g_stop = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: mjoin_serve <serve|submit|selftest> [flags]\n"
      "serve:\n"
      "  --socket PATH      AF_UNIX path to listen on (required)\n"
      "  --exec-threads N   concurrent query slots (default 2)\n"
      "  --workers N        warm process-worker fleet size (default 4)\n"
      "  --no-process       thread backend only (no worker fleet)\n"
      "  --ring-kb N        shm ring size in KiB (default 256)\n"
      "  --budget BYTES     global admission budget (default 1 GiB)\n"
      "  --cache N          plan-cache capacity (default 64)\n"
      "  --relations/--card/--seed  served Wisconsin database\n"
      "submit:\n"
      "  --socket PATH      server to connect to (required)\n"
      "  --shape / --strategy / --procs   plan to run (as mjoin_cli)\n"
      "  --relations/--card served database shape (must match the server)\n"
      "  --backend thread|process (default thread)\n"
      "  --tenant NAME      fairness queue (default \"cli\")\n"
      "  --count N          submissions (default 1)\n"
      "  --batch N          tuples per batch (default 256)\n"
      "  --deadline-ms N    per-query deadline (0 = none)\n"
      "  --query-budget BYTES  per-query memory budget (0 = default charge)\n"
      "selftest:\n"
      "  --relations/--card small database for the end-to-end check\n");
  return 2;
}

/// Builds the plan text a submit carries: parallelize the Wisconsin chain
/// query with the requested strategy and serialize to XRA.
StatusOr<std::string> BuildPlanText(QueryShape shape, StrategyKind strategy,
                                    int relations, uint32_t card,
                                    uint32_t procs) {
  MJOIN_ASSIGN_OR_RETURN(JoinQuery query,
                         MakeWisconsinChainQuery(shape, relations, card));
  MJOIN_ASSIGN_OR_RETURN(
      ParallelPlan plan,
      MakeStrategy(strategy)->Parallelize(query, procs, TotalCostModel()));
  return SerializePlan(plan);
}

int RunServe(const Args& args) {
  const std::string socket = args.Get("socket", "");
  if (socket.empty()) return Usage();
  const int relations = args.GetNum<int>("relations", 5);
  const uint32_t card = args.GetNum<uint32_t>("card", 2000);
  const uint32_t seed = args.GetNum<uint32_t>("seed", 1995);

  MjoinServeOptions options;
  options.socket_path = socket;
  options.exec_threads = args.GetNum<uint32_t>("exec-threads", 2);
  options.admission_budget_bytes = args.GetNum<uint64_t>("budget", 1ull << 30);
  options.plan_cache_capacity = args.GetNum<size_t>("cache", 64);
  options.enable_process_backend = !args.Has("no-process");
  options.fleet.num_workers = args.GetNum<uint32_t>("workers", 4);
  options.fleet.shm_ring_bytes = args.GetKiB("ring-kb", 256);

  Database db = MakeWisconsinDatabase(relations, card, seed);

  auto server = MjoinServer::Start(&db, options);
  if (!server.ok()) return Fail(server.status(), "start failed: ");
  std::fprintf(stderr,
               "mjoin_serve: listening on %s (%u exec threads, %s fleet, "
               "%d relations x %u tuples)\n",
               socket.c_str(), options.exec_threads,
               options.enable_process_backend ? "warm process" : "no",
               relations, card);
  signal(SIGINT, HandleStop);
  signal(SIGTERM, HandleStop);
  while (g_stop == 0) pause();
  std::fprintf(stderr, "mjoin_serve: shutting down\n");
  server.value()->Shutdown();
  return 0;
}

int RunSubmit(const Args& args) {
  const std::string socket = args.Get("socket", "");
  if (socket.empty()) return Usage();
  QueryShape shape = QueryShape::kWideBushy;
  StrategyKind strategy = StrategyKind::kFP;
  if (!ParseShape(args.Get("shape", "wide-bushy"), &shape) ||
      !ParseStrategy(args.Get("strategy", "FP"), &strategy)) {
    return Usage();
  }
  const std::string backend = args.Get("backend", "thread");
  if (backend != "thread" && backend != "process") {
    std::fprintf(stderr, "unknown backend '%s' (valid: thread|process)\n",
                 backend.c_str());
    return 2;
  }
  auto plan_text = BuildPlanText(shape, strategy,
                                 args.GetNum<int>("relations", 5),
                                 args.GetNum<uint32_t>("card", 2000),
                                 args.GetNum<uint32_t>("procs", 8));
  if (!plan_text.ok()) return Fail(plan_text.status(), "plan build failed: ");

  auto client = ServeClient::Connect(socket);
  if (!client.ok()) return Fail(client.status(), "connect failed: ");
  const long count = args.GetNum<long>("count", 1);
  SubmitMsg submit;
  submit.tenant = args.Get("tenant", "cli");
  submit.backend =
      backend == "process" ? ServeBackend::kProcess : ServeBackend::kThread;
  submit.plan_text = *plan_text;
  submit.batch_size = args.GetNum<uint32_t>("batch", 256);
  submit.deadline_ms = args.GetNum<int64_t>("deadline-ms", 0);
  submit.memory_budget_bytes = args.GetNum<uint64_t>("query-budget", 0);
  for (long i = 0; i < count; ++i) {
    submit.client_seq = static_cast<uint64_t>(i);
    if (Status s = client.value()->Submit(submit); !s.ok()) {
      return Fail(s, "submit failed: ");
    }
  }
  int failures = 0;
  for (long i = 0; i < count; ++i) {
    auto result = client.value()->Await();
    if (!result.ok()) return Fail(result.status(), "await failed: ");
    const QueryResultMsg& r = result.value();
    if (r.status_code != 0) {
      std::fprintf(stderr, "query %llu failed: code %d: %s\n",
                   static_cast<unsigned long long>(r.client_seq),
                   r.status_code, r.message.c_str());
      ++failures;
      continue;
    }
    std::printf(
        "seq=%llu backend=%s rows=%llu checksum=%016llx wall=%.6fs "
        "queued=%.6fs cache_hit=%d attempts=%u\n",
        static_cast<unsigned long long>(r.client_seq),
        ServeBackendName(r.backend),
        static_cast<unsigned long long>(r.cardinality),
        static_cast<unsigned long long>(r.checksum), r.wall_seconds,
        r.queue_seconds, r.plan_cache_hit ? 1 : 0, r.attempts);
  }
  return failures == 0 ? 0 : 1;
}

int RunSelftest(const Args& args) {
  const int relations = args.GetNum<int>("relations", 4);
  const uint32_t card = args.GetNum<uint32_t>("card", 500);
  Database db = MakeWisconsinDatabase(relations, card, 1995);
  const std::string socket =
      "/tmp/mjoin_serve_selftest_" + std::to_string(getpid()) + ".sock";

  MjoinServeOptions options;
  options.socket_path = socket;
  options.exec_threads = 2;
  options.fleet.num_workers = 4;
  auto server = MjoinServer::Start(&db, options);
  if (!server.ok()) return Fail(server.status(), "selftest: start failed: ");

  const QueryShape shapes[] = {QueryShape::kLeftLinear, QueryShape::kWideBushy};
  const ServeBackend backends[] = {ServeBackend::kThread,
                                   ServeBackend::kProcess};
  int rc = 0;
  for (QueryShape shape : shapes) {
    auto query = MakeWisconsinChainQuery(shape, relations, card);
    if (!query.ok()) return 1;
    auto expect = ReferenceSummary(*query, db);
    if (!expect.ok()) return 1;
    auto plan_text =
        BuildPlanText(shape, StrategyKind::kFP, relations, card, 8);
    if (!plan_text.ok()) return 1;
    for (ServeBackend backend : backends) {
      auto client = ServeClient::Connect(socket);
      if (!client.ok()) {
        return Fail(client.status(), "selftest: connect failed: ");
      }
      SubmitMsg submit;
      submit.client_seq = 7;
      submit.tenant = "selftest";
      submit.backend = backend;
      submit.plan_text = *plan_text;
      submit.deadline_ms = 60000;
      if (Status s = client.value()->Submit(submit); !s.ok()) {
        return Fail(s, "selftest: submit failed: ");
      }
      auto result = client.value()->Await(60000);
      if (!result.ok() || result.value().status_code != 0 ||
          result.value().cardinality != expect.value().cardinality ||
          result.value().checksum != expect.value().checksum) {
        std::fprintf(stderr, "selftest: %s backend mismatch or failure\n",
                     ServeBackendName(backend));
        rc = 1;
        continue;
      }
      std::printf("selftest: %s ok (%llu rows, %.6fs)\n",
                  ServeBackendName(backend),
                  static_cast<unsigned long long>(result.value().cardinality),
                  result.value().wall_seconds);
    }
  }
  server.value()->Shutdown();
  std::printf(rc == 0 ? "selftest: PASS\n" : "selftest: FAIL\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  static const std::set<std::string> kSwitches = {"no-process"};
  static const std::set<std::string> kValued = {
      "backend", "batch", "budget", "cache", "card", "count",
      "deadline-ms", "exec-threads", "procs", "query-budget", "relations",
      "ring-kb", "seed", "shape", "socket", "strategy", "tenant", "workers"};
  std::optional<Args> parsed = ParseArgs(argc, argv, kSwitches, kValued);
  if (!parsed.has_value()) return Usage();
  const Args& args = *parsed;
  if (args.command == "serve") return RunServe(args);
  if (args.command == "submit") return RunSubmit(args);
  if (args.command == "selftest") return RunSelftest(args);
  return Usage();
}
