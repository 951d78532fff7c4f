#include <dirent.h>
#include <pthread.h>
#include <signal.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/fault_injector.h"
#include "engine/process_executor.h"
#include "engine/reference.h"
#include "net/net_fault.h"
#include "plan/wisconsin_query.h"
#include "skew/defense.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

// Conformance is part of the tier-1 contract for this suite: every frame
// either endpoint sends or receives is validated against the frame
// table's direction and phase rules, and a violation poisons the link.
// Armed before main() so every FrameChannel the suite constructs sees it.
const bool kConformanceArmed = [] {
  setenv("MJOIN_CONFORMANCE", "1", /*overwrite=*/0);
  return true;
}();

// Randomized chaos harness for the process backend. Each schedule draws one
// fault from a menu (worker kill, wire corruption in either direction,
// truncation, connection drop, link stall, short writes, silent hang,
// injected operator failure) from a seeded RNG, and runs a full query
// under it with retries enabled, on deliberately tiny 4 KiB rings so wrap
// pads, full-ring backlogs, and mid-record kills all actually happen. The
// contract under chaos:
//
//   - recoverable faults end in a result checksum-identical to the
//     single-threaded reference (the retry re-ran the query cleanly);
//   - deterministic faults end in the same typed Status the thread backend
//     would return (kInternal for an injected operator fault);
//   - no outcome is ever a hang, a zombie, or a leaked descriptor.
//
// Every schedule is reproducible from its printed seed.

enum class ChaosCase {
  kClean = 0,
  kKillWorker,
  kCorruptOut,
  kCorruptIn,
  kTruncateOut,
  kDropConn,
  kStallOut,
  kShortWrites,
  kHangWorker,
  kFailOp,
};

constexpr ChaosCase kMenu[] = {
    ChaosCase::kClean,       ChaosCase::kKillWorker, ChaosCase::kCorruptOut,
    ChaosCase::kCorruptIn,   ChaosCase::kTruncateOut, ChaosCase::kDropConn,
    ChaosCase::kStallOut,    ChaosCase::kShortWrites, ChaosCase::kHangWorker,
    ChaosCase::kFailOp,
};

const char* ChaosCaseName(ChaosCase c) {
  switch (c) {
    case ChaosCase::kClean:
      return "clean";
    case ChaosCase::kKillWorker:
      return "kill-worker";
    case ChaosCase::kCorruptOut:
      return "corrupt-out";
    case ChaosCase::kCorruptIn:
      return "corrupt-in";
    case ChaosCase::kTruncateOut:
      return "truncate-out";
    case ChaosCase::kDropConn:
      return "drop-conn";
    case ChaosCase::kStallOut:
      return "stall-out";
    case ChaosCase::kShortWrites:
      return "short-writes";
    case ChaosCase::kHangWorker:
      return "hang-worker";
    case ChaosCase::kFailOp:
      return "fail-op";
  }
  return "unknown";
}

size_t CountOpenFds() {
  size_t count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

// True while `pid` exists at all — including as an unreaped zombie, which
// kill(pid, 0) still reaches. ESRCH therefore means "fully reaped".
bool ProcessExists(pid_t pid) { return kill(pid, 0) == 0 || errno != ESRCH; }

// Schedules per (strategy, shape) pair; 10 is 200 schedules over the full
// 4x5 sweep. CI caps it lower for sanitizer runs.
int ChaosIterations() {
  const char* env = std::getenv("MJOIN_CHAOS_ITERS");
  if (env == nullptr) return 10;
  int iters = std::atoi(env);
  return iters > 0 ? iters : 1;
}

constexpr int kRelations = 5;
constexpr uint32_t kCardinality = 200;
constexpr uint32_t kProcessors = 6;
constexpr uint32_t kWorkers = 3;

ProcessExecOptions ChaosOptions() {
  ProcessExecOptions options;
  options.num_workers = kWorkers;
  options.exec.batch_size = 64;
  // The ultimate hang guard: no schedule may outlive this, recovery
  // included. Generous because sanitizer builds are slow.
  options.exec.deadline = std::chrono::milliseconds(20000);
  options.max_retries = 2;
  options.retry_backoff = std::chrono::milliseconds(5);
  options.heartbeat_interval = std::chrono::milliseconds(100);
  // The watchdog is on for every schedule: stalls and hangs must end in a
  // SIGKILL plus retry, not in the deadline.
  options.liveness_timeout = std::chrono::milliseconds(2000);
  return options;
}

struct Sweep {
  StrategyKind strategy;
  QueryShape shape;
};

std::string SweepName(const testing::TestParamInfo<Sweep>& info) {
  std::string shape = ShapeName(info.param.shape);
  for (char& c : shape) {
    if (c == ' ') c = '_';
  }
  return StrategyName(info.param.strategy) + "_" + shape;
}

class ProcessChaosSweepTest : public testing::TestWithParam<Sweep> {};

TEST_P(ProcessChaosSweepTest, SeededFaultSchedulesRecoverOrFailCleanly) {
  const size_t fds_before = CountOpenFds();
  const int iters = ChaosIterations();

  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/42);
  auto query = MakeWisconsinChainQuery(GetParam().shape, kRelations,
                                       kCardinality);
  ASSERT_TRUE(query.ok()) << query.status();
  auto golden = ReferenceSummary(*query, db);
  ASSERT_TRUE(golden.ok()) << golden.status();
  auto plan = MakeStrategy(GetParam().strategy)
                  ->Parallelize(*query, kProcessors, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();

  std::vector<pid_t> all_pids;
  for (int iter = 0; iter < iters; ++iter) {
    // Stable per-(strategy, shape, iter) so any failure names its seed.
    const uint64_t seed =
        0x9e3779b97f4a7c15ull * static_cast<uint64_t>(iter + 1) +
        static_cast<uint64_t>(GetParam().strategy) * 131 +
        static_cast<uint64_t>(GetParam().shape) * 17;
    std::mt19937_64 rng(seed);
    const ChaosCase chaos = kMenu[rng() % std::size(kMenu)];
    // Once a coin for the retired socket data plane; still drawn so every
    // seed keeps its fault, victim, defense and trigger point.
    (void)(rng() % 2);
    const bool defend = rng() % 2 == 1;
    SCOPED_TRACE(testing::Message()
                 << "schedule seed=" << seed << " fault="
                 << ChaosCaseName(chaos)
                 << " defense=" << (defend ? "on" : "off"));

    ProcessExecOptions options = ChaosOptions();
    options.shm_ring_bytes = 4096;
    // Defense under chaos: the report/directive round-trip and the
    // deferred probe replay must survive worker kills and wire faults
    // with the checksum unchanged. Test-sized thresholds so the Bloom
    // transfer engages even on this small uniform data.
    options.exec.skew_defense.mode =
        defend ? SkewDefenseMode::kOn : SkewDefenseMode::kOff;
    options.exec.skew_defense.min_hot_count = 4;
    options.exec.skew_defense.hot_fraction = 0.05;

    // Worker-side fault, shipped in the plan envelope.
    FaultScenario worker_scenario;
    std::unique_ptr<FaultInjector> worker_injector;
    // Coordinator-side network fault on one worker's link.
    NetFaultScenario net_scenario;
    std::optional<NetFaultInjector> net_injector;

    uint32_t spawn_count = 0;
    const uint32_t victim = static_cast<uint32_t>(rng() % kWorkers);
    options.worker_observer = [&](uint32_t, pid_t pid) {
      all_pids.push_back(pid);
      // Kill only within the first fleet: the retry must run clean.
      if (chaos == ChaosCase::kKillWorker && spawn_count == victim) {
        kill(pid, SIGKILL);
      }
      ++spawn_count;
    };

    switch (chaos) {
      case ChaosCase::kClean:
      case ChaosCase::kKillWorker:
        break;
      case ChaosCase::kCorruptOut:
      case ChaosCase::kCorruptIn:
      case ChaosCase::kTruncateOut:
      case ChaosCase::kDropConn:
      case ChaosCase::kStallOut:
      case ChaosCase::kShortWrites: {
        net_scenario.kind =
            chaos == ChaosCase::kCorruptOut ? NetFaultKind::kCorruptOutbound
            : chaos == ChaosCase::kCorruptIn ? NetFaultKind::kCorruptInbound
            : chaos == ChaosCase::kTruncateOut
                ? NetFaultKind::kTruncateOutbound
            : chaos == ChaosCase::kDropConn ? NetFaultKind::kDropConnection
            : chaos == ChaosCase::kStallOut ? NetFaultKind::kStallOutbound
                                            : NetFaultKind::kShortWrites;
        net_scenario.worker = victim;
        // Early enough to land during handshake or plan shipping, where
        // recovery is hardest to get wrong.
        net_scenario.after_frames = rng() % 10;
        net_scenario.write_cap = 1 + rng() % 7;
        net_scenario.seed = rng();
        net_injector.emplace(net_scenario);
        options.net_fault_injector = &*net_injector;
        break;
      }
      case ChaosCase::kHangWorker:
        worker_scenario.kind = FaultKind::kHangWorker;
        worker_scenario.node = static_cast<uint32_t>(rng() % kProcessors);
        worker_scenario.on_attempt = 0;  // wedge once, retry runs clean
        worker_injector = std::make_unique<FaultInjector>(worker_scenario);
        options.exec.fault_injector = worker_injector.get();
        break;
      case ChaosCase::kFailOp:
        worker_scenario.kind = FaultKind::kFailOperator;
        worker_scenario.op = -1;
        worker_scenario.after_batches = rng() % 3;
        worker_injector = std::make_unique<FaultInjector>(worker_scenario);
        options.exec.fault_injector = worker_injector.get();
        break;
    }

    ProcessExecutor executor(&db);
    ProcessExecStats proc;
    auto run = executor.Execute(*plan, options, nullptr, nullptr, &proc);

    if (chaos == ChaosCase::kFailOp) {
      // Deterministic failure: retrying would only fail again, and the
      // executor must know that.
      ASSERT_FALSE(run.ok());
      EXPECT_EQ(run.status().code(), StatusCode::kInternal) << run.status();
      EXPECT_NE(run.status().message().find("injected fault"),
                std::string::npos)
          << run.status();
      EXPECT_EQ(proc.retries, 0u) << "retried a non-retryable failure";
    } else {
      // Everything else is a one-shot environmental fault under a budget
      // of two retries: recovery is guaranteed, and recovered means
      // checksum-identical to the single-threaded reference. That
      // includes kCorruptIn: a flipped length-header byte can make a
      // plausible but inflated frame length, and the stream then starves
      // before the CRC can call the lie out. The liveness watchdog counts
      // only complete frames, so it sees that link go silent, kills the
      // worker, and the retry runs clean.
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(run->exec.result, *golden)
          << "recovered run produced a different tuple multiset";
      EXPECT_LE(proc.attempts, 1u + options.max_retries);
    }
  }

  // No schedule may leak: every worker of every fleet (including killed
  // and retried ones) must be fully reaped, and every socket closed.
  for (pid_t pid : all_pids) {
    EXPECT_FALSE(ProcessExists(pid))
        << "worker pid " << pid << " survived or was left a zombie";
  }
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  EXPECT_EQ(CountOpenFds(), fds_before) << "leaked descriptors";
}

std::vector<Sweep> AllSweeps() {
  std::vector<Sweep> sweeps;
  for (StrategyKind strategy : kAllStrategies) {
    for (QueryShape shape : kAllShapes) {
      sweeps.push_back({strategy, shape});
    }
  }
  return sweeps;
}

INSTANTIATE_TEST_SUITE_P(AllStrategiesAllShapes, ProcessChaosSweepTest,
                         testing::ValuesIn(AllSweeps()), SweepName);

// ---------------------------------------------------------------------------
// Directed recovery scenarios.

class ProcessChaosTest : public testing::Test {
 protected:
  void SetUp() override {
    fds_before_ = CountOpenFds();
    db_ = std::make_unique<Database>(
        MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/7));
    auto query =
        MakeWisconsinChainQuery(QueryShape::kLeftLinear, kRelations,
                                kCardinality);
    ASSERT_TRUE(query.ok());
    auto golden = ReferenceSummary(*query, *db_);
    ASSERT_TRUE(golden.ok()) << golden.status();
    golden_ = *golden;
    auto plan = MakeStrategy(StrategyKind::kFP)
                    ->Parallelize(*query, kProcessors, TotalCostModel());
    ASSERT_TRUE(plan.ok()) << plan.status();
    plan_ = std::make_unique<ParallelPlan>(*std::move(plan));
  }

  void TearDown() override {
    // Whatever the scenario did, the process must end childless and with
    // its descriptor table restored.
    EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
    EXPECT_EQ(CountOpenFds(), fds_before_) << "leaked descriptors";
  }

  size_t fds_before_ = 0;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ParallelPlan> plan_;
  ResultSummary golden_;
};

TEST_F(ProcessChaosTest, KilledWorkerRecoversViaRetry) {
  // kill -9 of a random worker mid-fleet: the first attempt dies, the
  // retry respawns and produces the exact reference result.
  ProcessExecOptions options = ChaosOptions();
  uint32_t spawn_count = 0;
  options.worker_observer = [&spawn_count](uint32_t, pid_t pid) {
    if (spawn_count++ == 1) kill(pid, SIGKILL);  // first fleet only
  };

  ProcessExecutor executor(db_.get());
  ProcessExecStats proc;
  auto run = executor.Execute(*plan_, options, nullptr, nullptr, &proc);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->exec.result, golden_);
  EXPECT_EQ(proc.attempts, 2u);
  EXPECT_GE(proc.retries, 1u);
  EXPECT_FALSE(proc.degraded_to_thread);
  ASSERT_FALSE(proc.failures.empty());
  EXPECT_EQ(proc.failures[0].failure, WorkerFailureClass::kCrashed);
  EXPECT_NE(proc.failures[0].detail.find("killed by signal"),
            std::string::npos)
      << proc.failures[0].detail;
  EXPECT_EQ(run->proc.retries, proc.retries);
}

TEST_F(ProcessChaosTest, HungWorkerIsKilledByWatchdogThenRetried) {
  // A worker that wedges silently mid-query: only the watchdog can tell.
  // It must SIGKILL the straggler, classify it as hung, and retry — the
  // shipped scenario is pinned to attempt 0, so the retry runs clean.
  FaultScenario scenario;
  scenario.kind = FaultKind::kHangWorker;
  scenario.node = 0;
  scenario.on_attempt = 0;
  FaultInjector injector(scenario);

  ProcessExecOptions options = ChaosOptions();
  options.exec.fault_injector = &injector;
  options.liveness_timeout = std::chrono::milliseconds(1500);

  ProcessExecutor executor(db_.get());
  ProcessExecStats proc;
  auto run = executor.Execute(*plan_, options, nullptr, nullptr, &proc);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->exec.result, golden_);
  EXPECT_GE(proc.retries, 1u);
  EXPECT_GE(proc.hung_workers_killed, 1u);
  bool saw_hung = false;
  for (const WorkerFailureRecord& failure : proc.failures) {
    if (failure.failure == WorkerFailureClass::kHung) saw_hung = true;
  }
  EXPECT_TRUE(saw_hung) << "no kHung record in the failure log";
  EXPECT_GT(proc.pings_sent, 0u);
}

TEST_F(ProcessChaosTest, RetryBudgetExhaustedYieldsUnavailable) {
  // The fault persists across attempts (every fleet loses a worker), so
  // the budget runs out and the typed failure surfaces — with the attempt
  // history in the stats.
  ProcessExecOptions options = ChaosOptions();
  options.max_retries = 1;
  uint32_t spawn_count = 0;
  options.worker_observer = [&spawn_count](uint32_t, pid_t pid) {
    if (spawn_count++ % kWorkers == 1) kill(pid, SIGKILL);  // every fleet
  };

  ProcessExecutor executor(db_.get());
  ProcessExecStats proc;
  auto run = executor.Execute(*plan_, options, nullptr, nullptr, &proc);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable) << run.status();
  EXPECT_EQ(proc.attempts, 2u);
  EXPECT_EQ(proc.retries, 1u);
  EXPECT_GE(proc.failures.size(), 2u);
}

TEST_F(ProcessChaosTest, DegradesToThreadBackendWhenBudgetExhausted) {
  // Same persistent fault, but with graceful degradation opted in: the
  // query still completes, on threads, with the exact reference result.
  ProcessExecOptions options = ChaosOptions();
  options.max_retries = 1;
  options.degrade_to_thread = true;
  uint32_t spawn_count = 0;
  options.worker_observer = [&spawn_count](uint32_t, pid_t pid) {
    if (spawn_count++ % kWorkers == 1) kill(pid, SIGKILL);
  };

  ProcessExecutor executor(db_.get());
  ProcessExecStats proc;
  auto run = executor.Execute(*plan_, options, nullptr, nullptr, &proc);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(proc.degraded_to_thread);
  EXPECT_TRUE(run->proc.degraded_to_thread);
  EXPECT_EQ(run->exec.result, golden_);
  EXPECT_EQ(run->net.num_workers, 0u) << "degraded run reported net workers";
}

TEST_F(ProcessChaosTest, KillNineMidRingTrafficRecovers) {
  // SIGKILL a worker while the shm rings are carrying live traffic:
  // batch_size 1 on 4 KiB rings keeps every worker mid-record most of the
  // run, so the victim likely dies between TryReserve and Commit — the
  // half-written slot must stay invisible (unpublished tail), the workers
  // are reaped, and the respawned ones get the arena's rings freshly
  // reformatted. The retry must be checksum-identical.
  ProcessExecOptions options = ChaosOptions();
  options.shm_ring_bytes = 4096;
  options.exec.batch_size = 1;

  std::thread killer;
  uint32_t spawn_count = 0;
  options.worker_observer = [&killer, &spawn_count](uint32_t, pid_t pid) {
    if (spawn_count++ == 1) {  // first fleet only: the retry must run clean
      killer = std::thread([pid] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        kill(pid, SIGKILL);
      });
    }
  };

  ProcessExecutor executor(db_.get());
  ProcessExecStats proc;
  ProcessNetStats net;
  auto run = executor.Execute(*plan_, options, nullptr, &net, &proc);
  killer.join();
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->exec.result, golden_);
  EXPECT_GT(net.shm_rings, 0u) << "recovered attempt did not map rings";
  // The kill may race query completion; when it did land, the failure is a
  // diagnosed crash and the retry delivered the result above.
  for (const WorkerFailureRecord& failure : proc.failures) {
    EXPECT_EQ(failure.failure, WorkerFailureClass::kCrashed);
  }
}

TEST_F(ProcessChaosTest, HungConsumerWithFullRingsTripsWatchdog) {
  // A consumer wedged inside an operator callback stops draining its
  // inbound rings; on 4 KiB rings its producers fill them, park records in
  // backlogs, and stop pumping. Nothing on the socket is wrong, so only
  // the liveness watchdog can break the stall: it must SIGKILL the hung
  // worker (not wait for the deadline), classify it kHung, and the retry
  // runs clean.
  FaultScenario scenario;
  scenario.kind = FaultKind::kHangWorker;
  scenario.node = 0;
  scenario.on_attempt = 0;
  FaultInjector injector(scenario);

  ProcessExecOptions options = ChaosOptions();
  options.shm_ring_bytes = 4096;
  options.exec.batch_size = 1;
  options.exec.fault_injector = &injector;
  options.liveness_timeout = std::chrono::milliseconds(1500);

  ProcessExecutor executor(db_.get());
  ProcessExecStats proc;
  auto run = executor.Execute(*plan_, options, nullptr, nullptr, &proc);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->exec.result, golden_);
  EXPECT_GE(proc.hung_workers_killed, 1u);
  bool saw_hung = false;
  for (const WorkerFailureRecord& failure : proc.failures) {
    if (failure.failure == WorkerFailureClass::kHung) saw_hung = true;
  }
  EXPECT_TRUE(saw_hung) << "no kHung record in the failure log";
}

// A SIGUSR1 storm against the coordinator thread: every poll(), waitpid()
// and recv() in the hot path gets peppered with EINTR, and none of it may
// surface as a failure or change the result.
TEST_F(ProcessChaosTest, SignalStormDoesNotDisturbExecution) {
  struct sigaction action = {};
  action.sa_handler = +[](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART: force EINTR paths
  struct sigaction previous = {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  std::atomic<bool> stop{false};
  pthread_t coordinator_thread = pthread_self();
  std::thread storm([&stop, coordinator_thread] {
    while (!stop.load(std::memory_order_relaxed)) {
      pthread_kill(coordinator_thread, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  ProcessExecOptions options = ChaosOptions();
  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);

  stop.store(true, std::memory_order_relaxed);
  storm.join();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);

  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->exec.result, golden_);
}

}  // namespace
}  // namespace mjoin
