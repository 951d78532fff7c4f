#include <dirent.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/fault_injector.h"
#include "engine/process_executor.h"
#include "engine/process_protocol.h"
#include "engine/process_worker.h"
#include "net/channel.h"
#include "net/shm_ring.h"
#include "plan/wisconsin_query.h"
#include "skew/defense.h"
#include "strategy/strategy.h"
#include "xra/text.h"

namespace mjoin {
namespace {

// Failure-model tests for the process backend: a dead worker must surface
// as a clean kUnavailable with the fleet fully reaped (no zombies) and
// every socket closed (no fd leak), and the coordinator-enforced aborts
// (budget, cancellation, deadline, injected faults) must return the same
// status codes as the thread backend.

class ProcessBackendFaultTest : public testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(
        MakeWisconsinDatabase(/*relations=*/5, /*cardinality=*/400,
                              /*seed=*/7));
    auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 5, 400);
    ASSERT_TRUE(query.ok());
    auto plan = MakeStrategy(StrategyKind::kFP)
                    ->Parallelize(*query, /*processors=*/8, TotalCostModel());
    ASSERT_TRUE(plan.ok()) << plan.status();
    plan_ = std::make_unique<ParallelPlan>(*std::move(plan));
  }

  static size_t CountOpenFds() {
    size_t count = 0;
    DIR* dir = opendir("/proc/self/fd");
    if (dir == nullptr) return 0;
    while (readdir(dir) != nullptr) ++count;
    closedir(dir);
    return count;
  }

  // True while `pid` exists at all — including as an unreaped zombie, which
  // kill(pid, 0) still reaches. ESRCH therefore means "fully reaped".
  static bool ProcessExists(pid_t pid) {
    return kill(pid, 0) == 0 || errno != ESRCH;
  }

  // What a worker run against a scripted coordinator reported.
  struct WorkerOutcome {
    Status reported;
    int exit_code = -1;
  };

  // Runs a worker on its own thread: ships `env`, sends `after_hello`
  // once the worker said kHello, and reads until the worker hangs up.
  WorkerOutcome RunScriptedWorker(
      ShmArena* arena, const PlanEnvelope& env,
      const std::vector<std::pair<FrameType, std::vector<std::byte>>>&
          after_hello) {
    WorkerOutcome outcome;
    int sv[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::thread worker([&outcome, fd = sv[1], arena, db = db_.get()] {
      outcome.exit_code = RunProcessWorker(fd, arena, db);
    });
    EXPECT_TRUE(SetNonBlocking(sv[0]).ok());
    FrameChannel chan(sv[0], "worker", LinkRole::kCoordinator);
    chan.QueueMsg(FrameType::kPlan, env);
    bool closed = false;
    while (!closed && chan.Flush().ok()) {
      auto readable = WaitReadable(sv[0], 10'000);
      if (!readable.ok() || !*readable) {
        ADD_FAILURE() << "worker went silent";
        break;
      }
      if (!chan.ReadAvailable(&closed).ok()) break;
      Frame frame;
      while (chan.NextFrame(&frame)) {
        if (frame.type == FrameType::kHello) {
          for (const auto& [type, payload] : after_hello) {
            chan.QueueFrame(type, payload);
          }
        }
        if (frame.type != FrameType::kError) continue;
        WireReader reader(frame.payload);
        ErrorMsg error;
        EXPECT_TRUE(DecodeMsg(&reader, &error).ok());
        outcome.reported = Status(error.code, error.message);
      }
    }
    chan.Close();
    worker.join();
    return outcome;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<ParallelPlan> plan_;
};

TEST_F(ProcessBackendFaultTest, KilledWorkerYieldsUnavailableNoZombiesNoFds) {
  const size_t fds_before = CountOpenFds();

  std::vector<pid_t> pids;
  ProcessExecOptions options;
  options.num_workers = 4;
  options.worker_observer = [&pids](uint32_t worker, pid_t pid) {
    pids.push_back(pid);
    // Kill the last worker the moment it exists: the coordinator finds the
    // corpse during the handshake and must abort the whole run.
    if (worker == 3) kill(pid, SIGKILL);
  };

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable)
      << run.status();
  EXPECT_NE(run.status().message().find("killed by signal"),
            std::string::npos)
      << run.status();

  ASSERT_EQ(pids.size(), 4u);
  for (pid_t pid : pids) {
    EXPECT_FALSE(ProcessExists(pid)) << "worker pid " << pid
                                     << " survived or was left a zombie";
  }
  // Also via wait(): no reapable children may remain anywhere.
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  EXPECT_EQ(CountOpenFds(), fds_before) << "leaked descriptors";
}

TEST_F(ProcessBackendFaultTest, KilledWorkerMidQueryYieldsUnavailable) {
  // Stretch the run far past the kill delay: every message on every worker
  // sleeps 20ms, and batch_size 1 multiplies the message count, so the
  // query takes many seconds unless aborted.
  FaultScenario scenario;
  scenario.kind = FaultKind::kSlowWorker;
  scenario.node = 0;
  scenario.delay = std::chrono::microseconds(20000);
  FaultInjector injector(scenario);

  std::vector<pid_t> pids;
  ProcessExecOptions options;
  options.num_workers = 4;
  options.exec.batch_size = 1;
  options.exec.fault_injector = &injector;

  std::thread killer;
  options.worker_observer = [&pids, &killer](uint32_t worker, pid_t pid) {
    pids.push_back(pid);
    if (worker == 3) {
      killer = std::thread([pid] {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        kill(pid, SIGKILL);
      });
    }
  };

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  killer.join();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable)
      << run.status();
  for (pid_t pid : pids) EXPECT_FALSE(ProcessExists(pid));
}

TEST_F(ProcessBackendFaultTest, PartialStatsSurviveAnAbort) {
  std::vector<pid_t> pids;
  ProcessExecOptions options;
  options.num_workers = 2;
  options.worker_observer = [&pids](uint32_t worker, pid_t pid) {
    pids.push_back(pid);
    if (worker == 1) kill(pid, SIGKILL);
  };

  QueryStats stats;
  ProcessNetStats net;
  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options, &stats, &net);
  ASSERT_FALSE(run.ok());
  // The coordinator's own socket counters survive even though the run
  // died: the plan envelope at least went out to worker 0.
  EXPECT_EQ(net.num_workers, 2u);
  EXPECT_GT(net.bytes_sent, 0u);
  EXPECT_GT(net.frames_sent, 0u);
}

TEST_F(ProcessBackendFaultTest, TinyMemoryBudgetAbortsResourceExhausted) {
  ProcessExecOptions options;
  options.num_workers = 2;
  options.exec.memory_budget_bytes = 1;  // no hash table fits

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted)
      << run.status();
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST_F(ProcessBackendFaultTest, PreCancelledTokenAbortsCancelled) {
  ProcessExecOptions options;
  options.num_workers = 2;
  options.exec.cancellation.Cancel();

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled) << run.status();
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST_F(ProcessBackendFaultTest, DeadlineAbortsDeadlineExceeded) {
  // Slow every worker message down so the 30ms deadline cannot be met.
  FaultScenario scenario;
  scenario.kind = FaultKind::kSlowWorker;
  scenario.node = 0;
  scenario.delay = std::chrono::microseconds(20000);
  FaultInjector injector(scenario);

  ProcessExecOptions options;
  options.num_workers = 2;
  options.exec.batch_size = 1;
  options.exec.fault_injector = &injector;
  options.exec.deadline = std::chrono::milliseconds(30);

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded)
      << run.status();
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST_F(ProcessBackendFaultTest, InjectedOperatorFailureAbortsInternal) {
  // op=-1: the first Consume() anywhere in the fleet fails, as a crashed
  // operation process would; the scenario rides the handshake so the hook
  // fires worker-side.
  FaultScenario scenario;
  scenario.kind = FaultKind::kFailOperator;
  scenario.op = -1;
  scenario.after_batches = 0;
  FaultInjector injector(scenario);

  ProcessExecOptions options;
  options.num_workers = 3;
  options.exec.fault_injector = &injector;

  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal) << run.status();
  EXPECT_NE(run.status().message().find("injected fault"),
            std::string::npos)
      << run.status();
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST_F(ProcessBackendFaultTest, ShmPlaneTimersRunWithMetricsOff) {
  // Regression: serialize/deserialize_seconds came back 0.0 whenever
  // collect_metrics was off (the timers were gated on the observe flag),
  // which is exactly how benchmarks run. Shipped bytes must imply nonzero
  // copy time regardless of the observability knobs; on the rings the
  // "codec" is the record memcpy.
  ProcessExecOptions options;
  options.num_workers = 3;
  options.exec.collect_metrics = false;
  options.exec.materialize_result = false;

  ProcessNetStats net;
  ProcessExecutor executor(db_.get());
  auto run = executor.Execute(*plan_, options, nullptr, &net);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(net.shm_rings, 0u);
  ASSERT_GT(net.shm_bytes_sent, 0u);
  EXPECT_GT(net.serialize_seconds, 0.0);
  EXPECT_GT(net.deserialize_seconds, 0.0);
}

TEST_F(ProcessBackendFaultTest, RepeatedRunsLeakNoDescriptors) {
  const size_t fds_before = CountOpenFds();
  ProcessExecutor executor(db_.get());
  for (int i = 0; i < 3; ++i) {
    ProcessExecOptions options;
    options.num_workers = 3;
    auto run = executor.Execute(*plan_, options);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_GT(run->exec.result.cardinality, 0u);
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// Ring input names an instance's input port, which indexes its per-port
// state: an EOS for a port the target does not have (here any port of a
// scan, which has none) is rejected as InvalidArgument and reported over
// kError, instead of tripping the worker's EOS-count check. The test plays
// the rest of a two-worker fleet: it formats the rings over an arena,
// publishes the bad record on a ring between the two workers, and ships
// the plan to the receiving one. The worker runs on a thread; it is
// single-threaded, like the forked child, and attaches to the same arena
// and database.
TEST_F(ProcessBackendFaultTest, WorkerRejectsEosForMissingPort) {
  constexpr uint32_t kWorkers = 2;
  constexpr uint32_t kRingBytes = 4096;
  constexpr uint32_t kEndpoints = kWorkers + 1;  // workers + coordinator
  std::vector<ShmRingSpec> directory = ComputeRingDirectory(*plan_, kWorkers);
  // A worker-to-worker ring whose receiver hosts a scan instance.
  const ShmRingSpec* edge = nullptr;
  int scan = -1;
  uint32_t instance = 0;
  for (const ShmRingSpec& spec : directory) {
    if (spec.from >= kWorkers || spec.to >= kWorkers) continue;
    for (const XraOp& o : plan_->ops) {
      if (o.kind != XraOpKind::kScan) continue;
      for (uint32_t i = 0; i < o.processors.size(); ++i) {
        if (WorkerOfProcessor(o.processors[i], kWorkers,
                              plan_->num_processors) == spec.to) {
          edge = &spec;
          scan = o.id;
          instance = i;
        }
      }
    }
  }
  ASSERT_NE(edge, nullptr) << "no ring toward a worker hosting a scan";
  auto arena = ShmArena::Create(
      kEndpoints, (sizeof(ShmRingHdr) + kRingBytes) * directory.size());
  ASSERT_TRUE(arena.ok()) << arena.status();
  auto plane = ShmDataPlane::CreateInArena(arena->get(), directory,
                                           kEndpoints, kRingBytes,
                                           /*format=*/true);
  ASSERT_TRUE(plane.ok()) << plane.status();
  ShmRing* ring = (*plane)->RingTo(edge->from, edge->to);
  ASSERT_NE(ring, nullptr);
  ShmEosHeader eos;
  eos.consumer_op = scan;
  eos.dest_index = instance;
  eos.port = 0;
  ASSERT_TRUE(
      ring->TryPush(ShmRecordType::kEos, &eos, sizeof(eos), nullptr, 0));
  (*plane)->RingDoorbell(edge->to);

  PlanEnvelope env;
  env.worker_id = edge->to;
  env.num_workers = kWorkers;
  env.shm_ring_bytes = kRingBytes;
  env.plan_text = SerializePlan(*plan_);
  WorkerOutcome outcome = RunScriptedWorker(arena->get(), env, {});
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_EQ(outcome.reported.code(), StatusCode::kInvalidArgument)
      << outcome.reported;
  EXPECT_NE(outcome.reported.message().find("port 0"), std::string::npos)
      << outcome.reported;
}

// A skew directive whose rows are not the defended join's build width is
// rejected before its rows reach the build table.
TEST_F(ProcessBackendFaultTest, WorkerRejectsSkewDirectiveOfWrongWidth) {
  constexpr uint32_t kRingBytes = 4096;
  auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear, 5, 400);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, /*processors=*/4, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_FALSE(DefendedJoinOps(*plan).empty());
  const XraOp& join = plan->ops[static_cast<size_t>(DefendedJoinOps(*plan)[0])];
  const auto width =
      static_cast<uint32_t>(join.join_spec.left_schema->tuple_size());

  std::vector<ShmRingSpec> directory = ComputeRingDirectory(*plan, 1);
  auto arena = ShmArena::Create(
      /*endpoints=*/2, (sizeof(ShmRingHdr) + kRingBytes) * directory.size());
  ASSERT_TRUE(arena.ok()) << arena.status();
  auto plane = ShmDataPlane::CreateInArena(arena->get(), directory,
                                           /*endpoints=*/2, kRingBytes,
                                           /*format=*/true);
  ASSERT_TRUE(plane.ok()) << plane.status();

  PlanEnvelope env;
  env.worker_id = 0;
  env.num_workers = 1;
  env.shm_ring_bytes = kRingBytes;
  env.plan_text = SerializePlan(*plan);
  env.skew_defense.mode = SkewDefenseMode::kOn;
  SkewDirective directive;
  directive.op = join.id;
  directive.repartition = true;
  directive.hot_keys = {1};
  directive.tuple_size = width + 8;
  directive.hot_rows.assign(width + 8, std::byte{0});
  std::vector<std::byte> payload;
  EncodeMsg(directive, &payload);
  WorkerOutcome outcome = RunScriptedWorker(
      arena->get(), env, {{FrameType::kSkewDirective, payload}});
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_EQ(outcome.reported.code(), StatusCode::kInvalidArgument)
      << outcome.reported;
  EXPECT_NE(outcome.reported.message().find("byte rows"), std::string::npos)
      << outcome.reported;
}

// A right-linear SP plan with a defended join, on which the skew defense
// runs when switched on.
ParallelPlan DefendedPlan() {
  auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear, 5, 400);
  EXPECT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, /*processors=*/4, TotalCostModel());
  EXPECT_TRUE(plan.ok()) << plan.status();
  EXPECT_FALSE(DefendedJoinOps(*plan).empty());
  return *std::move(plan);
}

// Skew-defense options the defense cannot run on are a bad request, on
// either backend, before any filter or sketch is built: no Bloom bits, no
// sketch slots, or a filter too large for one frame.
TEST_F(ProcessBackendFaultTest, BadSkewDefenseOptionsAreInvalidArgument) {
  const ParallelPlan plan = DefendedPlan();
  struct BadOptions {
    const char* field;
    uint32_t bloom_bits;
    uint32_t sketch_capacity;
  };
  for (const BadOptions& bad :
       {BadOptions{"bloom_bits", 0, 64},
        BadOptions{"sketch_capacity", 1u << 10, 0},
        BadOptions{"bloom_bits", (1u << 31) + 1, 64}}) {
    ThreadExecOptions exec;
    exec.skew_defense.mode = SkewDefenseMode::kOn;
    exec.skew_defense.bloom_bits = bad.bloom_bits;
    exec.skew_defense.sketch_capacity = bad.sketch_capacity;
    auto thread = ThreadExecutor(db_.get()).Execute(plan, exec);
    EXPECT_EQ(thread.status().code(), StatusCode::kInvalidArgument)
        << bad.field << ": " << thread.status();
    EXPECT_NE(thread.status().message().find(bad.field), std::string::npos)
        << thread.status();

    ProcessExecOptions options;
    options.exec = exec;
    auto process = ProcessExecutor(db_.get()).Execute(plan, options);
    EXPECT_EQ(process.status().code(), StatusCode::kInvalidArgument)
        << bad.field << ": " << process.status();
    EXPECT_NE(process.status().message().find(bad.field), std::string::npos)
        << process.status();
  }
}

// A plan envelope whose skew options cannot run gets a typed kError from
// the worker, not a crash once its first defended build completes.
TEST_F(ProcessBackendFaultTest, WorkerRejectsEnvelopeWithNoBloomBits) {
  constexpr uint32_t kRingBytes = 4096;
  const ParallelPlan plan = DefendedPlan();
  std::vector<ShmRingSpec> directory = ComputeRingDirectory(plan, 1);
  auto arena = ShmArena::Create(
      /*endpoints=*/2, (sizeof(ShmRingHdr) + kRingBytes) * directory.size());
  ASSERT_TRUE(arena.ok()) << arena.status();
  auto plane = ShmDataPlane::CreateInArena(arena->get(), directory,
                                           /*endpoints=*/2, kRingBytes,
                                           /*format=*/true);
  ASSERT_TRUE(plane.ok()) << plane.status();

  PlanEnvelope env;
  env.worker_id = 0;
  env.num_workers = 1;
  env.shm_ring_bytes = kRingBytes;
  env.plan_text = SerializePlan(plan);
  env.skew_defense.mode = SkewDefenseMode::kOn;
  env.skew_defense.bloom_bits = 0;
  // Every group triggered at once, so a worker that took the envelope
  // would run the defended build.
  std::vector<std::pair<FrameType, std::vector<std::byte>>> triggers;
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    std::vector<std::byte> payload;
    EncodeMsg(TriggerMsg{static_cast<int32_t>(g)}, &payload);
    triggers.emplace_back(FrameType::kTrigger, std::move(payload));
  }
  WorkerOutcome outcome = RunScriptedWorker(arena->get(), env, triggers);
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_EQ(outcome.reported.code(), StatusCode::kInvalidArgument)
      << outcome.reported;
  EXPECT_NE(outcome.reported.message().find("bloom_bits"), std::string::npos)
      << outcome.reported;
}

}  // namespace
}  // namespace mjoin
