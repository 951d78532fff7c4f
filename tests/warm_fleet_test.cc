#include <dirent.h>
#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "engine/database.h"
#include "engine/reference.h"
#include "engine/thread_executor.h"
#include "engine/warm_fleet.h"
#include "net/net_fault.h"
#include "plan/shapes.h"
#include "plan/wisconsin_query.h"
#include "storage/wisconsin.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

// Repeated-run invariants on warm executors: a query served 100 times by
// one long-lived executor must behave like 100 one-shot runs — identical
// results, identical per-run stats (no counter leaking across reuses), no
// net descriptor growth, no silent fleet respawn. Plus the directed
// recovery cases a long-lived fleet flushes out: kill -9 between queries,
// a failed attempt's workers reaped at once, a link lost at each worker's
// last frame of the query (on one-shot queries too), pings that cross a
// worker's report, a net fault injector that must not outlive its query,
// and two fleets reaping strictly their own children; and a database that
// changes under a live fleet. Plus the limits of a fleet
// whose rings are fixed at spawn: an invalid ring size, rows too wide for
// the rings, and the retired socket data plane.

size_t CountOpenFds() {
  size_t n = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n;
}

struct Fixture {
  Database db;
  JoinQuery query;
  ParallelPlan plan;
  ResultSummary reference;

  static Fixture Make(QueryShape shape, int relations, uint32_t card,
                      uint32_t procs, StrategyKind strategy) {
    Fixture f{MakeWisconsinDatabase(relations, card, /*seed=*/7), {}, {}, {}};
    auto query = MakeWisconsinChainQuery(shape, relations, card);
    EXPECT_TRUE(query.ok());
    f.query = *std::move(query);
    auto plan =
        MakeStrategy(strategy)->Parallelize(f.query, procs, TotalCostModel());
    EXPECT_TRUE(plan.ok()) << plan.status();
    f.plan = *std::move(plan);
    auto ref = ReferenceSummary(f.query, f.db);
    EXPECT_TRUE(ref.ok());
    f.reference = *ref;
    return f;
  }
};

TEST(WarmFleetTest, RepeatedQueryStableStatsAndNoFdGrowth) {
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                            /*card=*/400, /*procs=*/6, StrategyKind::kFP);
  auto fleet = WarmProcessFleet::Spawn(&f.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  std::vector<pid_t> pids;
  for (uint32_t w = 0; w < (*fleet)->num_workers(); ++w) {
    pids.push_back((*fleet)->worker_pid(w));
  }

  // First run warms the pools and the arena mapping.
  QueryStats first;
  auto warmup = (*fleet)->Execute(f.plan, ProcessExecOptions{}, &first);
  ASSERT_TRUE(warmup.ok()) << warmup.status();
  EXPECT_EQ(warmup->exec.result.cardinality, f.reference.cardinality);
  const size_t fds_warm = CountOpenFds();

  for (int run = 0; run < 100; ++run) {
    QueryStats stats;
    ProcessNetStats net;
    auto result = (*fleet)->Execute(f.plan, ProcessExecOptions{}, &stats, &net);
    ASSERT_TRUE(result.ok()) << "run " << run << ": " << result.status();
    // Identical result every time.
    EXPECT_EQ(result->exec.result.cardinality, f.reference.cardinality);
    EXPECT_EQ(result->exec.result.checksum, f.reference.checksum);
    // Identical per-run counters: a counter that grows run over run is
    // state leaking across executor reuse.
    EXPECT_EQ(stats.batches_sent, first.batches_sent) << "run " << run;
    EXPECT_EQ(stats.batches_processed, first.batches_processed)
        << "run " << run;
    EXPECT_EQ(result->proc.attempts, 1u) << "run " << run;
    // Per-run wire counters, not fleet-lifetime cumulative ones.
    EXPECT_GT(net.frames_sent, 0u);
    EXPECT_LT(net.frames_sent, 10000u) << "cumulative leak across reuse";
  }

  // The fleet never respawned and no descriptor leaked.
  EXPECT_EQ((*fleet)->respawns(), 0u);
  EXPECT_EQ(CountOpenFds(), fds_warm) << "descriptor growth across 100 runs";
  for (uint32_t w = 0; w < (*fleet)->num_workers(); ++w) {
    EXPECT_EQ((*fleet)->worker_pid(w), pids[w]) << "worker " << w;
  }
}

TEST(WarmFleetTest, RepeatedQueryStableMetricsDeltaOnThreadExecutor) {
  Fixture f = Fixture::Make(QueryShape::kWideBushy, /*relations=*/4,
                            /*card=*/300, /*procs=*/6, StrategyKind::kFP);
  ThreadExecutor exec(&f.db);
  MetricsRegistry registry;
  ThreadExecOptions options;
  options.metrics_registry = &registry;

  MetricsSnapshot prev_delta_base = registry.Snapshot();
  MetricsSnapshot first_delta;
  for (int run = 0; run < 100; ++run) {
    auto result = exec.Execute(f.plan, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->result.checksum, f.reference.checksum);
    const MetricsSnapshot now = registry.Snapshot();
    const MetricsSnapshot delta = MetricsDelta(prev_delta_base, now);
    prev_delta_base = now;
    // The per-query delta is the same every run even though the registry's
    // cumulative counters keep growing: that is what makes one registry
    // reusable across queries on a warm executor.
    if (run == 0) {
      first_delta = delta;
      EXPECT_GT(delta.counters.at("thread.batches_sent"), 0u);
    } else {
      EXPECT_EQ(delta.counters.at("thread.batches_sent"),
                first_delta.counters.at("thread.batches_sent"))
          << "run " << run;
      EXPECT_EQ(delta.counters.at("thread.batches_processed"),
                first_delta.counters.at("thread.batches_processed"))
          << "run " << run;
    }
  }
}

TEST(WarmFleetTest, SurplusWorkersServeNarrowPlans) {
  // A fixed-size fleet must serve plans narrower than itself: the surplus
  // workers idle through the query but still handshake and park again.
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/3,
                            /*card=*/200, /*procs=*/2, StrategyKind::kSP);
  WarmFleetOptions options;
  options.num_workers = 6;
  auto fleet = WarmProcessFleet::Spawn(&f.db, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  for (int run = 0; run < 3; ++run) {
    auto result = (*fleet)->Execute(f.plan, ProcessExecOptions{});
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->exec.result.checksum, f.reference.checksum);
  }

  // A surplus worker still in its handshake when the query completes: the
  // hosting workers finish while worker 5 is stopped, and its kFinish must
  // wait for its kHello (conformance rejects it earlier in the link).
  ProcessExecOptions late;
  std::thread resume;
  late.worker_observer = [&resume](uint32_t worker, pid_t pid) {
    if (worker != 5) return;
    kill(pid, SIGSTOP);
    resume = std::thread([pid] {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      kill(pid, SIGCONT);
    });
  };
  auto result = (*fleet)->Execute(f.plan, late);
  resume.join();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->exec.result.checksum, f.reference.checksum);
  EXPECT_EQ((*fleet)->respawns(), 0u);
}

TEST(WarmFleetTest, KillNineBetweenQueriesRespawnsAndSucceeds) {
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                            /*card=*/300, /*procs=*/4, StrategyKind::kFP);
  auto fleet = WarmProcessFleet::Spawn(&f.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  ProcessExecOptions options;
  options.max_retries = 1;
  auto before = (*fleet)->Execute(f.plan, options);
  ASSERT_TRUE(before.ok()) << before.status();

  // Chaos: kill -9 a parked warm worker between queries. The next query
  // must notice the dead member, respawn the fleet, and succeed.
  std::mt19937 rng(1995);
  uint64_t kills = 0;
  for (int round = 0; round < 6; ++round) {
    if (round % 2 == 0) {
      const uint32_t victim = rng() % (*fleet)->num_workers();
      ASSERT_EQ(kill((*fleet)->worker_pid(victim), SIGKILL), 0);
      ++kills;
    }
    auto result = (*fleet)->Execute(f.plan, options);
    ASSERT_TRUE(result.ok()) << "round " << round << ": " << result.status();
    EXPECT_EQ(result->exec.result.checksum, f.reference.checksum);
  }
  EXPECT_GE((*fleet)->respawns(), kills) << "dead workers went unnoticed";
}

// Workers scan the database they inherited at fork. Once the database
// changes — a relation added, or the whole database move-assigned — the
// next query respawns the fleet exactly once, so no worker reads a stale
// copy; queries after it run on the new members without respawning.
TEST(WarmFleetTest, StaleDatabaseRespawnsOnce) {
  constexpr uint32_t kCard = 300;
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/3, kCard,
                            /*procs=*/4, StrategyKind::kFP);
  WarmFleetOptions options;
  options.num_workers = 3;
  auto fleet = WarmProcessFleet::Spawn(&f.db, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto before = (*fleet)->Execute(f.plan, ProcessExecOptions{});
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(before->exec.result.checksum, f.reference.checksum);
  EXPECT_EQ((*fleet)->respawns(), 0u);

  // A relation the workers never saw, and a plan that scans it.
  ASSERT_TRUE(
      f.db.Add("rel3", GenerateWisconsin(kCard, /*seed=*/1234)).ok());
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 4, kCard);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, /*processors=*/4, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();
  auto reference = ReferenceSummary(*query, f.db);
  ASSERT_TRUE(reference.ok());
  for (uint64_t run = 0; run < 2; ++run) {
    auto result = (*fleet)->Execute(*plan, ProcessExecOptions{});
    ASSERT_TRUE(result.ok()) << "run " << run << ": " << result.status();
    EXPECT_EQ(result->exec.result.cardinality, reference->cardinality);
    EXPECT_EQ(result->exec.result.checksum, reference->checksum);
    EXPECT_EQ(result->proc.attempts, 1u);
    EXPECT_EQ((*fleet)->respawns(), 1u) << "run " << run;
  }

  // Move-assignment replaces every relation under the same names.
  f.db = MakeWisconsinDatabase(/*num_relations=*/4, kCard, /*seed=*/8);
  auto moved_reference = ReferenceSummary(*query, f.db);
  ASSERT_TRUE(moved_reference.ok());
  ASSERT_NE(moved_reference->checksum, reference->checksum);
  for (uint64_t run = 0; run < 2; ++run) {
    auto result = (*fleet)->Execute(*plan, ProcessExecOptions{});
    ASSERT_TRUE(result.ok()) << "run " << run << ": " << result.status();
    EXPECT_EQ(result->exec.result.checksum, moved_reference->checksum);
    EXPECT_EQ((*fleet)->respawns(), 2u) << "run " << run;
  }
}

TEST(WarmFleetTest, FailedAttemptLeavesNoWorkerBehind) {
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                            /*card=*/300, /*procs=*/4, StrategyKind::kFP);
  auto fleet = WarmProcessFleet::Spawn(&f.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  // The only attempt loses worker 1, so the query degrades to threads. The
  // failed attempt's workers — the victim and its live siblings — must be
  // killed and reaped at once: neither the thread fallback nor the wait
  // for the fleet's next query may run beside them.
  ProcessExecOptions options;
  options.degrade_to_thread = true;
  std::vector<pid_t> pids;
  options.worker_observer = [&pids](uint32_t w, pid_t pid) {
    pids.push_back(pid);
    if (w == 1) kill(pid, SIGKILL);
  };
  ProcessExecStats proc;
  auto degraded = (*fleet)->Execute(f.plan, options, nullptr, nullptr, &proc);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(proc.degraded_to_thread);
  EXPECT_EQ(degraded->exec.result.checksum, f.reference.checksum);
  ASSERT_EQ(pids.size(), (*fleet)->num_workers());
  for (pid_t pid : pids) {
    errno = 0;
    EXPECT_EQ(waitpid(pid, nullptr, WNOHANG), -1) << "pid " << pid;
    EXPECT_EQ(errno, ECHILD) << "pid " << pid << " outlived its attempt";
  }

  // The emptied fleet respawns for its next query.
  options.worker_observer = nullptr;
  auto next = (*fleet)->Execute(f.plan, options, nullptr, nullptr, &proc);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_FALSE(proc.degraded_to_thread);
  EXPECT_EQ(next->exec.result.checksum, f.reference.checksum);
  EXPECT_EQ((*fleet)->respawns(), 1u);
}

// Both entry points end every query the same way: kFinish to each worker,
// whose kReport parks it. A warm fleet keeps its parked members, a one-shot
// query's fleet shuts them down right after. These cases run against both.
enum class EntryPoint { kOneShot, kWarm };

class EndOfQueryTest : public ::testing::TestWithParam<EntryPoint> {
 protected:
  void SetUp() override {
    f_ = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                       /*card=*/300, /*procs=*/4, StrategyKind::kFP);
    if (GetParam() == EntryPoint::kWarm) {
      auto spawned = WarmProcessFleet::Spawn(&f_.db, WarmFleetOptions{});
      ASSERT_TRUE(spawned.ok()) << spawned.status();
      fleet_ = *std::move(spawned);
    }
    one_shot_ = std::make_unique<ProcessExecutor>(&f_.db);
    // Heartbeats off: no ping varies a link's frame count.
    options_.heartbeat_interval = std::chrono::milliseconds(0);
  }

  StatusOr<ProcessQueryResult> Execute(ProcessNetStats* net = nullptr,
                                       ProcessExecStats* proc = nullptr) {
    return fleet_ != nullptr
               ? fleet_->Execute(f_.plan, options_, nullptr, net, proc)
               : one_shot_->Execute(f_.plan, options_, nullptr, net, proc);
  }

  Fixture f_;
  std::unique_ptr<WarmProcessFleet> fleet_;
  std::unique_ptr<ProcessExecutor> one_shot_;
  ProcessExecOptions options_;
};

TEST_P(EndOfQueryTest, CoordinatorSendsGroupsPlusTwoFramesPerWorker) {
  // Each worker gets its kPlan, one kTrigger per group and its kFinish;
  // its kReport ends the query, so no further frame goes out. A warm
  // fleet's second query costs the same as its first.
  const uint64_t workers = f_.plan.num_processors;  // 4 either way
  for (int run = 0; run < 2; ++run) {
    ProcessNetStats net;
    auto result = Execute(&net);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->exec.result.checksum, f_.reference.checksum);
    EXPECT_EQ(net.frames_sent, workers * (f_.plan.groups.size() + 2))
        << "run " << run;
  }
}

TEST_P(EndOfQueryTest, LinkDroppedAtEachWorkersFinishRetriesClean) {
  // A worker's kFinish is the last frame its link carries in a query. A
  // link dropped there loses the worker before it reported: the attempt
  // fails kUnavailable at once, and the retry returns the reference result
  // on a fresh fleet.
  options_.max_retries = 1;
  const uint32_t workers = f_.plan.num_processors;
  ASSERT_TRUE(Execute().ok());
  const size_t fds_before = CountOpenFds();
  for (uint32_t w = 0; w < workers; ++w) {
    NetFaultScenario drop;
    drop.kind = NetFaultKind::kDropConnection;
    drop.worker = w;
    drop.after_frames = f_.plan.groups.size() + 1;  // kPlan, the triggers
    NetFaultInjector injector(drop);
    options_.net_fault_injector = &injector;
    ProcessExecStats proc;
    // lint:allow-clock test timing
    const auto start = std::chrono::steady_clock::now();
    auto result = Execute(nullptr, &proc);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    options_.net_fault_injector = nullptr;
    ASSERT_TRUE(result.ok()) << "worker " << w << ": " << result.status();
    EXPECT_EQ(result->exec.result.checksum, f_.reference.checksum);
    EXPECT_EQ(injector.fires(), 1u) << "the drop never hit worker " << w;
    EXPECT_EQ(proc.attempts, 2u) << "worker " << w;
    EXPECT_LT(elapsed, std::chrono::seconds(1)) << "worker " << w;
    if (fleet_ != nullptr) {
      EXPECT_EQ(fleet_->respawns(), w + 1u) << "worker " << w;
    }
  }
  if (fleet_ == nullptr) {
    // The one-shot fleets are gone with their calls: every child reaped,
    // every descriptor closed.
    errno = 0;
    EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD) << "a worker outlived its one-shot query";
    EXPECT_EQ(CountOpenFds(), fds_before);
    return;
  }
  // The respawned fleet serves the next query without respawning again.
  auto next = Execute();
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->exec.result.checksum, f_.reference.checksum);
  EXPECT_EQ(fleet_->respawns(), workers);
}

INSTANTIATE_TEST_SUITE_P(EntryPoints, EndOfQueryTest,
                         ::testing::Values(EntryPoint::kOneShot,
                                           EntryPoint::kWarm),
                         [](const auto& info) {
                           return info.param == EntryPoint::kWarm
                                      ? "Warm"
                                      : "OneShot";
                         });

TEST(WarmFleetTest, PingsThatCrossAReportStillGetTheirPong) {
  // At a 1 ms heartbeat the coordinator pings every link while the last
  // reports are still coming in, so pings reach workers that already
  // reported and parked, some crossing the report on the wire. A parked
  // worker must answer them, not take them for a broken link and exit:
  // every query succeeds without a respawn.
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                            /*card=*/1000, /*procs=*/4, StrategyKind::kFP);
  auto fleet = WarmProcessFleet::Spawn(&f.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  ProcessExecOptions options;
  options.heartbeat_interval = std::chrono::milliseconds(1);
  uint64_t pongs = 0;
  for (int run = 0; run < 200; ++run) {
    ProcessExecStats proc;
    auto result = (*fleet)->Execute(f.plan, options, nullptr, nullptr, &proc);
    ASSERT_TRUE(result.ok()) << "run " << run << ": " << result.status();
    ASSERT_EQ(result->exec.result.checksum, f.reference.checksum);
    ASSERT_EQ(proc.attempts, 1u) << "run " << run;
    pongs += proc.pongs_received;
  }
  EXPECT_EQ((*fleet)->respawns(), 0u);
  EXPECT_GT(pongs, 0u);
}

TEST(WarmFleetTest, NetFaultInjectorDoesNotOutliveItsQuery) {
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                            /*card=*/300, /*procs=*/4, StrategyKind::kFP);
  auto fleet = WarmProcessFleet::Spawn(&f.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  ProcessExecOptions options;
  options.heartbeat_interval = std::chrono::milliseconds(0);
  ProcessNetStats net;
  auto calibrate = (*fleet)->Execute(f.plan, options, nullptr, &net);
  ASSERT_TRUE(calibrate.ok()) << calibrate.status();
  const uint64_t frames_per_worker = net.frames_sent / (*fleet)->num_workers();

  // Query 1 carries a drop armed one frame past its own traffic on worker
  // 1, so it never fires there. Query 2 carries no injector: a channel
  // that kept query 1's would count on and drop query 2's second frame.
  NetFaultScenario drop;
  drop.kind = NetFaultKind::kDropConnection;
  drop.worker = 1;
  drop.after_frames = frames_per_worker + 1;
  auto injector = std::make_unique<NetFaultInjector>(drop);
  options.net_fault_injector = injector.get();
  auto first = (*fleet)->Execute(f.plan, options);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(injector->fires(), 0u);

  options.net_fault_injector = nullptr;
  auto second = (*fleet)->Execute(f.plan, options);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->exec.result.checksum, f.reference.checksum);
  EXPECT_EQ(injector->fires(), 0u) << "query 1's injector fired in query 2";

  // The caller may destroy its injector once Execute returns: neither the
  // next query nor the fleet's teardown may touch it (ASan checks this).
  injector.reset();
  auto third = (*fleet)->Execute(f.plan, options);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ((*fleet)->respawns(), 0u);
  fleet->reset();
}

TEST(WarmFleetTest, ReportFramesDoNotGrowWithObservability) {
  // Each worker reports a query in one kReport frame, whatever it carries:
  // turning metrics and tracing on must not add a frame to the link.
  // Heartbeats off, as in the calibrations above, so no pong varies the
  // count.
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                            /*card=*/300, /*procs=*/4, StrategyKind::kFP);
  auto fleet = WarmProcessFleet::Spawn(&f.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  ProcessExecOptions options;
  options.heartbeat_interval = std::chrono::milliseconds(0);
  options.exec.collect_metrics = false;
  options.exec.record_trace = false;
  ProcessNetStats quiet;
  auto plain = (*fleet)->Execute(f.plan, options, nullptr, &quiet);
  ASSERT_TRUE(plain.ok()) << plain.status();

  options.exec.collect_metrics = true;
  options.exec.record_trace = true;
  ProcessNetStats observed;
  auto traced = (*fleet)->Execute(f.plan, options, nullptr, &observed);
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_EQ(traced->exec.result.checksum, f.reference.checksum);
  EXPECT_FALSE(traced->exec.stats.per_op.empty());
  EXPECT_NE(traced->exec.trace, nullptr);
  EXPECT_EQ(observed.frames_received, quiet.frames_received);
  EXPECT_EQ(observed.frames_sent, quiet.frames_sent);
}

TEST(WarmFleetTest, SpawnRejectsAnInvalidRingSizeBeforeForking) {
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/3,
                            /*card=*/100, /*procs=*/2, StrategyKind::kFP);
  for (uint32_t ring_bytes : {0u, 3072u, 6144u}) {
    WarmFleetOptions options;
    options.num_workers = 2;
    options.shm_ring_bytes = ring_bytes;
    auto fleet = WarmProcessFleet::Spawn(&f.db, options);
    ASSERT_FALSE(fleet.ok()) << "ring_bytes " << ring_bytes;
    EXPECT_EQ(fleet.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(fleet.status().message().find("power of two"),
              std::string::npos)
        << fleet.status();
    // Rejected before the fork: there is no child to reap.
    errno = 0;
    EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1) << "ring_bytes " << ring_bytes;
    EXPECT_EQ(errno, ECHILD) << "ring_bytes " << ring_bytes;
  }
}

// A two-relation left-linear join whose rows carry a ~3,000-byte string:
// every fragment, batch and result record is wider than the 2,032-byte
// payload a 4 KiB ring holds. The relations sit next to the Wisconsin
// ones, so one database serves a wide and a narrow plan.
struct WideFixture {
  Database db;
  ParallelPlan wide_plan;
  ResultSummary wide_reference;
  ParallelPlan narrow_plan;
  ResultSummary narrow_reference;
};

WideFixture MakeWideFixture() {
  constexpr uint32_t kCard = 64;
  WideFixture f{MakeWisconsinDatabase(/*num_relations=*/3, /*cardinality=*/200,
                                      /*seed=*/7),
                {}, {}, {}, {}};
  const Schema wide({Column::Int32("unique1"), Column::Int32("unique2"),
                     Column::FixedString("payload", 3000)});
  for (int r = 0; r < 2; ++r) {
    Relation rel(wide);
    for (uint32_t i = 0; i < kCard; ++i) {
      TupleWriter t = rel.AppendTuple();
      t.SetInt32(0, static_cast<int32_t>((i * 5 + r) % kCard));
      t.SetInt32(1, static_cast<int32_t>(i));
      t.SetString(2, "wide" + std::to_string(r) + " row " + std::to_string(i));
    }
    EXPECT_TRUE(f.db.Add("wide" + std::to_string(r), std::move(rel)).ok());
  }
  // The Wisconsin join spec only needs int columns 0 and 1; rebase the
  // chain query onto the wide relations.
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 2, kCard);
  EXPECT_TRUE(query.ok());
  auto tree = BuildShape(QueryShape::kLeftLinear, {"wide0", "wide1"}, kCard);
  EXPECT_TRUE(tree.ok());
  query->tree = *std::move(tree);
  query->base_schemas.clear();
  for (const char* name : {"wide0", "wide1"}) {
    query->base_schemas[name] = std::make_shared<const Schema>(wide);
  }
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, /*processors=*/4, TotalCostModel());
  EXPECT_TRUE(plan.ok()) << plan.status();
  f.wide_plan = *std::move(plan);
  auto ref = ReferenceSummary(*query, f.db);
  EXPECT_TRUE(ref.ok());
  f.wide_reference = *ref;

  auto narrow = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 3, 200);
  EXPECT_TRUE(narrow.ok());
  plan = MakeStrategy(StrategyKind::kFP)
             ->Parallelize(*narrow, /*processors=*/4, TotalCostModel());
  EXPECT_TRUE(plan.ok()) << plan.status();
  f.narrow_plan = *std::move(plan);
  ref = ReferenceSummary(*narrow, f.db);
  EXPECT_TRUE(ref.ok());
  f.narrow_reference = *ref;
  return f;
}

TEST(WarmFleetTest, RowsWiderThanARingRecord) {
  WideFixture f = MakeWideFixture();

  // One-shot: the attempt grows its rings until a record holds a row.
  ProcessExecOptions options;
  options.num_workers = 2;
  options.shm_ring_bytes = 4096;
  options.exec.materialize_result = true;
  ProcessNetStats net;
  ProcessExecutor executor(&f.db);
  auto one_shot = executor.Execute(f.wide_plan, options, nullptr, &net);
  ASSERT_TRUE(one_shot.ok()) << one_shot.status();
  EXPECT_EQ(one_shot->exec.result.cardinality, f.wide_reference.cardinality);
  EXPECT_EQ(one_shot->exec.result.checksum, f.wide_reference.checksum);
  ASSERT_TRUE(one_shot->exec.materialized.has_value());
  EXPECT_EQ(one_shot->exec.materialized->num_tuples(),
            f.wide_reference.cardinality);
  EXPECT_GT(net.shm_records_sent, 0u);

  // A warm fleet's rings are fixed at spawn: the wide plan is rejected
  // before any worker sees it, naming the record and ring sizes, and the
  // fleet stays healthy for the next plan.
  WarmFleetOptions fleet_options;
  fleet_options.num_workers = 2;
  fleet_options.shm_ring_bytes = 4096;
  auto fleet = WarmProcessFleet::Spawn(&f.db, fleet_options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto rejected = (*fleet)->Execute(f.wide_plan, ProcessExecOptions{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("3032-byte ring record"),
            std::string::npos)
      << rejected.status();
  EXPECT_NE(rejected.status().message().find("4096-byte rings"),
            std::string::npos)
      << rejected.status();
  EXPECT_EQ((*fleet)->respawns(), 0u);

  auto narrow = (*fleet)->Execute(f.narrow_plan, ProcessExecOptions{});
  ASSERT_TRUE(narrow.ok()) << narrow.status();
  EXPECT_EQ(narrow->exec.result.checksum, f.narrow_reference.checksum);
  EXPECT_EQ((*fleet)->respawns(), 0u);
}

TEST(WarmFleetTest, SocketDataPlaneIsGone) {
  // The shm rings are the only data plane; the switch stays in the
  // options structs but turning it off is an error everywhere.
  Fixture f = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/3,
                            /*card=*/100, /*procs=*/2, StrategyKind::kFP);
  ProcessExecOptions off;
  off.use_shm_data_plane = false;
  ProcessExecutor executor(&f.db);
  EXPECT_EQ(executor.Execute(f.plan, off).status().code(),
            StatusCode::kInvalidArgument);

  WarmFleetOptions fleet_off;
  fleet_off.num_workers = 2;
  fleet_off.use_shm_data_plane = false;
  EXPECT_EQ(WarmProcessFleet::Spawn(&f.db, fleet_off).status().code(),
            StatusCode::kInvalidArgument);

  WarmFleetOptions fleet_on;
  fleet_on.num_workers = 2;
  auto fleet = WarmProcessFleet::Spawn(&f.db, fleet_on);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  EXPECT_EQ((*fleet)->Execute(f.plan, off).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*fleet)->respawns(), 0u);
}

TEST(WarmFleetTest, FleetsReapOnlyTheirOwnChildren) {
  // Two fleets side by side: killing a worker of fleet A while fleet B is
  // mid-query must not disturb B (a waitpid(-1) in A's recovery would
  // steal B's exit notifications and corrupt B's supervision).
  Fixture fa = Fixture::Make(QueryShape::kLeftLinear, /*relations=*/4,
                             /*card=*/300, /*procs=*/4, StrategyKind::kFP);
  Fixture fb = Fixture::Make(QueryShape::kWideBushy, /*relations=*/4,
                             /*card=*/300, /*procs=*/4, StrategyKind::kRD);
  auto fleet_a = WarmProcessFleet::Spawn(&fa.db, WarmFleetOptions{});
  auto fleet_b = WarmProcessFleet::Spawn(&fb.db, WarmFleetOptions{});
  ASSERT_TRUE(fleet_a.ok() && fleet_b.ok());

  std::atomic<bool> b_done{false};
  std::atomic<int> b_failures{0};
  std::thread b_loop([&] {
    ProcessExecOptions options;
    for (int run = 0; run < 12; ++run) {
      auto result = (*fleet_b)->Execute(fb.plan, options);
      if (!result.ok() ||
          result->exec.result.checksum != fb.reference.checksum) {
        ++b_failures;
      }
    }
    b_done = true;
  });

  // While B churns, repeatedly kill an A worker and recover A.
  ProcessExecOptions recover;
  recover.max_retries = 1;
  int a_rounds = 0;
  while (!b_done.load() && a_rounds < 50) {
    ASSERT_EQ(kill((*fleet_a)->worker_pid(0), SIGKILL), 0);
    auto result = (*fleet_a)->Execute(fa.plan, recover);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->exec.result.checksum, fa.reference.checksum);
    ++a_rounds;
  }
  b_loop.join();

  EXPECT_GT(a_rounds, 0);
  EXPECT_EQ(b_failures.load(), 0)
      << "fleet A's recovery disturbed fleet B's query";
  EXPECT_EQ((*fleet_b)->respawns(), 0u)
      << "fleet B respawned: its children were reaped out from under it";
}

}  // namespace
}  // namespace mjoin
