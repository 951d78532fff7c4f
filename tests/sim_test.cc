#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/thread_trace.h"
#include "sim/machine.h"
#include "sim/processor.h"
#include "sim/simulator.h"

namespace mjoin {
namespace {

// --- Simulator ----------------------------------------------------------------

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 30);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, TieBreakIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NestedSchedulingAdvancesClock) {
  Simulator sim;
  Ticks observed = -1;
  sim.Schedule(10, [&] {
    sim.Schedule(15, [&] { observed = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(observed, 25);
  EXPECT_EQ(sim.num_events_processed(), 2u);
}

TEST(SimulatorTest, RunForStopsEarly) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) sim.Schedule(i, [&] { ++fired; });
  EXPECT_FALSE(sim.RunFor(3));
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sim.RunFor(100));
  EXPECT_EQ(fired, 5);
}

// --- SimProcessor ----------------------------------------------------------------

TEST(SimProcessorTest, TasksSerializeOnOneNode) {
  Simulator sim;
  SimProcessor node(0, &sim);
  std::vector<Ticks> start;
  std::vector<Ticks> completion;
  for (int i = 0; i < 3; ++i) {
    node.Submit([&sim, &start, &completion] {
      start.push_back(sim.Now());
      TaskResult result;
      result.cost = 10;
      result.after.push_back({0, [&sim, &completion] {
                                completion.push_back(sim.Now());
                              }});
      return result;
    });
  }
  sim.Run();
  // Each task starts when the one before it completes: one node runs one
  // task at a time, so three 10-tick tasks end at 30.
  EXPECT_EQ(start, (std::vector<Ticks>{0, 10, 20}));
  EXPECT_EQ(completion, (std::vector<Ticks>{10, 20, 30}));
  EXPECT_EQ(sim.Now(), 30);
}

TEST(SimProcessorTest, DeferredActionsRunAtCompletionPlusDelay) {
  Simulator sim;
  SimProcessor node(0, &sim);
  Ticks when = -1;
  node.Submit([&] {
    TaskResult result;
    result.cost = 7;
    result.after.push_back({5, [&] { when = sim.Now(); }});
    return result;
  });
  sim.Run();
  EXPECT_EQ(when, 12);
}

TEST(SimProcessorTest, TwoNodesRunInParallel) {
  Simulator sim;
  SimProcessor a(0, &sim), b(1, &sim);
  Ticks end_a = 0, end_b = 0;
  a.Submit([&] {
    TaskResult r;
    r.cost = 100;
    r.after.push_back({0, [&] { end_a = sim.Now(); }});
    return r;
  });
  b.Submit([&] {
    TaskResult r;
    r.cost = 100;
    r.after.push_back({0, [&] { end_b = sim.Now(); }});
    return r;
  });
  EXPECT_EQ(sim.Run(), 100);  // not 200: the nodes overlap
  EXPECT_EQ(end_a, 100);
  EXPECT_EQ(end_b, 100);
}

// --- The sim's trace ---------------------------------------------------------
//
// The simulator records into the one work trace every backend shares, in
// ticks, with the scheduler and the stream broker as service lanes above
// the workers.

ThreadTraceRecorder SimTrace(uint32_t workers) {
  return ThreadTraceRecorder(
      workers, {ThreadTraceOpInfo{"a", 'a'}, ThreadTraceOpInfo{"b", 'b'}},
      SimTraceFormat(/*tick_seconds=*/0.001));
}

Ticks BusyTicks(const std::vector<ThreadTraceEvent>& lane) {
  Ticks busy = 0;
  for (const ThreadTraceEvent& ev : lane) busy += ev.end_ns - ev.start_ns;
  return busy;
}

TEST(TraceTest, BusyTicksPerProcessor) {
  ThreadTraceRecorder trace = SimTrace(3);
  trace.Record(0, 0, 10, ThreadWorkType::kScan, 0);
  trace.Record(0, 20, 25, ThreadWorkType::kScan, 1);
  trace.Record(2, 0, 40, ThreadWorkType::kBuild, 0);
  const auto& lanes = trace.events_by_worker();
  ASSERT_EQ(lanes.size(), 5u);  // 3 workers + scheduler + broker
  EXPECT_EQ(BusyTicks(lanes[0]), 15);
  EXPECT_EQ(BusyTicks(lanes[1]), 0);
  EXPECT_EQ(BusyTicks(lanes[2]), 40);
}

TEST(TraceTest, UtilizationFraction) {
  ThreadTraceRecorder trace = SimTrace(2);
  trace.Record(0, 0, 50, ThreadWorkType::kScan, 0);
  trace.Record(1, 0, 100, ThreadWorkType::kScan, 1);
  // Service lanes (2 = scheduler, 3 = broker) are not worker time.
  trace.Record(2, 0, 100, ThreadWorkType::kProcessInit, 0);
  trace.Record(3, 0, 100, ThreadWorkType::kStreamSetup, 0);
  EXPECT_DOUBLE_EQ(trace.Utilization(100), 0.75);
  EXPECT_DOUBLE_EQ(trace.Utilization(0), 0.0);
}

TEST(TraceTest, RenderShowsDominantLabelPerCell) {
  ThreadTraceRecorder trace = SimTrace(1);
  trace.Record(0, 0, 50, ThreadWorkType::kScan, 0);
  trace.Record(0, 50, 100, ThreadWorkType::kProbe, 1);
  std::string out = trace.RenderAscii(100, 10);
  EXPECT_NE(out.find("aaaaabbbbb"), std::string::npos);
  EXPECT_NE(out.find("> time (100 ticks)"), std::string::npos);
}

TEST(TraceTest, RenderMarksIdleAsDots) {
  ThreadTraceRecorder trace = SimTrace(1);
  trace.Record(0, 0, 10, ThreadWorkType::kScan, 0);
  std::string out = trace.RenderAscii(100, 10);
  EXPECT_NE(out.find("a........."), std::string::npos);
}

// The fill char belongs to the work type: service work draws its own
// letter whatever op it serves, everything else draws the op's label.
TEST(TraceTest, FillCharFollowsWorkType) {
  ThreadTraceRecorder trace = SimTrace(1);
  trace.Record(0, 0, 10, ThreadWorkType::kHandshake, 0);
  trace.Record(0, 10, 20, ThreadWorkType::kMilestone, 0);
  trace.Record(0, 20, 30, ThreadWorkType::kBuild, 0);
  trace.Record(0, 30, 40, ThreadWorkType::kBlocked, -1);
  trace.Record(1, 0, 40, ThreadWorkType::kProcessInit, 0);
  trace.Record(2, 0, 40, ThreadWorkType::kStreamSetup, 1);
  std::string out = trace.RenderAscii(40, 4);
  EXPECT_EQ(out,
            "  2 bbbb\n"
            "  1 ssss\n"
            "  0 hna~\n"
            "    ----> time (40 ticks)\n");
}

// Chrome timestamps are microseconds: a 1 ms tick puts tick 3 at 3000 us.
// The process and the service lanes carry their names.
TEST(TraceTest, ChromeJsonConvertsTicksAndNamesLanes) {
  ThreadTraceRecorder trace = SimTrace(1);
  trace.Record(0, 3, 5, ThreadWorkType::kScan, 0);
  std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"ts\":3000.000,\"dur\":2000.000"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"mjoin sim backend\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scheduler\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stream broker\""), std::string::npos);
}

// --- SimMachine ----------------------------------------------------------------

TEST(MachineTest, HasWorkersPlusServiceNodes) {
  CostParams costs;
  SimMachine machine(8, costs);
  EXPECT_EQ(machine.num_workers(), 8u);
  EXPECT_EQ(machine.scheduler_id(), 8u);
  EXPECT_EQ(machine.broker_id(), 9u);
  EXPECT_EQ(machine.node(9).id(), 9u);
}

TEST(MachineTest, CostParamsToStringMentionsKnobs) {
  CostParams costs;
  std::string s = costs.ToString();
  EXPECT_NE(s.find("startup="), std::string::npos);
  EXPECT_NE(s.find("broker="), std::string::npos);
}

}  // namespace
}  // namespace mjoin
