// mjoin_cli — command-line front end to the engine.
//
//   mjoin_cli explain   --shape wide-bushy --strategy FP --procs 40
//   mjoin_cli run       --shape right-bushy --strategy RD --procs 40
//                       --card 5000 [--analyze] [--diagram]
//   mjoin_cli run       --backend thread --strategy FP --max-queue 4
//                       --budget 1048576 --deadline-ms 5000
//                       --fault slow-worker --fault-node 0
//   mjoin_cli run       --backend thread --analyze --metrics --diagram
//                       --trace-out=trace.json
//   mjoin_cli run       --strategy SP --trace-out=sim_trace.json
//   mjoin_cli save-plan --shape left-linear --strategy SP --procs 20
//                       --out plan.xra
//   mjoin_cli run-plan  --plan plan.xra --card 5000 --backend thread
//   mjoin_cli bench     --shape wide-bushy --card 5000
//   mjoin_cli run       --backend process --workload zipf1-mn
//                       --skew-defense auto --metrics
//
// All subcommands generate the paper's Wisconsin database on the fly
// (--relations, --card, --seed); run verifies executed results against the
// single-threaded reference. The workload flags (--workload,
// --zipf-theta, --selectivity, --fanout) swap the 1:1 permutation data
// for the adversarial generator's skewed / filtered / m:n relations.
#include <signal.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "engine/database.h"
#include "engine/experiment.h"
#include "engine/fault_injector.h"
#include "engine/process_executor.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "engine/thread_executor.h"
#include "net/net_fault.h"
#include "plan/wisconsin_query.h"
#include "skew/defense.h"
#include "strategy/strategy.h"
#include "workload/workload.h"
#include "xra/text.h"

using namespace mjoin;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  /// Prints the flag's value with what was `expected` instead, exits 2.
  [[noreturn]] void BadValue(const std::string& key,
                             const char* expected) const {
    std::fprintf(stderr, "invalid value '%s' for --%s: expected %s\n",
                 Get(key, "").c_str(), key.c_str(), expected);
    std::exit(2);
  }
  /// The flag's value parsed as a T over the whole string (ParseNumber);
  /// a malformed value prints the flag and exits 2.
  template <typename T>
  T GetNum(const std::string& key, T fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    std::optional<T> value = ParseNumber<T>(it->second);
    if (!value.has_value()) BadValue(key, NumberKindName<T>());
    return *value;
  }
  /// A KiB-count flag as bytes (KiBToBytes); a count whose byte total
  /// overflows exits 2 like a malformed one instead of wrapping around.
  uint32_t GetKiB(const std::string& key, uint32_t fallback_kib) const {
    std::optional<uint32_t> bytes =
        KiBToBytes(GetNum<uint64_t>(key, fallback_kib));
    if (!bytes.has_value()) BadValue(key, "a KiB count that fits 32 bits");
    return *bytes;
  }
  bool Has(const std::string& key) const { return flags.contains(key); }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: mjoin_cli <explain|run|save-plan|run-plan|bench> [flags]\n"
      "  --shape     left-linear|left-bushy|wide-bushy|right-bushy|"
      "right-linear (default wide-bushy)\n"
      "  --strategy  SP|SE|RD|FP (default FP)\n"
      "  --procs     processors (default 40)\n"
      "  --card      tuples per relation (default 5000)\n"
      "  --relations base relations (default 10)\n"
      "  --seed      data seed (default 1995)\n"
      "  --analyze   print the per-op EXPLAIN ANALYZE table (run, run-plan,\n"
      "              every backend; the sim's seconds are simulated time)\n"
      "  --diagram   print the utilization diagram (run, run-plan)\n"
      "  --trace-out FILE  write the run's work trace as Chrome trace JSON\n"
      "              (chrome://tracing, Perfetto; run, run-plan, every\n"
      "              backend; the sim's timestamps are simulated time)\n"
      "  --out FILE  plan file to write (save-plan)\n"
      "  --plan FILE plan file to execute (run-plan)\n"
      "  --backend   sim|thread|process (run, run-plan; default sim)\n"
      "workload flags (all commands; default: the paper's 1:1 data):\n"
      "  --workload NAME    preset: uniform|zipf1|zipf1-mn|mn|filtered|\n"
      "                     adversarial (--card/--relations/--seed still\n"
      "                     override the preset)\n"
      "  --zipf-theta T     Zipf skew of the join columns (0=uniform)\n"
      "  --selectivity S    matchable fraction per join column, in (0,1]\n"
      "  --fanout N         average join multiplicity (m:n when > 1)\n"
      "skew defense flags (run --backend thread|process):\n"
      "  --skew-defense M   off|on|auto (default off): Bloom predicate\n"
      "                     transfer + hot-key repartitioning on probe\n"
      "                     edges; auto repartitions only on measured\n"
      "                     imbalance\n"
      "process-backend flags (run --backend process):\n"
      "  --workers N        worker processes to fork (default: one per\n"
      "                     plan processor)\n"
      "  --retries N        automatic retries on a retryable failure\n"
      "                     (default 0)\n"
      "  --retry-backoff-ms N  first-retry backoff, doubling per retry\n"
      "                     (default 50)\n"
      "  --degrade          fall back to the thread backend once the retry\n"
      "                     budget is exhausted\n"
      "  --heartbeat-ms N   coordinator ping cadence (default 500)\n"
      "  --liveness-ms N    SIGKILL a worker silent this long (0=off)\n"
      "  --shm-ring-kb N    data bytes per shm ring in KiB; power of two\n"
      "                     (default 256; grown to fit the widest row)\n"
      "  --net-fault KIND   none|corrupt-out|corrupt-in|truncate-out|\n"
      "                     short-writes|stall-out|drop-conn\n"
      "  --net-fault-worker N  worker link the fault is installed on\n"
      "  --net-fault-after N   frames let through before firing\n"
      "  --net-fault-fires N   total fires allowed (0=unlimited, default 1)\n"
      "  --net-fault-seed N    seed choosing the damaged byte\n"
      "resilience flags (run --backend thread|process):\n"
      "  --batch N          tuples per inter-node batch (default 256)\n"
      "  --max-queue N      bound on queued batches per node (0=unbounded;\n"
      "                     thread backend only: process rings bound\n"
      "                     themselves)\n"
      "  --budget BYTES     per-query memory budget (0=unlimited)\n"
      "  --deadline-ms N    abort with DeadlineExceeded after N ms\n"
      "  --fault KIND       none|slow-worker|fail-op|drop-batch|dup-batch\n"
      "  --fault-node N     slow-worker target node (default 0)\n"
      "  --fault-delay-us N slow-worker per-message delay (default 1000)\n"
      "  --fault-op N       target op id for fail-op/drop/dup (-1=any)\n"
      "  --fault-after N    fail-op: batches to let through first\n"
      "  --fault-prob P     drop/dup per-batch probability (default 1.0)\n"
      "  --fault-seed N     seed for probabilistic faults\n"
      "  --fault-on-attempt N  fire only on execution attempt N (0-based;\n"
      "                     -1=every attempt); pairs with --retries\n"
      "observability flags (run --backend thread|process):\n"
      "  --metrics          print the run-level metrics registry, plus the\n"
      "                     network counters on process\n");
  return 2;
}

bool ParseShape(const std::string& text, QueryShape* shape) {
  static const std::map<std::string, QueryShape> kShapes = {
      {"left-linear", QueryShape::kLeftLinear},
      {"left-bushy", QueryShape::kLeftOrientedBushy},
      {"wide-bushy", QueryShape::kWideBushy},
      {"right-bushy", QueryShape::kRightOrientedBushy},
      {"right-linear", QueryShape::kRightLinear}};
  auto it = kShapes.find(text);
  if (it == kShapes.end()) return false;
  *shape = it->second;
  return true;
}

bool ParseStrategy(const std::string& text, StrategyKind* kind) {
  for (StrategyKind candidate : kAllStrategies) {
    if (StrategyName(candidate) == text) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

struct Common {
  QueryShape shape = QueryShape::kWideBushy;
  StrategyKind strategy = StrategyKind::kFP;
  uint32_t procs = 40;
  uint32_t card = 5000;
  int relations = 10;
  uint64_t seed = 1995;
  // Set by --workload / --zipf-theta / --selectivity / --fanout; when
  // use_workload is false the classic 1:1 Wisconsin generator runs.
  WorkloadSpec workload;
  bool use_workload = false;
};

bool ParseCommon(const Args& args, Common* common) {
  if (!ParseShape(args.Get("shape", "wide-bushy"), &common->shape)) {
    std::fprintf(stderr, "unknown shape\n");
    return false;
  }
  if (!ParseStrategy(args.Get("strategy", "FP"), &common->strategy)) {
    std::fprintf(stderr, "unknown strategy\n");
    return false;
  }
  if (args.Has("workload")) {
    auto preset = WorkloadPreset(args.Get("workload", ""));
    if (!preset.ok()) {
      std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
      return false;
    }
    common->workload = *preset;
    common->use_workload = true;
    // The preset's size defines the query too; explicit flags below still
    // override both.
    common->relations = common->workload.num_relations;
    common->card = common->workload.cardinality;
    common->seed = common->workload.seed;
  }
  common->procs = args.GetNum<uint32_t>("procs", 40);
  common->card = args.GetNum<uint32_t>("card", common->card);
  common->relations = args.GetNum<int>("relations", common->relations);
  common->seed = args.GetNum<uint64_t>("seed", common->seed);
  common->workload.num_relations = common->relations;
  common->workload.cardinality = common->card;
  common->workload.seed = common->seed;
  if (args.Has("zipf-theta")) {
    common->use_workload = true;
    common->workload.zipf_theta = args.GetNum<double>("zipf-theta", 0.0);
  }
  if (args.Has("selectivity")) {
    common->use_workload = true;
    common->workload.selectivity = args.GetNum<double>("selectivity", 1.0);
  }
  if (args.Has("fanout")) {
    common->use_workload = true;
    common->workload.fanout = args.GetNum<uint32_t>("fanout", 1);
  }
  if (common->use_workload) {
    Status valid = common->workload.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr, "%s\n", valid.ToString().c_str());
      return false;
    }
  }
  return true;
}

StatusOr<Database> MakeCliDatabase(const Common& common) {
  if (common.use_workload) return MakeWorkloadDatabase(common.workload);
  return MakeWisconsinDatabase(common.relations, common.card, common.seed);
}

StatusOr<ParallelPlan> BuildPlan(const Common& common) {
  MJOIN_ASSIGN_OR_RETURN(
      JoinQuery query,
      MakeWisconsinChainQuery(common.shape, common.relations, common.card));
  return MakeStrategy(common.strategy)
      ->Parallelize(query, common.procs, TotalCostModel());
}

int CmdExplain(const Args& args) {
  Common common;
  if (!ParseCommon(args, &common)) return 2;
  auto query =
      MakeWisconsinChainQuery(common.shape, common.relations, common.card);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("join tree (%s):\n%s\n", ShapeName(common.shape).c_str(),
              query->tree.ToString().c_str());
  auto plan = BuildPlan(common);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", plan->ToString().c_str());
  return 0;
}

/// Writes `trace` to `path` as Chrome trace JSON; 0 on success, 1 (with
/// a message) when the file cannot be written.
int WriteTraceFile(const std::string& path, const ThreadTraceRecorder& trace) {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  file << trace.ToChromeJson();
  std::printf("wrote %s (%llu trace events; load in chrome://tracing or "
              "ui.perfetto.dev)\n",
              path.c_str(),
              static_cast<unsigned long long>(trace.num_events()));
  return 0;
}

void PrintThreadStats(const QueryStats& stats) {
  std::printf(
      "batches: %llu sent, %llu processed, %llu dropped, %llu duplicated\n"
      "queues:  peak depth %llu, %llu overflow escapes\n"
      "memory:  peak %llu bytes\n",
      static_cast<unsigned long long>(stats.batches_sent),
      static_cast<unsigned long long>(stats.batches_processed),
      static_cast<unsigned long long>(stats.batches_dropped),
      static_cast<unsigned long long>(stats.batches_duplicated),
      static_cast<unsigned long long>(stats.peak_queue_depth),
      static_cast<unsigned long long>(stats.queue_overflows),
      static_cast<unsigned long long>(stats.peak_memory_bytes));
}

// `run` and `run-plan`: execute the plan on --backend (the simulated
// machine, real OS threads, or forked worker processes), print its
// counters and the reports asked for (--analyze, --metrics, --diagram,
// --trace-out), and, when `verify` is set, check the result against the
// single-threaded reference. Every backend returns the same result shape,
// so one driver covers all three; the resilience knobs (backpressure,
// budget, deadline, fault injection) apply to thread and process.
int RunPlan(const Args& args, const ParallelPlan& plan, const Common& common,
            bool verify) {
  const std::string backend = args.Get("backend", "sim");
  if (backend != "sim" && backend != "thread" && backend != "process") {
    std::fprintf(stderr, "unknown backend '%s' (valid: sim|thread|process)\n",
                 backend.c_str());
    return 2;
  }
  const bool sim_backend = backend == "sim";
  const bool process_backend = backend == "process";
  FaultScenario scenario;
  if (!ParseFaultKind(args.Get("fault", "none"), &scenario.kind)) {
    std::fprintf(stderr, "unknown fault kind\n");
    return 2;
  }
  scenario.node = args.GetNum<uint32_t>("fault-node", 0);
  scenario.delay =
      std::chrono::microseconds(args.GetNum<int>("fault-delay-us", 1000));
  scenario.op = args.GetNum<int>("fault-op", -1);
  scenario.after_batches = args.GetNum<uint64_t>("fault-after", 0);
  scenario.probability = args.GetNum<double>("fault-prob", 1.0);
  scenario.seed = args.GetNum<uint64_t>("fault-seed", 0);
  scenario.on_attempt = args.GetNum<int>("fault-on-attempt", -1);
  FaultInjector injector(scenario);

  NetFaultScenario net_scenario;
  if (!ParseNetFaultKind(args.Get("net-fault", "none"), &net_scenario.kind)) {
    std::fprintf(stderr, "unknown net fault kind\n");
    return 2;
  }
  net_scenario.worker = args.GetNum<uint32_t>("net-fault-worker", 0);
  net_scenario.after_frames = args.GetNum<uint64_t>("net-fault-after", 0);
  net_scenario.max_fires = args.GetNum<uint64_t>("net-fault-fires", 1);
  net_scenario.seed = args.GetNum<uint64_t>("net-fault-seed", 0);
  NetFaultInjector net_injector(net_scenario);

  ThreadExecOptions options;
  options.batch_size = args.GetNum<uint32_t>("batch", 256);
  options.max_queued_batches = args.GetNum<size_t>("max-queue", 0);
  options.memory_budget_bytes = args.GetNum<size_t>("budget", 0);
  if (args.Has("deadline-ms")) {
    options.deadline =
        std::chrono::milliseconds(args.GetNum<int>("deadline-ms", 0));
  }
  if (scenario.kind != FaultKind::kNone) options.fault_injector = &injector;

  auto defense_mode = ParseSkewDefenseMode(args.Get("skew-defense", "off"));
  if (!defense_mode.ok()) {
    std::fprintf(stderr, "%s\n", defense_mode.status().ToString().c_str());
    return 2;
  }
  options.skew_defense.mode = *defense_mode;

  bool analyze = args.Has("analyze");
  bool want_metrics = args.Has("metrics");
  bool want_diagram = args.Has("diagram");
  std::string trace_out = args.Get("trace-out", "");
  MetricsRegistry registry;
  options.record_trace = want_diagram || !trace_out.empty();
  if (want_metrics) options.metrics_registry = &registry;

  auto made = MakeCliDatabase(common);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 1;
  }
  Database db = std::move(*made);
  QueryStats stats;
  ProcessNetStats net;
  ProcessExecStats proc;
  SimExecOptions sim_options;
  StatusOr<QueryResult> run =
      Status::Internal("backend produced no result");  // always overwritten
  if (sim_backend) {
    sim_options.record_trace = options.record_trace;
    run = SimExecutor(&db).Execute(plan, sim_options);
  } else if (process_backend) {
    ProcessExecutor executor(&db);
    ProcessExecOptions process_options;
    process_options.exec = options;
    process_options.num_workers = args.GetNum<uint32_t>("workers", 0);
    process_options.max_retries = args.GetNum<uint32_t>("retries", 0);
    process_options.retry_backoff =
        std::chrono::milliseconds(args.GetNum<int>("retry-backoff-ms", 50));
    process_options.degrade_to_thread = args.Has("degrade");
    process_options.shm_ring_bytes = args.GetKiB("shm-ring-kb", 256);
    process_options.heartbeat_interval =
        std::chrono::milliseconds(args.GetNum<int>("heartbeat-ms", 500));
    process_options.liveness_timeout =
        std::chrono::milliseconds(args.GetNum<int>("liveness-ms", 0));
    if (net_scenario.kind != NetFaultKind::kNone) {
      process_options.net_fault_injector = &net_injector;
    }
    auto outcome =
        executor.Execute(plan, process_options, &stats, &net, &proc);
    if (outcome.ok()) {
      net = outcome->net;
      proc = outcome->proc;
      run = std::move(outcome->exec);
    } else {
      run = outcome.status();
    }
  } else {
    ThreadExecutor executor(&db);
    run = executor.Execute(plan, options, &stats);
  }
  if (!run.ok()) {
    std::fprintf(stderr, "%s\npartial progress before abort:\n",
                 run.status().ToString().c_str());
    PrintThreadStats(stats);
    if (scenario.kind != FaultKind::kNone ||
        net_scenario.kind != NetFaultKind::kNone) {
      // Everything in both injectors is seed-deterministic: these two
      // lines reproduce the failing schedule exactly.
      std::fprintf(stderr,
                   "reproduce with: --fault-seed %llu --net-fault-seed %llu\n",
                   static_cast<unsigned long long>(scenario.seed),
                   static_cast<unsigned long long>(net_scenario.seed));
    }
    if (common.use_workload) {
      // Same idea as --fault-seed: the spec (seed included) regenerates
      // the exact data the failure happened on.
      std::fprintf(
          stderr, "workload: %s\nreproduce the data with: --seed %llu\n",
          common.workload.ToString().c_str(),
          static_cast<unsigned long long>(common.workload.seed));
    }
    if (proc.attempts > 1) {
      std::fprintf(stderr, "recovery: %u attempts, %u retries\n",
                   proc.attempts, proc.retries);
    }
    if (analyze) {
      QueryResult partial;
      partial.stats = std::move(stats);
      std::printf("\nEXPLAIN ANALYZE up to the abort:\n%s",
                  ExplainAnalyze(partial).c_str());
    }
    return 1;
  }
  if (sim_backend) {
    const MachineCounters& machine = run->machine;
    std::printf(
        "strategy %s on %u processors: %.2f s simulated response, %llu "
        "result tuples\nprocesses %llu, streams %llu, startup %.2f s, "
        "handshake %.2f s\n",
        plan.strategy.c_str(), plan.num_processors, run->seconds,
        static_cast<unsigned long long>(run->result.cardinality),
        static_cast<unsigned long long>(machine.processes_started),
        static_cast<unsigned long long>(machine.streams_opened),
        sim_options.costs.ToSeconds(machine.startup_ticks),
        sim_options.costs.ToSeconds(machine.handshake_ticks));
  } else {
    if (process_backend) {
      std::printf(
          "strategy %s on %u processors in %u worker processes: %.3f s "
          "wall, %llu result tuples\n",
          plan.strategy.c_str(), plan.num_processors, net.num_workers,
          run->seconds,
          static_cast<unsigned long long>(run->result.cardinality));
    } else {
      std::printf(
          "strategy %s on %u threads: %.3f s wall, %llu result tuples\n",
          plan.strategy.c_str(), plan.num_processors, run->seconds,
          static_cast<unsigned long long>(run->result.cardinality));
    }
    PrintThreadStats(run->stats);
  }
  if (process_backend && (proc.attempts > 1 || proc.degraded_to_thread)) {
    std::printf("recovery: %u attempts, %u retries%s\n", proc.attempts,
                proc.retries,
                proc.degraded_to_thread ? ", degraded to thread backend"
                                        : "");
    for (const WorkerFailureRecord& f : proc.failures) {
      std::printf("  attempt %u: worker %u (pid %d) %s: %s\n", f.attempt,
                  f.worker, static_cast<int>(f.pid),
                  WorkerFailureClassName(f.failure).c_str(),
                  f.detail.c_str());
    }
  }
  if (process_backend) {
    std::printf(
        "network: %s sent, %s over shm rings, %llu local deliveries, "
        "%llu ring-full stalls\n",
        FormatBytes(net.bytes_sent).c_str(),
        FormatBytes(net.shm_bytes_sent).c_str(),
        static_cast<unsigned long long>(net.local_deliveries),
        static_cast<unsigned long long>(net.ring_full_stalls));
  }
  if (analyze) {
    std::printf("\nEXPLAIN ANALYZE:\n%s", ExplainAnalyze(*run).c_str());
  }
  if (want_metrics) {
    if (process_backend) {
      std::printf("\nnetwork counters:\n%s",
                  RenderProcessNetStats(net).c_str());
    }
    std::printf("\nmetrics registry:\n%s", registry.RenderTable().c_str());
  }
  if (want_diagram) {
    std::printf("\nutilization (%.0f%%):\n%s", run->utilization * 100,
                run->utilization_diagram.c_str());
  }
  if (!trace_out.empty() && WriteTraceFile(trace_out, *run->trace) != 0) {
    return 1;
  }
  // In the process backend the injectors fire inside the workers; their
  // counts come back aggregated in the net stats.
  uint64_t faults_injected =
      process_backend ? net.faults_injected : injector.faults_injected();
  if (faults_injected > 0) {
    std::printf("faults injected (%s): %llu\n",
                FaultKindName(scenario.kind).c_str(),
                static_cast<unsigned long long>(faults_injected));
  }

  // A plan file does not name the query it came from, so run-plan has
  // no reference to verify against.
  if (!verify) return 0;
  // Drop/duplicate faults knowingly corrupt the result; verifying against
  // the reference would only report the corruption we caused. The sim
  // injects no faults.
  if (!sim_backend && (scenario.kind == FaultKind::kDropBatch ||
                       scenario.kind == FaultKind::kDuplicateBatch)) {
    std::printf("verification skipped: %s alters the data stream\n",
                FaultKindName(scenario.kind).c_str());
    return 0;
  }
  auto query =
      MakeWisconsinChainQuery(common.shape, common.relations, common.card);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  auto reference = ReferenceSummary(*query, db);
  if (!reference.ok() || !(run->result == *reference)) {
    std::fprintf(stderr, "verification FAILED\n");
    return 1;
  }
  std::printf("verification OK (matches single-threaded reference)\n");
  return 0;
}

int CmdRun(const Args& args) {
  Common common;
  if (!ParseCommon(args, &common)) return 2;
  auto plan = BuildPlan(common);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  return RunPlan(args, *plan, common, /*verify=*/true);
}

int CmdSavePlan(const Args& args) {
  Common common;
  if (!ParseCommon(args, &common)) return 2;
  std::string out = args.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "--out FILE required\n");
    return 2;
  }
  auto plan = BuildPlan(common);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::ofstream file(out);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  file << SerializePlan(*plan);
  std::printf("wrote %s (%llu ops, %llu processes)\n", out.c_str(),
              static_cast<unsigned long long>(plan->ops.size()),
              static_cast<unsigned long long>(plan->CountProcesses()));
  return 0;
}

int CmdRunPlan(const Args& args) {
  Common common;
  if (!ParseCommon(args, &common)) return 2;
  std::string path = args.Get("plan", "");
  if (path.empty()) {
    std::fprintf(stderr, "--plan FILE required\n");
    return 2;
  }
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  auto plan = ParsePlan(buffer.str());
  if (!plan.ok()) {
    std::fprintf(stderr, "parse: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  return RunPlan(args, *plan, common, /*verify=*/false);
}

int CmdBench(const Args& args) {
  Common common;
  if (!ParseCommon(args, &common)) return 2;
  ExperimentConfig config;
  config.shape = common.shape;
  config.num_relations = common.relations;
  config.cardinality = common.card;
  config.processors = SmallExperimentProcessors();
  config.seed = common.seed;
  auto result = RunShapeExperiment(config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s query tree, %u tuples/relation:\n%s",
              ShapeName(common.shape).c_str(), common.card,
              result->ToTable().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // The process backend writes to sockets whose peers can die at any
  // moment (that is the point of the fault-tolerance tests). Channel sends
  // already pass MSG_NOSIGNAL; this covers any other write to a dead pipe
  // so the coordinator sees EPIPE instead of dying silently.
  signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return Usage();
  static const std::set<std::string> kSwitches = {"analyze", "diagram",
                                                  "metrics", "degrade"};
  static const std::set<std::string> kValued = {
      "backend", "batch", "budget", "card", "deadline-ms", "fanout", "fault",
      "fault-after", "fault-delay-us", "fault-node", "fault-on-attempt",
      "fault-op", "fault-prob", "fault-seed", "heartbeat-ms", "liveness-ms",
      "max-queue", "net-fault", "net-fault-after", "net-fault-fires",
      "net-fault-seed", "net-fault-worker", "out", "plan", "procs",
      "relations", "retries", "retry-backoff-ms", "seed", "selectivity",
      "shape", "shm-ring-kb", "skew-defense", "strategy", "trace-out",
      "workers", "workload", "zipf-theta"};
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) return Usage();
    std::string key = token.substr(2);
    const size_t eq = key.find('=');
    const std::string name = key.substr(0, eq);
    if (!kSwitches.contains(name) && !kValued.contains(name)) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return 2;
    }
    if (eq != std::string::npos) {
      args.flags.insert_or_assign(name, key.substr(eq + 1));
    } else if (kSwitches.contains(key)) {
      args.flags.insert_or_assign(key, std::string("1"));
    } else if (i + 1 < argc) {
      args.flags.insert_or_assign(key, std::string(argv[++i]));
    } else {
      return Usage();
    }
  }
  if (args.command == "explain") return CmdExplain(args);
  if (args.command == "run") return CmdRun(args);
  if (args.command == "save-plan") return CmdSavePlan(args);
  if (args.command == "run-plan") return CmdRunPlan(args);
  if (args.command == "bench") return CmdBench(args);
  return Usage();
}
