#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/process_executor.h"
#include "engine/reference.h"
#include "engine/result.h"
#include "engine/thread_executor.h"
#include "engine/thread_trace.h"
#include "engine/warm_fleet.h"
#include "exec/batch.h"
#include "exec/hash_table.h"
#include "net/wire.h"
#include "plan/shapes.h"
#include "plan/wisconsin_query.h"
#include "probes.h"
#include "serve/client.h"
#include "serve/server.h"
#include "skew/bloom.h"
#include "skew/defense.h"
#include "skew/sketch.h"
#include "storage/partitioner.h"
#include "storage/wisconsin.h"
#include "strategy/strategy.h"
#include "workload/workload.h"
#include "xra/text.h"

namespace mjoin::bench {
namespace {

// Every plan runs on P=4 processors and every fleet has 4 workers, so at
// most about four threads are busy at a time on a 4-core host.
constexpr uint32_t kProcessors = 4;
constexpr uint32_t kWorkers = 4;
constexpr int kServeClients = 2;
// Whole deck passes each timed phase runs at least, so every plan has
// samples and the plan mix of CPU per query is the deck's.
constexpr int kMinPasses = 3;
constexpr int kAwaitMs = 60000;

// ---------------------------------------------------------------------------
// Workload descriptions.

// How a workload runs its process-backend queries.
enum class Path { kThread, kOneShot, kWarmFleet };

int BackendIndex(Path path) { return path == Path::kThread ? 0 : 1; }
constexpr const char* kBackendNames[2] = {"thread", "process"};

struct Workload {
  std::string name;
  int relations = 4;
  uint32_t cardinality = 2000;
  std::vector<QueryShape> shapes;
  // Zipf m:n data, skew defense on, results materialized to the caller.
  bool skewed = false;
  // Queries go through an in-process MjoinServer.
  bool serve = false;
  Path process_path = Path::kWarmFleet;
  // Set-ups per run; setup_s is their median. A serve_warm set-up takes
  // about 0.1 s and moves by half of that with scheduling, so it gets
  // more of them.
  int setup_reps = 3;
};

Workload Describe(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "serve_warm") {
    w.shapes = {QueryShape::kLeftLinear, QueryShape::kWideBushy,
                QueryShape::kRightOrientedBushy};
    w.serve = true;
    w.setup_reps = 15;
  } else if (name == "bulk_chain") {
    // Five relations is the longest chain P=4 runs: SE, RD and FP need one
    // processor per join. 20,000 tuples is 20.8 MB of base data, ten times
    // a core's L2; at the paper's 40,000 the per-query fork and page-fault
    // cost moved process latency and worker RSS by a quarter or more from
    // run to run on a 4-vCPU VM.
    w.relations = 5;
    w.cardinality = smoke ? 4000 : 20000;
    w.shapes = {QueryShape::kLeftLinear, QueryShape::kWideBushy,
                QueryShape::kRightOrientedBushy};
    w.process_path = Path::kOneShot;
  } else {
    MJOIN_CHECK(name == "skew_mn") << name;
    w.shapes = {QueryShape::kRightLinear, QueryShape::kWideBushy};
    w.skewed = true;
  }
  return w;
}

// Seed of the base data every run's keys are renamed from (ext_skew's own
// spec seed).
constexpr uint64_t kBaseSeed = 37;

// ext_skew's headline data: Zipf(1.0) keys, m:n fanout 4, a quarter of
// each probe side matchable.
WorkloadSpec SkewSpec(const Workload& w) {
  WorkloadSpec spec;
  spec.name = w.name;
  spec.num_relations = w.relations;
  spec.cardinality = w.cardinality;
  spec.zipf_theta = 1.0;
  spec.fanout = 4;
  spec.selectivity = 0.25;
  spec.seed = kBaseSeed;
  return spec;
}

// Renames the join-key values (unique1 and unique2 of every relation)
// through a permutation chosen by `seed` that maps each value to one in the
// same hash class modulo 12, i.e. to a key every split into 1 to 4
// fragments sends to the same processor. Which rows join, the result
// sizes, and the processor every row lands on are those of the base data;
// the key values, and so hash-table slots and Bloom bits, change with the
// seed. Fresh data per seed does not fit a benchmark bound: Zipf m:n
// result sizes move by 5x between seeds, and fresh Wisconsin row orders
// move the 20,000-tuple chain's thread latency by 30%. Keys renamed without
// regard to their hash class move the process-backend latency by 30% with
// the processor the hot keys land on.
Database RenameJoinKeys(const Database& base, int relations, uint64_t seed) {
  constexpr uint64_t kHashClasses = 12;  // lcm of the fragment counts 1..4
  const std::vector<std::string> names = WisconsinRelationNames(relations);
  std::vector<const Relation*> rels;
  std::vector<int32_t> keys;
  for (const std::string& name : names) {
    auto rel = base.Get(name);
    MJOIN_CHECK(rel.ok()) << rel.status();
    rels.push_back(*rel);
    for (size_t i = 0; i < (*rel)->num_tuples(); ++i) {
      keys.push_back((*rel)->tuple(i).GetInt32(kUnique1));
      keys.push_back((*rel)->tuple(i).GetInt32(kUnique2));
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::vector<int32_t>> classes(kHashClasses);
  for (int32_t key : keys) {
    classes[HashJoinKey(key) % kHashClasses].push_back(key);
  }
  Random rng(seed);
  std::unordered_map<int32_t, int32_t> renamed;
  for (std::vector<int32_t>& members : classes) {
    std::vector<int32_t> targets = members;
    rng.Shuffle(&targets);
    for (size_t i = 0; i < members.size(); ++i) {
      renamed[members[i]] = targets[i];
    }
  }
  Database db;
  for (size_t r = 0; r < rels.size(); ++r) {
    const Relation& in = *rels[r];
    Relation out(in.schema());
    out.Reserve(in.num_tuples());
    for (size_t i = 0; i < in.num_tuples(); ++i) {
      const TupleRef row = in.tuple(i);
      TupleWriter copy = out.AppendTuple();
      std::memcpy(copy.data(), row.data(), in.schema().tuple_size());
      copy.SetInt32(kUnique1, renamed.at(row.GetInt32(kUnique1)));
      copy.SetInt32(kUnique2, renamed.at(row.GetInt32(kUnique2)));
    }
    MJOIN_CHECK(db.Add(names[r], std::move(out)).ok());
  }
  return db;
}

// ext_skew's bench-scale thresholds: the generated hot keys hold tens of
// rows, so the production defaults would never fire at this size.
SkewDefenseOptions BenchDefense() {
  SkewDefenseOptions defense;
  defense.mode = SkewDefenseMode::kOn;
  defense.min_hot_count = 12;
  defense.hot_fraction = 0.05;
  defense.bloom_bits = 1u << 15;
  return defense;
}

Database Generate(const Workload& w, uint64_t seed) {
  if (!w.skewed) {
    return RenameJoinKeys(
        MakeWisconsinDatabase(w.relations, w.cardinality, kBaseSeed),
        w.relations, seed);
  }
  auto base = MakeWorkloadDatabase(SkewSpec(w));
  MJOIN_CHECK(base.ok()) << base.status();
  return RenameJoinKeys(*base, w.relations, seed);
}

std::vector<JoinQuery> MakeQueries(const Workload& w) {
  std::vector<JoinQuery> queries;
  for (QueryShape shape : w.shapes) {
    auto query = MakeWisconsinChainQuery(shape, w.relations, w.cardinality);
    MJOIN_CHECK(query.ok()) << query.status();
    queries.push_back(*std::move(query));
  }
  return queries;
}

// One plan of the deck, serialized to XRA once.
struct DeckPlan {
  std::string label;
  size_t query = 0;  // index into the workload's queries (and references)
  ParallelPlan plan;
  std::string text;
};

// Every strategy over every shape of the workload. Returns the seconds
// spent inside Strategy::Parallelize.
double MakeDeck(const Workload& w, std::vector<DeckPlan>* deck) {
  const std::vector<JoinQuery> queries = MakeQueries(w);
  double parallelize_s = 0;
  for (StrategyKind strategy : kAllStrategies) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const double start = Now();
      auto plan = MakeStrategy(strategy)->Parallelize(queries[q], kProcessors,
                                                      TotalCostModel());
      parallelize_s += Now() - start;
      MJOIN_CHECK(plan.ok()) << plan.status();
      DeckPlan entry;
      entry.label = StrategyName(strategy) + "/" + ShapeName(w.shapes[q]);
      entry.query = q;
      entry.text = SerializePlan(*plan);
      entry.plan = *std::move(plan);
      deck->push_back(std::move(entry));
    }
  }
  return parallelize_s;
}

// Reference summaries per query, from a database of their own that is
// freed before set-up starts.
std::vector<ResultSummary> ComputeReferences(const Workload& w,
                                             uint64_t seed) {
  const Database db = Generate(w, seed);
  std::vector<ResultSummary> refs;
  for (const JoinQuery& query : MakeQueries(w)) {
    auto summary = ReferenceSummary(query, db);
    MJOIN_CHECK(summary.ok()) << summary.status();
    refs.push_back(*summary);
  }
  return refs;
}

// ---------------------------------------------------------------------------
// The system under test and its accounting.

struct Engine {
  // Declared first so it is destroyed last: every executor points at it.
  Database db;
  std::vector<DeckPlan> deck;
  std::unique_ptr<ThreadExecutor> threads;
  std::unique_ptr<ProcessExecutor> oneshot;
  std::unique_ptr<WarmProcessFleet> fleet;
  std::unique_ptr<MjoinServer> server;

  WarmProcessFleet* warm_fleet() const {
    return server != nullptr ? server->fleet() : fleet.get();
  }
};

struct Tally {
  uint64_t attempted[2] = {0, 0};
  uint64_t failed[2] = {0, 0};
  uint64_t mismatched = 0;

  void Merge(const Tally& other) {
    for (int b = 0; b < 2; ++b) {
      attempted[b] += other.attempted[b];
      failed[b] += other.failed[b];
    }
    mismatched += other.mismatched;
  }
};

// Worker pids of the live warm fleets, whose CPU time is read from /proc
// (they are not reaped until the fleet shuts down).
std::vector<pid_t> FleetPids(std::initializer_list<WarmProcessFleet*> fleets) {
  std::vector<pid_t> pids;
  for (WarmProcessFleet* fleet : fleets) {
    if (fleet == nullptr) continue;
    for (uint32_t w = 0; w < fleet->num_workers(); ++w) {
      pids.push_back(fleet->worker_pid(w));
    }
  }
  return pids;
}

// CPU seconds of the whole system under test: this process (coordinator,
// server, thread backend), reaped one-shot workers, and live fleet workers.
double SystemCpuSeconds(const std::vector<pid_t>& fleet_pids) {
  double cpu = SelfCpuSeconds() + ChildrenCpuSeconds();
  for (pid_t pid : fleet_pids) cpu += ProcessCpuSeconds(pid);
  return cpu;
}

// One closed-loop phase of one backend: latencies per deck plan.
struct Phase {
  std::vector<std::vector<double>> ms;
  uint64_t completed = 0;
  double cpu_s = 0;
  // CPU the benchmark spent checking results, left out of cpu_s.
  double verify_cpu_s = 0;

  // Median per plan, then the geometric mean over the deck.
  double QueryMs() const {
    std::vector<double> medians;
    for (const std::vector<double>& samples : ms) {
      if (!samples.empty()) medians.push_back(Median(samples));
    }
    return GeoMean(medians);
  }
  double CpuMsPerQuery() const {
    return completed == 0 ? 0 : cpu_s * 1e3 / static_cast<double>(completed);
  }
};

// ---------------------------------------------------------------------------
// Direct executor calls (bulk_chain, skew_mn, and the traced engine passes
// of serve_warm).

struct Outcome {
  bool ok = false;
  double ms = 0;
  // CPU the benchmark itself spent checking the result.
  double verify_cpu_s = 0;
  ThreadQueryResult exec;
  ProcessNetStats net;
  ProcessExecStats proc;
};

ThreadExecOptions ExecOptions(const Workload& w, bool traced) {
  ThreadExecOptions options;
  // collect_metrics defaults to true: timed runs turn it off explicitly.
  options.collect_metrics = traced;
  options.record_trace = traced;
  options.materialize_result = w.skewed;
  if (w.skewed) options.skew_defense = BenchDefense();
  return options;
}

Outcome ExecuteDirect(Engine& e, const Workload& w, Path path,
                      WarmProcessFleet* fleet, const DeckPlan& p,
                      const ResultSummary& ref, bool traced, Tally* tally) {
  Outcome out;
  const int b = BackendIndex(path);
  ++tally->attempted[b];
  Status status;
  if (path == Path::kThread) {
    const double start = Now();
    auto run = e.threads->Execute(p.plan, ExecOptions(w, traced));
    out.ms = (Now() - start) * 1e3;
    if (run.ok()) {
      out.exec = *std::move(run);
    } else {
      status = run.status();
    }
  } else {
    ProcessExecOptions options;
    options.exec = ExecOptions(w, traced);
    options.num_workers = kWorkers;
    options.use_shm_data_plane = true;
    const double start = Now();
    auto run = path == Path::kOneShot ? e.oneshot->Execute(p.plan, options)
                                      : fleet->Execute(p.plan, options);
    out.ms = (Now() - start) * 1e3;
    if (run.ok()) {
      out.exec = std::move(run->exec);
      out.net = run->net;
      out.proc = std::move(run->proc);
    } else {
      status = run.status();
    }
  }
  if (!status.ok()) {
    ++tally->failed[b];
    std::fprintf(stderr, "query %s on %s failed: %s\n", p.label.c_str(),
                 kBackendNames[b], status.ToString().c_str());
    return out;
  }
  const double verify_start = ThreadCpuSeconds();
  bool match = out.exec.result == ref;
  if (w.skewed) {
    match = match && out.exec.materialized.has_value() &&
            SummarizeRelation(*out.exec.materialized) == ref;
  }
  out.verify_cpu_s = ThreadCpuSeconds() - verify_start;
  out.exec.materialized.reset();
  if (!match) {
    ++tally->failed[b];
    ++tally->mismatched;
    std::fprintf(stderr, "query %s on %s: result differs from the reference\n",
                 p.label.c_str(), kBackendNames[b]);
    return out;
  }
  out.ok = true;
  return out;
}

// Per-layer counters summed over the traced queries of one backend.
struct LayerTotals {
  uint64_t queries = 0;
  double batches = 0;
  double buffer_allocs = 0;
  double queue_overflows = 0;
  double peak_queue_depth = 0;
  double blocked_s = 0;
  double utilization = 0;
  double imbalance = 0;
  double build_s = 0;
  double probe_s = 0;
  double pipeline_s = 0;
  double scan_s = 0;
  double rows_out = 0;
  double collisions = 0;
  double peak_op_bytes = 0;
  double control_frames = 0;
  double socket_bytes = 0;
  double shm_bytes = 0;
  double ring_stalls = 0;
  double serialize_s = 0;
  double deserialize_s = 0;
  double retries = 0;
  double hot_keys = 0;
  double replicated = 0;
  double repartitioned = 0;
  double bloom_filtered = 0;
  double bloom_build_s = 0;
  double bloom_fp_rate = 0;

  void Add(const Outcome& o) {
    const ThreadExecStats& s = o.exec.stats;
    ++queries;
    batches += static_cast<double>(s.batches_sent);
    buffer_allocs += static_cast<double>(s.batch_buffers_allocated);
    queue_overflows += static_cast<double>(s.queue_overflows);
    peak_queue_depth =
        std::max(peak_queue_depth, static_cast<double>(s.peak_queue_depth));
    utilization += o.exec.utilization;
    if (o.exec.trace != nullptr) {
      // Busy seconds per worker lane; kBlocked is waiting, not work.
      std::vector<double> busy;
      for (const auto& lane : o.exec.trace->events_by_worker()) {
        double lane_busy = 0;
        for (const ThreadTraceEvent& event : lane) {
          const double secs =
              static_cast<double>(event.end_ns - event.start_ns) * 1e-9;
          if (event.type == ThreadWorkType::kBlocked) {
            blocked_s += secs;
          } else {
            lane_busy += secs;
          }
        }
        busy.push_back(lane_busy);
      }
      const double mean = Mean(busy);
      if (mean > 0) {
        imbalance += *std::max_element(busy.begin(), busy.end()) / mean;
      }
    }
    double op_bytes = 0;
    for (const ThreadOpStats& op : s.per_op) {
      const OpMetrics& m = op.metrics;
      build_s += m.build_seconds;
      probe_s += m.probe_seconds;
      pipeline_s += m.pipeline_seconds;
      scan_s += m.scan_seconds;
      rows_out += static_cast<double>(m.rows_out);
      collisions += static_cast<double>(m.hash_collisions);
      op_bytes += static_cast<double>(m.peak_memory_bytes);
      hot_keys += static_cast<double>(m.skew_hot_keys);
      replicated += static_cast<double>(m.skew_replicated_rows);
      repartitioned += static_cast<double>(m.skew_repartitioned_rows);
      bloom_filtered += static_cast<double>(m.skew_bloom_filtered_rows);
      bloom_build_s += m.skew_bloom_build_seconds;
      bloom_fp_rate = std::max(bloom_fp_rate, m.skew_bloom_fp_rate);
    }
    peak_op_bytes = std::max(peak_op_bytes, op_bytes);
    control_frames +=
        static_cast<double>(o.net.frames_sent + o.net.frames_received);
    socket_bytes +=
        static_cast<double>(o.net.bytes_sent + o.net.bytes_received);
    shm_bytes += static_cast<double>(o.net.shm_bytes_sent);
    ring_stalls += static_cast<double>(o.net.ring_full_stalls);
    serialize_s += o.net.serialize_seconds;
    deserialize_s += o.net.deserialize_seconds;
    retries += static_cast<double>(o.proc.retries);
  }

  double PerQuery(double total) const {
    return queries == 0 ? 0 : total / static_cast<double>(queries);
  }
};

// Runs whole passes over the deck until `seconds` have passed and at
// least `min_passes` passes are done. Only passes end a phase, so every
// plan runs equally often.
Phase RunDirectPhase(Engine& e, const Workload& w, Path path,
                     WarmProcessFleet* fleet,
                     const std::vector<ResultSummary>& refs, double seconds,
                     int min_passes, bool traced, Tally* tally,
                     LayerTotals* layers) {
  // Workers forked during the phase inherit this process's resident
  // pages; returning what earlier phases freed keeps that footprint the
  // same from run to run.
  TrimHeap();
  Phase phase;
  phase.ms.resize(e.deck.size());
  const std::vector<pid_t> pids =
      FleetPids({e.warm_fleet(), fleet == e.warm_fleet() ? nullptr : fleet});
  const double cpu_start = SystemCpuSeconds(pids);
  double verify_cpu = 0;
  const double start = Now();
  for (int pass = 0; pass < min_passes || Now() - start < seconds; ++pass) {
    for (size_t i = 0; i < e.deck.size(); ++i) {
      const DeckPlan& p = e.deck[i];
      Outcome o =
          ExecuteDirect(e, w, path, fleet, p, refs[p.query], traced, tally);
      verify_cpu += o.verify_cpu_s;
      if (!o.ok) continue;
      phase.ms[i].push_back(o.ms);
      ++phase.completed;
      if (layers != nullptr) layers->Add(o);
    }
  }
  phase.cpu_s = SystemCpuSeconds(pids) - cpu_start - verify_cpu;
  phase.verify_cpu_s = verify_cpu;
  return phase;
}

// One-shot workers are forked per query and inherit every resident page of
// this process, so fork and exit cost grow with its footprint. Releasing
// the thread backend's pools and arenas before a one-shot phase makes the
// workers fork from the footprint `mjoin_cli run --backend process` has:
// the database and the plans.
void ReleaseThreadBackend(Engine& e) {
  e.threads.reset();
  TrimHeap();
}

// ---------------------------------------------------------------------------
// Serving (serve_warm).

struct ServeSample {
  double ms = 0;
  double queue_s = 0;
  double exec_s = 0;
};

// `clients` closed-loop clients, one tenant each, starting at different
// deck offsets; each runs whole rotations of the deck.
Phase RunServePhase(Engine& e, ServeBackend backend, const std::string& socket,
                    const std::vector<ResultSummary>& refs, double seconds,
                    int min_passes, int clients, Tally* tally,
                    std::vector<ServeSample>* samples) {
  const size_t n = e.deck.size();
  const int b = backend == ServeBackend::kThread ? 0 : 1;
  std::vector<Phase> per_client(clients);
  std::vector<Tally> tallies(clients);
  std::vector<std::vector<ServeSample>> client_samples(clients);
  TrimHeap();
  const std::vector<pid_t> pids = FleetPids({e.warm_fleet()});
  const double cpu_start = SystemCpuSeconds(pids);
  const double start = Now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Phase& phase = per_client[c];
      Tally& t = tallies[c];
      phase.ms.resize(n);
      auto client = ServeClient::Connect(socket);
      if (!client.ok()) {
        ++t.attempted[b];
        ++t.failed[b];
        std::fprintf(stderr, "connect failed: %s\n",
                     client.status().ToString().c_str());
        return;
      }
      const size_t offset = static_cast<size_t>(c) * n / clients;
      uint64_t seq = 0;
      for (int pass = 0; pass < min_passes || Now() - start < seconds;
           ++pass) {
        for (size_t k = 0; k < n; ++k) {
          const size_t i = (offset + k) % n;
          SubmitMsg submit;
          submit.client_seq = seq++;
          submit.tenant = "client-" + std::to_string(c);
          submit.backend = backend;
          submit.plan_text = e.deck[i].text;
          submit.deadline_ms = kAwaitMs;
          ++t.attempted[b];
          const double sent = Now();
          Status sent_ok = client.value()->Submit(submit);
          auto result = sent_ok.ok() ? client.value()->Await(kAwaitMs)
                                     : StatusOr<QueryResultMsg>(sent_ok);
          const double ms = (Now() - sent) * 1e3;
          if (!result.ok()) {
            // The connection is unusable (or a reply is still in flight):
            // this client stops.
            ++t.failed[b];
            std::fprintf(stderr, "client %d: %s\n", c,
                         result.status().ToString().c_str());
            return;
          }
          if (result->status_code != 0) {
            ++t.failed[b];
            std::fprintf(stderr, "query %s failed: %s\n",
                         e.deck[i].label.c_str(), result->message.c_str());
            continue;
          }
          const ResultSummary got{result->cardinality, result->checksum};
          if (!(got == refs[e.deck[i].query])) {
            ++t.failed[b];
            ++t.mismatched;
            std::fprintf(stderr, "query %s: result differs from reference\n",
                         e.deck[i].label.c_str());
            continue;
          }
          phase.ms[i].push_back(ms);
          ++phase.completed;
          client_samples[c].push_back(
              {ms, result->queue_seconds, result->wall_seconds});
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Phase merged;
  merged.ms.resize(n);
  for (int c = 0; c < clients; ++c) {
    tally->Merge(tallies[c]);
    merged.completed += per_client[c].completed;
    for (size_t i = 0; i < per_client[c].ms.size(); ++i) {
      merged.ms[i].insert(merged.ms[i].end(), per_client[c].ms[i].begin(),
                          per_client[c].ms[i].end());
    }
    if (samples != nullptr) {
      samples->insert(samples->end(), client_samples[c].begin(),
                      client_samples[c].end());
    }
  }
  merged.cpu_s = SystemCpuSeconds(pids) - cpu_start;
  return merged;
}

// ---------------------------------------------------------------------------
// Set-up.

struct SetupTimes {
  // CPU seconds of the system under test: this process, reaped one-shot
  // workers and the live fleet's workers. This is setup_s. Wall time is
  // only a per-layer metric, because in minutes of VM steal a warm-up
  // pass of P=4 queries takes 40% longer while its CPU moves far less.
  double cpu_s = 0;
  double wall_s = 0;
  double generate_s = 0;
  double parallelize_ms = 0;
  double server_start_ms = 0;
};

// Data generation, plan deck, executor / server / fleet start, and one
// untimed warm-up pass over the deck per backend (fills the plan cache
// and the batch pools).
std::unique_ptr<Engine> Setup(const Workload& w, const RunOptions& opt,
                              const std::vector<ResultSummary>& refs,
                              Tally* tally, SetupTimes* times) {
  const double start = Now();
  const double cpu_start = SelfCpuSeconds() + ChildrenCpuSeconds();
  auto e = std::make_unique<Engine>();
  e->db = Generate(w, opt.seed);
  times->generate_s = Now() - start;
  times->parallelize_ms = MakeDeck(w, &e->deck) * 1e3;
  double verify_cpu = 0;
  e->threads = std::make_unique<ThreadExecutor>(&e->db);
  if (w.serve) {
    MjoinServeOptions options;
    options.socket_path = opt.socket_path;
    options.exec_threads = 2;
    options.fleet.num_workers = kWorkers;
    options.fleet.use_shm_data_plane = true;
    const double server_start = Now();
    auto server = MjoinServer::Start(&e->db, options);
    MJOIN_CHECK(server.ok()) << server.status();
    times->server_start_ms = (Now() - server_start) * 1e3;
    e->server = *std::move(server);
    for (ServeBackend backend : {ServeBackend::kThread, ServeBackend::kProcess}) {
      RunServePhase(*e, backend, opt.socket_path, refs, 0, 1, 1, tally,
                    nullptr);
    }
  } else {
    if (w.process_path == Path::kOneShot) {
      e->oneshot = std::make_unique<ProcessExecutor>(&e->db);
    } else {
      WarmFleetOptions options;
      options.num_workers = kWorkers;
      options.use_shm_data_plane = true;
      auto fleet = WarmProcessFleet::Spawn(&e->db, options);
      MJOIN_CHECK(fleet.ok()) << fleet.status();
      e->fleet = *std::move(fleet);
    }
    // Process first: one-shot workers then fork from this process before
    // the thread backend has grown its pools.
    for (Path path : {w.process_path, Path::kThread}) {
      verify_cpu += RunDirectPhase(*e, w, path, e->fleet.get(), refs, 0, 1,
                                   false, tally, nullptr)
                        .verify_cpu_s;
    }
  }
  times->wall_s = Now() - start;
  times->cpu_s = SystemCpuSeconds(FleetPids({e->warm_fleet()})) - cpu_start -
                 verify_cpu;
  return e;
}

// ---------------------------------------------------------------------------
// Micro-timings of single module calls on the workload's own data.

// Median over `reps` of fn()'s seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const double start = Now();
    fn();
    secs.push_back(Now() - start);
  }
  return Median(secs);
}

std::vector<int32_t> JoinKeys(const Relation& rel) {
  std::vector<int32_t> keys(rel.num_tuples());
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = rel.tuple(i).GetInt32(0);
  return keys;
}

const Relation& Rel(const Engine& e, const char* name) {
  auto rel = e.db.Get(name);
  MJOIN_CHECK(rel.ok()) << rel.status();
  return **rel;
}

// The sink keeps the timed loops from being optimized away.
volatile uint64_t g_sink = 0;

// JoinHashTable::Insert of rel0 and ProbeBatch of rel1's keys: the
// workload's own first join, on its join column.
void TimeHashTable(const Engine& e, std::map<std::string, double>* m) {
  const Relation& build = Rel(e, "rel0");
  const std::vector<int32_t> probe_keys = JoinKeys(Rel(e, "rel1"));
  auto schema = std::make_shared<const Schema>(build.schema());
  const size_t rows = build.num_tuples();
  const size_t width = build.schema().tuple_size();
  const double insert_s = MedianSeconds(5, [&] {
    JoinHashTable table(schema, 0);
    for (size_t i = 0; i < rows; ++i) table.Insert(build.raw_data() + i * width);
    g_sink = g_sink + table.size();
  });
  JoinHashTable table(schema, 0);
  for (size_t i = 0; i < rows; ++i) table.Insert(build.raw_data() + i * width);
  const double probe_s = MedianSeconds(5, [&] {
    uint64_t matches = 0;
    for (size_t off = 0; off < probe_keys.size(); off += 256) {
      const size_t len = std::min<size_t>(256, probe_keys.size() - off);
      matches += table.ProbeBatch(probe_keys.data() + off, len,
                                  [](size_t, const TupleRef&) {});
    }
    g_sink = g_sink + matches;
  });
  (*m)["exec.insert_ns_per_row"] = insert_s * 1e9 / static_cast<double>(rows);
  (*m)["exec.probe_ns_per_row"] =
      probe_s * 1e9 / static_cast<double>(probe_keys.size());
}

// AppendBatchWire + ReadBatchWire of a 256-row batch of rel0.
void TimeCodec(const Engine& e, std::map<std::string, double>* m) {
  const Relation& rel = Rel(e, "rel0");
  SchemaRegistry registry(e.deck.front().plan);
  auto schema_id = registry.IdOf(rel.schema());
  MJOIN_CHECK(schema_id.ok()) << schema_id.status();
  auto schema = std::make_shared<const Schema>(rel.schema());
  TupleBatch batch(schema);
  batch.AppendRows(rel.raw_data(), std::min<size_t>(256, rel.num_tuples()));
  TupleBatch decoded(schema);
  std::vector<std::byte> wire;
  constexpr int kRounds = 2000;
  const double secs = MedianSeconds(5, [&] {
    for (int r = 0; r < kRounds; ++r) {
      wire.clear();
      AppendBatchWire(batch, *schema_id, &wire);
      WireReader reader(wire);
      MJOIN_CHECK(ReadBatchWire(&reader, registry, &decoded).ok());
    }
  });
  (*m)["net.codec_mb_per_s"] =
      static_cast<double>(batch.byte_size()) * kRounds / secs / 1e6;
}

// SpaceSavingSketch::Observe and BloomFilter::MayContain on the
// workload's join keys, at the defense's own sketch and filter sizes.
void TimeSkewStructures(const Engine& e, std::map<std::string, double>* m) {
  const std::vector<int32_t> build_keys = JoinKeys(Rel(e, "rel0"));
  const std::vector<int32_t> probe_keys = JoinKeys(Rel(e, "rel1"));
  const SkewDefenseOptions defense = BenchDefense();
  constexpr int kRounds = 20;
  const double observe_s = MedianSeconds(5, [&] {
    for (int r = 0; r < kRounds; ++r) {
      SpaceSavingSketch sketch(defense.sketch_capacity);
      for (int32_t key : build_keys) sketch.Observe(key);
      g_sink = g_sink + sketch.total();
    }
  });
  BloomFilter filter(defense.bloom_bits);
  for (int32_t key : build_keys) filter.Insert(key);
  const double contain_s = MedianSeconds(5, [&] {
    uint64_t hits = 0;
    for (int r = 0; r < kRounds; ++r) {
      for (int32_t key : probe_keys) hits += filter.MayContain(key) ? 1 : 0;
    }
    g_sink = g_sink + hits;
  });
  (*m)["skew.observe_ns_per_key"] =
      observe_s * 1e9 / static_cast<double>(kRounds * build_keys.size());
  (*m)["skew.may_contain_ns_per_key"] =
      contain_s * 1e9 / static_cast<double>(kRounds * probe_keys.size());
}

// ParsePlan / SerializePlan per deck plan: the median call per plan,
// averaged over the deck.
void TimeXra(const Engine& e, std::map<std::string, double>* m) {
  std::vector<double> parse_us, serialize_us, kb;
  for (const DeckPlan& p : e.deck) {
    parse_us.push_back(MedianSeconds(21, [&] {
                         auto parsed = ParsePlan(p.text);
                         MJOIN_CHECK(parsed.ok()) << parsed.status();
                       }) *
                       1e6);
    serialize_us.push_back(
        MedianSeconds(21, [&] { g_sink = g_sink + SerializePlan(p.plan).size(); }) *
        1e6);
    kb.push_back(static_cast<double>(p.text.size()) / 1024.0);
  }
  (*m)["xra.parse_us"] = Mean(parse_us);
  (*m)["xra.serialize_us"] = Mean(serialize_us);
  (*m)["xra.plan_kb"] = Mean(kb);
}

// ---------------------------------------------------------------------------
// Metric catalogue.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"cpu_ms_per_query.thread", "ms"},
    {"cpu_ms_per_query.process", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"worker_peak_rss_mb", "MB"},
};

// Per-layer metrics; "*" marks one metric per backend (.thread/.process).
// Wall-clock latency is here and not among the end-to-end metrics: on a
// VM, minutes of steal (up to a fifth of every vCPU) stretch a P=4 query
// by up to 80%, because every instance waits for the one whose vCPU is
// descheduled, while CPU per query moves by under 10%.
constexpr MetricDef kPerLayer[] = {
    {"query_ms*", "ms"},
    {"setup.wall_s", "s"},
    {"workload.generate_s", "s"},
    {"strategy.parallelize_ms", "ms"},
    {"xra.parse_us", "us"},
    {"xra.serialize_us", "us"},
    {"xra.plan_kb", "kB"},
    {"serve.start_ms", "ms"},
    {"serve.queue_ms*", "ms"},
    {"serve.exec_ms*", "ms"},
    {"serve.overhead_ms*", "ms"},
    {"serve.plan_cache_hit_ratio", "ratio"},
    {"serve.p90_ms*", "ms"},
    {"engine.fleet_spawn_ms", "ms"},
    {"engine.oneshot_overhead_ms", "ms"},
    {"engine.batches_per_query*", "count"},
    {"engine.peak_queue_depth*", "count"},
    {"engine.queue_overflows*", "count"},
    {"engine.buffer_allocs_per_query*", "count"},
    {"engine.blocked_ms*", "ms"},
    {"engine.utilization*", "ratio"},
    {"engine.busy_imbalance*", "ratio"},
    {"engine.control_frames_per_query", "count"},
    {"engine.retries", "count"},
    {"exec.build_ms*", "ms"},
    {"exec.probe_ms*", "ms"},
    {"exec.pipeline_ms*", "ms"},
    {"exec.scan_ms*", "ms"},
    {"exec.rows_out_per_query", "count"},
    {"exec.hash_collisions_per_query", "count"},
    {"exec.peak_op_mb", "MB"},
    {"exec.insert_ns_per_row", "ns"},
    {"exec.probe_ns_per_row", "ns"},
    {"net.shm_mb_per_query", "MB"},
    {"net.ring_full_stalls_per_query", "count"},
    {"net.serialize_ms", "ms"},
    {"net.deserialize_ms", "ms"},
    {"net.socket_kb_per_query", "kB"},
    {"net.codec_mb_per_s", "MB/s"},
    {"skew.hot_keys", "count"},
    {"skew.replicated_rows", "count"},
    {"skew.repartitioned_rows", "count"},
    {"skew.bloom_filtered_rows", "count"},
    {"skew.bloom_fp_rate", "ratio"},
    {"skew.bloom_build_ms", "ms"},
    {"skew.observe_ns_per_key", "ns"},
    {"skew.may_contain_ns_per_key", "ns"},
    {"host.steal_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

// Emits `defs` in order, expanding "*" per backend; a metric the run did
// not measure (its layer is bypassed by this workload) reads 0.
std::vector<Metric> Emit(const MetricDef* defs, size_t count,
                         const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (size_t d = 0; d < count; ++d) {
    std::string name = defs[d].name;
    std::vector<std::string> names;
    if (name.back() == '*') {
      name.pop_back();
      for (const char* backend : kBackendNames) {
        names.push_back(name + "." + backend);
      }
    } else {
      names.push_back(name);
    }
    for (const std::string& full : names) {
      auto it = values.find(full);
      out.push_back({full, it == values.end() ? 0 : it->second, defs[d].unit});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The traced run.

// Times the public calls into each module and reads the stats structs
// they return. Engine passes run untraced and traced over the same deck;
// their ratio is the tracing overhead.
void TraceRun(Engine& e, const Workload& w, const RunOptions& opt,
              const std::vector<ResultSummary>& refs,
              const std::vector<SetupTimes>& setups, Tally* tally,
              std::map<std::string, double>* m) {
  const int min_passes = opt.smoke ? 1 : 2;
  const double slice = opt.seconds / 8;
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& s : setups) values.push_back(s.*field);
    return Median(values);
  };
  (*m)["setup.wall_s"] = median_of(&SetupTimes::wall_s);
  (*m)["workload.generate_s"] = median_of(&SetupTimes::generate_s);
  (*m)["strategy.parallelize_ms"] = median_of(&SetupTimes::parallelize_ms);

  if (w.serve) {
    (*m)["serve.start_ms"] = median_of(&SetupTimes::server_start_ms);
    const PlanCacheStats before = e.server->plan_cache_stats();
    for (ServeBackend backend :
         {ServeBackend::kThread, ServeBackend::kProcess}) {
      const std::string suffix =
          backend == ServeBackend::kThread ? ".thread" : ".process";
      std::vector<ServeSample> samples;
      const Phase phase =
          RunServePhase(e, backend, opt.socket_path, refs, 2 * slice,
                        min_passes, kServeClients, tally, &samples);
      (*m)["query_ms" + suffix] = phase.QueryMs();
      std::vector<double> latency, queue, exec, overhead;
      for (const ServeSample& s : samples) {
        latency.push_back(s.ms);
        queue.push_back(s.queue_s * 1e3);
        exec.push_back(s.exec_s * 1e3);
        overhead.push_back(s.ms - (s.queue_s + s.exec_s) * 1e3);
      }
      (*m)["serve.queue_ms" + suffix] = Median(queue);
      (*m)["serve.exec_ms" + suffix] = Median(exec);
      (*m)["serve.overhead_ms" + suffix] = Median(overhead);
      (*m)["serve.p90_ms" + suffix] = Percentile(latency, 90);
    }
    const PlanCacheStats after = e.server->plan_cache_stats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double lookups =
        hits + static_cast<double>(after.misses - before.misses);
    (*m)["serve.plan_cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0;
  }

  // Engine passes: the workload's own direct calls (for serve_warm, the
  // same plans on a local thread executor and on the server's fleet).
  const Path paths[2] = {Path::kThread, w.process_path};
  Phase untraced[2], traced[2];
  LayerTotals layers[2];
  for (int b = 0; b < 2; ++b) {
    if (paths[b] == Path::kOneShot) ReleaseThreadBackend(e);
    untraced[b] = RunDirectPhase(e, w, paths[b], e.warm_fleet(), refs, slice,
                                 min_passes, false, tally, nullptr);
    traced[b] = RunDirectPhase(e, w, paths[b], e.warm_fleet(), refs, slice,
                               min_passes, true, tally, &layers[b]);
    // serve_warm's latency is the clients', measured above.
    if (!w.serve) {
      (*m)[std::string("query_ms.") + kBackendNames[b]] = untraced[b].QueryMs();
    }
  }
  (*m)["trace.overhead_frac"] =
      GeoMean({traced[0].QueryMs() / untraced[0].QueryMs(),
               traced[1].QueryMs() / untraced[1].QueryMs()}) -
      1;

  // Fleet spawn, timed on fleets of the benchmark's own; bulk_chain keeps
  // the last one to price its one-shot fork per query.
  std::vector<double> spawn_ms;
  std::unique_ptr<WarmProcessFleet> fleet;
  for (int r = 0; r < 3; ++r) {
    fleet.reset();
    WarmFleetOptions options;
    options.num_workers = kWorkers;
    options.use_shm_data_plane = true;
    const double start = Now();
    auto spawned = WarmProcessFleet::Spawn(&e.db, options);
    spawn_ms.push_back((Now() - start) * 1e3);
    MJOIN_CHECK(spawned.ok()) << spawned.status();
    fleet = *std::move(spawned);
  }
  (*m)["engine.fleet_spawn_ms"] = Median(spawn_ms);
  if (w.process_path == Path::kOneShot) {
    const Phase warm =
        RunDirectPhase(e, w, Path::kWarmFleet, fleet.get(), refs, slice,
                       min_passes, false, tally, nullptr);
    std::vector<double> overhead;
    for (size_t i = 0; i < e.deck.size(); ++i) {
      if (untraced[1].ms[i].empty() || warm.ms[i].empty()) continue;
      overhead.push_back(Median(untraced[1].ms[i]) - Median(warm.ms[i]));
    }
    (*m)["engine.oneshot_overhead_ms"] = Median(overhead);
  }
  fleet.reset();

  for (int b = 0; b < 2; ++b) {
    const LayerTotals& l = layers[b];
    const std::string suffix = std::string(".") + kBackendNames[b];
    (*m)["engine.batches_per_query" + suffix] = l.PerQuery(l.batches);
    (*m)["engine.peak_queue_depth" + suffix] = l.peak_queue_depth;
    (*m)["engine.queue_overflows" + suffix] = l.queue_overflows;
    (*m)["engine.buffer_allocs_per_query" + suffix] =
        l.PerQuery(l.buffer_allocs);
    (*m)["engine.blocked_ms" + suffix] = l.PerQuery(l.blocked_s) * 1e3;
    (*m)["engine.utilization" + suffix] = l.PerQuery(l.utilization);
    (*m)["engine.busy_imbalance" + suffix] = l.PerQuery(l.imbalance);
    (*m)["exec.build_ms" + suffix] = l.PerQuery(l.build_s) * 1e3;
    (*m)["exec.probe_ms" + suffix] = l.PerQuery(l.probe_s) * 1e3;
    (*m)["exec.pipeline_ms" + suffix] = l.PerQuery(l.pipeline_s) * 1e3;
    (*m)["exec.scan_ms" + suffix] = l.PerQuery(l.scan_s) * 1e3;
  }
  // Backend-free counters: per traced query over both backends.
  LayerTotals both;
  for (const LayerTotals& l : layers) {
    both.queries += l.queries;
    both.rows_out += l.rows_out;
    both.collisions += l.collisions;
    both.peak_op_bytes = std::max(both.peak_op_bytes, l.peak_op_bytes);
    both.hot_keys += l.hot_keys;
    both.replicated += l.replicated;
    both.repartitioned += l.repartitioned;
    both.bloom_filtered += l.bloom_filtered;
    both.bloom_build_s += l.bloom_build_s;
    both.bloom_fp_rate = std::max(both.bloom_fp_rate, l.bloom_fp_rate);
  }
  (*m)["exec.rows_out_per_query"] = both.PerQuery(both.rows_out);
  (*m)["exec.hash_collisions_per_query"] = both.PerQuery(both.collisions);
  (*m)["exec.peak_op_mb"] = both.peak_op_bytes / (1 << 20);
  (*m)["skew.hot_keys"] = both.PerQuery(both.hot_keys);
  (*m)["skew.replicated_rows"] = both.PerQuery(both.replicated);
  (*m)["skew.repartitioned_rows"] = both.PerQuery(both.repartitioned);
  (*m)["skew.bloom_filtered_rows"] = both.PerQuery(both.bloom_filtered);
  (*m)["skew.bloom_fp_rate"] = both.bloom_fp_rate;
  (*m)["skew.bloom_build_ms"] = both.PerQuery(both.bloom_build_s) * 1e3;

  // Process-only counters.
  const LayerTotals& p = layers[1];
  (*m)["engine.control_frames_per_query"] = p.PerQuery(p.control_frames);
  (*m)["engine.retries"] = p.retries;
  (*m)["net.shm_mb_per_query"] = p.PerQuery(p.shm_bytes) / (1 << 20);
  (*m)["net.ring_full_stalls_per_query"] = p.PerQuery(p.ring_stalls);
  (*m)["net.serialize_ms"] = p.PerQuery(p.serialize_s) * 1e3;
  (*m)["net.deserialize_ms"] = p.PerQuery(p.deserialize_s) * 1e3;
  (*m)["net.socket_kb_per_query"] = p.PerQuery(p.socket_bytes) / 1024;

  TimeXra(e, m);
  TimeHashTable(e, m);
  TimeCodec(e, m);
  // The defense runs only on skew_mn; elsewhere its layer is bypassed.
  if (w.skewed) TimeSkewStructures(e, m);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"serve_warm", "bulk_chain", "skew_mn"};
}

RunReport RunWorkload(const RunOptions& opt) {
  const Workload w = Describe(opt.workload, opt.smoke);
  const CpuTimes host_start = ReadHostCpuTimes();

  // References first, in this process; their memory is returned to the
  // kernel and the RSS high-water mark reset before set-up starts.
  const std::vector<ResultSummary> refs = ComputeReferences(w, opt.seed);
  TrimHeap();
  const bool hwm_reset = ResetPeakRss();

  Tally tally;
  std::vector<SetupTimes> setups(opt.smoke ? 1 : w.setup_reps);
  std::unique_ptr<Engine> e;
  for (SetupTimes& times : setups) {
    e.reset();
    TrimHeap();
    e = Setup(w, opt, refs, &tally, &times);
  }

  std::map<std::string, double> values;
  if (!opt.trace) {
    const double phase_s = opt.seconds / 2;
    const int min_passes = opt.smoke ? 1 : kMinPasses;
    Phase phases[2];
    if (w.serve) {
      phases[0] = RunServePhase(*e, ServeBackend::kThread, opt.socket_path,
                                refs, phase_s, min_passes, kServeClients,
                                &tally, nullptr);
      phases[1] = RunServePhase(*e, ServeBackend::kProcess, opt.socket_path,
                                refs, phase_s, min_passes, kServeClients,
                                &tally, nullptr);
    } else {
      phases[0] = RunDirectPhase(*e, w, Path::kThread, nullptr, refs, phase_s,
                                 min_passes, false, &tally, nullptr);
      if (w.process_path == Path::kOneShot) ReleaseThreadBackend(*e);
      phases[1] = RunDirectPhase(*e, w, w.process_path, e->fleet.get(), refs,
                                 phase_s, min_passes, false, &tally, nullptr);
    }
    for (int b = 0; b < 2; ++b) {
      const std::string suffix = std::string(".") + kBackendNames[b];
      values["cpu_ms_per_query" + suffix] = phases[b].CpuMsPerQuery();
    }
    std::vector<double> setup_s;
    for (const SetupTimes& s : setups) setup_s.push_back(s.cpu_s);
    values["setup_s"] = Median(setup_s);
  } else {
    TraceRun(*e, w, opt, refs, setups, &tally, &values);
  }
  values["peak_rss_mb"] = SelfPeakRssMb();
  // The warm fleet that served the timed queries is read before shutdown;
  // fleets of earlier set-ups were forked from a different heap and would
  // make the maximum depend on which set-up left the most behind. One-shot
  // workers are reaped per query, so their mark is the children's.
  double worker_peak = 0;
  for (pid_t pid : FleetPids({e->warm_fleet()})) {
    worker_peak = std::max(worker_peak, ProcessPeakRssMb(pid));
  }
  e.reset();
  values["worker_peak_rss_mb"] =
      w.process_path == Path::kOneShot ? ChildrenPeakRssMb() : worker_peak;
  const double steal = StealFraction(host_start, ReadHostCpuTimes());
  values["host.steal_frac"] = steal;

  RunReport report;
  report.correct = tally.mismatched == 0;
  for (int b = 0; b < 2; ++b) {
    report.attempted += tally.attempted[b];
    report.failed += tally.failed[b];
  }
  report.metrics =
      opt.trace ? Emit(kPerLayer, std::size(kPerLayer), values)
                : Emit(kEndToEnd, std::size(kEndToEnd), values);

  JsonObject attempted, failed;
  for (int b = 0; b < 2; ++b) {
    attempted.Integer(kBackendNames[b], tally.attempted[b]);
    failed.Integer(kBackendNames[b], tally.failed[b]);
  }
  JsonObject diag;
  diag.String("workload", w.name)
      .Integer("seed", opt.seed)
      .Integer("nproc", std::thread::hardware_concurrency())
      .String("compiler", __VERSION__)
      .String("build_type", MJBENCH_BUILD_TYPE)
      .Number("host.steal_frac", steal)
      .Bool("peak_rss_reset", hwm_reset)
      .Integer("deck_plans", w.shapes.size() * std::size(kAllStrategies))
      .Raw("attempted", attempted.str())
      .Raw("failed", failed.str());
  report.diag_json = diag.str();
  return report;
}

}  // namespace mjoin::bench
