#include "engine/process_executor.h"

#include <errno.h>
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "engine/controller.h"
#include "engine/database.h"
#include "engine/fault_injector.h"
#include "engine/process_protocol.h"
#include "engine/process_worker.h"
#include "engine/result.h"
#include "engine/warm_fleet.h"
#include "net/channel.h"
#include "net/net_fault.h"
#include "net/shm_ring.h"
#include "skew/defense.h"
#include "xra/text.h"

namespace mjoin {

namespace {

/// One member of a worker fleet: the child pid and the coordinator end of
/// its socketpair. The channel's link phase (FrameChannel::phase()) is how
/// far the member has got in the current query: handshake, execute,
/// report, and back to await-plan once its report parked it. The channel
/// accumulates its byte/frame counters across queries; `base` pins them at
/// the start of the current one.
struct FleetMember {
  pid_t pid = -1;
  std::unique_ptr<FrameChannel> chan;
  /// The socket is dead (EOF or error); no further I/O on this member.
  bool closed = false;
  bool reaped = false;
  /// Channel counters when the current query attached.
  ChannelStats base;
};

/// Reaps child `pid`, giving it `patience_polls` 10 ms polls to exit on its
/// own before SIGKILL. The final blocking waitpid is unconditional, so no
/// path leaves a zombie.
void ReapChild(pid_t pid, int patience_polls) {
  int wstatus = 0;
  for (int spin = 0; spin < patience_polls; ++spin) {
    pid_t got = waitpid(pid, &wstatus, WNOHANG);
    if (got < 0 && errno == EINTR) continue;  // interrupted, not reaped
    if (got == pid || got < 0) return;  // got < 0: ECHILD, already collected
    struct pollfd none;
    none.fd = -1;
    none.events = 0;
    none.revents = 0;
    poll(&none, 1, 10);  // portable 10 ms sleep
  }
  kill(pid, SIGKILL);
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
}

/// A worker fleet: the members, the shm arena and the database they
/// inherit, and the only code that forks, tears down and reaps them.
/// ProcessExecutor spawns one for a single query; WarmProcessFleet keeps
/// one for many. Attempts borrow it: a per-attempt Coordinator drives the
/// members and never kills or reaps them on its own — except diagnosing
/// an already-dead member, which it marks reaped. No child outlives the
/// fleet.
struct FleetState {
  /// The arena holds `ring_slots` rings of `ring_bytes` data bytes each:
  /// the plan's own directory for a one-shot query, the worst case n^2 of
  /// an n-worker fleet (any plan fits) for a warm one.
  FleetState(const Database* db, uint32_t workers, uint32_t bytes_per_ring,
             size_t slots)
      : database(db),
        num_workers(workers),
        ring_bytes(bytes_per_ring),
        ring_slots(slots) {}
  /// Graceful unless poisoned (then SIGKILL); either way every child is
  /// reaped.
  ~FleetState() { TearDown(/*graceful=*/!poisoned); }
  FleetState(const FleetState&) = delete;
  FleetState& operator=(const FleetState&) = delete;

  /// Also true once the database changed since the members forked: their
  /// scans would read the copy they inherited.
  bool NeedsSpawn() const {
    return poisoned || members.empty() ||
           database_version != database->version();
  }
  /// Kills any members left and forks fresh ones, which inherit the
  /// database as it is now. The first spawn checks the ring size and maps
  /// the arena pre-fork; respawns keep the arena, whose rings every attach
  /// reformats anyway.
  Status Spawn();
  /// Reaps every member and drops its channel. Graceful: parked workers
  /// exit on a bare kShutdown, each given a bounded moment before SIGKILL.
  /// A poisoned fleet skips that — its workers may be mid-query and deaf
  /// to polite requests.
  void TearDown(bool graceful);

  /// The database every member scans: the coordinator's own, at the same
  /// address in each forked child.
  const Database* const database;
  const uint32_t num_workers;
  const uint32_t ring_bytes;
  const size_t ring_slots;
  std::vector<FleetMember> members;
  std::unique_ptr<ShmArena> arena;
  /// A failed run leaves workers in an unknown state (possibly mid-query);
  /// the fleet must be killed and respawned before the next run.
  bool poisoned = false;
  /// Spawns over the fleet's life; every one after the first replaced a
  /// poisoned (or dead) set of members, or members whose database went
  /// stale.
  uint64_t spawns = 0;
  /// database->version() when the members forked.
  uint64_t database_version = 0;
};

Status FleetState::Spawn() {
  TearDown(/*graceful=*/false);
  ++spawns;
  database_version = database->version();
  // Stays poisoned until every member is up, so a half-forked fleet is
  // never attached to.
  poisoned = true;
  if (arena == nullptr) {
    MJOIN_RETURN_IF_ERROR(ValidateRingBytes(ring_bytes));
    const size_t slot = sizeof(ShmRingHdr) + ring_bytes;
    MJOIN_ASSIGN_OR_RETURN(
        arena, ShmArena::Create(num_workers + 1, slot * ring_slots));
  }
  members.resize(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      return Status::Internal(StrCat("socketpair failed: ", strerror(errno)));
    }
    pid_t pid = fork();
    if (pid < 0) {
      close(sv[0]);
      close(sv[1]);
      return Status::Internal(StrCat("fork failed: ", strerror(errno)));
    }
    if (pid == 0) {
      // Child: drop every descriptor that belongs to the coordinator or a
      // sibling — a worker holding a sibling's socket open would mask that
      // sibling's death from the coordinator. _exit skips atexit handlers
      // and (under ASan) the leak check, both meaningless in a fork child.
      for (uint32_t prev = 0; prev < w; ++prev) {
        close(members[prev].chan->fd());
      }
      close(sv[0]);
      // The shm arena (mapping + doorbells) and the database are
      // deliberately inherited; the child never destroys either — _exit
      // skips destructors and the kernel drops its mapping references.
      _exit(RunProcessWorker(sv[1], arena.get(), database));
    }
    close(sv[1]);
    members[w].pid = pid;
    members[w].chan = std::make_unique<FrameChannel>(
        sv[0], StrCat("worker ", w), LinkRole::kCoordinator);
    MJOIN_RETURN_IF_ERROR(SetNonBlocking(sv[0]));
  }
  poisoned = false;
  return Status::OK();
}

void FleetState::TearDown(bool graceful) {
  if (graceful) {
    for (FleetMember& member : members) {
      if (member.chan == nullptr || member.reaped) continue;
      member.chan->QueueFrame(FrameType::kShutdown, {});
      (void)member.chan->Flush();
    }
  }
  for (FleetMember& member : members) {
    if (member.pid > 0 && !member.reaped) {
      ReapChild(member.pid, graceful ? /*~5 s*/ 500 : 0);
    }
  }
  members.clear();
}

/// The coordinator of one process-backed attempt: attaches to the fleet
/// (respawning it first when needed), ships the plan, drives the
/// trigger-group scheduler off milestone frames, and folds the workers'
/// reports. Its per-worker state is the fleet member itself: the link
/// phase of its channel says whether the worker said hello or reported,
/// which parked it. Workers scan the database they inherited and
/// exchange batches among themselves over the rings. Single-threaded: one
/// poll loop over all worker sockets and the coordinator's doorbell.
class Coordinator {
 public:
  /// `attempt` is the 0-based retry attempt (shipped to workers in the
  /// plan envelope); `limits` are shared by every attempt of one Execute();
  /// `proc` (nullable) accumulates supervision counters and failure
  /// diagnoses across attempts. The attempt runs on `fleet`'s members and
  /// ends once each has reported, which parks it for the fleet's next
  /// query or its teardown.
  Coordinator(const ParallelPlan& plan, const ProcessExecOptions& options,
              FleetState& fleet, uint32_t attempt, const QueryLimits& limits,
              ProcessExecStats* proc)
      : plan_(plan),
        options_(options),
        exec_(options.exec),
        num_workers_(fleet.num_workers),
        attempt_(attempt),
        proc_(proc),
        fleet_(fleet),
        workers_(fleet.members),
        registry_(plan),
        controller_(&plan, options.exec.skew_defense, limits) {}

  /// The Coordinator only borrows its workers; the fleet does the
  /// killing. It detaches this attempt's net fault injector from every
  /// member on every path out of Run: the caller may destroy the injector
  /// once Execute returns, while the channels live on.
  ~Coordinator() {
    for (FleetMember& member : workers_) {
      if (member.chan != nullptr) member.chan->set_fault_injector(nullptr);
    }
  }

  StatusOr<ProcessQueryResult> Run(QueryStats* stats_out,
                                   ProcessNetStats* net_out);

 private:
  const XraOp& op(int id) const { return plan_.ops[static_cast<size_t>(id)]; }
  int64_t NowSinceEpochNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               // lint:allow-clock trace origin shipped in the handshake
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Respawns the fleet if it is poisoned, empty or forked from a stale
  /// database, pins each member's channel counters, and formats this
  /// query's ring directory over its arena.
  /// Every member is parked then: each one tore its ring view down before
  /// its previous report (or it was just spawned), so no worker is
  /// touching the arena while the rings are reformatted.
  Status AttachFleet();
  void ShipPlans();
  void DispatchGroups(const std::vector<int>& groups);
  /// Once every op completed: kFinish to each worker past its handshake
  /// and not yet told. A worker still in its handshake (it hosts no
  /// instance) gets its kFinish when its kHello arrives.
  void FinishIfComplete();
  /// True once every worker reported: every link is back in await-plan.
  bool AllReported() const {
    return std::all_of(workers_.begin(), workers_.end(),
                       [](const FleetMember& each) {
                         return each.chan->phase() == kPhAwaitPlan;
                       });
  }

  /// One poll-loop turn: flush, poll, read every ready socket, drain the
  /// relay rings, then handle the read frames. Rings drain *before* frames
  /// are handled: a worker publishes its records and only then sends the
  /// control frame that refers to them (kReport after result rows), so the
  /// frame handler can rely on the records being in. Never throws work at
  /// a closed worker.
  void PollOnce(int timeout_ms);
  /// Consumes every published record on the coordinator's inbound relay
  /// rings (result rows during the finish phase).
  void DrainCoordRings();
  void HandleFrame(uint32_t w, Frame frame);
  void HandleWorkerGone(uint32_t w, const Status& status);
  /// The controller holds the attempt's first failure.
  void Abort(Status status) { controller_.Fail(std::move(status)); }
  bool aborted() const { return controller_.failed(); }
  /// OK when worker `w` hosts instance `instance` of op `op`: a worker
  /// speaks only for its own instances.
  Status CheckSender(uint32_t w, int op, uint32_t instance) const;
  /// One supervision turn: refresh per-worker liveness off received-frame
  /// counts, ping every worker not yet parked on the heartbeat cadence,
  /// and SIGKILL any such worker silent past liveness_timeout (diagnosed
  /// as hung).
  void SuperviseFleet();
  /// Appends a diagnosed worker loss to the accumulated exec stats.
  void RecordFailure(uint32_t w, WorkerFailureClass failure,
                     std::string detail);
  /// A worker's bytes failed validation: record the diagnosis and abort
  /// kUnavailable (environmental, so the retry loop may recover).
  void AbortCorruptWire(uint32_t w, const std::string& detail);
  /// True when `verdict` on `frame` from worker `w` is OK; otherwise the
  /// frame is corrupt wire and the query aborts.
  bool Accept(uint32_t w, const Frame& frame, const Status& verdict) {
    if (!verdict.ok()) {
      AbortCorruptWire(w, StrCat("bad ", FrameTypeName(frame.type),
                                 " frame: ", verdict.message()));
    }
    return verdict.ok();
  }
  /// Decodes `frame`'s payload into `*msg`; a payload that does not decode
  /// is corrupt wire from worker `w` and aborts the query.
  template <class M>
  bool DecodeFrom(uint32_t w, const Frame& frame, M* msg) {
    WireReader reader(frame.payload);
    return Accept(w, frame, DecodeMsg(&reader, msg));
  }

  /// Adds the coordinator's own counters to the workers' net stats.
  void GatherNetStats();

  const ParallelPlan& plan_;
  const ProcessExecOptions& options_;
  const ThreadExecOptions& exec_;
  const uint32_t num_workers_;
  const uint32_t attempt_;
  ProcessExecStats* const proc_;
  /// The fleet this attempt borrows its workers from, and its members.
  FleetState& fleet_;
  std::vector<FleetMember>& workers_;

  SchemaRegistry registry_;
  QueryController controller_;
  /// This attempt's ring directory over the fleet's arena.
  std::unique_ptr<ShmDataPlane> plane_;
  std::string plan_text_;
  uint64_t plan_hash_ = 0;
  int64_t trace_origin_ns_ = 0;

  // Supervision state (lazily initialized on the first supervision turn).
  bool supervision_started_ = false;
  uint32_t ping_seq_ = 0;
  std::chrono::steady_clock::time_point next_ping_;
  /// Last time each worker was heard from: any complete, CRC-valid frame,
  /// not only pongs. Raw inbound bytes do not count — after a corrupted
  /// length header they can vanish into a frame that never completes,
  /// and the watchdog must still see that link as silent.
  std::vector<std::chrono::steady_clock::time_point> last_heard_;
  std::vector<uint64_t> frames_seen_;

  // Report accumulators: the workers' reports add up into these.
  ResultSummary summary_;
  std::optional<Relation> materialized_;
  QueryStats stats_;
  ProcessNetStats net_;
  std::shared_ptr<ThreadTraceRecorder> trace_;
};

Status Coordinator::AttachFleet() {
  if (fleet_.NeedsSpawn()) MJOIN_RETURN_IF_ERROR(fleet_.Spawn());
  MJOIN_ASSIGN_OR_RETURN(
      plane_, ShmDataPlane::CreateInArena(
                  fleet_.arena.get(), ComputeRingDirectory(plan_, num_workers_),
                  num_workers_ + 1, fleet_.ring_bytes, /*format=*/true));
  NetFaultInjector* const injector = options_.net_fault_injector;
  for (uint32_t w = 0; w < num_workers_; ++w) {
    FleetMember& member = workers_[w];
    member.base = member.chan->stats();
    // This attempt's injector or none, on every member: no channel may
    // keep one from an earlier query. Installing resets the injector's
    // per-link latches; its fire budget spans attempts, so a one-shot
    // fault breaks this attempt and lets the next one run clean.
    member.chan->set_fault_injector(
        injector != nullptr && injector->scenario().worker == w ? injector
                                                                : nullptr);
    if (options_.worker_observer) options_.worker_observer(w, member.pid);
  }
  return Status::OK();
}

void Coordinator::ShipPlans() {
  std::string fault_scenario;
  if (exec_.fault_injector != nullptr) {
    fault_scenario = SerializeFaultScenario(exec_.fault_injector->scenario());
  }
  for (uint32_t w = 0; w < num_workers_; ++w) {
    PlanEnvelope env;
    env.worker_id = w;
    env.num_workers = num_workers_;
    env.batch_size = exec_.batch_size;
    env.materialize_result = exec_.materialize_result;
    env.memory_budget_bytes = exec_.memory_budget_bytes;
    env.collect_metrics = exec_.collect_metrics;
    env.record_trace = exec_.record_trace;
    env.trace_origin_ns = trace_origin_ns_;
    env.fault_scenario = fault_scenario;
    env.plan_text = plan_text_;
    env.attempt = attempt_;
    env.shm_ring_bytes = plane_->ring_bytes();
    // Shipped in full so the worker derives the same defended-join set
    // and thresholds the coordinator sized its mergers from.
    env.skew_defense = exec_.skew_defense;
    workers_[w].chan->QueueMsg(FrameType::kPlan, env);
  }
}

void Coordinator::DispatchGroups(const std::vector<int>& groups) {
  // Every worker receives every trigger and starts only the instances it
  // hosts; broadcasting is simpler than computing the hosting set here and
  // costs five bytes per worker per group.
  for (int g : groups) {
    std::vector<std::byte> payload;
    EncodeMsg(TriggerMsg{g}, &payload);
    for (FleetMember& w : workers_) {
      if (!w.closed) w.chan->QueueFrame(FrameType::kTrigger, payload);
    }
  }
}

void Coordinator::FinishIfComplete() {
  if (!controller_.AllOpsComplete()) return;
  // Queueing kFinish moves a link to the report phase, so no worker is
  // told twice.
  for (FleetMember& each : workers_) {
    if (!each.closed && each.chan->phase() == kPhExecute) {
      each.chan->QueueFrame(FrameType::kFinish, {});
    }
  }
}

void Coordinator::RecordFailure(uint32_t w, WorkerFailureClass failure,
                                std::string detail) {
  if (proc_ == nullptr) return;
  WorkerFailureRecord record;
  record.attempt = attempt_;
  record.worker = w;
  record.pid = workers_[w].pid;
  record.failure = failure;
  record.detail = std::move(detail);
  proc_->failures.push_back(std::move(record));
}

void Coordinator::AbortCorruptWire(uint32_t w, const std::string& detail) {
  RecordFailure(w, WorkerFailureClass::kCorruptWire, detail);
  Abort(Status::Unavailable(
      StrCat("corrupt wire from worker ", w, ": ", detail)));
}

void Coordinator::SuperviseFleet() {
  if (options_.heartbeat_interval.count() <= 0 &&
      options_.liveness_timeout.count() <= 0) {
    return;
  }
  // lint:allow-clock supervision turn: one read per poll-loop iteration
  auto now = std::chrono::steady_clock::now();
  if (!supervision_started_) {
    supervision_started_ = true;
    next_ping_ = now + options_.heartbeat_interval;
    last_heard_.assign(num_workers_, now);
    frames_seen_.assign(num_workers_, 0);
  }
  for (uint32_t w = 0; w < num_workers_; ++w) {
    FleetMember& worker = workers_[w];
    if (worker.closed) continue;
    uint64_t frames = worker.chan->stats().frames_received;
    if (frames != frames_seen_[w]) {
      frames_seen_[w] = frames;
      last_heard_[w] = now;
    }
  }
  if (options_.heartbeat_interval.count() > 0 && now >= next_ping_) {
    next_ping_ = now + options_.heartbeat_interval;
    HeartbeatMsg ping;
    ping.seq = ping_seq_++;
    std::vector<std::byte> payload;
    EncodeMsg(ping, &payload);
    // A parked worker (its report handled, its link back in await-plan)
    // owes this query nothing more: it is neither pinged nor watched.
    for (FleetMember& worker : workers_) {
      if (worker.closed || worker.chan->phase() == kPhAwaitPlan) continue;
      worker.chan->QueueFrame(FrameType::kPing, payload);
      if (proc_ != nullptr) ++proc_->pings_sent;
    }
  }
  if (options_.liveness_timeout.count() <= 0) return;
  for (uint32_t w = 0; w < num_workers_; ++w) {
    FleetMember& worker = workers_[w];
    // Unpinged, a parked worker is silent by design.
    if (worker.closed || worker.reaped ||
        worker.chan->phase() == kPhAwaitPlan) {
      continue;
    }
    if (now - last_heard_[w] < options_.liveness_timeout) continue;
    // Hung: the process is alive (its socket is open) but has been silent
    // past the liveness deadline — wedged, swapped to death, or cut off by
    // a stalled link. SIGKILL is the only lever that works on all three;
    // the abort is kUnavailable so the retry loop may recover on a fresh
    // fleet.
    kill(worker.pid, SIGKILL);
    auto silent_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                         now - last_heard_[w])
                         .count();
    RecordFailure(w, WorkerFailureClass::kHung,
                  StrCat("silent for ", silent_ms,
                         " ms, past the liveness timeout of ",
                         options_.liveness_timeout.count(), " ms"));
    if (proc_ != nullptr) ++proc_->hung_workers_killed;
    worker.closed = true;
    worker.chan->Close();
    Abort(Status::Unavailable(
        StrCat("worker ", w, " (pid ", worker.pid,
               ") went silent past the liveness timeout and was killed")));
  }
}

Status Coordinator::CheckSender(uint32_t w, int op, uint32_t instance) const {
  MJOIN_RETURN_IF_ERROR(controller_.CheckInstance(op, instance));
  const uint32_t processor =
      plan_.ops[static_cast<size_t>(op)].processors[instance];
  if (WorkerOfProcessor(processor, num_workers_, plan_.num_processors) != w) {
    return Status::InvalidArgument(StrCat("worker ", w,
                                          " does not host instance ",
                                          instance, " of op ", op));
  }
  return Status::OK();
}

void Coordinator::HandleWorkerGone(uint32_t w, const Status& status) {
  FleetMember& worker = workers_[w];
  if (worker.closed) return;
  // Before diagnosing, drain anything the worker managed to say. A worker
  // that reports a typed kError and exits races its buffered error frame
  // against our next flush hitting EPIPE; the typed error must win, or a
  // deterministic worker fault gets misdiagnosed as a crash and retried.
  if (!aborted()) {
    bool ignored = false;
    (void)worker.chan->ReadAvailable(&ignored);
    Frame frame;
    while (!aborted() && worker.chan->NextFrame(&frame)) {
      HandleFrame(w, std::move(frame));
    }
  }
  worker.closed = true;
  worker.chan->Close();
  if (worker.chan->phase() == kPhAwaitPlan) {
    // The worker reported before its link died: the query's result stands,
    // but the fleet lost a member and must respawn before its next query.
    fleet_.poisoned = true;
    return;
  }
  if (aborted()) return;
  // A socket that dies before the worker reported means the worker is
  // gone mid-query. Reap it now (no zombie) and fold its exit status into
  // the error.
  int wstatus = 0;
  std::string cause;
  WorkerFailureClass failure = WorkerFailureClass::kOther;
  pid_t got;
  // A dying process closes its descriptors before it becomes reapable, so
  // the EOF can race waitpid: a killed worker would read as "closed its
  // socket" instead of a diagnosed crash. Give the zombie a bounded
  // moment to materialize (the window is widest under sanitizers, whose
  // address-space teardown is slow); a worker that is alive with a dead
  // socket still falls through to kOther after the budget.
  for (int spin = 0;; ++spin) {
    while ((got = waitpid(worker.pid, &wstatus, WNOHANG)) < 0 &&
           errno == EINTR) {
    }
    if (got == worker.pid || spin >= 64) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (got == worker.pid) {
    worker.reaped = true;
    failure = WorkerFailureClass::kCrashed;
    if (WIFSIGNALED(wstatus)) {
      cause = StrCat("killed by signal ", WTERMSIG(wstatus));
    } else if (WIFEXITED(wstatus)) {
      cause = StrCat("exited with status ", WEXITSTATUS(wstatus));
    } else {
      cause = "exited abnormally";
    }
  } else if (status.message().rfind("corrupt", 0) == 0) {
    // The channel's framing/checksum errors all start with "corrupt": the
    // process is still alive but its byte stream failed validation.
    failure = WorkerFailureClass::kCorruptWire;
    cause = StrCat("sent corrupt bytes (", status.message(), ")");
  } else {
    cause = StrCat("closed its socket (", status.message(), ")");
  }
  RecordFailure(w, failure, cause);
  Abort(Status::Unavailable(StrCat("worker ", w, " (pid ", worker.pid, ") ",
                                   cause, " before completing the query")));
}

void Coordinator::HandleFrame(uint32_t w, Frame frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      HelloMsg hello;
      if (!DecodeFrom(w, frame, &hello)) return;
      if (hello.protocol_version != kNetProtocolVersion) {
        Abort(Status::FailedPrecondition(
            StrCat("worker ", w, " speaks protocol version ",
                   hello.protocol_version, ", coordinator speaks ",
                   kNetProtocolVersion)));
        return;
      }
      if (hello.plan_hash != plan_hash_) {
        // The worker re-serialized what it parsed and got different text:
        // the xra format did not round-trip.
        Abort(Status::Internal(
            StrCat("worker ", w,
                   " echoed a mismatched plan hash: the textual plan did "
                   "not survive the serialize/parse round trip")));
        return;
      }
      if (hello.ring_directory_hash != plane_->directory_hash()) {
        // The worker derived a different ring directory from its parse:
        // had it run, producer and consumer could disagree about which
        // ring carries an edge. Deterministic, so never retried.
        Abort(Status::Internal(
            StrCat("worker ", w,
                   " derived a mismatched shm ring directory from its "
                   "parsed plan")));
        return;
      }
      // The query may have completed while this worker was still in its
      // handshake (it hosts no instance); its kFinish was held for now.
      FinishIfComplete();
      return;
    }
    case FrameType::kMilestone: {
      MilestoneMsg msg;
      if (!DecodeFrom(w, frame, &msg) ||
          !Accept(w, frame, CheckSender(w, msg.op, msg.instance))) {
        return;
      }
      StatusOr<std::vector<int>> ready =
          controller_.OnInstanceMilestone(msg.op, msg.instance, msg.milestone);
      if (!Accept(w, frame, ready.status())) return;
      DispatchGroups(*ready);
      FinishIfComplete();
      return;
    }
    case FrameType::kReport: {
      WorkerReport report;
      // The op ids of report bytes are untrusted: an unknown one is
      // corrupt wire.
      if (!DecodeFrom(w, frame, &report) ||
          !Accept(w, frame, MergeQueryStats(report.stats, &stats_))) {
        return;
      }
      // Cardinality and the row-hash checksum are sums mod 2^64, so the
      // per-worker partial summaries add up to the query's.
      summary_ += report.summary;
      net_ += report.net;
      if (trace_ != nullptr) {
        for (const WireTraceEvent& e : report.trace) {
          if (e.node < plan_.num_processors) {
            trace_->Record(e.node, e.start_ns, e.end_ns, e.type, e.op_id);
          }
        }
      }
      return;
    }
    case FrameType::kError: {
      ErrorMsg error;
      if (!DecodeFrom(w, frame, &error)) return;
      Status worker_status(error.code, std::move(error.message));
      if (IsRetryableFailure(worker_status)) {
        // An environmental failure seen from the worker's side (its half
        // of the wire went bad, the coordinator vanished from its view):
        // diagnose it like a coordinator-side one so the retry history
        // names the worker.
        RecordFailure(w,
                      worker_status.message().rfind("corrupt", 0) == 0
                          ? WorkerFailureClass::kCorruptWire
                          : WorkerFailureClass::kOther,
                      worker_status.message());
      }
      Abort(std::move(worker_status));
      return;
    }
    case FrameType::kPong: {
      HeartbeatMsg pong;
      if (!DecodeFrom(w, frame, &pong)) return;
      // Liveness itself is refreshed off received-frame counts in
      // SuperviseFleet; the pong only needs to be valid and counted.
      if (proc_ != nullptr) ++proc_->pongs_received;
      return;
    }
    case FrameType::kSkewReport: {
      SkewJoinReport report;
      if (!DecodeFrom(w, frame, &report) ||
          !Accept(w, frame, CheckSender(w, report.op, report.instance))) {
        return;
      }
      StatusOr<std::shared_ptr<const SkewDirective>> directive =
          controller_.OnSkewReport(std::move(report));
      if (!Accept(w, frame, directive.status())) return;
      if (*directive != nullptr) {
        // The last report arrives before the last kBuildDone milestone on
        // the same socket, so this broadcast is queued ahead of every
        // probe trigger — but correctness never depends on that: workers
        // defer the join's build InputDone until the directive lands.
        std::vector<std::byte> payload;
        EncodeMsg(**directive, &payload);
        for (FleetMember& each : workers_) {
          if (!each.closed) {
            each.chan->QueueFrame(FrameType::kSkewDirective, payload);
          }
        }
      }
      return;
    }
    // Frames the table says never arrive at the coordinator (coordinator-
    // to-worker and serve-layer classes), generated from
    // MJOIN_FRAME_TABLE. The switch stays default:-free so -Wswitch flags
    // any new wire frame that is silently unrouted here.
    MJOIN_FRAME_CASES(NOT_WC)
      break;
  }
  AbortCorruptWire(
      w, StrCat("unexpected ", FrameTypeName(frame.type), " frame"));
}

void Coordinator::PollOnce(int timeout_ms) {
  // Flush first: queued frames (triggers, directives, finish requests)
  // should hit the sockets before we sleep in poll.
  for (uint32_t w = 0; w < num_workers_; ++w) {
    FleetMember& worker = workers_[w];
    if (worker.closed) continue;
    Status flushed = worker.chan->Flush();
    if (!flushed.ok()) HandleWorkerGone(w, flushed);
  }
  if (aborted()) return;

  std::vector<struct pollfd> fds;
  std::vector<uint32_t> fd_worker;
  fds.reserve(num_workers_ + 1);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    FleetMember& worker = workers_[w];
    if (worker.closed) continue;
    struct pollfd pfd;
    pfd.fd = worker.chan->fd();
    pfd.events = static_cast<short>(
        POLLIN | (worker.chan->has_pending_output() ? POLLOUT : 0));
    pfd.revents = 0;
    fds.push_back(pfd);
    fd_worker.push_back(w);
  }
  if (fds.empty()) return;
  // Our doorbell: workers ring it after publishing onto a relay ring.
  struct pollfd bell;
  bell.fd = plane_->doorbell(num_workers_);
  bell.events = POLLIN;
  bell.revents = 0;
  fds.push_back(bell);
  fd_worker.push_back(num_workers_);  // sentinel: not a worker socket
  int rc = poll(fds.data(), fds.size(), timeout_ms);
  if (rc < 0 && errno != EINTR) {
    Abort(Status::Internal(StrCat("coordinator poll failed: ",
                                  strerror(errno))));
    return;
  }
  plane_->DrainDoorbell(num_workers_);
  if (rc <= 0) {
    // Timed out, but published records need no readable socket to exist.
    DrainCoordRings();
    return;
  }

  // Read every ready socket before handling any frame, and drain the
  // relay rings in between: a control frame referring to ring records
  // (kReport after the worker's result rows) was sent after they were
  // published, so the read-all / drain / handle-all order guarantees the
  // records are in by the time the frame is handled.
  struct ReadyWorker {
    uint32_t w;
    bool peer_closed;
  };
  std::vector<ReadyWorker> ready;
  ready.reserve(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0 || fd_worker[i] == num_workers_) continue;
    uint32_t w = fd_worker[i];
    FleetMember& worker = workers_[w];
    if (worker.closed) continue;
    bool peer_closed = false;
    Status read = worker.chan->ReadAvailable(&peer_closed);
    if (!read.ok()) {
      HandleWorkerGone(w, read);
      continue;
    }
    ready.push_back(ReadyWorker{w, peer_closed});
  }
  DrainCoordRings();
  for (const ReadyWorker& r : ready) {
    FleetMember& worker = workers_[r.w];
    if (worker.closed) continue;
    Frame frame;
    while (!aborted() && worker.chan->NextFrame(&frame)) {
      HandleFrame(r.w, std::move(frame));
    }
    // After the worker reported an EOF is no failure of the query, but the
    // socket is dead either way: HandleWorkerGone marks it closed and the
    // fleet poisoned then. Left open, a hung-up socket stays readable
    // forever and the poll loop would spin on it.
    if (r.peer_closed) {
      HandleWorkerGone(r.w, Status::Unavailable("end of stream"));
    }
  }
}

void Coordinator::DrainCoordRings() {
  if (aborted()) return;
  for (size_t ring_index : plane_->InboundRings(num_workers_)) {
    ShmRing* ring = plane_->ring(ring_index);
    const uint32_t from = plane_->spec(ring_index).from;
    const uint64_t limit = ring->tail_cursor();
    bool released = false;
    while (!aborted() && ring->head_cursor() < limit) {
      ShmRecordView rec;
      StatusOr<bool> any = ring->TryRead(&rec);
      if (!any.ok()) {
        AbortCorruptWire(from, any.status().message());
        break;
      }
      if (!*any) break;  // only pads remained below the snapshot
      ++net_.shm_records_received;
      net_.shm_bytes_received += rec.payload_bytes;
      if (rec.type != ShmRecordType::kResultRows) {
        ring->Release();
        AbortCorruptWire(from, StrCat("unexpected shm ",
                                      ShmRecordTypeName(rec.type),
                                      " record on a relay ring"));
        break;
      }
      ShmResultRowsHeader hdr;
      if (rec.payload_bytes < sizeof(hdr)) {
        ring->Release();
        AbortCorruptWire(from, "short shm result-rows header");
        break;
      }
      std::memcpy(&hdr, rec.payload, sizeof(hdr));
      if (!materialized_.has_value()) {
        ring->Release();
        AbortCorruptWire(from, "result rows while materialization is off");
        break;
      }
      if (hdr.schema_id >= registry_.size() ||
          registry_.Get(hdr.schema_id)->tuple_size() != hdr.tuple_size ||
          rec.payload_bytes !=
              sizeof(hdr) + uint64_t{hdr.num_tuples} * hdr.tuple_size) {
        ring->Release();
        AbortCorruptWire(from, "shm result-rows record fails validation");
        break;
      }
      materialized_->AppendRows(rec.payload + sizeof(hdr), hdr.num_tuples);
      ring->Release();
      released = true;
    }
    if (released) plane_->RingDoorbell(from);
  }
}

void Coordinator::GatherNetStats() {
  net_.num_workers = num_workers_;
  for (const FleetMember& w : workers_) {
    // Channels accumulate across queries; `base` pins the counters to this
    // query.
    const ChannelStats& ch = w.chan->stats();
    net_.bytes_sent += ch.bytes_sent - w.base.bytes_sent;
    net_.bytes_received += ch.bytes_received - w.base.bytes_received;
    net_.frames_sent += ch.frames_sent - w.base.frames_sent;
    net_.frames_received += ch.frames_received - w.base.frames_received;
  }
  net_.shm_rings = static_cast<uint32_t>(plane_->num_rings());
}

StatusOr<ProcessQueryResult> Coordinator::Run(QueryStats* stats_out,
                                              ProcessNetStats* net_out) {
  // lint:allow-clock run wall-clock start, once per query
  auto start = std::chrono::steady_clock::now();
  trace_origin_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         start.time_since_epoch())
                         .count();
  if (exec_.record_trace) {
    trace_ = NewPlanTrace(plan_, WallClockTraceFormat("process"));
  }
  if (exec_.collect_metrics) stats_.per_op = NewOpStats(plan_);
  if (exec_.materialize_result) {
    for (const XraOp& o : plan_.ops) {
      if (o.store_result == plan_.final_result) {
        materialized_.emplace(*o.output_schema);
      }
    }
  }
  plan_text_ = SerializePlan(plan_);
  plan_hash_ = FnvHash64(plan_text_);

  MJOIN_RETURN_IF_ERROR(AttachFleet());
  ShipPlans();
  if (controller_.CheckLimits()) {
    DispatchGroups(controller_.TakeInitialGroups());
  }

  // Each worker tore its query down before it reported, so the wall time
  // includes that teardown.
  while (!AllReported()) {
    if (!controller_.CheckLimits()) break;
    SuperviseFleet();
    if (aborted()) break;
    PollOnce(/*timeout_ms=*/20);
    if (aborted()) break;
  }
  // lint:allow-clock run wall-clock end, once per query
  auto end = std::chrono::steady_clock::now();

  GatherNetStats();
  if (stats_out != nullptr) *stats_out = stats_;
  if (net_out != nullptr) *net_out = net_;

  // After a failed run the workers may be mid-query: the caller has the
  // fleet kill and respawn them, never this borrower.
  if (aborted()) return controller_.failure();

  ProcessQueryResult result;
  result.exec.seconds = std::chrono::duration<double>(end - start).count();
  result.exec.elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  result.exec.result = summary_;
  if (materialized_.has_value()) {
    result.exec.materialized = std::move(materialized_);
  }
  result.exec.stats = std::move(stats_);
  if (trace_ != nullptr) {
    AttachTrace(trace_, result.exec.elapsed, exec_.trace_width, &result.exec);
  }
  result.net = net_;
  return result;
}

/// Ceiling of the retry backoff, which doubles per retry from
/// ProcessExecOptions::retry_backoff.
constexpr std::chrono::milliseconds kRetryBackoffCap{2000};

/// The checks both public Execute()s run before touching a fleet.
Status CheckProcessQuery(const ParallelPlan& plan,
                         const ProcessExecOptions& options) {
  // The shm rings are the only data plane; the switch survives in the
  // options for source compatibility and must stay on.
  if (!options.use_shm_data_plane) {
    return Status::InvalidArgument(
        "ProcessExecOptions::use_shm_data_plane must be true: the shm rings "
        "are the only data plane");
  }
  return CheckExecRequest(plan, options.exec);
}

/// The attempt loop of both public Execute()s, on a checked plan: a failed
/// attempt's workers are killed and reaped at once, so the next attempt
/// respawns the fleet; retries back off; an exhausted budget may fall back
/// to the thread backend.
StatusOr<ProcessQueryResult> RunOnFleet(FleetState& fleet,
                                        const ParallelPlan& plan,
                                        const ProcessExecOptions& options,
                                        QueryStats* stats_out,
                                        ProcessNetStats* net_out,
                                        ProcessExecStats* proc_out) {
  // The deadline is absolute across attempts: retries and their backoffs
  // spend the same budget the query itself does.
  const QueryLimits limits(options.exec.cancellation, options.exec.deadline);

  ProcessExecStats proc;
  std::chrono::milliseconds backoff = options.retry_backoff;
  Status failure = Status::OK();
  for (uint32_t attempt = 0;; ++attempt) {
    proc.attempts = attempt + 1;
    // The Coordinator is a temporary: it hands its findings back to the
    // fleet when this statement ends, before any teardown below.
    StatusOr<ProcessQueryResult> result =
        Coordinator(plan, options, fleet, attempt, limits, &proc)
            .Run(stats_out, net_out);
    if (result.ok()) {
      result->proc = proc;
      if (proc_out != nullptr) *proc_out = proc;
      return result;
    }
    // Any failure — even a deterministic one — leaves workers possibly
    // mid-query and unable to take a new plan; a respawn is the only safe
    // way back to a serviceable fleet. Killed now, so neither the backoff
    // nor the thread fallback runs beside them.
    fleet.TearDown(/*graceful=*/false);
    failure = result.status();
    if (!IsRetryableFailure(failure) || attempt >= options.max_retries) break;
    ++proc.retries;
    // The backoff wakes every 10 ms to check the limits: a cancellation or
    // the deadline ends the query while it sleeps.
    Status live = limits.Check();
    for (auto left = backoff; live.ok() && left.count() > 0;
         left -= std::chrono::milliseconds(10)) {
      std::this_thread::sleep_for(
          std::min(left, std::chrono::milliseconds(10)));
      live = limits.Check();
    }
    if (!live.ok()) {
      failure = live;
      break;
    }
    backoff = std::min(backoff * 2, kRetryBackoffCap);
  }

  if (options.degrade_to_thread && IsRetryableFailure(failure)) {
    // The process fleet is unusable in this environment; fall back to the
    // in-process backend. The shipped fault scenario is deliberately not
    // carried over — degradation escapes the faulty environment, it does
    // not re-create it.
    proc.degraded_to_thread = true;
    ThreadExecOptions exec = options.exec;
    exec.fault_injector = nullptr;
    ThreadExecutor fallback(fleet.database);
    StatusOr<QueryResult> degraded =
        fallback.Execute(plan, exec, stats_out);
    if (degraded.ok()) {
      ProcessQueryResult result;
      result.exec = std::move(degraded).value();
      result.net.num_workers = 0;  // no fleet produced this result
      result.proc = proc;
      if (net_out != nullptr) *net_out = result.net;
      if (proc_out != nullptr) *proc_out = proc;
      return result;
    }
    failure = degraded.status();
  }

  if (proc_out != nullptr) *proc_out = proc;
  return failure;
}

}  // namespace

struct WarmProcessFleet::Impl {
  // Sized for the worst-case directory of an n-worker fleet: one relay ring
  // per worker (up to the coordinator) plus every ordered worker pair, n^2
  // rings in all — any plan's directory fits.
  Impl(const Database* db, const WarmFleetOptions& opts)
      : state(db, opts.num_workers, opts.shm_ring_bytes,
              size_t{opts.num_workers} * opts.num_workers) {}

  /// Serializes Execute() calls and fleet mutation (respawn, teardown).
  mutable std::mutex mutex;
  FleetState state;
};

WarmProcessFleet::WarmProcessFleet(const Database* database,
                                   const WarmFleetOptions& options)
    : impl_(std::make_unique<Impl>(database, options)) {}

WarmProcessFleet::~WarmProcessFleet() = default;

StatusOr<std::unique_ptr<WarmProcessFleet>> WarmProcessFleet::Spawn(
    const Database* database, const WarmFleetOptions& options) {
  if (database == nullptr) {
    return Status::InvalidArgument("WarmProcessFleet needs a database");
  }
  if (options.num_workers == 0) {
    return Status::InvalidArgument(
        "WarmFleetOptions::num_workers must be positive");
  }
  if (!options.use_shm_data_plane) {
    return Status::InvalidArgument(
        "WarmFleetOptions::use_shm_data_plane must be true: the shm rings "
        "are the only data plane");
  }
  std::unique_ptr<WarmProcessFleet> fleet(
      // lint:allow-new private ctor; make_unique cannot reach it
      new WarmProcessFleet(database, options));
  MJOIN_RETURN_IF_ERROR(fleet->impl_->state.Spawn());
  return fleet;
}

uint32_t WarmProcessFleet::num_workers() const {
  return impl_->state.num_workers;
}

pid_t WarmProcessFleet::worker_pid(uint32_t w) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return w < impl_->state.members.size() ? impl_->state.members[w].pid : -1;
}

uint64_t WarmProcessFleet::respawns() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->state.spawns - 1;
}

StatusOr<ProcessQueryResult> WarmProcessFleet::Execute(
    const ParallelPlan& plan, const ProcessExecOptions& options,
    QueryStats* stats_out, ProcessNetStats* net_out,
    ProcessExecStats* proc_out) {
  MJOIN_RETURN_IF_ERROR(CheckProcessQuery(plan, options));
  // The arena's rings were sized at spawn: a row wider than their records
  // can never be sent. Rejected before any worker sees the plan, so the
  // fleet stays healthy.
  const uint32_t ring_bytes = impl_->state.ring_bytes;
  const size_t widest = WidestShmRecordPayload(plan);
  if (widest > ShmMaxPayload(ring_bytes)) {
    return Status::InvalidArgument(StrCat(
        "plan row needs a ", widest,
        "-byte ring record (header + row), but this warm fleet's ",
        ring_bytes, "-byte rings hold at most ", ShmMaxPayload(ring_bytes),
        " bytes"));
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return RunOnFleet(impl_->state, plan, options, stats_out, net_out,
                    proc_out);
}

std::string WorkerFailureClassName(WorkerFailureClass failure) {
  switch (failure) {
    case WorkerFailureClass::kCrashed:
      return "crashed";
    case WorkerFailureClass::kHung:
      return "hung";
    case WorkerFailureClass::kCorruptWire:
      return "corrupt-wire";
    case WorkerFailureClass::kOther:
      return "other";
  }
  return "unknown";
}

ProcessExecutor::ProcessExecutor(const Database* database)
    : database_(database) {
  // Each query forks its workers from this process as it is then, and
  // every page the process keeps resident, freed heap included, is mapped
  // into each of them. glibc gives every thread an arena of its own, whose
  // free top malloc_trim never returns, so memory the thread backend's
  // node threads freed would stay resident there, tens of MB by an amount
  // that depends on the queries they ran last, and ride into every
  // worker. With one arena, freed memory stays where the heap's trimming
  // reaches it. The limit is process-wide and binds arenas not yet
  // created.
#if defined(__GLIBC__)
  mallopt(M_ARENA_MAX, 1);
#endif
}

StatusOr<ProcessQueryResult> ProcessExecutor::Execute(
    const ParallelPlan& plan, const ProcessExecOptions& options,
    QueryStats* stats_out, ProcessNetStats* net_out,
    ProcessExecStats* proc_out) const {
  MJOIN_RETURN_IF_ERROR(CheckProcessQuery(plan, options));
  uint32_t num_workers =
      options.num_workers == 0 ? plan.num_processors : options.num_workers;
  num_workers = std::clamp<uint32_t>(num_workers, 1, plan.num_processors);
  // Grown until one record holds the plan's widest row (records never
  // split a row). An invalid size stays invalid for the spawn to reject.
  const size_t widest = WidestShmRecordPayload(plan);
  uint32_t ring_bytes = options.shm_ring_bytes;
  while (ring_bytes >= 4096 && ring_bytes < (1u << 31) &&
         ShmMaxPayload(ring_bytes) < widest) {
    ring_bytes *= 2;
  }
  // A fleet that lives for this call only, which keeps Execute const and
  // reentrant. Its arena holds exactly this plan's ring directory.
  FleetState fleet(database_, num_workers, ring_bytes,
                   ComputeRingDirectory(plan, num_workers).size());
  return RunOnFleet(fleet, plan, options, stats_out, net_out, proc_out);
}

}  // namespace mjoin
