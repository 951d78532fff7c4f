#ifndef MJOIN_ENGINE_PROCESS_EXECUTOR_H_
#define MJOIN_ENGINE_PROCESS_EXECUTOR_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/thread_executor.h"

namespace mjoin {

class NetFaultInjector;

/// Knobs of one process-backed execution. The shared execution knobs
/// (batch size, budget, deadline, cancellation, fault injector,
/// observability) are the thread backend's, reinterpreted for a process
/// fleet:
///
///   - max_queued_batches is not used: the capacity of the shm ring between
///     two workers (shm_ring_bytes) bounds the batches in flight on it;
///   - memory_budget_bytes applies *per worker process* — a shared-nothing
///     node meters its own memory, so the query-wide ceiling is the value
///     times the number of workers;
///   - fault_injector's scenario is shipped to every worker in the
///     handshake and fires at the same FaultPoint hooks as in the thread
///     backend (worker-side); injected-fault counts come back in the run
///     stats, not in the coordinator-side injector object;
///   - deadline and cancellation are enforced by the coordinator: expiry
///     kills the worker fleet (a worker stuck inside an operator callback
///     cannot poll a token across a process boundary).
struct ProcessExecOptions {
  ThreadExecOptions exec;
  /// Worker processes to fork; 0 = one per plan processor. Clamped to
  /// [1, plan.num_processors]. Processors are block-mapped onto workers,
  /// which keeps colocated producer/consumer pairs process-local.
  uint32_t num_workers = 0;
  /// Test hook: observes every worker (worker id, pid) an attempt runs on,
  /// before the plan ships. Lets fault tests target a live worker with a
  /// real signal. Called once per worker per attempt; every one-shot
  /// attempt runs on freshly forked workers.
  std::function<void(uint32_t worker, pid_t pid)> worker_observer;
  /// Automatic retries after a retryable failure (IsRetryableFailure — an
  /// environmental fault such as a crashed worker or corrupt wire, not a
  /// deterministic error that would only recur). Each retry sleeps an
  /// exponential backoff, forks fresh workers (the failed attempt's were
  /// killed and reaped when it failed), and re-ships the plan. 0 = fail
  /// on first error (the historical behavior).
  uint32_t max_retries = 0;
  /// First-retry backoff; doubles per retry up to 2 s. The sleep honors
  /// the deadline and the cancellation token.
  std::chrono::milliseconds retry_backoff{50};
  /// When the retry budget is exhausted on a retryable failure, run the
  /// query on the in-process thread backend instead of failing — graceful
  /// degradation for environments whose process fleet is unusable.
  bool degrade_to_thread = false;
  /// Coordinator -> worker kPing cadence. Pongs refresh per-worker
  /// liveness; so does any other complete, CRC-valid frame from the worker.
  std::chrono::milliseconds heartbeat_interval{500};
  /// A worker silent for longer than this is declared hung: the watchdog
  /// SIGKILLs it and the query aborts kUnavailable (retryable). 0 = no
  /// watchdog. Must comfortably exceed heartbeat_interval plus the longest
  /// legitimate silent stretch (a big build side, a long full-ring stall).
  std::chrono::milliseconds liveness_timeout{0};
  /// Network-level chaos (tests only): installed on one worker's channel
  /// for each attempt and detached when the attempt ends. Caller-owned;
  /// must outlive Execute(). Its fire budget spans retries, so a one-shot
  /// fault breaks one attempt and lets the next run clean.
  NetFaultInjector* net_fault_injector = nullptr;
  /// Data batches, EOS markers and result rows always move over mmap'd
  /// SPSC rings shared by the whole fleet (control frames stay
  /// on the socket); workers exchange data pairwise. The rings are the
  /// only data plane: false is rejected with InvalidArgument.
  bool use_shm_data_plane = true;
  /// Data bytes per ring; power of two >= 4096. The query's fleet doubles
  /// it until one record holds the plan's widest row (records never split
  /// a row). The fleet maps its rings once; a retry respawns the workers
  /// and reformats the rings, so a retried attempt starts from empty
  /// rings.
  uint32_t shm_ring_bytes = 1u << 18;
};

/// Why a worker was lost, as diagnosed by the coordinator.
enum class WorkerFailureClass {
  /// The process died (signal or nonzero exit) or its socket closed.
  kCrashed = 0,
  /// Alive but silent past liveness_timeout; killed by the watchdog.
  kHung = 1,
  /// Sent bytes that failed frame, checksum, or payload validation.
  kCorruptWire = 2,
  kOther = 3,
};

std::string WorkerFailureClassName(WorkerFailureClass failure);

/// One diagnosed worker loss (an execution can accumulate several across
/// attempts).
struct WorkerFailureRecord {
  uint32_t attempt = 0;
  uint32_t worker = 0;
  pid_t pid = -1;
  WorkerFailureClass failure = WorkerFailureClass::kOther;
  /// Human-readable root cause ("killed by signal 9", "checksum
  /// mismatch", ...).
  std::string detail;
};

/// Supervision and recovery counters of one Execute() call, accumulated
/// across every attempt.
struct ProcessExecStats {
  /// Fleets spawned (1 = no retry happened).
  uint32_t attempts = 1;
  /// Retries actually performed (attempts - 1 unless degradation cut in).
  uint32_t retries = 0;
  /// The result came from the thread backend after the retry budget was
  /// exhausted (degrade_to_thread).
  bool degraded_to_thread = false;
  uint64_t pings_sent = 0;
  uint64_t pongs_received = 0;
  uint32_t hung_workers_killed = 0;
  /// Every diagnosed worker loss, in order.
  std::vector<WorkerFailureRecord> failures;
};

/// Outcome of one process-backed execution: the result shape every
/// backend returns (so EXPLAIN ANALYZE, utilization diagrams, and Chrome
/// traces render unchanged) plus the wire-level and supervision counters.
struct ProcessQueryResult {
  QueryResult exec;
  ProcessNetStats net;
  ProcessExecStats proc;
};

/// Executes parallel plans on a fleet of worker *processes* — the
/// shared-nothing backend. Where the thread backend substitutes one thread
/// per simulated processor, this backend forks one single-threaded worker
/// process per group of processors. Control frames travel over one
/// Unix-domain socketpair per worker (a star around the coordinator); tuple
/// batches travel directly between workers over shm rings mapped before
/// the fork. Beyond those rings and the Database, which every worker
/// inherits at fork and scans in place, nothing is shared post-fork:
/// workers receive the plan as textual XRA and re-hydrate their operators
/// from it.
///
/// Failure model: a worker that dies mid-query (crash, OOM kill, kill -9)
/// is detected by its socket closing; a worker that wedges silently is
/// detected by the heartbeat watchdog (liveness_timeout) and SIGKILLed; a
/// worker that sends damaged bytes is caught by the per-frame checksum.
/// All three are environmental (StatusCode::kUnavailable) and — when
/// max_retries allows — recovered from by respawning the fleet's workers
/// and re-running the query on fresh ones. Deterministic failures (a worker's own typed
/// error, a plan mismatch) are never retried. In every case the fleet is
/// killed and every child reaped — Execute() never leaks a process or a
/// descriptor, and never hangs.
class ProcessExecutor {
 public:
  /// `database` must outlive the executor. Construction limits glibc's
  /// malloc to one arena, process-wide, so that heap memory freed by other
  /// threads is not copied into every forked worker.
  explicit ProcessExecutor(const Database* database);

  /// Runs `plan` on a worker fleet spawned for this call, retrying per
  /// options.max_retries. On failure the status is the root cause
  /// (kUnavailable for a dead/hung/corrupt worker after the retry budget,
  /// the worker's own status for worker-side errors, Cancelled/
  /// DeadlineExceeded from the coordinator) and the out-parameters, when
  /// non-null, receive the counters known at the abort — proc_out always
  /// carries the attempt/retry history and per-worker failure diagnoses.
  [[nodiscard]] StatusOr<ProcessQueryResult> Execute(const ParallelPlan& plan,
                                       const ProcessExecOptions& options,
                                       QueryStats* stats_out = nullptr,
                                       ProcessNetStats* net_out = nullptr,
                                       ProcessExecStats* proc_out = nullptr)
      const;

 private:
  const Database* database_;
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_PROCESS_EXECUTOR_H_
