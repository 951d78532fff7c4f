#ifndef MJOIN_ENGINE_WARM_FLEET_H_
#define MJOIN_ENGINE_WARM_FLEET_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>

#include "engine/process_executor.h"

namespace mjoin {

/// Knobs of a warm fleet, fixed at Spawn() time for the fleet's whole
/// lifetime (queries executed on it inherit them; the per-query
/// ProcessExecOptions fields shm_ring_bytes/num_workers are ignored in
/// favor of these).
struct WarmFleetOptions {
  /// Fixed fleet size. Plans with fewer processors than workers leave the
  /// surplus workers idle for that query (they still handshake and report),
  /// so one fleet serves any plan shape.
  uint32_t num_workers = 4;
  /// The fleet pre-maps a fleet-lifetime shm arena at spawn; each query
  /// lays its ring directory over it (ShmDataPlane::CreateInArena). The
  /// rings are the only data plane: false is rejected with InvalidArgument.
  bool use_shm_data_plane = true;
  /// Data bytes per ring laid over the arena; power of two >= 4096, else
  /// Spawn() fails InvalidArgument before it maps or forks anything. The
  /// arena is sized for the worst-case directory of num_workers, so any
  /// plan's directory fits. Fixed for the fleet's life: Execute() rejects
  /// a plan whose widest row does not fit one ring record with
  /// InvalidArgument, before any worker sees it.
  uint32_t shm_ring_bytes = 1u << 18;
};

/// A pre-forked, long-lived worker-process fleet that executes queries
/// without paying the per-query fork + mmap cost of ProcessExecutor. It is
/// the same fleet a one-shot query spawns for itself, kept for many
/// queries: each worker ends a query by tearing down its state and sending
/// its kReport, which parks it waiting for the next kPlan. The shm arena
/// (mapping + doorbells) is created once, pre-fork, and reused by every
/// query.
///
/// Execute() is serialized by an internal mutex — one query at a time per
/// fleet (callers wanting concurrency run several fleets). Any failed run
/// kills and reaps the fleet's workers at once (they may be mid-query and
/// unable to accept a new plan); the next Execute() — or the retry loop
/// inside the current one — respawns a fresh fleet and re-runs.
/// The destructor shuts the fleet down gracefully (kShutdown to parked
/// workers) and reaps every child; like ProcessExecutor, no process or
/// descriptor outlives the object.
class WarmProcessFleet {
 public:
  /// Forks the fleet (and maps the arena) immediately. `database` must
  /// outlive the fleet; the workers inherit it and scan it in place.
  [[nodiscard]] static StatusOr<std::unique_ptr<WarmProcessFleet>> Spawn(
      const Database* database, const WarmFleetOptions& options);

  ~WarmProcessFleet();
  WarmProcessFleet(const WarmProcessFleet&) = delete;
  WarmProcessFleet& operator=(const WarmProcessFleet&) = delete;

  /// Runs `plan` on the warm fleet. Semantics match
  /// ProcessExecutor::Execute (same result shape, retry policy, failure
  /// diagnoses, degrade_to_thread) except that options.num_workers and
  /// options.shm_ring_bytes are overridden by the fleet's own spawn-time
  /// configuration, a plan too wide for the fleet's rings is rejected
  /// (InvalidArgument, the fleet untouched), and a retry respawns this
  /// fleet's members, keeping its arena.
  [[nodiscard]] StatusOr<ProcessQueryResult> Execute(
      const ParallelPlan& plan, const ProcessExecOptions& options,
      ThreadExecStats* stats_out = nullptr, ProcessNetStats* net_out = nullptr,
      ProcessExecStats* proc_out = nullptr);

  uint32_t num_workers() const;
  /// Current pid of worker `w` (changes after a respawn). Test hook.
  pid_t worker_pid(uint32_t w) const;
  /// Fleets spawned beyond the first. Each one replaced a poisoned fleet,
  /// or a fleet forked before the database last changed: workers scan the
  /// database as of their fork, so an Execute() that finds
  /// Database::version() moved on respawns the fleet before it runs.
  uint64_t respawns() const;

 private:
  WarmProcessFleet(const Database* database, const WarmFleetOptions& options);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_WARM_FLEET_H_
