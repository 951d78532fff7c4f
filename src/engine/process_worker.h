#ifndef MJOIN_ENGINE_PROCESS_WORKER_H_
#define MJOIN_ENGINE_PROCESS_WORKER_H_

namespace mjoin {

class Database;
class ShmArena;

/// The worker half of the process backend: runs in a child process forked
/// by a worker fleet — one spawned for a single query by ProcessExecutor,
/// or a WarmProcessFleet that serves many — speaking the net/wire.h frame
/// protocol over `fd` (one end of a socketpair; ownership is taken).
///
/// The worker is deliberately single-threaded — one poll loop interleaves
/// frame handling with source pumping — so a fork-without-exec child never
/// touches thread creation (fork-safe under TSan) and its teardown is one
/// _exit(). It receives each plan as textual XRA in a kPlan frame,
/// instantiates the operator instances of its hosted processors, and
/// exchanges batches with the rest of the fleet.
///
/// `database` is the coordinator's Database, inherited through fork: the
/// pointer is valid in the child, at the same address, and its scans read
/// their fragments straight out of it. No base data crosses the rings. The
/// fleet respawns its workers when the database's version() moves on, so
/// a worker never scans a stale copy.
///
/// `arena` is the ShmArena the fleet mapped before forking (kept across
/// respawns), inherited through fork so its mapping and doorbells are
/// valid here. For every query the worker attaches a ShmDataPlane view to
/// the rings the coordinator formatted over it: data batches, EOS markers
/// and result rows travel over the rings while control frames stay on the
/// socket. The child never destroys the arena — _exit() skips destructors,
/// and the kernel drops its reference to the shared mapping.
///
/// Lifecycle, the same on every fleet: on each query's kFinish the worker
/// builds its report, drains its ring backlogs, tears down the query's
/// state and ring view, sends its one kReport, and parks waiting for the
/// next kPlan. A parked worker answers kPing; a bare kShutdown exits it
/// (the fleet's graceful teardown); so does EOF, with exit code 1. The
/// batch pool is worker-lifetime, so a warm worker's steady-state queries
/// reuse buffers instead of allocating.
///
/// Returns the exit code for the child to _exit() with: 0 after a bare
/// kShutdown while parked, 1 on any error (a fatal status is reported to
/// the coordinator as a kError frame first whenever the socket still
/// works).
int RunProcessWorker(int fd, ShmArena* arena, const Database* database);

}  // namespace mjoin

#endif  // MJOIN_ENGINE_PROCESS_WORKER_H_
