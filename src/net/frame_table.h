#ifndef MJOIN_NET_FRAME_TABLE_H_
#define MJOIN_NET_FRAME_TABLE_H_

#include <cstdint>

/// The single source of truth for the frame protocol's type table.
///
/// Every wire frame is one row of MJOIN_FRAME_TABLE. The row drives, from
/// this one definition site:
///
///   - the FrameType enum itself (net/wire.h),
///   - FrameTypeName() and ValidFrameType() (net/wire.cc),
///   - the per-frame direction and protocol-phase metadata consumed by the
///     runtime conformance checker (net/frame_conformance.{h,cc}),
///   - the MJOIN_FRAME_CASES(...) case-label generators that give frame
///     handlers their "frames that never arrive here" switch arms, so a
///     new frame type extends every handler's -Wswitch coverage without
///     any hand-maintained enumeration,
///   - tools/mjoin_lint.py's exhaustive-switch check, which parses this
///     table (not the generated enum) for the member list and the
///     MJOIN_FRAME_CASES expansions.
///
/// Adding a frame means adding one row here; the compiler (-Wswitch on the
/// handler switches) and the lint then point at every site that must make
/// a routing decision for it.
///
/// Row shape:
///
///   X(id, Name, "wire-name", KLASS, dirs, phases, next)
///
///   id      the FrameType wire value (never reuse a retired id)
///   Name    enum member name without the leading k
///   KLASS   routing class, a single token used by the case-label
///           filters: CW (coordinator->worker), WC (worker->coordinator),
///           SERVE (serve-layer client<->server). A frame's class is where
///           it is *handled*; `dirs` below is the full set of legal wire
///           directions.
///   dirs    bitmask of legal travel directions (FrameDir)
///   phases  bitmask of link phases the frame may be observed in
///           (FramePhase); the conformance checker enforces this per
///           connection in both directions
///   next    link phase the frame advances the connection to, or Keep
///
/// Retired ids, never to be reused: 3 (fragment), 5 (data), 6 (eos),
/// 8 (credit) and 11 (result-rows) carried the coordinator-relayed socket
/// data plane; every batch, EOS and result row now rides the shm rings
/// (net/shm_ring.h). 10 (summary), 12 (op-stats), 13 (net-stats) and 14
/// (trace-events) were the report phase's separate frames, folded into
/// the one kReport. 22 (idle) acked a query-ending kShutdown; kReport now
/// parks the worker itself. A frame with a retired id is rejected as
/// corrupt like any other id the table does not define.
namespace mjoin {

/// Conformance phases of one coordinator<->worker link (a serve link sits
/// permanently in kPhServe). A link starts in kPhAwaitPlan; table `next`
/// entries advance it. Every fleet loops: kReport returns the link to
/// kPhAwaitPlan, where the next query's kPlan or the fleet's teardown
/// kShutdown follows.
enum FramePhase : uint32_t {
  kPhAwaitPlan = 1u << 0,  // parked; no query in flight
  kPhHandshake = 1u << 1,  // kPlan shipped, kHello not yet observed
  kPhExecute = 1u << 2,    // triggers/milestones/skew exchange flowing
  kPhReport = 1u << 3,     // kFinish observed; the worker's kReport inbound
  kPhDone = 1u << 4,       // the teardown kShutdown observed; worker exits
  kPhServe = 1u << 5,      // serve-layer client connection
};

/// Phase-transition sentinel: the frame leaves the link's phase alone.
inline constexpr uint32_t kPhKeep = 0;

/// Every worker-link phase; heartbeats are legal throughout.
inline constexpr uint32_t kPhAnyWorker =
    kPhAwaitPlan | kPhHandshake | kPhExecute | kPhReport | kPhDone;

/// Legal travel directions of a frame, independent of where it is handled.
enum FrameDir : uint32_t {
  kDirToWorker = 1u << 0,       // coordinator -> worker
  kDirToCoordinator = 1u << 1,  // worker -> coordinator
  kDirToServer = 1u << 2,       // serve client -> server
  kDirToClient = 1u << 3,       // serve server -> client
};

// clang-format off
#define MJOIN_FRAME_TABLE(X)                                                   \
  /* worker -> coordinator: protocol version + echo hash of the plan text   */ \
  /* the worker parsed (the coordinator verifies the handshake round trip)  */ \
  /* plus the shm ring-directory hash the worker derived from its parse.    */ \
  X(1, Hello, "hello", WC, kDirToCoordinator, kPhHandshake, Execute)           \
  /* coordinator -> worker: run options + the plan in textual XRA.          */ \
  X(2, Plan, "plan", CW, kDirToWorker, kPhAwaitPlan, Handshake)                \
  /* coordinator -> worker: start every hosted instance of a trigger group. */ \
  X(4, Trigger, "trigger", CW, kDirToWorker,                                   \
    kPhHandshake | kPhExecute, Keep)                                           \
  /* worker -> coordinator: instance milestone for the scheduler.           */ \
  X(7, Milestone, "milestone", WC, kDirToCoordinator,                          \
    kPhExecute | kPhReport, Keep)                                              \
  /* coordinator -> worker: the plan completed; send this query's report.   */ \
  X(9, Finish, "finish", CW, kDirToWorker, kPhExecute, Report)                 \
  /* worker -> coordinator: fatal worker-side status; the run aborts. Legal */ \
  /* from the moment the worker has a plan to fail (kPhHandshake) until its */ \
  /* kReport parks it.                                                      */ \
  X(15, Error, "error", WC, kDirToCoordinator,                                 \
    kPhHandshake | kPhExecute | kPhReport, Keep)                               \
  /* serve client -> server: connection close notice.                       */ \
  X(16, Bye, "bye", SERVE, kDirToServer, kPhServe, Keep)                       \
  /* coordinator -> worker: the fleet's teardown; the parked worker exits   */ \
  /* cleanly. Legal only on a parked link: a query in flight is never shut  */ \
  /* down by frame (a failed attempt's workers are killed instead).         */ \
  X(17, Shutdown, "shutdown", CW, kDirToWorker, kPhAwaitPlan, Done)            \
  /* coordinator -> worker: liveness probe (HeartbeatMsg), sent only while  */ \
  /* the worker's query is in flight. It answers every ping with a kPong    */ \
  /* immediately, mid-query or parked (a ping may cross the worker's        */ \
  /* kReport); the coordinator's watchdog treats prolonged silence as a     */ \
  /* hung worker.                                                           */ \
  X(18, Ping, "ping", CW, kDirToWorker, kPhAnyWorker, Keep)                    \
  /* worker -> coordinator: echo of a kPing's sequence number.              */ \
  X(19, Pong, "pong", WC, kDirToCoordinator, kPhAnyWorker, Keep)               \
  /* client -> server (mjoin_serve): submit one query (SubmitMsg — tenant,  */ \
  /* backend, plan text, per-query limits). A connection may pipeline       */ \
  /* submits; results come back in completion order, matched by client_seq. */ \
  X(20, Submit, "submit", SERVE, kDirToServer, kPhServe, Keep)                 \
  /* server -> client: outcome of one kSubmit (QueryResultMsg — status,     */ \
  /* result summary, wall/queue seconds, cache/backend provenance).         */ \
  X(21, QueryResult, "query-result", SERVE, kDirToClient, kPhServe, Keep)      \
  /* worker -> coordinator: one defended join instance's build-side skew    */ \
  /* summary (SkewReportMsg — heavy-hitter candidates with their build rows */ \
  /* inline, plus the instance's build-key Bloom filter).                   */ \
  X(23, SkewReport, "skew-report", WC, kDirToCoordinator, kPhExecute, Keep)    \
  /* coordinator -> worker: the merged plan of action for one defended join */ \
  /* (SkewDirectiveMsg — hot keys, replicated build rows, OR'd Bloom).      */ \
  /* kPhHandshake: the directive is broadcast to every host of the join,    */ \
  /* including (on a respawned fleet) one whose kHello is still in flight.  */ \
  X(24, SkewDirective, "skew-directive", CW, kDirToWorker,                     \
    kPhHandshake | kPhExecute, Keep)                                           \
  /* worker -> coordinator: the worker's one report of the query            */ \
  /* (WorkerReport — partial result summary, QueryStats with per-op         */ \
  /* metrics, ProcessNetStats, trace events). Sent once its ring backlogs   */ \
  /* drained, so it trails every result-row record, and once the worker     */ \
  /* tore down the query's state and ring view, so the coordinator may      */ \
  /* reformat the rings when every report is in. It parks the worker and    */ \
  /* returns the link to kPhAwaitPlan: a second report is a violation, and  */ \
  /* "every link parked" is "every report in".                              */ \
  X(25, Report, "report", WC, kDirToCoordinator, kPhReport, AwaitPlan)
// clang-format on

/// MJOIN_FRAME_CASES(sel): case labels for every table row the selector
/// matches, for the "frames that never legitimately arrive here" arm of a
/// handler switch. Selectors:
///
///   NOT_CW   everything a worker never receives (classes WC, SERVE)
///   NOT_WC   everything a coordinator never receives (classes CW, SERVE)
///
/// The arm stays `default:`-free, so -Wswitch (and mjoin_lint, which
/// expands these selectors from the table) still flags any new frame type
/// that no handler has made a routing decision for.
#define MJOIN_FRAME_SEL_NOT_CW_CW(name)
#define MJOIN_FRAME_SEL_NOT_CW_WC(name) case ::mjoin::FrameType::k##name:
#define MJOIN_FRAME_SEL_NOT_CW_SERVE(name) case ::mjoin::FrameType::k##name:
#define MJOIN_FRAME_SEL_NOT_WC_CW(name) case ::mjoin::FrameType::k##name:
#define MJOIN_FRAME_SEL_NOT_WC_WC(name)
#define MJOIN_FRAME_SEL_NOT_WC_SERVE(name) case ::mjoin::FrameType::k##name:

#define MJOIN_FRAME_ROW_NOT_CW(id, name, wire, klass, dirs, phases, next) \
  MJOIN_FRAME_SEL_NOT_CW_##klass(name)
#define MJOIN_FRAME_ROW_NOT_WC(id, name, wire, klass, dirs, phases, next) \
  MJOIN_FRAME_SEL_NOT_WC_##klass(name)

#define MJOIN_FRAME_CASES(sel) MJOIN_FRAME_TABLE(MJOIN_FRAME_ROW_##sel)

}  // namespace mjoin

#endif  // MJOIN_NET_FRAME_TABLE_H_
