#ifndef MJOIN_ENGINE_CONTROLLER_H_
#define MJOIN_ENGINE_CONTROLLER_H_

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "common/cancellation.h"
#include "common/statusor.h"
#include "skew/defense.h"
#include "xra/plan.h"

namespace mjoin {

/// A query's cancellation token and deadline (which runs from
/// construction). Immutable, so any thread may Check() without a lock.
class QueryLimits {
 public:
  QueryLimits() = default;
  QueryLimits(CancellationToken cancellation,
              std::optional<std::chrono::milliseconds> deadline);

  /// OK, or the Cancelled / DeadlineExceeded status the query stops with.
  Status Check() const;
  bool cancelled() const { return cancellation_.cancelled(); }

 private:
  CancellationToken cancellation_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

/// The per-query scheduler, a sans-IO state machine that the simulator,
/// the thread backend and the process coordinator all drive: it turns
/// instance milestones into ready trigger groups, merges each defended
/// join's skew reports into its directive, and holds the first failure.
/// A bad milestone or report (on the process backend, worker bytes) gets
/// InvalidArgument and changes nothing. Not thread-safe, except limits();
/// the thread backend serializes the rest under its scheduler mutex.
class QueryController {
 public:
  /// `skew` is the defense whose reports it merges (none while off).
  explicit QueryController(const ParallelPlan* plan,
                           const SkewDefenseOptions& skew = {},
                           QueryLimits limits = {});

  /// Groups with no dependencies. Each group is reported ready once.
  std::vector<int> TakeInitialGroups() { return CollectReadyGroups(); }

  /// OK when `instance` names an instance of plan op `op`.
  Status CheckInstance(int op, uint32_t instance) const;
  /// Returns the groups instance `instance` of op `op` reaching
  /// `milestone` readies; InvalidArgument if unknown or a repeat.
  StatusOr<std::vector<int>> OnInstanceMilestone(int op, uint32_t instance,
                                                 Milestone milestone);
  /// Returns the merged directive on a defended join's last report, null
  /// before. InvalidArgument for an undefended op, an unknown or repeated
  /// instance, or a Bloom size or row width unlike the join's.
  StatusOr<std::shared_ptr<const SkewDirective>> OnSkewReport(
      SkewJoinReport report);

  bool AllOpsComplete() const { return complete_ops_ == plan_->ops.size(); }
  /// True once every instance of `op` reported `milestone`.
  bool OpMilestoneFired(int op, Milestone milestone) const;

  const QueryLimits& limits() const { return limits_; }
  /// Records the query's first failure; false if one was recorded.
  bool Fail(Status status);
  /// False once the query failed, after recording a stop of the limits.
  bool CheckLimits();
  bool failed() const { return !failure_.ok(); }
  const Status& failure() const { return failure_; }

 private:
  /// One defended join's report merge; `seen` rejects a repeated instance
  /// before it can trip the merger's own checks.
  struct SkewExchange {
    SkewReportMerger merger;
    std::vector<bool> seen;
    uint32_t bloom_bits;
    uint32_t row_width;
  };

  std::vector<int> CollectReadyGroups();

  const ParallelPlan* plan_;
  const QueryLimits limits_;
  // Per milestone (by enum value: kComplete 0, kBuildDone 1) and op: the
  // instances still to report it.
  std::vector<uint32_t> pending_[2];
  // Per op and instance: the milestones it reported, bit 1 << kind.
  std::vector<std::vector<uint8_t>> reported_;
  std::vector<bool> group_dispatched_;
  size_t complete_ops_ = 0;
  // Per op: a defended join's report merge, empty for every other op.
  std::vector<std::optional<SkewExchange>> skew_;
  Status failure_;
};

}  // namespace mjoin

#endif  // MJOIN_ENGINE_CONTROLLER_H_
