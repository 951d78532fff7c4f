#include "engine/controller.h"

#include <utility>

#include "common/string_util.h"

namespace mjoin {

QueryLimits::QueryLimits(CancellationToken cancellation,
                         std::optional<std::chrono::milliseconds> deadline)
    : cancellation_(std::move(cancellation)) {
  // lint:allow-clock deadline origin, once per query
  if (deadline) deadline_ = std::chrono::steady_clock::now() + *deadline;
}

Status QueryLimits::Check() const {
  if (cancellation_.cancelled()) {
    return Status::Cancelled("query cancelled by caller");
  }
  // lint:allow-clock deadline check, one read per callback or poll turn
  if (deadline_ && std::chrono::steady_clock::now() >= *deadline_) {
    return Status::DeadlineExceeded("query ran past its deadline");
  }
  return Status::OK();
}

QueryController::QueryController(const ParallelPlan* plan,
                                 const SkewDefenseOptions& skew,
                                 QueryLimits limits)
    : plan_(plan), limits_(std::move(limits)) {
  for (const XraOp& op : plan_->ops) {
    const auto instances = static_cast<uint32_t>(op.processors.size());
    for (auto& pending : pending_) pending.push_back(instances);
    reported_.emplace_back(instances, 0);
  }
  group_dispatched_.assign(plan_->groups.size(), false);
  skew_.resize(plan_->ops.size());
  if (!skew.enabled()) return;
  for (int id : DefendedJoinOps(*plan_)) {
    const XraOp& join = plan_->ops[static_cast<size_t>(id)];
    const auto instances = static_cast<uint32_t>(join.processors.size());
    skew_[static_cast<size_t>(id)].emplace(
        SkewReportMerger(id, instances, skew),
        std::vector<bool>(instances, false),
        static_cast<uint32_t>(BloomFilter::BitsFor(skew.bloom_bits)),
        static_cast<uint32_t>(join.join_spec.left_schema->tuple_size()));
  }
}

bool QueryController::OpMilestoneFired(int op, Milestone milestone) const {
  return pending_[static_cast<int>(milestone)][static_cast<size_t>(op)] == 0;
}

Status QueryController::CheckInstance(int op, uint32_t instance) const {
  if (op < 0 || static_cast<size_t>(op) >= plan_->ops.size()) {
    return Status::InvalidArgument(StrCat("no op ", op, " in the plan"));
  }
  const size_t instances = reported_[static_cast<size_t>(op)].size();
  if (instance >= instances) {
    return Status::InvalidArgument(StrCat("no instance ", instance, " of op ",
                                          op, ", which has ", instances));
  }
  return Status::OK();
}

StatusOr<std::vector<int>> QueryController::OnInstanceMilestone(
    int op, uint32_t instance, Milestone milestone) {
  MJOIN_RETURN_IF_ERROR(CheckInstance(op, instance));
  const int kind = static_cast<int>(milestone);
  uint8_t& reported = reported_[static_cast<size_t>(op)][instance];
  if ((reported & (1u << kind)) != 0) {
    return Status::InvalidArgument(StrCat("instance ", instance, " of op ", op,
                                          " reported ",
                                          MilestoneName(milestone), " twice"));
  }
  reported |= static_cast<uint8_t>(1u << kind);
  if (--pending_[kind][static_cast<size_t>(op)] != 0) return std::vector<int>();
  if (milestone == Milestone::kComplete) ++complete_ops_;
  return CollectReadyGroups();
}

StatusOr<std::shared_ptr<const SkewDirective>> QueryController::OnSkewReport(
    SkewJoinReport report) {
  const int op = report.op;
  if (op < 0 || static_cast<size_t>(op) >= skew_.size() ||
      !skew_[static_cast<size_t>(op)].has_value()) {
    return Status::InvalidArgument(
        StrCat("skew report for op ", op, ", which is not a defended join"));
  }
  SkewExchange& exchange = *skew_[static_cast<size_t>(op)];
  // An unbuilt filter (0 bits) is rejected too: merged in, it would drop
  // every probe row whose key only that instance holds.
  const uint32_t bloom_bits = report.bloom.num_bits();
  if (report.instance >= exchange.seen.size() ||
      exchange.seen[report.instance] || bloom_bits != exchange.bloom_bits ||
      report.tuple_size != exchange.row_width) {
    return Status::InvalidArgument(StrCat(
        "skew report for op ", op, " from instance ", report.instance, " of ",
        exchange.seen.size(), " (", bloom_bits, "-bit Bloom filter, ",
        report.tuple_size, "-byte rows): out of range, repeated, or not the ",
        exchange.bloom_bits, "-bit filter and ", exchange.row_width,
        "-byte rows the join takes"));
  }
  exchange.seen[report.instance] = true;
  exchange.merger.Add(std::move(report));
  std::shared_ptr<const SkewDirective> directive;
  if (exchange.merger.complete()) {
    directive = std::make_shared<SkewDirective>(exchange.merger.Finish());
  }
  return directive;
}

bool QueryController::Fail(Status status) {
  if (failed() || status.ok()) return false;
  failure_ = std::move(status);
  return true;
}

bool QueryController::CheckLimits() {
  if (!failed()) Fail(limits_.Check());
  return !failed();
}

std::vector<int> QueryController::CollectReadyGroups() {
  std::vector<int> ready;
  for (size_t g = 0; g < plan_->groups.size(); ++g) {
    if (group_dispatched_[g]) continue;
    bool all_fired = true;
    for (const TriggerDep& dep : plan_->groups[g].deps) {
      if (!OpMilestoneFired(dep.op, dep.milestone)) {
        all_fired = false;
        break;
      }
    }
    if (all_fired) {
      group_dispatched_[g] = true;
      ready.push_back(static_cast<int>(g));
    }
  }
  return ready;
}

}  // namespace mjoin
