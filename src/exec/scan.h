#ifndef MJOIN_EXEC_SCAN_H_
#define MJOIN_EXEC_SCAN_H_

#include <functional>
#include <memory>
#include <utility>

#include "exec/operator.h"
#include "storage/partitioner.h"
#include "storage/relation.h"

namespace mjoin {

/// Scans one node-local fragment and emits its tuples in batches, reading
/// them where they live: the relation it is given is either a stored
/// intermediate-result fragment (the default rule, one fragment, scans all
/// of it) or a whole base relation, of which it emits only the rows `rule`
/// assigns to fragment `fragment`, in base order. No row is copied before
/// it is emitted. The relation is resolved lazily at Open() time via
/// `resolver`, because stored intermediate results only exist once the
/// producing stage ran.
///
/// Each Produce() emits exactly batch_size members (fewer only at the end)
/// and charges tuple_scan per member, so rows, batch boundaries and
/// simulated ticks equal a scan of the fragment as its own relation.
class ScanOp : public Operator {
 public:
  using FragmentResolver = std::function<const Relation*()>;

  ScanOp(FragmentResolver resolver, std::shared_ptr<const Schema> schema,
         FragmentRule rule = FragmentRule::RoundRobin(1),
         uint32_t fragment = 0)
      : resolver_(std::move(resolver)),
        schema_(std::move(schema)),
        rule_(rule),
        fragment_(fragment) {}

  bool is_source() const override { return true; }
  int num_input_ports() const override { return 0; }

  void Open(OpContext* ctx) override;
  bool Produce(OpContext* ctx) override;
  bool finished() const override { return opened_ && cursor_ >= total_; }

  const std::shared_ptr<const Schema>& output_schema() const override {
    return schema_;
  }

 private:
  bool IsMember(size_t row) const {
    return rule_.Of(row, relation_->raw_data() + row * row_bytes_) ==
           fragment_;
  }
  /// The first member at or after `row`, or total_ when none is left.
  size_t SkipToMember(size_t row) const;

  FragmentResolver resolver_;
  std::shared_ptr<const Schema> schema_;
  const FragmentRule rule_;
  const uint32_t fragment_;
  const Relation* relation_ = nullptr;
  size_t row_bytes_ = 0;
  bool opened_ = false;
  /// Always at a member of the fragment, or total_: Produce() skips ahead
  /// before it returns, so it never makes an empty call.
  size_t cursor_ = 0;
  size_t total_ = 0;
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_SCAN_H_
