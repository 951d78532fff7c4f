#include "common/stats.h"

#include <algorithm>

namespace mjoin {

double PercentileTracker::Percentile(double p) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

void PercentileTracker::Merge(const PercentileTracker& other) {
  if (other.total_ == 0) return;
  // Totals add first so the reservoir replacement probability below sees
  // the combined population.
  total_ += other.total_ - other.values_.size();
  for (double v : other.values_) {
    ++total_;
    if (values_.size() < kMaxSamples) {
      values_.push_back(v);
      sorted_ = false;
      continue;
    }
    const uint64_t slot = NextRandom() % total_;
    if (slot < kMaxSamples) {
      values_[static_cast<size_t>(slot)] = v;
      sorted_ = false;
    }
  }
}

}  // namespace mjoin
