#ifndef MJOIN_COMMON_STATS_H_
#define MJOIN_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mjoin {

/// Percentile over a bounded sample set, computed by linear interpolation
/// between the two closest ranks (numpy's default method): Percentile(50)
/// over {1..100} is 50.5, not a member of the set. The samples are sorted
/// lazily — a run of Percentile() calls with no intervening Add() sorts
/// once.
///
/// At most kMaxSamples samples are retained; past the cap, Add() reservoir-
/// samples (algorithm R) so the retained set stays a uniform sample of
/// everything observed. The replacement stream comes from a private LCG
/// seeded at construction, so a tracker fed the same sequence retains the
/// same set on every run — long-lived consumers (a server's latency
/// histograms) get bounded memory without losing determinism.
class PercentileTracker {
 public:
  static constexpr size_t kMaxSamples = 4096;

  void Add(double value) {
    ++total_;
    if (values_.size() < kMaxSamples) {
      values_.push_back(value);
      sorted_ = false;
      return;
    }
    // Algorithm R: keep the new sample with probability cap/total, in a
    // uniformly random retained slot.
    const uint64_t slot = NextRandom() % total_;
    if (slot < kMaxSamples) {
      values_[static_cast<size_t>(slot)] = value;
      sorted_ = false;
    }
  }

  /// p in [0, 100]. Returns 0 when empty.
  double Percentile(double p) const;

  /// Folds `other` in (e.g. merging per-thread trackers): totals add, and
  /// the retained sets concatenate up to the cap (past it, the surplus
  /// reservoir-replaces).
  void Merge(const PercentileTracker& other);

  /// Samples observed (not capped).
  uint64_t count() const { return total_; }

  /// The retained samples, in unspecified order; at most kMaxSamples.
  const std::vector<double>& values() const { return values_; }

 private:
  uint64_t NextRandom() {
    seed_ = seed_ * 6364136223846793005ull + 1442695040888963407ull;
    return seed_ >> 16;
  }

  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
  uint64_t total_ = 0;
  uint64_t seed_ = 0x9e3779b97f4a7c15ull;
};

}  // namespace mjoin

#endif  // MJOIN_COMMON_STATS_H_
