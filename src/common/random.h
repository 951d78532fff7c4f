#ifndef MJOIN_COMMON_RANDOM_H_
#define MJOIN_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mjoin {

/// Deterministic, seedable PRNG (xoshiro256**). All randomized components
/// in the library take an explicit Random so that every experiment is
/// reproducible from its seed.
class Random {
 public:
  explicit Random(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound) via Lemire's multiply-shift rejection method.
  /// Precondition: bound > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Returns a uniformly random permutation of 0..n-1.
  std::vector<uint32_t> Permutation(uint32_t n);

 private:
  uint64_t state_[4];
};

/// Finalizing 64-bit mixer (one SplitMix64 step from state `value`); good
/// avalanche behaviour, used for hash partitioning of join keys. Inline:
/// it runs once per scanned, routed and hashed row.
inline uint64_t Mix64(uint64_t value) {
  uint64_t z = value + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64 step: used for seeding and as a cheap stateless hash/mixer.
inline uint64_t SplitMix64(uint64_t* state) {
  const uint64_t value = *state;
  *state += 0x9e3779b97f4a7c15ULL;
  return Mix64(value);
}

}  // namespace mjoin

#endif  // MJOIN_COMMON_RANDOM_H_
