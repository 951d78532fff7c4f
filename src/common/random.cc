#include "common/random.h"

#include "common/logging.h"

namespace mjoin {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Random::Random(uint64_t seed) {
  // Seed the four xoshiro words from SplitMix64, per the reference
  // implementation's recommendation; avoids the all-zero state.
  uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(&s);
}

uint64_t Random::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Random::Uniform(uint64_t bound) {
  MJOIN_DCHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Random::UniformRange(int64_t lo, int64_t hi) {
  MJOIN_DCHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Uniform(span));
}

double Random::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

std::vector<uint32_t> Random::Permutation(uint32_t n) {
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  Shuffle(&perm);
  return perm;
}

}  // namespace mjoin
