#include "skew/bloom.h"

#include <cmath>

#include "common/logging.h"
#include "common/random.h"

namespace mjoin {
namespace {

bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

uint64_t RoundUpPowerOfTwo(uint64_t v) {
  uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

uint64_t BloomFilter::BitsFor(uint32_t num_bits) {
  return RoundUpPowerOfTwo(num_bits < 64 ? 64 : num_bits);
}

BloomFilter::BloomFilter(uint32_t num_bits) {
  MJOIN_CHECK(num_bits > 0) << "BloomFilter needs at least one bit";
  bytes_.assign(static_cast<size_t>(BitsFor(num_bits) / 8), 0);
}

uint32_t BloomFilter::num_bits() const {
  return static_cast<uint32_t>(bytes_.size() * 8);
}

void BloomFilter::Insert(int32_t key) {
  MJOIN_DCHECK(built());
  const uint64_t mask = static_cast<uint64_t>(bytes_.size()) * 8 - 1;
  uint64_t h = Mix64(static_cast<uint64_t>(static_cast<uint32_t>(key)));
  const uint64_t h1 = h & 0xffffffffu;
  const uint64_t h2 = (h >> 32) | 1;  // odd, so all k probes differ
  for (uint32_t i = 0; i < kNumHashes; ++i) {
    uint64_t bit = (h1 + i * h2) & mask;
    bytes_[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
  }
}

bool BloomFilter::MayContain(int32_t key) const {
  if (!built()) return true;
  const uint64_t mask = static_cast<uint64_t>(bytes_.size()) * 8 - 1;
  uint64_t h = Mix64(static_cast<uint64_t>(static_cast<uint32_t>(key)));
  const uint64_t h1 = h & 0xffffffffu;
  const uint64_t h2 = (h >> 32) | 1;
  for (uint32_t i = 0; i < kNumHashes; ++i) {
    uint64_t bit = (h1 + i * h2) & mask;
    if ((bytes_[bit >> 3] & (1u << (bit & 7))) == 0) return false;
  }
  return true;
}

void BloomFilter::Union(const BloomFilter& other) {
  if (!other.built()) return;
  if (!built()) {
    bytes_ = other.bytes_;
    return;
  }
  MJOIN_CHECK(bytes_.size() == other.bytes_.size())
      << "BloomFilter::Union requires equal sizes: " << num_bits() << " vs "
      << other.num_bits();
  for (size_t i = 0; i < bytes_.size(); ++i) bytes_[i] |= other.bytes_[i];
}

double BloomFilter::EstimateFpRate() const {
  if (!built()) return 1.0;
  double load = static_cast<double>(PopCount()) / num_bits();
  return std::pow(load, static_cast<double>(kNumHashes));
}

uint64_t BloomFilter::PopCount() const {
  uint64_t ones = 0;
  for (uint8_t b : bytes_) {
    ones += static_cast<uint64_t>(__builtin_popcount(b));
  }
  return ones;
}

BloomFilter BloomFilter::FromBytes(std::vector<uint8_t> bytes) {
  MJOIN_CHECK(bytes.empty() || IsPowerOfTwo(bytes.size()))
      << "BloomFilter bytes must be empty or a power of two, got "
      << bytes.size();
  BloomFilter f;
  f.bytes_ = std::move(bytes);
  return f;
}

}  // namespace mjoin
