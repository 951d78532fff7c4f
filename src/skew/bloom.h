#ifndef MJOIN_SKEW_BLOOM_H_
#define MJOIN_SKEW_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mjoin {

/// Fixed-size Bloom filter over int32 join keys, used for predicate
/// transfer: each build instance inserts its build keys, the coordinator
/// ORs the per-instance filters together (same size by construction), and
/// the merged filter is installed on the probe side's producers so rows
/// that cannot match are dropped before they hit the wire.
///
/// Bits are rounded up to a power of two so membership tests mask instead
/// of mod. All k probe bits derive from one Mix64 of the key
/// (double-hashing: bit_i = h1 + i * h2), which keeps Insert/MayContain a
/// single multiply-shift plus k cheap bit tests. A default-constructed
/// filter is *unbuilt* and passes everything — the safe identity for code
/// paths where no defense is active.
class BloomFilter {
 public:
  /// Probe bits per key. Fixed (not tuned to n/m) so filters from
  /// different instances stay structurally identical and OR-mergeable.
  static constexpr uint32_t kNumHashes = 4;

  BloomFilter() = default;
  explicit BloomFilter(uint32_t num_bits);

  /// The size BloomFilter(num_bits) builds, without building it:
  /// num_bits rounded up to a power of two, at least 64.
  static uint64_t BitsFor(uint32_t num_bits);

  bool built() const { return !bytes_.empty(); }
  uint32_t num_bits() const;

  void Insert(int32_t key);

  /// True when `key` may have been inserted; never a false negative.
  /// An unbuilt filter reports true for every key.
  bool MayContain(int32_t key) const;

  /// ORs `other` into this filter; both must be built with the same size
  /// (or `other` unbuilt, a no-op). An unbuilt *this adopts other's bits.
  void Union(const BloomFilter& other);

  /// (ones/bits)^k — the classic load-based false-positive estimate,
  /// computed from the actual bit population so it reflects the filter as
  /// merged, not as designed. Unbuilt filters estimate 1.0 (pass-all).
  double EstimateFpRate() const;

  /// Set bits, for metrics.
  uint64_t PopCount() const;

  /// Raw byte serialization (little-endian bit order within a byte).
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  /// Rebuilds a filter from serialized bytes (size must be a power of two
  /// or empty).
  static BloomFilter FromBytes(std::vector<uint8_t> bytes);

 private:
  /// bytes_.size() * 8 == num_bits; empty when unbuilt.
  std::vector<uint8_t> bytes_;
};

}  // namespace mjoin

#endif  // MJOIN_SKEW_BLOOM_H_
