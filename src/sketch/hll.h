// HyperLogLog approximate distinct counting (Flajolet et al., 2007).
//
// m = 2^precision one-byte registers, each holding the maximum leading-
// zero rank seen in its substream. Standard error is ~1.04/sqrt(m)
// (~0.8% at precision 14); the small-cardinality regime uses linear
// counting over the empty registers, which keeps low distinct counts
// near-exact. Registers merge by element-wise max, which is what the
// windowed bucket ring in sketch/measure.h relies on: its estimate is
// UnionEstimate over the live buckets, one blocked pass that takes the
// register max and sums 2^-rank from a table, with no libm call.
#ifndef STARDUST_SKETCH_HLL_H_
#define STARDUST_SKETCH_HLL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace stardust {

/// Mixes 64 bits into 64 well-distributed bits (splitmix64 finalizer).
/// Shared by the sketches so a value hashes identically everywhere.
inline std::uint64_t SketchHash64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Canonical hash input of a double-valued stream element: the IEEE bit
/// pattern with -0.0 folded onto +0.0 so numerically equal values count
/// as one distinct element.
inline std::uint64_t SketchValueBits(double value) {
  std::uint64_t bits;
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return bits == 0x8000000000000000ULL ? 0 : bits;
}

class HyperLogLog {
 public:
  /// `precision` in [4, 18]; the sketch uses 2^precision byte registers.
  explicit HyperLogLog(std::size_t precision);

  void Add(double value) { AddHash(SketchHash64(SketchValueBits(value))); }
  void AddHash(std::uint64_t hash);
  /// Adds `n` values; equivalent to n Add calls (register max is
  /// order-independent), with the hash chain unrolled for ILP.
  void AddSpan(const double* values, std::size_t n);

  /// Approximate number of distinct values added: the one-sketch case
  /// of UnionEstimate.
  double Estimate() const;

  /// Overwrites this sketch with the register-wise max of `sketches` and
  /// returns Estimate() of the result, in one pass over 256-register
  /// blocks. Bit-identical to Clear(), Merge() of each, then Estimate():
  /// the 2^-rank terms are summed in register order. Every sketch must
  /// share this precision (checked), and none may be this one.
  double UnionEstimate(std::span<const HyperLogLog> sketches);

  /// Element-wise register max; `other` must share this precision.
  Status Merge(const HyperLogLog& other);
  void Clear();

  std::size_t precision() const { return precision_; }
  std::size_t num_registers() const { return registers_.size(); }
  std::size_t MemoryBytes() const { return registers_.size(); }

  void SaveTo(Writer* writer) const;
  /// Restores into a sketch constructed with the same precision. A
  /// register above 65 - precision, the largest rank AddHash writes, is
  /// corrupt and rejected.
  Status RestoreFrom(Reader* reader);

 private:
  std::size_t precision_;
  std::vector<std::uint8_t> registers_;
};

}  // namespace stardust

#endif  // STARDUST_SKETCH_HLL_H_
