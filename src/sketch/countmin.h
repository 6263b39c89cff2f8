// CountMin sketch with a tracked candidate set for heavy hitters
// (Cormode & Muthukrishnan, 2005).
//
// depth rows of width counters; each arrival increments one counter per
// row and the point estimate is the row minimum, overestimating the true
// frequency by at most epsilon * N with probability 1 - e^-depth. The
// candidate set is the classic CountMin+heap construction: up to
// `candidates` values currently believed most frequent, updated at add
// time, so heavy-hitter queries never scan the value domain. Counters
// merge by element-wise addition (the windowed bucket ring in
// sketch/measure.h relies on this).
#ifndef STARDUST_SKETCH_COUNTMIN_H_
#define STARDUST_SKETCH_COUNTMIN_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "sketch/hll.h"

namespace stardust {

class CountMin {
 public:
  /// Width is the smallest power of two >= e / epsilon (rounding up only
  /// tightens the epsilon * N error bound). `depth` rows, up to
  /// `candidates` tracked heavy-hitter candidates.
  CountMin(double epsilon, std::size_t depth, std::size_t candidates);

  void Add(double value);
  /// Adds `n` values. State-identical to n Add calls (the candidate set
  /// evolves deterministically in arrival order); row bases are hoisted
  /// out of the loop.
  void AddSpan(const double* values, std::size_t n);

  /// Point estimate (row minimum) of how often `value` was added. Never
  /// underestimates; overestimates by at most epsilon * total() with
  /// probability 1 - e^-depth.
  std::uint64_t EstimateCount(double value) const;
  /// Values ever added.
  std::uint64_t total() const { return total_; }
  /// Tracked candidates whose current estimate is >= phi * total().
  std::size_t HeavyHitterCount(double phi) const;

  /// Element-wise counter addition + candidate-set union (re-estimated
  /// against the merged counters, truncated back to capacity). `other`
  /// must share this sketch's shape.
  Status Merge(const CountMin& other);
  void Clear();

  std::size_t width() const { return width_; }
  std::size_t depth() const { return depth_; }
  std::size_t MemoryBytes() const;

  /// MemoryBytes() of a sketch of this shape, computed in double without
  /// building it, so a caller can bound it before anything allocates
  /// (SketchConfig::Validate does).
  static double MemoryBytesFor(double epsilon, std::size_t depth,
                               std::size_t candidates);

  void SaveTo(Writer* writer) const;
  /// Restores into a sketch constructed with the same shape.
  Status RestoreFrom(Reader* reader);

 private:
  struct Candidate {
    std::uint64_t bits = 0;   // SketchValueBits of the tracked value
    std::uint64_t count = 0;  // estimate when last touched
  };

  /// Counters per row for `epsilon` (> 0): the smallest power of two >=
  /// e / epsilon, as a double so no epsilon can overflow it.
  static double RowWidth(double epsilon);
  /// Per-row counter index of a value's hash.
  std::size_t Index(std::size_t row, std::uint64_t bits) const {
    return static_cast<std::size_t>(
               SketchHash64(bits ^ row_seeds_[row])) &
           (width_ - 1);
  }
  std::uint64_t EstimateBits(std::uint64_t bits) const;
  void OfferCandidate(std::uint64_t bits, std::uint64_t estimate);
  void RecomputeCandidateFloor();

  double epsilon_;
  std::size_t width_ = 0;
  std::size_t depth_ = 0;
  std::size_t capacity_ = 0;
  std::uint64_t total_ = 0;
  /// depth_ rows of width_ counters, row-major.
  std::vector<std::uint32_t> counters_;
  std::vector<std::uint64_t> row_seeds_;
  std::vector<Candidate> candidates_;
  std::unordered_map<std::uint64_t, std::size_t> candidate_index_;
  /// Smallest stored candidate count once the set is full; offers at or
  /// below it are rejected without scanning (the hot path for the long
  /// tail of infrequent values).
  std::uint64_t candidate_floor_ = 0;
};

}  // namespace stardust

#endif  // STARDUST_SKETCH_COUNTMIN_H_
