// Exact sliding-window aggregates maintained incrementally.
//
// O(1) amortized per arrival per window via running sums (SUM) and
// monotonic deques (MAX / MIN / SPREAD). Used as the ground-truth oracle
// when measuring precision (the "linear scan" the paper's baselines are
// compared against) and as the verification fast path of the continuous
// aggregate monitor.
#ifndef STARDUST_TRANSFORM_SLIDING_TRACKER_H_
#define STARDUST_TRANSFORM_SLIDING_TRACKER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/aligned.h"
#include "common/serialize.h"
#include "common/status.h"
#include "transform/aggregate.h"

namespace stardust {

/// Tracks the exact aggregate of the most recent w values, for a set of
/// window sizes, over one stream.
class SlidingAggregateTracker {
 public:
  SlidingAggregateTracker(AggregateKind kind,
                          std::vector<std::size_t> windows);

  void Push(double value);

  /// Consumes `n` values in arrival order. Equivalent to calling Push on
  /// each element; batch form for the engine feature pipeline.
  void PushSpan(const double* values, std::size_t n);

  std::size_t num_windows() const { return windows_.size(); }
  std::size_t window(std::size_t i) const { return windows_[i]; }
  /// Number of values consumed.
  std::uint64_t now() const { return count_; }
  /// True once at least window(i) values have been consumed.
  bool Ready(std::size_t i) const { return count_ >= windows_[i]; }
  /// Exact aggregate over the last window(i) values. Requires Ready(i).
  double Current(std::size_t i) const;

  /// Stream-slice support (engine/feature_pipeline.cc): serializes the
  /// full tracker state — counts, compensated sums, the recent-value
  /// ring, and the monotonic deques — so a restored tracker continues
  /// bit-exactly.
  void SaveTo(Writer* writer) const;
  /// Restores a serialized tracker. The instance must have been
  /// constructed with the same kind and window set the slice was taken
  /// with; anything else (or a structurally corrupt payload) is rejected.
  Status RestoreFrom(Reader* reader);

 private:
  struct MonotonicDeque {
    /// Indices into the global time axis; values kept monotonic.
    std::deque<std::pair<std::uint64_t, double>> entries;
    void Push(std::uint64_t t, double v, bool want_max, std::uint64_t w);
    double Front() const { return entries.front().second; }
  };

  AggregateKind kind_;
  std::vector<std::size_t> windows_;
  std::uint64_t count_ = 0;
  /// Ring of the last max(windows) values (for running sums). 64-byte
  /// aligned so PushSpan's kernel reads never straddle a cache line.
  AlignedVector<double> recent_;
  std::size_t recent_capacity_ = 0;
  /// Per-window running sums with Neumaier compensation (kSum): the true
  /// window sum is sums_[i] + comps_[i]. Subtract-on-evict alone loses one
  /// rounding error per arrival, which drifts over millions of appends;
  /// the compensation term keeps the error bounded independent of stream
  /// length (tested to 10M appends in tests/sliding_tracker_test.cc).
  std::vector<double> sums_;
  std::vector<double> comps_;
  std::vector<MonotonicDeque> maxes_;         // per window (kMax / kSpread)
  std::vector<MonotonicDeque> mins_;          // per window (kMin / kSpread)
};

}  // namespace stardust

#endif  // STARDUST_TRANSFORM_SLIDING_TRACKER_H_
