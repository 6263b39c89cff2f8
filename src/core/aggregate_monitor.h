// Continuous aggregate monitoring over a set of query windows (§6.1).
//
// Drives a Stardust instance in its online aggregate configuration and, at
// every arrival, runs the Algorithm-2 filter for every monitored window:
// when the composed upper bound reaches the window's threshold a candidate
// alarm is raised, which is then verified against the exact aggregate. The
// exact aggregate is maintained incrementally (SlidingAggregateTracker) —
// semantically identical to Algorithm 2's "retrieve the subsequence and
// compute the true aggregate", but O(1) per check so that precision can be
// measured over hundreds of thousands of arrivals.
#ifndef STARDUST_CORE_AGGREGATE_MONITOR_H_
#define STARDUST_CORE_AGGREGATE_MONITOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/stardust.h"
#include "stream/threshold.h"
#include "transform/sliding_tracker.h"

namespace stardust {

/// Alarm counters for one monitored window (or aggregated over windows).
struct AlarmStats {
  std::uint64_t candidates = 0;
  std::uint64_t true_alarms = 0;
  std::uint64_t checks = 0;

  /// True alarms / total alarms raised; 1.0 when nothing was raised.
  double Precision() const {
    return candidates == 0
               ? 1.0
               : static_cast<double>(true_alarms) /
                     static_cast<double>(candidates);
  }
};

/// Monitors one stream for threshold crossings over many window sizes.
class AggregateMonitor {
 public:
  /// `config` must use TransformKind::kAggregate; every threshold window
  /// must be a positive multiple of config.base_window representable in
  /// config.num_levels bits, and history must cover the largest window.
  static Result<std::unique_ptr<AggregateMonitor>> Create(
      const StardustConfig& config,
      std::vector<WindowThreshold> thresholds);
  /// The requirements Create places on `config` (which must also be
  /// valid) and every threshold window, except that an empty list
  /// passes. The ingestion engine,
  /// whose aggregate path answers the same windows, checks them too.
  static Status Validate(const StardustConfig& config,
                         const std::vector<WindowThreshold>& thresholds);

  /// Feeds one value and runs every monitored window's check.
  Status Append(double value);

  /// Batched append: equivalent to n Append calls — every per-arrival
  /// check still runs against the summary state as of that arrival (via
  /// the summarizer's three-phase run), so the alarm counters, the
  /// tracker, and the serialized summary state are bit-identical to the
  /// per-value path. Runs containing non-finite values fall back to the
  /// per-value path, which stops at the offending value.
  Status AppendRun(const double* values, std::size_t n);

  std::size_t num_windows() const { return thresholds_.size(); }
  const WindowThreshold& threshold(std::size_t i) const {
    return thresholds_[i];
  }
  const AlarmStats& stats(std::size_t i) const { return stats_[i]; }
  /// Counters summed over all windows.
  AlarmStats TotalStats() const;

  const Stardust& stardust() const { return *stardust_; }
  /// The exact sliding aggregates the alarms are verified against.
  const SlidingAggregateTracker& tracker() const { return tracker_; }

 private:
  AggregateMonitor(std::unique_ptr<Stardust> stardust,
                   std::vector<WindowThreshold> thresholds);

  /// Per-arrival threshold checks for a level-major run (the summarizer's
  /// RunLevelPass must have completed for the open run): composes each
  /// window's extent exactly like Stardust::AggregateIntervalAt, reading
  /// the lowest set bit's sub-aggregate from the as-of ring and the
  /// higher bits from final box extents — bit-identical to checking
  /// arrival by arrival (see StreamSummarizer::FlatRunEligible).
  Status RunChecksFlat(const StreamSummarizer& summarizer,
                       const double* values, std::size_t n);

  std::unique_ptr<Stardust> stardust_;
  std::vector<WindowThreshold> thresholds_;
  SlidingAggregateTracker tracker_;
  std::vector<AlarmStats> stats_;
  StreamId stream_ = 0;

  // Reused scratch for AppendRun (empty between runs).
  std::vector<BoxRef> run_sealed_;
  std::vector<BoxRef> run_expired_;
  Mbr extent_scratch_;
};

}  // namespace stardust

#endif  // STARDUST_CORE_AGGREGATE_MONITOR_H_
