// Fleet aggregate monitoring: the multi-stream deployment of Section 2.1
// ("a system that has M input streams"), wiring one aggregate monitor per
// stream under a single facade with fleet-wide statistics and "who is
// alarming right now" queries — the entry point a network/sensor
// operations user actually holds.
#ifndef STARDUST_CORE_FLEET_MONITOR_H_
#define STARDUST_CORE_FLEET_MONITOR_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/aggregate_monitor.h"

namespace stardust {

/// Monitors M streams over a shared set of window thresholds.
class FleetAggregateMonitor {
 public:
  /// Same parameter requirements as AggregateMonitor::Create; every
  /// stream shares the configuration and thresholds.
  static Result<std::unique_ptr<FleetAggregateMonitor>> Create(
      const StardustConfig& config, std::vector<WindowThreshold> thresholds,
      std::size_t num_streams);

  std::size_t num_streams() const { return monitors_.size(); }
  /// Windows monitored per stream (identical across the fleet). Safe on
  /// any instance: an empty fleet (which Create rejects, but defensive
  /// callers may still hold) reports zero windows instead of invoking UB.
  std::size_t num_windows() const {
    return monitors_.empty() ? 0 : monitors_[0]->num_windows();
  }
  /// Shared threshold of one monitored window (same for every stream).
  const WindowThreshold& threshold(std::size_t window_index) const {
    return monitors_[0]->threshold(window_index);
  }

  /// Feeds one value of one stream.
  Status Append(StreamId stream, double value);
  /// Feeds a run of consecutive values of one stream. Equivalent to n
  /// Append calls bit-for-bit (see AggregateMonitor::AppendRun); the
  /// engine's batched maintenance path.
  Status AppendRun(StreamId stream, const double* values, std::size_t n);
  /// Feeds one synchronized arrival across all streams.
  Status AppendAll(const std::vector<double>& values);

  const AlarmStats& stats(StreamId stream, std::size_t window_index) const {
    return monitors_[stream]->stats(window_index);
  }
  /// Counters summed over all windows of one stream.
  AlarmStats StreamTotal(StreamId stream) const {
    return monitors_[stream]->TotalStats();
  }
  /// Counters summed over the whole fleet.
  AlarmStats FleetTotal() const;

  /// Streams whose verified aggregate currently exceeds the threshold of
  /// the given window (an Algorithm-2 query per stream, filter first).
  Result<std::vector<StreamId>> CurrentlyAlarming(
      std::size_t window_index) const;

  const AggregateMonitor& monitor(StreamId stream) const {
    return *monitors_[stream];
  }

  /// Shared Stardust configuration of the fleet's monitors.
  const StardustConfig& config() const {
    return monitors_[0]->stardust().config();
  }

  /// Snapshot support (core/snapshot.cc): serializes every monitor's
  /// state, in stream order. Configuration, thresholds, and the stream
  /// count are serialized by the snapshot envelope.
  void SaveTo(Writer* writer) const;
  /// Restores a fleet serialized with SaveTo into this instance; it must
  /// have been created with the same configuration, thresholds, and
  /// stream count the snapshot was taken with.
  Status RestoreFrom(Reader* reader);

  /// Values ever appended to one stream — a const snapshot accessor, so
  /// readers never need the mutable Stardust surface.
  std::uint64_t AppendCount(StreamId stream) const;

 private:
  explicit FleetAggregateMonitor(
      std::vector<std::unique_ptr<AggregateMonitor>> monitors);

  std::vector<std::unique_ptr<AggregateMonitor>> monitors_;
};

}  // namespace stardust

#endif  // STARDUST_CORE_FLEET_MONITOR_H_
