// Windowed streaming sketch measures behind one interface.
//
// A SketchMeasure summarizes the last `window` values of one stream into a
// single scalar estimate — approximate distinct count (HyperLogLog),
// heavy-hitter count (CountMin + candidates), or a quantile (P²). None of
// the underlying sketches support deletion, so sliding semantics come from
// a bucket ring: the window is split into `buckets` sub-sketches of
// window/buckets values each; a full bucket rotates out the oldest
// sub-sketch, and Estimate() merges the live buckets. The window therefore
// slides with bucket granularity (a standard tumbling-bucket
// approximation), and every sketch only needs a mergeable union
// (register max for HLL, counter addition for CountMin) or cheap
// re-aggregation (P² markers are not mergeable; the quantile measure
// estimates from the newest full coverage instead, see QuantileMeasure).
//
// Instances live inside FeaturePipeline, one per (stream, registered
// sketch slot); AppendRun is the batched maintenance entry point used by
// the columnar shard path and is state-identical to per-tuple Append.
#ifndef STARDUST_SKETCH_MEASURE_H_
#define STARDUST_SKETCH_MEASURE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "sketch/countmin.h"
#include "sketch/hll.h"
#include "sketch/quantile.h"

namespace stardust {

/// What a sketch measure estimates over its window.
enum class SketchKind : std::uint8_t {
  kDistinct = 0,      // approximate count of distinct values (HLL)
  kHeavyHitters = 1,  // number of values with frequency >= phi (CountMin)
  kQuantile = 2,      // the q-quantile of the window's values (P²)
};

/// Stable lowercase name for a sketch kind ("distinct", ...).
const char* SketchKindName(SketchKind kind);

/// Full description of a sketch measure. Two queries whose configs
/// compare equal share one measure instance per stream (the eval plan
/// groups by config; FeaturePipeline claims instances across plan swaps
/// and checkpoint restores by config equality), so every field that
/// changes the maintained state lives here.
struct SketchConfig {
  SketchKind kind = SketchKind::kDistinct;
  /// Values covered by one estimate.
  std::uint64_t window = 0;
  /// Ring granularity; the window slides in steps of window/buckets.
  std::uint64_t buckets = 4;
  /// kDistinct: HLL precision (2^precision registers), in [4, 18].
  std::uint64_t hll_precision = 12;
  /// kHeavyHitters: CountMin error bound (over-count <= epsilon * window).
  double epsilon = 0.01;
  /// kHeavyHitters: CountMin rows.
  std::uint64_t depth = 4;
  /// kHeavyHitters: frequency fraction that makes a value "heavy".
  double phi = 0.05;
  /// kHeavyHitters: tracked candidate capacity.
  std::uint64_t candidates = 32;
  /// kQuantile: which quantile to estimate, in (0, 1).
  double q = 0.5;

  bool operator==(const SketchConfig&) const = default;

  /// OK when the config describes a constructible measure.
  Status Validate() const;

  /// Fixed 65-byte little-endian layout (used inside QuerySpec v3 records
  /// and stream slices).
  void SaveTo(Writer* writer) const;
  Status RestoreFrom(Reader* reader);
};

/// One stream's windowed sketch. Not thread-safe; the owning shard
/// serializes access under its state mutex.
class SketchMeasure {
 public:
  virtual ~SketchMeasure() = default;

  virtual void Append(double value) = 0;
  /// Batched append; must be state-identical to n Append calls.
  virtual void AppendRun(const double* values, std::size_t n) = 0;

  /// True once at least `window` values have been appended (the first
  /// full window of coverage; estimates before that would alarm on
  /// partial data).
  virtual bool Ready() const = 0;
  /// Current windowed estimate. Requires Ready().
  virtual double Estimate() const = 0;

  virtual std::size_t MemoryBytes() const = 0;

  virtual void SaveTo(Writer* writer) const = 0;
  /// Restores into a measure created from the same config.
  virtual Status RestoreFrom(Reader* reader) = 0;

  /// Lifetime maintenance counters, aggregated into engine metrics.
  std::uint64_t appends() const { return appends_; }
  std::uint64_t merges() const { return merges_; }
  std::uint64_t estimate_calls() const { return estimate_calls_; }

 protected:
  std::uint64_t appends_ = 0;
  // merges happen inside const Estimate() (bucket-union on demand).
  mutable std::uint64_t merges_ = 0;
  mutable std::uint64_t estimate_calls_ = 0;
};

/// Builds the measure described by `config`; requires
/// config.Validate().ok().
std::unique_ptr<SketchMeasure> CreateSketchMeasure(
    const SketchConfig& config);

}  // namespace stardust

#endif  // STARDUST_SKETCH_MEASURE_H_
