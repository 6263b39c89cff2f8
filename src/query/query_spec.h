// Continuous-query specifications for the runtime query registry.
//
// One flat QuerySpec struct covers the paper's three query classes
// (Sections 2.2-2.4, 5): aggregate threshold monitoring, pattern
// (subsequence similarity) monitoring, and pairwise correlation
// monitoring. A spec is registered with QueryRegistry while ingestion is
// live; validation against the engine's configured cores happens at
// registration time so clients get synchronous errors.
#ifndef STARDUST_QUERY_QUERY_SPEC_H_
#define STARDUST_QUERY_QUERY_SPEC_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "sketch/measure.h"

namespace stardust {

/// The paper's three continuous-query classes (Section 5) plus sketch
/// measures (windowed approximate distinct / heavy-hitter / quantile
/// monitors over the same shard pipeline).
enum class QueryKind : std::uint8_t {
  kAggregate = 0,
  kPattern = 1,
  kCorrelation = 2,
  kSketch = 3,
};

inline const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kAggregate: return "aggregate";
    case QueryKind::kPattern: return "pattern";
    case QueryKind::kCorrelation: return "correlation";
    case QueryKind::kSketch: return "sketch";
  }
  return "unknown";
}

/// Conformance range of a monitored measure (the Stream DaQ "assess"
/// clause): the measure is healthy while its value lies inside
/// [lo, hi] / (lo, hi) / half-open variants, and a query alarms when the
/// value leaves the range. Half-infinite ranges express plain thresholds
/// (">= 5" conforms on [5, +inf]; "< 5" on [-inf, 5) with hi_inclusive
/// false).
struct AssessRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_inclusive = true;
  bool hi_inclusive = true;

  bool operator==(const AssessRange&) const = default;

  bool Contains(double v) const {
    if (lo_inclusive ? v < lo : v <= lo) return false;
    if (hi_inclusive ? v > hi : v >= hi) return false;
    return true;
  }

  /// The bound a non-conforming value crossed (reported as the alert's
  /// threshold). For conforming values returns the upper bound.
  double ViolatedBound(double v) const {
    if (lo_inclusive ? v < lo : v <= lo) return lo;
    return hi;
  }

  /// OK when the range is non-empty and the bounds are not NaN.
  Status Validate() const {
    if (std::isnan(lo) || std::isnan(hi)) {
      return Status::InvalidArgument("assess range bound is NaN");
    }
    if (lo > hi || (lo == hi && !(lo_inclusive && hi_inclusive))) {
      return Status::InvalidArgument("assess range is empty");
    }
    return Status::OK();
  }

  /// 17-byte fixed layout: lo, hi, inclusivity flag bits.
  void SaveTo(Writer* writer) const {
    writer->F64(lo);
    writer->F64(hi);
    writer->U8(static_cast<std::uint8_t>((lo_inclusive ? 1 : 0) |
                                         (hi_inclusive ? 2 : 0)));
  }

  Status RestoreFrom(Reader* reader) {
    SD_RETURN_NOT_OK(reader->F64(&lo));
    SD_RETURN_NOT_OK(reader->F64(&hi));
    std::uint8_t flags = 0;
    SD_RETURN_NOT_OK(reader->U8(&flags));
    if (flags > 3) {
      return Status::InvalidArgument("assess range flags out of range");
    }
    lo_inclusive = (flags & 1) != 0;
    hi_inclusive = (flags & 2) != 0;
    return Status::OK();
  }
};

/// Stable identifier of a registered query. Ids are engine-unique,
/// monotonically assigned, and never reused. 0 is never a valid id.
using QueryId = std::uint64_t;
inline constexpr QueryId kInvalidQueryId = 0;

/// Sentinel for CorrelationSpec::level: detect at the correlation core's
/// top resolution (window N = W * 2^J, the paper's experimental setting).
inline constexpr std::size_t kTopLevel =
    std::numeric_limits<std::size_t>::max();

/// One continuous query. Only the fields of the selected kind are
/// meaningful; the factory functions build well-formed instances.
struct QuerySpec {
  QueryKind kind = QueryKind::kAggregate;

  /// kAggregate: alarm when the exact aggregate over the trailing
  /// `window` values of a stream reaches `threshold` (Algorithm 2 filter
  /// + verify). `window` must be a positive multiple of the aggregate
  /// path's base window with window/W < 2^num_levels.
  std::size_t window = 0;
  double threshold = 0.0;

  /// kPattern: report stream windows within `radius` (normalized
  /// Euclidean distance, Equation 2) of `pattern` (Algorithm 3 over the
  /// shard's online DWT core). |pattern| must be a positive multiple of
  /// the pattern core's base window with |pattern|/W < 2^num_levels.
  std::vector<double> pattern;

  /// kPattern / kCorrelation: the distance radius. For correlation it
  /// maps to a minimum correlation via corr >= 1 - r^2/2 (Section 2.4).
  double radius = 0.0;

  /// kCorrelation: resolution level of the correlation core to detect at
  /// (window W * 2^level); kTopLevel means the top level.
  std::size_t level = kTopLevel;

  /// kSketch: which windowed sketch to maintain per stream. Queries with
  /// equal configs share one measure instance per stream (the eval plan
  /// groups by config).
  SketchConfig sketch;

  /// kAggregate / kSketch: the conformance range; the query alarms when
  /// the measure leaves it. Aggregate() initializes it to
  /// [-inf, threshold) so the legacy "alarm at >= threshold" behavior is
  /// the upper-bound violation of an assess range.
  AssessRange assess;

  /// Any kind: token-bucket limit on published alerts. 0 disables the
  /// limit (every hit publishes). When positive, at most `alert_burst`
  /// alerts fire back-to-back and the bucket refills at
  /// `alert_rate_per_sec` tokens per second; suppressed hits are counted
  /// (QueryMetricsSnapshot::rate_limited), never queued or re-raised.
  double alert_rate_per_sec = 0.0;
  std::uint64_t alert_burst = 0;

  QuerySpec& WithAlertRate(double per_sec, std::uint64_t burst) {
    alert_rate_per_sec = per_sec;
    alert_burst = burst;
    return *this;
  }

  static QuerySpec Aggregate(std::size_t window, double threshold) {
    QuerySpec spec;
    spec.kind = QueryKind::kAggregate;
    spec.window = window;
    spec.threshold = threshold;
    spec.assess.hi = threshold;
    spec.assess.hi_inclusive = false;
    return spec;
  }

  /// Aggregate query that conforms to `assess` instead of a single upper
  /// threshold. `threshold` mirrors the range's finite bound for display.
  static QuerySpec AggregateRange(std::size_t window, AssessRange assess) {
    QuerySpec spec;
    spec.kind = QueryKind::kAggregate;
    spec.window = window;
    spec.assess = assess;
    spec.threshold = std::isfinite(assess.hi) ? assess.hi : assess.lo;
    return spec;
  }

  static QuerySpec Sketch(SketchConfig config, AssessRange assess) {
    QuerySpec spec;
    spec.kind = QueryKind::kSketch;
    spec.sketch = config;
    spec.window = static_cast<std::size_t>(config.window);
    spec.assess = assess;
    spec.threshold = std::isfinite(assess.hi) ? assess.hi : assess.lo;
    return spec;
  }

  static QuerySpec Pattern(std::vector<double> pattern, double radius) {
    QuerySpec spec;
    spec.kind = QueryKind::kPattern;
    spec.pattern = std::move(pattern);
    spec.radius = radius;
    return spec;
  }

  static QuerySpec Correlation(double radius, std::size_t level = kTopLevel) {
    QuerySpec spec;
    spec.kind = QueryKind::kCorrelation;
    spec.radius = radius;
    spec.level = level;
    return spec;
  }

  /// Checkpoint support: fixed-width little-endian encoding, matching the
  /// snapshot conventions (common/serialize.h). The layout is the one of
  /// query registry envelope v3 (engine checkpoints).
  void SaveTo(Writer* writer) const {
    writer->U8(static_cast<std::uint8_t>(kind));
    writer->U64(window);
    writer->F64(threshold);
    writer->DoubleVector(pattern);
    writer->F64(radius);
    writer->U64(level == kTopLevel ? std::uint64_t{0xffffffffffffffffULL}
                                   : static_cast<std::uint64_t>(level));
    writer->F64(alert_rate_per_sec);
    writer->U64(alert_burst);
    assess.SaveTo(writer);
    sketch.SaveTo(writer);
  }

  Status RestoreFrom(Reader* reader) {
    std::uint8_t kind_byte = 0;
    SD_RETURN_NOT_OK(reader->U8(&kind_byte));
    if (kind_byte > static_cast<std::uint8_t>(QueryKind::kSketch)) {
      return Status::InvalidArgument("unknown query kind in snapshot");
    }
    kind = static_cast<QueryKind>(kind_byte);
    std::uint64_t window64 = 0;
    SD_RETURN_NOT_OK(reader->U64(&window64));
    window = static_cast<std::size_t>(window64);
    SD_RETURN_NOT_OK(reader->F64(&threshold));
    SD_RETURN_NOT_OK(reader->DoubleVector(&pattern));
    SD_RETURN_NOT_OK(reader->F64(&radius));
    std::uint64_t level64 = 0;
    SD_RETURN_NOT_OK(reader->U64(&level64));
    level = level64 == 0xffffffffffffffffULL
                ? kTopLevel
                : static_cast<std::size_t>(level64);
    SD_RETURN_NOT_OK(reader->F64(&alert_rate_per_sec));
    SD_RETURN_NOT_OK(reader->U64(&alert_burst));
    SD_RETURN_NOT_OK(assess.RestoreFrom(reader));
    return sketch.RestoreFrom(reader);
  }
};

}  // namespace stardust

#endif  // STARDUST_QUERY_QUERY_SPEC_H_
