// Declarative monitor definitions — the unit of the DSL (docs/DSL.md).
//
// A monitor names a measure over a sliding window, an assessment range
// the measure must stay inside (the Stream DaQ "assess" clause), and an
// optional alert rate limit. Measures cover both the engine's exact
// aggregates (sum / max / min / spread — whichever the engine's
// aggregate path maintains) and the approximate sketch measures of src/sketch (distinct /
// heavy_hitters / quantile). CompileMonitor turns a definition into the
// QuerySpec registered with the live QueryRegistry; after that the DSL is
// out of the loop — evaluation runs the compiled plan, never this text.
#ifndef STARDUST_DSL_MONITOR_H_
#define STARDUST_DSL_MONITOR_H_

#include <cstdint>
#include <string>

#include "dsl/text.h"
#include "query/query_spec.h"
#include "transform/aggregate.h"

namespace stardust::dsl {

/// One parsed `monitors:` entry. Sketch knobs keep SketchConfig's
/// defaults and only apply to the matching measure.
struct MonitorDef {
  std::string name;
  /// "sum" | "max" | "min" | "spread" | "distinct" | "heavy_hitters" |
  /// "quantile".
  std::string measure;
  std::size_t window = 0;
  AssessRange assess;
  /// Alert rate limit (QuerySpec::WithAlertRate); 0 = unlimited.
  double alert_rate = 0.0;
  std::uint64_t alert_burst = 0;
  // Sketch measure knobs (sketch/measure.h SketchConfig).
  std::size_t buckets = 4;
  std::size_t precision = 12;  // HLL registers = 2^precision
  double epsilon = 0.01;       // CountMin over-count bound
  std::size_t depth = 4;
  double phi = 0.05;           // heavy-hitter frequency threshold
  std::size_t candidates = 32;
  double q = 0.5;              // quantile rank

  bool operator==(const MonitorDef&) const = default;
};

/// True when `measure` names an approximate sketch measure (as opposed
/// to an exact aggregate).
bool IsSketchMeasure(const std::string& measure);

/// Parses an assessment range:
///   "[lo, hi]"  "(lo, hi)"  "[lo, hi)"  "(lo, hi]"   (lo/hi: number,
///   -inf, inf)  — or a one-sided comparator:  ">x"  ">=x"  "<x"  "<=x".
Result<AssessRange> ParseAssessRange(const std::string& text);

/// Interval form that ParseAssessRange round-trips exactly.
std::string FormatAssessRange(const AssessRange& range);

/// Emits the monitor as a DSL list item (round-trips through
/// ParseTextDocument + MonitorFromNode).
std::string FormatMonitor(const MonitorDef& def);

/// Compiles one `monitors:` map node. Unknown keys, missing required
/// keys, and malformed values fail closed with a "<source>:line:col:"
/// diagnostic.
Result<MonitorDef> MonitorFromNode(const TextNode& node,
                                   const std::string& source);

/// Lowers a definition into the QuerySpec to register. `engine_kind` is
/// the aggregate the engine's aggregate path maintains: an exact measure
/// naming any other aggregate is a compile error (the engine computes
/// one exact aggregate per deployment; sketch measures are independent
/// of it).
Result<QuerySpec> CompileMonitor(const MonitorDef& def,
                                 AggregateKind engine_kind);

// Scalar helpers shared with the scenario compiler: positioned
// diagnostics on any malformed value.
Result<double> ScalarDouble(const TextNode& node, const std::string& source);
Result<std::size_t> ScalarSize(const TextNode& node,
                               const std::string& source);
Result<std::string> ScalarString(const TextNode& node,
                                 const std::string& source);

}  // namespace stardust::dsl

#endif  // STARDUST_DSL_MONITOR_H_
