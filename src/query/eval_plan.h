// Compiled per-shard evaluation plans.
//
// A QueryRegistry snapshot is a flat list of queries; executing it
// naively re-derives per-query state every batch (pattern piece features,
// aggregate window scans, correlation level resolution). The plan
// compiler turns one snapshot into an immutable EvalPlan: queries grouped
// by class and by the state they share — aggregate queries by window (one
// sliding tracker serves every query on that window), pattern queries
// precompiled once (CompilePatternQuery), correlation queries by resolved
// resolution level (one feature gather serves every query on that level).
// Shard workers and the correlator swap plans atomically when the
// registry version moves; a plan is never mutated after compilation
// except for its per-stage counters.
#ifndef STARDUST_QUERY_EVAL_PLAN_H_
#define STARDUST_QUERY_EVAL_PLAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/pattern_query.h"
#include "query/registry.h"

namespace stardust {

/// What the plan compiler may assume about the engine's cores.
struct PlanContext {
  /// Aggregate-path configuration (the engine's aggregate kind and raw
  /// tail history). Required.
  const StardustConfig* fleet = nullptr;
  /// Online pattern core configuration; null when patterns are disabled.
  const StardustConfig* pattern = nullptr;
  /// Batch correlation core configuration; null when disabled.
  const StardustConfig* correlation = nullptr;
};

/// Immutable compiled form of one registry snapshot.
struct EvalPlan {
  /// Registry version this plan was compiled from.
  std::uint64_t version = 0;

  /// Aggregate queries sharing a window evaluate against one shared
  /// sliding tracker maintained by the feature pipeline.
  struct AggregateGroup {
    std::size_t window = 0;
    /// Index into `aggregate_windows` (== the pipeline tracker slot).
    std::size_t tracker_index = 0;
    /// False when `window` exceeds the raw tail's history: Algorithm 2
    /// could never verify such a window exactly (its post-check needs
    /// the raw subsequence), so the group is skipped rather than alarm
    /// from tracker state no retained data backs.
    bool evaluable = true;
    std::vector<std::shared_ptr<RegisteredQuery>> queries;
  };
  /// Ascending by window.
  std::vector<AggregateGroup> aggregate;
  /// Deduplicated, sorted windows of the evaluable groups — the window
  /// set the pipeline's per-stream trackers are built over.
  std::vector<std::size_t> aggregate_windows;

  struct PatternEntry {
    std::shared_ptr<RegisteredQuery> query;
    CompiledPatternQuery compiled;
    /// False when compilation failed (the shard surfaces this as a
    /// per-batch query error, matching the uncompiled path).
    bool ok = false;
  };
  std::vector<PatternEntry> pattern;

  /// Correlation queries sharing a resolved level share one feature
  /// gather per correlator round.
  struct CorrelationGroup {
    std::size_t level = 0;   // resolved (kTopLevel mapped to the top)
    std::size_t window = 0;  // LevelWindow(level) of the correlation core
    /// Radius extremes over the group's queries: `max_radius` is the one
    /// probe radius serving every query of the round (per-query radii
    /// re-filter the verified pairs) and the grid cell of the level's
    /// CorrelationIndex (1.0 when it is 0).
    double min_radius = 0.0;
    double max_radius = 0.0;
    std::vector<std::shared_ptr<RegisteredQuery>> queries;
  };
  /// Ascending by level.
  std::vector<CorrelationGroup> correlation;

  /// Sketch queries whose configs compare equal share one windowed
  /// measure per stream, maintained by the feature pipeline in the slot
  /// named here.
  struct SketchGroup {
    SketchConfig config;
    /// Index into `sketch_slots` (== the pipeline measure slot).
    std::size_t slot = 0;
    std::vector<std::shared_ptr<RegisteredQuery>> queries;
  };
  /// In first-registration order.
  std::vector<SketchGroup> sketch;
  /// The deduplicated configs the pipeline maintains, indexed by slot.
  std::vector<SketchConfig> sketch_slots;

  /// Per-stage evaluation counters over the plan's lifetime (batches or
  /// rounds that executed the stage), surfaced through shard metrics.
  mutable std::atomic<std::uint64_t> aggregate_evals{0};
  mutable std::atomic<std::uint64_t> pattern_evals{0};
  mutable std::atomic<std::uint64_t> correlation_evals{0};
  mutable std::atomic<std::uint64_t> sketch_evals{0};

  bool empty() const {
    return aggregate.empty() && pattern.empty() && correlation.empty() &&
           sketch.empty();
  }
};

/// Compiles `snapshot` (at registry `version`) into an immutable plan.
/// Never fails: queries that cannot be compiled or evaluated under `ctx`
/// become non-ok pattern entries / non-evaluable aggregate groups, and
/// correlation queries are dropped when no correlation core exists.
std::shared_ptr<const EvalPlan> CompileEvalPlan(
    const QueryRegistry::Snapshot& snapshot, std::uint64_t version,
    const PlanContext& ctx);

}  // namespace stardust

#endif  // STARDUST_QUERY_EVAL_PLAN_H_
