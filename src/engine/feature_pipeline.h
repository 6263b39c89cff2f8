// FeaturePipeline: the compute-once feature maintenance stage of a shard.
//
// One pipeline per shard owns every piece of derived per-stream state the
// query classes consume — the online unit-sphere DWT core (pattern
// queries), the batch z-normalized DWT core (correlation features), the
// per-stream sliding trackers backing the plan's aggregate window set,
// and the columnar FeatureStore caching z-normalized correlation
// features. The shard worker feeds each applied tuple exactly once
// (Append) and closes the batch exactly once (FinishBatch); every query
// stage then reads the shared state instead of re-deriving it, which is
// the unified-framework claim of the paper made concrete (docs/
// FEATURES.md).
//
// Threading: all methods are called by the owning shard's worker under
// the shard state mutex (or before the shard starts). The pipeline has no
// internal synchronization.
#ifndef STARDUST_ENGINE_FEATURE_PIPELINE_H_
#define STARDUST_ENGINE_FEATURE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/feature_store.h"
#include "sketch/measure.h"
#include "core/fleet_monitor.h"
#include "core/stardust.h"
#include "query/eval_plan.h"
#include "transform/sliding_tracker.h"

namespace stardust {

class FeaturePipeline {
 public:
  /// Aligned feature times cached per (level, stream); bounds how far a
  /// correlator round may lag the freshest feature before falling back to
  /// recomputation.
  static constexpr std::size_t kDefaultStoreCapacity = 8;

  /// Snapshot of the pipeline's exactly-once maintenance counters.
  struct Counters {
    std::uint64_t batches = 0;        // FinishBatch calls (== shard epoch)
    std::uint64_t appends = 0;        // tuples fed through Append
    std::uint64_t znorm_computes = 0; // z-normalizations actually computed
    std::uint64_t tracker_rebuilds = 0;
    std::uint64_t store_puts = 0;
    std::uint64_t store_hits = 0;
    std::uint64_t store_misses = 0;
    std::uint64_t store_epoch = 0;
    /// Summed over the live sketch measures (sketch/measure.h counters),
    /// plus the bytes their snapshots contributed to Serialize calls.
    std::uint64_t sketch_appends = 0;
    std::uint64_t sketch_merges = 0;
    std::uint64_t sketch_estimates = 0;
    std::uint64_t sketch_serialized_bytes = 0;
  };

  /// Either core may be null (query kind disabled). Non-null cores must
  /// have exactly `num_streams` streams registered.
  FeaturePipeline(std::unique_ptr<Stardust> pattern_core,
                  std::unique_ptr<Stardust> corr_core,
                  std::size_t num_streams,
                  std::size_t store_capacity = kDefaultStoreCapacity);

  std::size_t num_streams() const { return num_streams_; }
  const Stardust* pattern_core() const { return pattern_core_.get(); }
  const Stardust* corr_core() const { return corr_core_.get(); }
  const FeatureStore& store() const { return store_; }

  /// Reconfigures the pipeline for a freshly compiled plan: rebuilds the
  /// per-stream trackers when the aggregate window set changed (backfilled
  /// from `fleet`'s raw history so a query registered mid-stream becomes
  /// evaluable exactly when the seed path would have answered it), and
  /// points the store's level set at the plan's correlation groups.
  void AdoptPlan(const EvalPlan& plan, const FleetAggregateMonitor& fleet);

  /// Feeds one applied tuple through every maintained structure. Must
  /// mirror the fleet append stream exactly (same tuples, same order).
  Status Append(StreamId stream, double value);

  /// Feeds a run of consecutive applied tuples of one stream. Equivalent
  /// to n Append calls bit-for-bit (tracker window-major span push, core
  /// batched runs); the shard's columnar maintenance path.
  Status AppendRun(StreamId stream, const double* values, std::size_t n);

  /// Closes one applied batch: bumps the store epoch and caches the new
  /// aligned correlation features of the touched streams (deduplicated
  /// shard-local ids) so correlator rounds are store hits.
  void FinishBatch(const std::vector<StreamId>& touched);

  // --- Sketch stage (plan measure slots) -------------------------------
  std::size_t num_sketch_slots() const { return sketch_configs_.size(); }
  /// True once the measure of (`stream`, plan slot `slot`) exists and has
  /// seen a full window. Sketches cannot backfill from raw history (their
  /// state is the stream itself), so a freshly registered sketch query
  /// warms up for one window before it evaluates.
  bool SketchReady(StreamId stream, std::size_t slot) const;
  /// The windowed estimate of the slot. Requires SketchReady.
  double SketchEstimate(StreamId stream, std::size_t slot) const;

  // --- Aggregate stage (plan tracker slots) ---------------------------
  bool has_trackers() const { return !tracker_windows_.empty(); }
  /// True once the tracker of `tracker_index` (an EvalPlan tracker slot)
  /// has seen a full window of `stream`.
  bool TrackerReady(StreamId stream, std::size_t tracker_index) const;
  /// Exact aggregate of the tracker slot. Requires TrackerReady.
  double TrackerValue(StreamId stream, std::size_t tracker_index) const;

  // --- Correlation stage ----------------------------------------------
  /// The feature view of (`level`, `stream`) at aligned time `t`: a store
  /// hit when the pipeline cached it, otherwise computed from the
  /// correlation core on the spot (and counted as a store miss). Returns
  /// false when the stream has no usable feature at `t` (not yet
  /// produced, or expired) — the same skip conditions as recomputing from
  /// the core directly. The view's pointers are valid until the next
  /// pipeline call.
  bool CorrelationFeature(std::size_t level, StreamId stream,
                          std::uint64_t t, FeatureStore::View* out);

  Counters counters() const;

  // --- Elastic placement support (engine/shard.cc migration) -----------

  /// Appends one fresh stream slot (cores, store row, tracker, sketch
  /// slots) and returns its local index. `fleet` supplies the aggregate
  /// kind for the new tracker.
  StreamId GrowStream(const FleetAggregateMonitor& fleet);
  /// Resets one stream's derived state to empty — the tombstone half of
  /// a migration. The slot stays valid for later reuse via
  /// RestoreStreamFrom.
  Status ResetStream(StreamId stream, const FleetAggregateMonitor& fleet);
  /// Serializes one stream's slice of every maintained structure:
  /// summarizers, tracker, sketch measures, and store rows.
  Status SaveStreamTo(StreamId stream, Writer* writer) const;
  /// Installs a SaveStreamTo slice into `stream`'s slot. The tracker is
  /// restored bit-exactly when the serialized window set matches this
  /// pipeline's plan, otherwise rebuilt from `fleet`'s raw history;
  /// sketch measures are claimed by config; store rows for levels this
  /// shard no longer monitors are dropped (recomputed on miss).
  Status RestoreStreamFrom(StreamId stream, Reader* reader,
                           const FleetAggregateMonitor& fleet);

  /// Serializes the cores, the store, and the live sketch measures under
  /// the "SDFP" v2 envelope (magic + version + FNV-1a checksum), so a
  /// restored engine resumes pattern/correlation/sketch query evaluation
  /// instead of warming from empty. Trackers are not serialized;
  /// AdoptPlan rebuilds them from the restored fleet's raw history.
  std::string Serialize() const;
  /// Restores a pipeline serialized by Serialize. Core presence must be
  /// compatible: bytes carrying a core this pipeline does not have are
  /// rejected; a missing core in the bytes leaves this pipeline's core
  /// empty (it warms up, the pre-refactor behavior).
  Status Restore(const std::string& bytes);

 private:
  Status RestorePayload(const std::string& payload);
  /// Caches any new aligned feature times of `stream` at store level
  /// `spec` (newest kDefaultStoreCapacity at most).
  void CacheStreamFeatures(const FeatureStore::LevelSpec& spec,
                           StreamId stream);

  /// Backfills one tracker from the fleet's retained raw history (the
  /// AdoptPlan seed path, factored out for migration installs).
  std::unique_ptr<SlidingAggregateTracker> BackfillTracker(
      StreamId stream, const FleetAggregateMonitor& fleet);
  /// True when any level of `core` currently maintains an R*-tree.
  static bool AnyLevelIndexed(const Stardust& core);

  std::size_t num_streams_;
  std::unique_ptr<Stardust> pattern_core_;
  std::unique_ptr<Stardust> corr_core_;
  FeatureStore store_;

  /// Plan aggregate window set (EvalPlan::aggregate_windows) and one
  /// tracker per local stream over it; empty when no aggregate queries.
  std::vector<std::size_t> tracker_windows_;
  std::vector<std::unique_ptr<SlidingAggregateTracker>> trackers_;

  /// Plan sketch slot set (EvalPlan::sketch_slots) and, slot-major, one
  /// lazily created measure per local stream that appended since the slot
  /// existed (bounding memory to the streams actually seen). AdoptPlan
  /// claims existing per-stream measures whose config matches the new
  /// plan's slot — sketch state cannot be rebuilt from raw history, and
  /// claim-by-config is also what re-attaches checkpoint-restored
  /// measures to the first compiled plan.
  std::vector<SketchConfig> sketch_configs_;
  std::vector<std::vector<std::unique_ptr<SketchMeasure>>> sketch_slots_;
  /// Sketch snapshot bytes contributed by Serialize calls (counters()).
  mutable std::uint64_t sketch_serialized_bytes_ = 0;

  std::uint64_t batches_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t znorm_computes_ = 0;
  std::uint64_t tracker_rebuilds_ = 0;

  // Scratch buffers (single-threaded; see header comment).
  std::vector<double> window_scratch_;
  std::vector<double> znorm_scratch_;
  std::vector<double> feature_scratch_;
  std::vector<std::uint64_t> times_scratch_;
};

}  // namespace stardust

#endif  // STARDUST_ENGINE_FEATURE_PIPELINE_H_
