// FeaturePipeline: the compute-once maintenance stage of a shard.
//
// One pipeline per shard owns every piece of per-stream state the engine
// maintains — each stream's raw tail (the last `history` values and the
// append count), the online unit-sphere DWT core (pattern queries), the
// batch z-normalized DWT core (correlation features), the per-stream
// sliding trackers backing the plan's aggregate window set, the windowed
// sketch measures, and the columnar FeatureStore caching z-normalized
// correlation features. The shard worker feeds each applied tuple exactly
// once (Append) and closes the batch exactly once (FinishBatch); every
// query stage then reads the shared state instead of re-deriving it,
// which is the unified-framework claim of the paper made concrete (docs/
// FEATURES.md). One stream's share of all of it serializes as its slice
// (SaveStreamTo), the only encoding of per-stream state: migrations,
// checkpoints and the DebugStreamState oracle all carry it.
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

#include "common/check.h"
#include "common/ring_buffer.h"
#include "common/status.h"
#include "core/feature_store.h"
#include "core/stardust.h"
#include "query/eval_plan.h"
#include "sketch/measure.h"
#include "transform/sliding_tracker.h"

namespace stardust {

class FleetAggregateMonitor;

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
    /// Values appended to the live sketch measures; the estimates this
    /// pipeline took (SketchEstimate) and the bucket merges they cost;
    /// and the sketch bytes SaveStreamTo wrote into stream slices.
    std::uint64_t sketch_appends = 0;
    std::uint64_t sketch_merges = 0;
    std::uint64_t sketch_estimates = 0;
    std::uint64_t sketch_serialized_bytes = 0;
  };

  /// `aggregate` is the engine's aggregate-path configuration: its
  /// aggregate kind drives the sliding trackers and its `history` is the
  /// capacity of every stream's raw tail. Either core may be null (query
  /// kind disabled). Non-null cores must have exactly `num_streams`
  /// streams registered. A core built with index_features has every
  /// level index switched off here: standing pattern queries walk the
  /// box threads (PatternQueryEngine::QueryCompiledIncremental) and
  /// never read an index, so none is maintained per tuple or rebuilt
  /// after an install.
  FeaturePipeline(const StardustConfig& aggregate,
                  std::unique_ptr<Stardust> pattern_core,
                  std::unique_ptr<Stardust> corr_core,
                  std::size_t num_streams,
                  std::size_t store_capacity = kDefaultStoreCapacity);
  /// Forwarding constructor for perfbench/layers.cc only: a default
  /// (SUM, history 1024) aggregate configuration. Removed by the ROADMAP
  /// item "Benchmark follow-up".
  FeaturePipeline(std::unique_ptr<Stardust> pattern_core,
                  std::unique_ptr<Stardust> corr_core,
                  std::size_t num_streams)
      : FeaturePipeline(StardustConfig{}, std::move(pattern_core),
                        std::move(corr_core), num_streams) {}

  std::size_t num_streams() const { return num_streams_; }
  const StardustConfig& aggregate_config() const { return aggregate_; }
  const Stardust* pattern_core() const { return pattern_core_.get(); }
  const Stardust* corr_core() const { return corr_core_.get(); }
  const FeatureStore& store() const { return store_; }

  /// Values ever appended to `stream` (alert end times, the rebalancer's
  /// load signal, the per-stream metrics counts).
  std::uint64_t AppendCount(StreamId stream) const {
    SD_DCHECK(stream < num_streams_);
    return tails_[stream].size();
  }

  /// Reconfigures the pipeline for a newly adopted plan: rebuilds the
  /// per-stream trackers when the aggregate window set changed (backfilled
  /// from each stream's raw tail, so a query registered mid-stream is
  /// ready as soon as its window fits in the retained tail), and points
  /// the store's level set at the plan's correlation groups.
  void AdoptPlan(const EvalPlan& plan);
  /// Forwarding overload for perfbench/layers.cc only; ignores `fleet`.
  /// Removed by the ROADMAP item "Benchmark follow-up".
  void AdoptPlan(const EvalPlan& plan, const FleetAggregateMonitor& /*fleet*/) {
    AdoptPlan(plan);
  }

  /// Feeds one applied tuple through every maintained structure. An
  /// out-of-range stream ("unknown stream") or a non-finite value
  /// ("stream values must be finite") is rejected before any structure
  /// is touched.
  Status Append(StreamId stream, double value);

  /// Feeds a run of consecutive applied tuples of one stream. Equivalent
  /// to n Append calls bit-for-bit (tracker window-major span push, core
  /// batched runs; runs of at most Stardust::ScalarRunCutoff() values
  /// take the per-value path); the shard's columnar maintenance path. A
  /// run holding a non-finite value is rejected whole, before any
  /// structure is touched (the shard splits runs around such values).
  Status AppendRun(StreamId stream, const double* values, std::size_t n);

  /// Closes one applied batch: caches the new aligned correlation
  /// features of the touched streams (deduplicated shard-local ids) so
  /// correlator rounds are store hits.
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

  /// Appends one fresh stream slot (raw tail, cores, store row, tracker,
  /// sketch slots) and returns its local index.
  StreamId GrowStream();
  /// Resets one stream's state to empty — the tombstone half of a
  /// migration. The slot stays valid for later reuse via
  /// RestoreStreamFrom.
  Status ResetStream(StreamId stream);
  /// Serializes one stream's slice of every maintained structure: raw
  /// tail, summarizers, tracker, sketch measures, and store rows. The
  /// slice is the one encoding of a stream's state: migrations move it,
  /// checkpoints persist it (engine/checkpoint.h), and
  /// IngestEngine::DebugStreamState compares it.
  Status SaveStreamTo(StreamId stream, Writer* writer) const;
  /// Installs a SaveStreamTo slice into `stream`'s slot. The raw tail is
  /// installed first and must have been taken under this pipeline's
  /// `history`. The tracker is restored bit-exactly when the serialized
  /// window set matches this pipeline's plan, otherwise rebuilt from that
  /// tail; sketch measures are claimed by config; store rows for levels
  /// this shard does not monitor, or of another store capacity, are
  /// dropped (recomputed on miss). A slice carrying a core this pipeline
  /// does not run is rejected; one without a core this pipeline runs
  /// leaves that core's stream empty (it warms up). Every count is
  /// bounded by the bytes left, so a hostile slice is rejected before it
  /// allocates.
  Status RestoreStreamFrom(StreamId stream, Reader* reader);

 private:
  /// Feeds one value, already checked, through every structure.
  Status AppendValue(StreamId stream, double value);
  /// Caches any new aligned feature times of `stream` at store level
  /// `spec` (newest kDefaultStoreCapacity at most).
  void CacheStreamFeatures(const FeatureStore::LevelSpec& spec,
                           StreamId stream);

  /// Builds one tracker over the plan's window set and backfills it from
  /// the stream's raw tail (AdoptPlan and migration installs).
  std::unique_ptr<SlidingAggregateTracker> BackfillTracker(StreamId stream);

  std::size_t num_streams_;
  const StardustConfig aggregate_;
  /// Per stream: the last `aggregate_.history` values and, as its size,
  /// the append count.
  std::vector<RingBuffer<double>> tails_;
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
  /// plan's slot — sketch state cannot be rebuilt from raw history.
  /// Installed slices claim their measures by config the same way.
  std::vector<SketchConfig> sketch_configs_;
  std::vector<std::vector<std::unique_ptr<SketchMeasure>>> sketch_slots_;
  /// Evaluation counters (counters()). They live here, not in the
  /// measures, so no slice carries them.
  mutable std::uint64_t sketch_estimates_ = 0;
  mutable std::uint64_t sketch_merges_ = 0;
  /// Sketch bytes SaveStreamTo wrote into stream slices (counters()).
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
