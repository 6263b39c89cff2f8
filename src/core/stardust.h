// Stardust: the paper's unified stream-monitoring framework.
//
// A Stardust instance maintains, for M streams, multi-resolution feature
// summaries (StreamSummarizer per stream) and one R*-tree per resolution
// level combining the sealed boxes of all streams (Section 4). On top of
// this state sit the three query classes of Section 5:
//   - aggregate monitoring  (Algorithm 2; also core/aggregate_monitor.h),
//   - pattern monitoring    (Algorithms 3 and 4; core/pattern_query.h),
//   - correlation monitoring (Section 5.3; core/correlation_monitor.h).
#ifndef STARDUST_CORE_STARDUST_H_
#define STARDUST_CORE_STARDUST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "core/summarizer.h"
#include "rtree/rtree.h"

namespace stardust {

/// Packs (stream, box sequence number) into an R*-tree RecordId.
inline RecordId MakeRecordId(StreamId stream, std::uint64_t seq) {
  SD_DCHECK(seq < (std::uint64_t{1} << 32));
  return (static_cast<std::uint64_t>(stream) << 32) | seq;
}
inline StreamId RecordStream(RecordId id) {
  return static_cast<StreamId>(id >> 32);
}
inline std::uint64_t RecordSeq(RecordId id) {
  return id & 0xffffffffULL;
}

/// The framework facade.
class Stardust {
 public:
  /// Validates `config` and builds an instance with no streams yet.
  static Result<std::unique_ptr<Stardust>> Create(
      const StardustConfig& config);

  /// Registers a new stream and returns its id (dense, starting at 0).
  StreamId AddStream();

  /// Replaces one stream's summarizer with a fresh (empty) one — the
  /// tombstone half of a live stream migration. Any indexed levels are
  /// rebuilt so the departed stream's sealed boxes drop out of the
  /// R*-trees.
  Status ResetStream(StreamId stream);

  std::size_t num_streams() const { return streams_.size(); }
  const StardustConfig& config() const { return config_; }
  const StreamSummarizer& summarizer(StreamId stream) const {
    return *streams_[stream];
  }
  /// Level index (only maintained when config.index_features is set and
  /// the level is enabled — see SetIndexedLevels).
  const RTree& index(std::size_t level) const { return *indexes_[level]; }

  /// Restricts index maintenance to the levels marked true in `mask`
  /// (size num_levels; requires config.index_features). Levels turning
  /// off are emptied; levels turning on are rebuilt from the streams'
  /// live sealed boxes, so the index is immediately queryable. Callers
  /// that know which levels their queries probe (the engine's compiled
  /// plans probe only each pattern query's first-piece level) use this
  /// to stop paying per-tuple maintenance for levels nothing reads.
  Status SetIndexedLevels(const std::vector<bool>& mask);
  /// Whether `level`'s index is currently maintained.
  bool level_indexed(std::size_t level) const {
    return config_.index_features && indexed_levels_[level];
  }

  /// Feeds one value of one stream, maintaining threads and level indexes.
  Status Append(StreamId stream, double value);

  /// Runs at or below this length take the scalar Append path inside
  /// AppendRun: the staged-run machinery has a fixed per-run setup cost
  /// (BeginRun/EndRun, per-level state loads) that only amortizes across
  /// several values, and bench_feature showed length-1 runs paying ~1.7x
  /// the scalar cost through it. Shared by every AppendRun entry point
  /// (Stardust, AggregateMonitor, Shard) so dispatch stays consistent:
  /// the decision is made once per run at the outermost layer and the
  /// inner checks agree with it by construction. The crossover was
  /// measured once against bench_feature's run-length sweep.
  static constexpr std::size_t ScalarRunCutoff() { return 2; }

  /// Batched append — the engine's columnar maintenance path. Produces
  /// summary state bit-identical to n Append calls (see
  /// StreamSummarizer::AppendRun); level indexes receive the same inserts
  /// and deletes (deletes grouped by level at the end of the run). A run
  /// containing a non-finite value falls back to the per-value path, which
  /// stops at the offending value with Append's error.
  Status AppendRun(StreamId stream, const double* values, std::size_t n);

  /// AggregateInterval with an explicit window end time and reusable
  /// extent scratch. The batched monitor path composes intervals for
  /// arrivals in the middle of an open summarizer run, where now() already
  /// reflects the whole run; results are bit-identical to
  /// AggregateInterval evaluated when `end_time` was the latest value.
  Result<ScalarInterval> AggregateIntervalAt(StreamId stream,
                                             std::size_t window,
                                             std::uint64_t end_time,
                                             Mbr* extent_scratch) const;

  /// Run-append support for owners that drive a summarizer's three-phase
  /// run directly (core/aggregate_monitor): applies a run's sealed and
  /// expired boxes to the level indexes. No-op unless
  /// config().index_features.
  Status ApplyRunIndexDeltas(StreamId stream,
                             const std::vector<BoxRef>& sealed,
                             const std::vector<BoxRef>& expired);

  /// Approximate aggregate over the window of size `window` ending at the
  /// stream's latest value — the composition step of Algorithm 2. `window`
  /// must be a positive multiple of W with w/W < 2^num_levels.
  Result<ScalarInterval> AggregateInterval(StreamId stream,
                                           std::size_t window) const;

  /// Outcome of one aggregate monitoring check.
  struct AggregateAnswer {
    ScalarInterval approx;
    /// True iff the upper bound reached the threshold (filter fired).
    bool candidate = false;
    /// True iff the verified exact aggregate reached the threshold.
    bool alarm = false;
    /// The exact aggregate (only computed when `candidate`).
    double exact = 0.0;
  };

  /// Full Algorithm 2: compose the approximate interval, and on a
  /// candidate retrieve the raw subsequence and verify exactly.
  Result<AggregateAnswer> AggregateQuery(StreamId stream, std::size_t window,
                                         double threshold) const;

  /// Mutable summarizer access for owners that install or drive one
  /// stream's summarizer directly: stream-slice installs
  /// (engine/feature_pipeline.cc) and the aggregate monitor's runs.
  StreamSummarizer* mutable_summarizer(StreamId stream) {
    return streams_[stream].get();
  }

 private:
  explicit Stardust(const StardustConfig& config);

  /// Rebuilds every maintained level index from the streams' live sealed
  /// boxes (ResetStream).
  Status RebuildIndexes();

  /// Rebuilds one level's index from the streams' live sealed boxes.
  Status RebuildLevelIndex(std::size_t level);

  StardustConfig config_;
  /// Run scratch every stream's summarizer shares: a core applies one run
  /// at a time.
  std::unique_ptr<RunScratch> run_scratch_;
  std::vector<std::unique_ptr<StreamSummarizer>> streams_;
  std::vector<std::unique_ptr<RTree>> indexes_;
  /// Per-level maintenance switch; all-true until SetIndexedLevels.
  std::vector<bool> indexed_levels_;
  /// True when any level index is maintained; lets the append paths skip
  /// sealed/expired delta collection entirely when nothing consumes it.
  bool any_indexed_ = false;
  std::vector<BoxRef> sealed_scratch_;
  std::vector<BoxRef> expired_scratch_;
};

}  // namespace stardust

#endif  // STARDUST_CORE_STARDUST_H_
