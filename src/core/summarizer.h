// Per-stream multi-resolution feature computation — Algorithm 1 of the
// paper (Compute_Coefficients).
//
// On each arrival (or every T arrivals in batch mode) a feature is
// produced at every live level j:
//   - level 0 computes F(y) directly on the raw window y of size W;
//   - level j > 0 merges the level-(j-1) boxes containing the features of
//     the two halves of its window (Lemmas 4.1/4.2 and A.1/A.2), in Θ(f)
//     time — or computes exactly from raw when `exact_levels` is set
//     (the MR-Index baseline configuration).
// Features land in per-level LevelThreads; the summarizer reports newly
// sealed and newly expired boxes so the owner can maintain level indexes.
#ifndef STARDUST_CORE_SUMMARIZER_H_
#define STARDUST_CORE_SUMMARIZER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned.h"
#include "common/ring_buffer.h"
#include "common/status.h"
#include "core/config.h"
#include "core/level_state.h"

namespace stardust {

/// A sealed or expired box surfaced to the index owner.
struct BoxRef {
  std::size_t level = 0;
  Mbr extent;
  std::uint64_t seq = 0;
};

/// Scratch of the batched run path, shared by the summarizers of one core
/// (Stardust owns one, and so does a stand-alone summarizer). A core
/// applies one run at a time, so one staging buffer and one set of as-of
/// rings serve all of its streams; only the run's position (base time,
/// first time, length) is per stream.
struct RunScratch {
  /// Run staging (BeginRun .. EndRun): the raw tail the largest window
  /// needs followed by the run itself, so every exact window of every
  /// arrival in the run is one contiguous span. 64-byte aligned so
  /// reduction kernels can use full-width vector loads.
  AlignedVector<double> linear;
  /// As-of rings of the flat level pass, one per level: FeatureDims()
  /// doubles per run position (see RunRingLo/RunRingHi). The pass writes
  /// a level's features here and the append turns them into as-of
  /// extents in place.
  std::vector<AlignedVector<double>> ring_lo;
  std::vector<AlignedVector<double>> ring_hi;
  /// One feature's box (per-arrival path).
  Mbr feature;
  /// Exact-feature window, normalized and transformed in place, and the
  /// z-normalized DWT's buffers.
  std::vector<double> window;
  std::vector<double> dwt_out;
  std::vector<double> dwt_scratch;
};

/// Summary state of a single stream: raw tail + one LevelThread per level.
class StreamSummarizer {
 public:
  /// `config` must have been validated by the caller. `scratch` is the
  /// owning core's run scratch and must outlive the summarizer; with none
  /// the summarizer owns its own.
  explicit StreamSummarizer(const StardustConfig& config,
                            RunScratch* scratch = nullptr);

  /// Feeds one value. Newly sealed boxes are appended to `sealed` and
  /// expired sealed boxes to `expired` (either may be nullptr).
  void Append(double value, std::vector<BoxRef>* sealed,
              std::vector<BoxRef>* expired);

  /// Batched append — the engine's columnar maintenance path. Equivalent
  /// to n Append calls: the resulting summary state (raw tail, level
  /// threads, serialized bytes) is bit-identical, and `sealed` receives
  /// the same boxes with the same extents and sequence numbers. Within a
  /// level, sealed boxes arrive in seal order; across levels the order may
  /// differ from Append's arrival interleaving (the flat level-major path
  /// below groups them by level, which Stardust::ApplyRunIndexDeltas —
  /// a per-level pairing scan — is insensitive to). Expiration is
  /// deferred to the end of the run (the retained set only depends on the
  /// final time, so the final state and the union of expired boxes are
  /// unchanged; `expired` is grouped by level instead of interleaved by
  /// arrival).
  ///
  /// The speedup comes from staging the run in one contiguous buffer
  /// (every exact-feature window is a plain span — no per-element ring
  /// modulo), from allocation-free feature kernels (transform/aggregate,
  /// dwt/mbr_transform) writing into reused scratch, and — for uniform
  /// T == 1 incremental configurations of either transform — from the
  /// flat level-major pass (RunLevelPass), which walks the run one level
  /// at a time on raw double spans instead of re-dispatching the level
  /// loop per arrival.
  void AppendRun(const double* values, std::size_t n,
                 std::vector<BoxRef>* sealed, std::vector<BoxRef>* expired);

  /// Three-phase form of AppendRun for owners that interleave per-arrival
  /// work with maintenance (core/aggregate_monitor checks thresholds after
  /// every value): BeginRun stages the run and bulk-pushes the raw values,
  /// AppendRunStep(i) applies arrival i (must be called for i = 0..n-1 in
  /// order), EndRun applies the deferred expiration and ends the run.
  /// While a run is open, now() already reflects the whole run; per-level
  /// Find/extent state advances arrival by arrival exactly as under
  /// Append. AppendRunStep is also AppendRun's loop for configurations the
  /// level passes below do not cover (box capacity above the base window,
  /// mixed exact and incremental levels). One run per core is open at a
  /// time: the staging buffer is the core's scratch.
  void BeginRun(const double* values, std::size_t n);
  void AppendRunStep(std::size_t i, std::vector<BoxRef>* sealed);
  void EndRun(std::vector<BoxRef>* expired);

  /// Time of arrival i of the open run (BeginRun .. EndRun).
  std::uint64_t RunTime(std::size_t i) const { return run_first_t_ + i; }

  /// True when this configuration takes the flat level-major run path:
  /// either transform (aggregate, or DWT under any normalization),
  /// incremental levels, uniform period-1 schedule, and box capacity at
  /// most the base window. The capacity bound makes every level-(j-1) box
  /// feeding the left half of a level-j merge fully populated by that
  /// merge's arrival time (its last feature time is at most
  /// t - w/2 + c - 1 <= t), so the left input can be read from the
  /// post-pass level thread while the right input comes from the
  /// per-arrival as-of ring — bit-identical to the arrival-major merge
  /// order.
  bool FlatRunEligible() const { return flat_eligible_; }

  /// Level-major maintenance of the whole open run (BeginRun .. EndRun;
  /// requires FlatRunEligible()): processes all arrivals of level 0, then
  /// level 1, ... Level 0 computes exact features from the staged spans;
  /// level j > 0 merges the post-pass level-(j-1) box under a cursor with
  /// the as-of extent of level j - 1 (the aggregate merge, or the Haar
  /// half-merge with the unit-sphere rescale). Appends exactly the
  /// features AppendRunStep(0..n-1) would, producing bit-identical thread
  /// state; `sealed` is grouped by level (see AppendRun). Also records,
  /// per level and run position, the extent of the box covering that
  /// arrival immediately after its append — the snapshot RunRingLo/
  /// RunRingHi expose for interval composition at mid-run times
  /// (core/aggregate_monitor).
  void RunLevelPass(std::vector<BoxRef>* sealed);

  /// Level-major maintenance for configurations where every level computes
  /// its feature exactly from the raw window (exact_levels, or a strided
  /// schedule where every level's period exceeds 1). Each level visits
  /// only its firing positions (stride = LevelPeriod), skipping the
  /// per-arrival no-op dispatch the arrival-major loop pays; features and
  /// thread state are bit-identical to AppendRunStep(0..n-1), with
  /// `sealed` grouped by level (see AppendRun).
  void RunExactLevelPass(std::vector<BoxRef>* sealed);

  /// As-of extent snapshots recorded by RunLevelPass: entry i (of the
  /// config's FeatureDims() doubles) is the extent of the level-`level`
  /// box covering RunTime(i), as of that arrival. Valid for positions
  /// where the level had fired (RunTime(i) + 1 >= LevelWindow(level))
  /// until the core's next BeginRun.
  const double* RunRingLo(std::size_t level) const {
    return run_->ring_lo[level].data();
  }
  const double* RunRingHi(std::size_t level) const {
    return run_->ring_hi[level].data();
  }

  /// Number of values consumed so far; the latest value has time now()-1.
  std::uint64_t now() const { return raw_.size(); }

  const RingBuffer<double>& raw() const { return raw_; }
  const LevelThread& thread(std::size_t level) const {
    return threads_[level];
  }
  const StardustConfig& config() const { return config_; }

  /// Copies the raw window of `length` values ending at time `end_time`
  /// into `out` (two contiguous segments of the ring). Fails if any part
  /// of the window has left the buffer.
  Status GetWindow(std::uint64_t end_time, std::size_t length,
                   std::vector<double>* out) const;

  /// The exact feature of the raw window of `length` ending at `end_time`
  /// under this summarizer's transform (used for verification and tests).
  Result<Point> ExactFeature(std::uint64_t end_time,
                             std::size_t length) const;

  /// Number of feature boxes currently retained across all levels — the
  /// summary's space (Theorem 4.3: Θ(Σ_j 2^j W / (c·T_j)) boxes).
  std::size_t TotalBoxCount() const;

  /// Stream-slice support (engine/feature_pipeline.cc): serializes the
  /// raw tail and every level thread. The configuration is serialized by
  /// the owner.
  void SaveTo(Writer* writer) const;
  /// Restores a serialized summarizer; the instance must have been
  /// constructed with the same configuration the slice was taken with.
  /// Besides each thread's own checks, every level's anchor, box count
  /// and last feature time must be the ones the raw tail's count implies.
  Status RestoreFrom(Reader* reader);

 private:
  /// Feature extent for level `level` ending at time t (Algorithm 1 body).
  Mbr ComputeFeature(std::size_t level, std::uint64_t t);
  /// Point feature computed exactly from the raw window; consumes the
  /// buffer (in-place normalization and transform — the hot path).
  Point ExactFeatureFromRaw(std::vector<double>* window) const;

  /// Allocation-free ComputeFeature for the batched path: exact windows
  /// are read from the staged run, results land in `out` (reused
  /// storage). Bit-identical to ComputeFeature.
  void ComputeFeatureInto(std::size_t level, std::uint64_t t, Mbr* out);
  /// Exact features of the `count` windows of length w starting at
  /// window, window + 1, ... into lo/hi (FeatureDims() values each, one
  /// feature after another; an exact feature is a point, so lo == hi),
  /// with ExactFeatureFromRaw's kernels and bits.
  void ExactFeatures(const double* window, std::size_t w, std::size_t count,
                     double* lo, double* hi);
  /// Level-j incremental merge of the level-(j-1) halves given as lo/hi
  /// spans (Algorithm 1, else-branch): the aggregate merge, or the Haar
  /// half-merge with the normalization's rescale. out_* must not alias
  /// the inputs.
  void MergeHalvesSpans(const double* left_lo, const double* left_hi,
                        const double* right_lo, const double* right_hi,
                        double* out_lo, double* out_hi) const;
  /// The incremental feature of level `level` at time t into `out`, from
  /// the level-(j-1) boxes covering t - w/2 and t.
  void MergeHalvesInto(std::size_t level, std::uint64_t t, Mbr* out) const;

  StardustConfig config_;
  RingBuffer<double> raw_;
  std::vector<LevelThread> threads_;
  std::unique_ptr<RunScratch> own_run_;  // set when no core scratch given
  RunScratch* run_;
  bool flat_eligible_ = false;
  bool exact_levels_only_ = false;  // every level exact: RunExactLevelPass
  // Position of the open run in the core's staging buffer.
  std::uint64_t linear_base_ = 0;  // time of run_->linear[0]
  std::uint64_t run_first_t_ = 0;  // time of the run's first value
  std::size_t run_n_ = 0;
};

}  // namespace stardust

#endif  // STARDUST_CORE_SUMMARIZER_H_
