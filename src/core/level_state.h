// Per-stream, per-level feature boxes ("threaded MBRs").
//
// At every resolution level the features of one stream are grouped, c at a
// time and in arrival order, into MBRs. The MBRs of a stream are threaded
// together (here: a deque) "to provide sequential access to the summary
// information about the stream ... resulting in a constant retrieval time
// of the MBRs" (Section 4). Retrieval by feature end-time is O(1) index
// arithmetic because feature times are evenly spaced by the update period.
#ifndef STARDUST_CORE_LEVEL_STATE_H_
#define STARDUST_CORE_LEVEL_STATE_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "common/serialize.h"
#include "common/status.h"
#include "geom/mbr.h"

namespace stardust {

/// One MBR of up to c consecutive features at a level of one stream.
struct FeatureBox {
  /// Bounding box of the features currently in the box.
  Mbr extent;
  /// Feature end-time of the first feature in the box.
  std::uint64_t first_time = 0;
  /// Number of features in the box (== capacity once sealed).
  std::uint32_t count = 0;
  /// Sequence number of this box within its (stream, level) thread,
  /// counting from the beginning of the stream. Used to build RecordIds.
  std::uint64_t seq = 0;
  /// A box seals when it reaches capacity; sealed boxes are what the level
  /// index stores.
  bool sealed = false;
};

/// The thread of feature boxes of one stream at one level.
class LevelThread {
 public:
  /// `dims`: feature dimensionality; `capacity`: box capacity c;
  /// `stride`: update period T (spacing of feature end-times).
  LevelThread(std::size_t dims, std::size_t capacity, std::size_t stride);

  /// Appends the feature extent for feature end-time `t`. Times must be
  /// appended in increasing order, spaced exactly by the stride. Returns
  /// the box sealed by this append, or nullptr.
  const FeatureBox* Append(std::uint64_t t, const Mbr& feature);

  /// Append for the level-major batched path (StreamSummarizer's flat
  /// run): the feature extent arrives as raw lo/hi spans of dims() values
  /// and the box extent immediately after the append — the "as-of"
  /// snapshot run composition needs — is copied into snap_lo/snap_hi
  /// (also dims() values each). State transitions and every min/max are
  /// bit-identical to Append(t, Mbr(lo, hi)).
  const FeatureBox* AppendSpans(std::uint64_t t, const double* lo,
                                const double* hi, double* snap_lo,
                                double* snap_hi) {
    if (!has_first_) {
      has_first_ = true;
      anchor_time_ = t;
    } else {
      SD_DCHECK(t == last_time() + stride_);
    }
    if (boxes_.empty() || boxes_.back().sealed) {
      FeatureBox box;
      box.extent = TakeRecycledExtent();
      box.first_time = t;
      box.seq = next_seq_++;
      boxes_.push_back(std::move(box));
    }
    FeatureBox& box = boxes_.back();
    box.extent.ExpandSpans(lo, hi);
    ++box.count;
    const Point& blo = box.extent.lo();
    const Point& bhi = box.extent.hi();
    for (std::size_t d = 0; d < dims_; ++d) {
      snap_lo[d] = blo[d];
      snap_hi[d] = bhi[d];
    }
    if (box.count == capacity_) {
      box.sealed = true;
      return &box;
    }
    return nullptr;
  }

  /// The box covering feature end-time `t` (sealed or still filling), or
  /// nullptr if `t` is misaligned, expired, or not yet produced.
  const FeatureBox* Find(std::uint64_t t) const;

  /// End-time of the very first feature of the thread. Requires at least
  /// one feature to have been appended (used by the flat run path's box
  /// cursor, which only runs on levels that already fired).
  std::uint64_t anchor_time() const {
    SD_DCHECK(has_first_);
    return anchor_time_;
  }

  /// Box with the given sequence number, or nullptr if expired / unknown.
  const FeatureBox* FindBySeq(std::uint64_t seq) const;

  /// Removes boxes whose last feature time is < `min_time`; calls
  /// `on_remove` for each removed *sealed* box so the owner can delete it
  /// from the level index. The currently filling box is never removed.
  void ExpireBefore(std::uint64_t min_time,
                    const std::function<void(const FeatureBox&)>& on_remove);

  /// Hot-path form of ExpireBefore for the batched maintenance loop: the
  /// callback is a template parameter, so no std::function is constructed
  /// per call. Semantics are identical to ExpireBefore.
  template <typename Fn>
  void ExpireBeforeFast(std::uint64_t min_time, Fn&& on_remove) {
    while (!boxes_.empty()) {
      FeatureBox& front = boxes_.front();
      if (!front.sealed) break;  // never drop the box still filling
      const std::uint64_t last_feature_time =
          front.first_time +
          static_cast<std::uint64_t>(front.count - 1) * stride_;
      if (last_feature_time >= min_time) break;
      on_remove(front);
      RecycleExtent(&front.extent);
      boxes_.pop_front();
    }
  }

  /// The still-filling box (not yet in any level index), or nullptr when
  /// the most recent box is sealed. Range queries must consult it in
  /// addition to the index to see the freshest features.
  const FeatureBox* filling_box() const {
    if (boxes_.empty() || boxes_.back().sealed) return nullptr;
    return &boxes_.back();
  }

  /// Number of boxes currently retained (sealed + filling).
  std::size_t box_count() const { return boxes_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t stride() const { return stride_; }
  bool empty() const { return boxes_.empty(); }

  /// Feature end-time of the most recently appended feature. Requires
  /// !empty().
  std::uint64_t last_time() const;

  /// Invokes `fn` on every retained box, oldest first.
  void ForEachBox(const std::function<void(const FeatureBox&)>& fn) const;

  /// Stream-slice support (engine/feature_pipeline.cc): serializes the
  /// thread state.
  void SaveTo(Writer* writer) const;
  /// Restores a serialized thread. Validates structural invariants
  /// (ordered times/seqs, box counts within capacity, only the last box
  /// unsealed); the thread's dims/capacity/stride must match the saved
  /// ones.
  Status RestoreFrom(Reader* reader);

 private:
  /// Expired boxes donate their extent storage to a small free list so
  /// steady-state appends never allocate: boxes expire at the same rate
  /// new ones open, so the list holds at most a couple of entries. Runtime
  /// only — never serialized, empty after RestoreFrom.
  Mbr TakeRecycledExtent() {
    if (extent_pool_.empty()) return Mbr(dims_);
    Mbr extent = std::move(extent_pool_.back());
    extent_pool_.pop_back();
    extent.ResetEmpty(dims_);
    return extent;
  }
  void RecycleExtent(Mbr* extent) {
    // Unbounded on purpose: the pool never exceeds the boxes churned by
    // one batched run at this level (at most run length / capacity + 1),
    // itself bounded by the retention the deque already pays for.
    extent_pool_.push_back(std::move(*extent));
  }

  std::size_t dims_;
  std::size_t capacity_;
  std::size_t stride_;
  std::deque<FeatureBox> boxes_;
  std::vector<Mbr> extent_pool_;
  bool has_first_ = false;
  /// End-time of the very first feature at this level (alignment anchor).
  std::uint64_t anchor_time_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace stardust

#endif  // STARDUST_CORE_LEVEL_STATE_H_
