// Per-stream, per-level feature boxes ("threaded MBRs").
//
// At every resolution level the features of one stream are grouped, c at a
// time and in arrival order, into MBRs. The MBRs of a stream are threaded
// together (here: a ring of box slots) "to provide sequential access to the
// summary information about the stream ... resulting in a constant
// retrieval time of the MBRs" (Section 4). Retrieval by feature end-time is
// O(1) index arithmetic because feature times are evenly spaced by the
// update period, and a Cursor walks consecutive feature times with no
// arithmetic beyond a countdown.
//
// Flat extents: a thread keeps its box metadata (FeatureBox: first time,
// count, sequence number, seal flag; 24 bytes) in one ring and every box
// extent in one contiguous array beside it, 2·dims doubles per slot — dims
// lower bounds, then dims upper bounds. A box therefore costs 24 + 16·dims
// bytes (88 at the pattern core's f = 4) and no heap block of its own. A
// slot keeps its extent storage for the life of the thread: opening a box
// resets a retired slot in place and expiring one advances the head, so
// steady-state maintenance never touches the allocator.
#ifndef STARDUST_CORE_LEVEL_STATE_H_
#define STARDUST_CORE_LEVEL_STATE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "geom/mbr.h"

namespace stardust {

/// One MBR of up to c consecutive features at a level of one stream. Its
/// extent lives in the owning thread's flat extent array: read it with
/// LevelThread::Lo/Hi/Extent.
struct FeatureBox {
  /// Feature end-time of the first feature in the box.
  std::uint64_t first_time = 0;
  /// Sequence number of this box within its (stream, level) thread,
  /// counting from the beginning of the stream. Used to build RecordIds.
  std::uint64_t seq = 0;
  /// Number of features in the box (== capacity once sealed).
  std::uint32_t count = 0;
  /// A box seals when it reaches capacity; sealed boxes are what the level
  /// index stores.
  bool sealed = false;
};

/// The thread of feature boxes of one stream at one level.
///
/// Pointer lifetime: a FeatureBox pointer from Append, Find, FindBySeq or
/// filling_box, an extent pointer from Lo/Hi/Extent, and a Cursor stay
/// valid only until the next Append or AppendRunInPlace to the same
/// thread (the ring may grow, or reuse the slot of an expired box), or
/// until a RestoreFrom; a box that ExpireBefore removed must not be read
/// at all (its extent may be read inside the removal callback). Reading
/// level j - 1 while appending to level j is fine.
class LevelThread {
 public:
  /// `dims`: feature dimensionality; `capacity`: box capacity c;
  /// `stride`: update period T (spacing of feature end-times).
  LevelThread(std::size_t dims, std::size_t capacity, std::size_t stride);

  /// Appends the feature extent for feature end-time `t`. Times must be
  /// appended in increasing order, spaced exactly by the stride. Returns
  /// the box sealed by this append, or nullptr; the pointer is valid
  /// until the next append to this thread.
  const FeatureBox* Append(std::uint64_t t, const Mbr& feature);

  /// Append for the level-major batched path (StreamSummarizer's flat
  /// run): the n features at times t, t + stride, ... arrive as lo/hi
  /// spans of dims() values, feature i at lo + i·dims() and hi + i·dims(),
  /// and each is overwritten with the extent of its box immediately after
  /// its append — the "as-of" snapshot run composition needs. Calls
  /// on_seal(box) for every box the run seals, in seal order, while the
  /// box is readable. Slots for every box the run opens are made first
  /// (the ring grows to the size the appends one by one would reach), so
  /// the loop runs on fixed ring and extent pointers; on_seal may read
  /// the box and its extent but not the thread's counters, which are
  /// final already. Thread state and every min/max are bit-identical to
  /// n Append(t_i, Mbr(lo_i, hi_i)).
  template <typename OnSeal>
  void AppendRunInPlace(std::uint64_t t, std::size_t n, double* lo,
                        double* hi, OnSeal&& on_seal) {
    if (n == 0) return;
    if (!has_first_) {
      has_first_ = true;
      anchor_time_ = t;
    } else {
      SD_DCHECK(t == last_time() + stride_);
    }
    // Features the filling box still takes, then the boxes opened.
    const std::size_t room =
        size_ > 0 && !back().sealed ? capacity_ - back().count : 0;
    const std::size_t rest = n > room ? n - room : 0;
    const std::size_t opened = rest / capacity_ + (rest % capacity_ != 0);
    while (size_ + opened > ring_.size()) Grow();
    // The loop keeps the thread's counters in locals: its stores into
    // box metadata could otherwise alias them and force reloads.
    const std::size_t dims = dims_;
    const std::size_t capacity = capacity_;
    const std::size_t stride = stride_;
    const std::size_t slots = ring_.size();
    FeatureBox* const ring = ring_.data();
    double* const extents = extents_.data();
    std::uint64_t next_seq = next_seq_;
    // The slot of the newest box; with none, the slot before the head, so
    // opening a box always takes the slot after `slot`.
    std::size_t slot = size_ > 0 ? Slot(size_ - 1)
                                 : (head_ == 0 ? slots : head_) - 1;
    size_ += opened;
    next_seq_ += opened;
    FeatureBox* box = room > 0 ? &ring[slot] : nullptr;
    double* blo = extents + slot * 2 * dims;
    for (std::size_t i = 0; i < n; ++i, t += stride) {
      double* flo = lo + i * dims;
      double* fhi = hi + i * dims;
      if (box == nullptr) {
        // Open the next slot. min(+inf, x) and max(-inf, x) are what
        // expanding a freshly reset (inverted) extent computes.
        slot = slot + 1 == slots ? 0 : slot + 1;
        box = &ring[slot];
        blo = extents + slot * 2 * dims;
        box->first_time = t;
        box->count = 0;
        box->seq = next_seq++;
        box->sealed = false;
        double* bhi = blo + dims;
        for (std::size_t d = 0; d < dims; ++d) {
          blo[d] = std::min(std::numeric_limits<double>::infinity(), flo[d]);
          bhi[d] = std::max(-std::numeric_limits<double>::infinity(), fhi[d]);
          flo[d] = blo[d];
          fhi[d] = bhi[d];
        }
      } else {
        double* bhi = blo + dims;
        for (std::size_t d = 0; d < dims; ++d) {
          blo[d] = std::min(blo[d], flo[d]);
          bhi[d] = std::max(bhi[d], fhi[d]);
          flo[d] = blo[d];
          fhi[d] = bhi[d];
        }
      }
      if (++box->count == capacity) {
        box->sealed = true;
        on_seal(*box);
        box = nullptr;
      }
    }
  }

  /// Lower / upper extent of a retained box (dims() values each). `box`
  /// must come from this thread (Append, Find, FindBySeq, filling_box,
  /// ForEachBox or an ExpireBefore callback).
  const double* Lo(const FeatureBox& box) const {
    return extents_.data() + SlotOf(box) * 2 * dims_;
  }
  const double* Hi(const FeatureBox& box) const { return Lo(box) + dims_; }
  ExtentView Extent(const FeatureBox& box) const {
    return {Lo(box), Hi(box), dims_};
  }

  /// Reads the extents of the boxes covering consecutive feature times
  /// t, t + stride, t + 2·stride, ... in O(1) per step: a countdown to
  /// the box boundary and a pointer into the flat extent array, with no
  /// division and no ring-index arithmetic.
  class Cursor {
   public:
    const double* lo() const { return lo_; }
    const double* hi() const { return lo_ + dims_; }
    /// Steps to the next feature time, which must have been appended.
    void Next() {
      if (--left_ != 0) return;
      left_ = capacity_;
      lo_ += 2 * dims_;
      if (lo_ == end_) lo_ = begin_;
    }

   private:
    friend class LevelThread;
    const double* lo_ = nullptr;
    const double* begin_ = nullptr;
    const double* end_ = nullptr;
    std::size_t dims_ = 0;
    std::size_t capacity_ = 0;
    std::size_t left_ = 0;  // feature times left in the current box
  };

  /// Places `cursor` at the box covering feature time `t`. Returns false,
  /// leaving the cursor untouched, exactly where Find(t) returns nullptr.
  bool CursorAt(std::uint64_t t, Cursor* cursor) const;

  /// The box covering feature end-time `t` (sealed or still filling), or
  /// nullptr if `t` is misaligned, expired, or not yet produced. Valid
  /// until the next append to this thread.
  const FeatureBox* Find(std::uint64_t t) const;

  /// First feature time of the oldest retained box: the earliest t for
  /// which Find(t) can succeed. Requires !empty().
  std::uint64_t front_time() const {
    SD_DCHECK(size_ > 0);
    return ring_[head_].first_time;
  }

  /// Box with the given sequence number, or nullptr if expired / unknown.
  /// Valid until the next append to this thread.
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
    while (size_ > 0) {
      const FeatureBox& front = ring_[head_];
      if (!front.sealed) break;  // never drop the box still filling
      const std::uint64_t last_feature_time =
          front.first_time +
          static_cast<std::uint64_t>(front.count - 1) * stride_;
      if (last_feature_time >= min_time) break;
      on_remove(front);
      head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
      --size_;
    }
  }

  /// The still-filling box (not yet in any level index), or nullptr when
  /// the most recent box is sealed. Range queries must consult it in
  /// addition to the index to see the freshest features. Valid until the
  /// next append to this thread.
  const FeatureBox* filling_box() const {
    if (size_ == 0 || back().sealed) return nullptr;
    return &back();
  }

  /// Number of boxes currently retained (sealed + filling).
  std::size_t box_count() const { return size_; }
  std::size_t dims() const { return dims_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t stride() const { return stride_; }
  bool empty() const { return size_ == 0; }

  /// Feature end-time of the most recently appended feature. Requires
  /// !empty().
  std::uint64_t last_time() const;

  /// Invokes `fn` on every retained box, oldest first.
  void ForEachBox(const std::function<void(const FeatureBox&)>& fn) const;

  /// Stream-slice support (engine/feature_pipeline.cc): serializes the
  /// thread state.
  void SaveTo(Writer* writer) const;
  /// Restores a serialized thread. Validates structural invariants
  /// (ordered seqs, box counts within capacity, only the last box
  /// unsealed, every box's first time where the anchor, capacity and
  /// stride put its sequence number, no boxes without a first feature);
  /// the thread's dims/capacity/stride must match the saved ones.
  Status RestoreFrom(Reader* reader);

  /// Whether any feature was ever appended, and the end-time of the very
  /// first one (the alignment anchor; 0 while !has_first()). A restoring
  /// summarizer checks both against its raw tail.
  bool has_first() const { return has_first_; }
  std::uint64_t anchor_time() const { return anchor_time_; }
  /// Sequence number the next opened box gets: the number of boxes ever
  /// opened.
  std::uint64_t next_seq() const { return next_seq_; }

 private:
  /// Ring slot of the i-th retained box, oldest first (i < ring_.size()).
  std::size_t Slot(std::size_t i) const {
    const std::size_t slot = head_ + i;
    return slot < ring_.size() ? slot : slot - ring_.size();
  }
  /// Ring slot holding `box`.
  std::size_t SlotOf(const FeatureBox& box) const {
    SD_DCHECK(&box >= ring_.data() && &box < ring_.data() + ring_.size());
    return static_cast<std::size_t>(&box - ring_.data());
  }
  double* MutableLo(const FeatureBox& box) {
    return extents_.data() + SlotOf(box) * 2 * dims_;
  }
  const FeatureBox& back() const { return ring_[Slot(size_ - 1)]; }

  /// The box feature end-time `t` goes into: the filling box, or a new
  /// one opened in the slot after it with an empty (inverted) extent.
  FeatureBox& BoxFor(std::uint64_t t) {
    if (!has_first_) {
      has_first_ = true;
      anchor_time_ = t;
    } else {
      SD_DCHECK(t == last_time() + stride_);
    }
    if (size_ > 0) {
      FeatureBox& last = ring_[Slot(size_ - 1)];
      if (!last.sealed) return last;
    }
    if (size_ == ring_.size()) Grow();
    FeatureBox& box = ring_[Slot(size_)];
    double* lo = MutableLo(box);
    std::fill_n(lo, dims_, std::numeric_limits<double>::infinity());
    std::fill_n(lo + dims_, dims_, -std::numeric_limits<double>::infinity());
    box.first_time = t;
    box.count = 0;
    box.seq = next_seq_++;
    box.sealed = false;
    ++size_;
    return box;
  }

  /// Grows the ring by an eighth (at least one slot): when it is full, or
  /// ahead of a batched run that needs the room. Expiry waits for the end
  /// of a run, so a ring peaks at one history plus one run of boxes;
  /// doubling would round that peak up by as much again.
  void Grow();

  std::size_t dims_;
  std::size_t capacity_;
  std::size_t stride_;
  /// Box slots; the retained boxes are the size_ slots from head_ on,
  /// oldest first, wrapping at the end.
  std::vector<FeatureBox> ring_;
  /// Slot s's extent: extents_[2·dims_·s, +dims_) lower bounds, then
  /// dims_ upper bounds (ring_.size() slots).
  std::vector<double> extents_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool has_first_ = false;
  /// End-time of the very first feature at this level (alignment anchor).
  std::uint64_t anchor_time_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace stardust

#endif  // STARDUST_CORE_LEVEL_STATE_H_
