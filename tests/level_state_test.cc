#include "core/level_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"

namespace stardust {
namespace {

Mbr PointBox(double v) { return Mbr::FromPoint({v}); }

TEST(LevelThreadTest, BoxesSealAtCapacity) {
  LevelThread thread(/*dims=*/1, /*capacity=*/3, /*stride=*/1);
  EXPECT_EQ(thread.Append(0, PointBox(1.0)), nullptr);
  EXPECT_EQ(thread.Append(1, PointBox(2.0)), nullptr);
  const FeatureBox* sealed = thread.Append(2, PointBox(3.0));
  ASSERT_NE(sealed, nullptr);
  EXPECT_TRUE(sealed->sealed);
  EXPECT_EQ(sealed->count, 3u);
  EXPECT_EQ(sealed->first_time, 0u);
  EXPECT_EQ(sealed->seq, 0u);
  EXPECT_EQ(thread.Lo(*sealed)[0], 1.0);
  EXPECT_EQ(thread.Hi(*sealed)[0], 3.0);
}

TEST(LevelThreadTest, NextBoxStartsAfterSeal) {
  LevelThread thread(1, 2, 1);
  thread.Append(5, PointBox(1.0));
  thread.Append(6, PointBox(2.0));
  EXPECT_EQ(thread.Append(7, PointBox(9.0)), nullptr);
  EXPECT_EQ(thread.box_count(), 2u);
  const FeatureBox* second = thread.Find(7);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->seq, 1u);
  EXPECT_EQ(second->first_time, 7u);
  EXPECT_FALSE(second->sealed);
}

TEST(LevelThreadTest, FindMapsTimesToBoxes) {
  LevelThread thread(1, 2, 1);
  for (int t = 0; t < 6; ++t) {
    thread.Append(t, PointBox(static_cast<double>(t)));
  }
  for (int t = 0; t < 6; ++t) {
    const FeatureBox* box = thread.Find(t);
    ASSERT_NE(box, nullptr) << "t=" << t;
    EXPECT_EQ(box->seq, static_cast<std::uint64_t>(t / 2));
  }
  EXPECT_EQ(thread.Find(6), nullptr);   // future
  EXPECT_EQ(thread.last_time(), 5u);
}

TEST(LevelThreadTest, StridedFeatureTimes) {
  LevelThread thread(1, 1, 4);  // batch: stride 4, capacity 1
  thread.Append(7, PointBox(1.0));
  thread.Append(11, PointBox(2.0));
  thread.Append(15, PointBox(3.0));
  EXPECT_NE(thread.Find(7), nullptr);
  EXPECT_NE(thread.Find(11), nullptr);
  EXPECT_EQ(thread.Find(9), nullptr);  // misaligned
  EXPECT_EQ(thread.Lo(*thread.Find(11))[0], 2.0);
}

TEST(LevelThreadTest, ExpireDropsOnlySealedOldBoxes) {
  LevelThread thread(1, 2, 1);
  for (int t = 0; t < 5; ++t) {
    thread.Append(t, PointBox(static_cast<double>(t)));
  }
  // Boxes: seq0 {0,1} sealed, seq1 {2,3} sealed, seq2 {4} filling.
  std::vector<std::uint64_t> removed;
  thread.ExpireBefore(3, [&](const FeatureBox& b) {
    removed.push_back(b.seq);
  });
  // Box 0's last time (1) < 3 → removed; box 1's last time (3) >= 3 → kept.
  EXPECT_EQ(removed, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(thread.Find(1), nullptr);
  EXPECT_NE(thread.Find(2), nullptr);
  // The filling box survives even a far-future cutoff.
  thread.ExpireBefore(100, [&](const FeatureBox& b) {
    removed.push_back(b.seq);
  });
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_EQ(thread.box_count(), 1u);
  EXPECT_FALSE(thread.empty());
}

TEST(LevelThreadTest, FindBySeqAfterExpiry) {
  LevelThread thread(1, 1, 1);
  for (int t = 0; t < 10; ++t) {
    thread.Append(t, PointBox(static_cast<double>(t)));
  }
  thread.ExpireBefore(5, nullptr);
  EXPECT_EQ(thread.FindBySeq(3), nullptr);
  ASSERT_NE(thread.FindBySeq(7), nullptr);
  EXPECT_EQ(thread.Lo(*thread.FindBySeq(7))[0], 7.0);
  EXPECT_EQ(thread.FindBySeq(42), nullptr);
}

TEST(LevelThreadTest, ExtentCoversAllAppendedFeatures) {
  LevelThread thread(2, 4, 1);
  Mbr a = Mbr::FromPoint({1.0, -1.0});
  Mbr b = Mbr::FromPoint({3.0, 2.0});
  Mbr c({0.0, 0.0}, {0.5, 0.5});  // extents (merged features) also allowed
  thread.Append(0, a);
  thread.Append(1, b);
  thread.Append(2, c);
  const FeatureBox* box = thread.Find(0);
  ASSERT_NE(box, nullptr);
  EXPECT_EQ(thread.Lo(*box)[0], 0.0);
  EXPECT_EQ(thread.Hi(*box)[0], 3.0);
  EXPECT_EQ(thread.Lo(*box)[1], -1.0);
  EXPECT_EQ(thread.Hi(*box)[1], 2.0);
}

// --- The ring against a plain vector of boxes ----------------------------

// A box with its own extent: the reference keeps what the thread's flat
// extent array holds per slot inside each box.
struct RefBox : FeatureBox {
  Mbr extent;
};

// The thread as a vector of boxes, oldest first: what LevelThread's ring
// must be indistinguishable from.
class ReferenceThread {
 public:
  ReferenceThread(std::size_t dims, std::size_t capacity, std::size_t stride)
      : dims_(dims), capacity_(capacity), stride_(stride) {}

  void Append(std::uint64_t t, const Mbr& feature) {
    if (!has_first_) {
      has_first_ = true;
      anchor_ = t;
    }
    if (boxes_.empty() || boxes_.back().sealed) {
      RefBox box;
      box.extent = Mbr(dims_);
      box.first_time = t;
      box.seq = next_seq_++;
      boxes_.push_back(box);
    }
    RefBox& box = boxes_.back();
    box.extent.Expand(feature);
    box.sealed = ++box.count == capacity_;
  }

  std::vector<std::uint64_t> ExpireBefore(std::uint64_t min_time) {
    std::vector<std::uint64_t> removed;
    while (!boxes_.empty() && boxes_.front().sealed &&
           LastTimeOf(boxes_.front()) < min_time) {
      removed.push_back(boxes_.front().seq);
      boxes_.erase(boxes_.begin());
    }
    return removed;
  }

  const RefBox* FindBySeq(std::uint64_t seq) const {
    for (const RefBox& box : boxes_) {
      if (box.seq == seq) return &box;
    }
    return nullptr;
  }

  const RefBox* Find(std::uint64_t t) const {
    if (boxes_.empty() || t < anchor_ || t > LastTimeOf(boxes_.back())) {
      return nullptr;
    }
    if ((t - anchor_) % stride_ != 0) return nullptr;
    return FindBySeq((t - anchor_) / stride_ / capacity_);
  }

  const RefBox* filling_box() const {
    return boxes_.empty() || boxes_.back().sealed ? nullptr : &boxes_.back();
  }

  std::string Save() const {
    Writer writer;
    writer.U64(dims_);
    writer.U64(capacity_);
    writer.U64(stride_);
    writer.U8(has_first_ ? 1 : 0);
    writer.U64(anchor_);
    writer.U64(next_seq_);
    writer.U64(boxes_.size());
    for (const RefBox& box : boxes_) {
      writer.DoubleVector(box.extent.lo());
      writer.DoubleVector(box.extent.hi());
      writer.U64(box.first_time);
      writer.U32(box.count);
      writer.U64(box.seq);
      writer.U8(box.sealed ? 1 : 0);
    }
    return writer.buffer();
  }

  std::uint64_t LastTimeOf(const FeatureBox& box) const {
    return box.first_time + (box.count - 1) * stride_;
  }

  const std::vector<RefBox>& boxes() const { return boxes_; }
  std::uint64_t next_seq() const { return next_seq_; }

 private:
  std::size_t dims_;
  std::size_t capacity_;
  std::size_t stride_;
  std::vector<RefBox> boxes_;
  bool has_first_ = false;
  std::uint64_t anchor_ = 0;
  std::uint64_t next_seq_ = 0;
};

// Box `a` of `thread` (metadata and flat extent) equals reference box `b`.
bool SameBox(const LevelThread& thread, const FeatureBox* a,
             const RefBox* b) {
  if (a == nullptr || b == nullptr) {
    return a == nullptr && b == nullptr;
  }
  return thread.Extent(*a).ToMbr() == b->extent &&
         a->first_time == b->first_time && a->count == b->count &&
         a->seq == b->seq && a->sealed == b->sealed;
}

std::string Saved(const LevelThread& thread) {
  Writer writer;
  thread.SaveTo(&writer);
  return writer.buffer();
}

// Every observable of the thread equals the reference's.
void ExpectSame(const LevelThread& thread, const ReferenceThread& ref,
                std::size_t stride) {
  const std::vector<RefBox>& boxes = ref.boxes();
  ASSERT_EQ(thread.box_count(), boxes.size());
  ASSERT_EQ(thread.empty(), boxes.empty());
  ASSERT_TRUE(SameBox(thread, thread.filling_box(), ref.filling_box()));
  std::size_t visited = 0;
  thread.ForEachBox([&](const FeatureBox& box) {
    ASSERT_LT(visited, boxes.size());
    EXPECT_TRUE(SameBox(thread, &box, &boxes[visited])) << "box " << visited;
    ++visited;
  });
  ASSERT_EQ(visited, boxes.size());
  ASSERT_EQ(Saved(thread), ref.Save());
  if (boxes.empty()) return;
  const std::uint64_t first = boxes.front().seq;
  for (std::uint64_t seq = first > 2 ? first - 2 : 0;
       seq <= ref.next_seq() + 2; ++seq) {
    ASSERT_TRUE(SameBox(thread, thread.FindBySeq(seq), ref.FindBySeq(seq)))
        << "seq " << seq;
  }
  ASSERT_EQ(thread.last_time(), ref.LastTimeOf(boxes.back()));
  const std::uint64_t lo = boxes.front().first_time;
  const std::uint64_t hi = thread.last_time() + 2 * stride;
  for (std::uint64_t t = lo > stride ? lo - stride : 0; t <= hi; ++t) {
    ASSERT_TRUE(SameBox(thread, thread.Find(t), ref.Find(t))) << "t " << t;
  }
}

Mbr RandomFeature(Rng* rng) {
  const double x = std::floor(rng->NextDouble(-50.0, 50.0));
  const double y = std::floor(rng->NextDouble(-50.0, 50.0));
  if (rng->NextUint64(4) == 0) return Mbr({x, y}, {x + 1.5, y + 3.0});
  return Mbr::FromPoint({x, y});
}

// Appends `n` features to both, one by one through Append or as one run
// through AppendRunInPlace, checking every box sealed and, for the run,
// each feature's as-of extent against the reference's box right after
// that feature.
void AppendBoth(LevelThread* thread, ReferenceThread* ref, std::uint64_t* t,
                std::size_t n, std::size_t stride, Rng* rng) {
  if (rng->NextUint64(2) == 0) {
    for (std::size_t i = 0; i < n; ++i, *t += stride) {
      const Mbr feature = RandomFeature(rng);
      ref->Append(*t, feature);
      const FeatureBox* sealed = thread->Append(*t, feature);
      const RefBox& back = ref->boxes().back();
      ASSERT_TRUE(SameBox(*thread, sealed, back.sealed ? &back : nullptr));
    }
    return;
  }
  std::vector<double> lo(2 * n);
  std::vector<double> hi(2 * n);
  std::vector<Mbr> as_of;
  std::vector<RefBox> ref_sealed;
  for (std::size_t i = 0; i < n; ++i) {
    const Mbr feature = RandomFeature(rng);
    std::copy(feature.lo().begin(), feature.lo().end(), lo.begin() + 2 * i);
    std::copy(feature.hi().begin(), feature.hi().end(), hi.begin() + 2 * i);
    ref->Append(*t + i * stride, feature);
    as_of.push_back(ref->boxes().back().extent);
    if (ref->boxes().back().sealed) ref_sealed.push_back(ref->boxes().back());
  }
  std::size_t seals = 0;
  thread->AppendRunInPlace(
      *t, n, lo.data(), hi.data(), [&](const FeatureBox& box) {
        ASSERT_LT(seals, ref_sealed.size());
        EXPECT_TRUE(SameBox(*thread, &box, &ref_sealed[seals]));
        ++seals;
      });
  EXPECT_EQ(seals, ref_sealed.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(Mbr({lo[2 * i], lo[2 * i + 1]}, {hi[2 * i], hi[2 * i + 1]}),
              as_of[i])
        << "feature " << i;
  }
  *t += n * stride;
}

TEST(LevelThreadTest, RingMatchesAVectorOfBoxesThroughWrapsAndGrowth) {
  for (const std::size_t capacity : {1u, 3u, 8u}) {
    for (const std::size_t stride : {1u, 16u}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " stride " +
                   std::to_string(stride));
      Rng rng(capacity * 100 + stride);
      LevelThread thread(2, capacity, stride);
      ReferenceThread ref(2, capacity, stride);
      std::uint64_t t = 7 * stride + 3;
      std::size_t retain = 1;   // features kept by the next expiry
      std::size_t peak = 0;     // most boxes retained at once
      for (int step = 0; step < 1500; ++step) {
        // The retained span wanders, so the ring grows, wraps while
        // shrinking and grows again; expiry sometimes lags several
        // appends behind, as it does across one run.
        if (step % 60 == 0) retain = 1 + rng.NextUint64(40 * capacity);
        AppendBoth(&thread, &ref, &t, 1 + rng.NextUint64(12), stride, &rng);
        if (rng.NextUint64(3) != 0) {
          const std::uint64_t last = ref.LastTimeOf(ref.boxes().back());
          const std::uint64_t span = (retain - 1) * stride;
          const std::uint64_t min_time = last > span ? last - span : 0;
          std::vector<std::uint64_t> removed;
          thread.ExpireBefore(min_time, [&](const FeatureBox& box) {
            removed.push_back(box.seq);
          });
          ASSERT_EQ(removed, ref.ExpireBefore(min_time));
        }
        peak = std::max(peak, thread.box_count());
        ExpectSame(thread, ref, stride);
        if (HasFatalFailure()) return;
      }
      // From empty, the ring grows one slot at a time up to 16 slots, so
      // a peak of 16 boxes took at least 16 growths; opening more than
      // 12x the largest ring's slots wrapped it at least 10 times.
      EXPECT_GE(peak, 16u);
      EXPECT_GT(ref.next_seq(), 12 * (peak + peak / 8 + 1));

      // Restore into a thread whose ring has wrapped (a bigger one than
      // the slice needs) and into a fresh one; both continue like the
      // reference.
      LevelThread wrapped(2, capacity, stride);
      ReferenceThread wrapped_ref(2, capacity, stride);
      std::uint64_t wt = stride;
      for (int step = 0; step < 200; ++step) {
        AppendBoth(&wrapped, &wrapped_ref, &wt, 1 + rng.NextUint64(30),
                   stride, &rng);
        const std::uint64_t last = wrapped.last_time();
        const std::uint64_t keep = (step % 50 < 25 ? 300 : 5) * stride;
        wrapped.ExpireBefore(last > keep ? last - keep : 0, nullptr);
      }
      LevelThread fresh(2, capacity, stride);
      for (LevelThread* target : {&wrapped, &fresh}) {
        const std::string bytes = Saved(thread);
        Reader reader(bytes);
        ASSERT_TRUE(target->RestoreFrom(&reader).ok());
        EXPECT_TRUE(reader.AtEnd());
        ReferenceThread continued = ref;
        std::uint64_t ct = t;
        Rng tail_rng(stride + capacity);
        ExpectSame(*target, continued, stride);
        for (int step = 0; step < 100; ++step) {
          AppendBoth(target, &continued, &ct, 1 + tail_rng.NextUint64(20),
                     stride, &tail_rng);
          const std::uint64_t last = target->last_time();
          const std::uint64_t min_time = last > 100 * stride
                                             ? last - 100 * stride
                                             : 0;
          target->ExpireBefore(min_time, nullptr);
          continued.ExpireBefore(min_time);
          ExpectSame(*target, continued, stride);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace stardust
