#include "core/level_state.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace stardust {

LevelThread::LevelThread(std::size_t dims, std::size_t capacity,
                         std::size_t stride)
    : dims_(dims), capacity_(capacity), stride_(stride) {
  SD_CHECK(dims > 0);
  SD_CHECK(capacity > 0);
  SD_CHECK(stride > 0);
}

const FeatureBox* LevelThread::Append(std::uint64_t t, const Mbr& feature) {
  SD_DCHECK(feature.dims() == dims_);
  SD_DCHECK(!feature.empty());
  FeatureBox& box = BoxFor(t);
  double* lo = MutableLo(box);
  double* hi = lo + dims_;
  const double* flo = feature.lo().data();
  const double* fhi = feature.hi().data();
  for (std::size_t d = 0; d < dims_; ++d) {
    lo[d] = std::min(lo[d], flo[d]);
    hi[d] = std::max(hi[d], fhi[d]);
  }
  ++box.count;
  if (box.count == capacity_) {
    box.sealed = true;
    return &box;
  }
  return nullptr;
}

void LevelThread::Grow() {
  SD_DCHECK(size_ <= ring_.size());
  const std::size_t grown_size =
      ring_.size() + std::max<std::size_t>(1, ring_.size() / 8);
  const std::size_t slot_doubles = 2 * dims_;
  std::vector<FeatureBox> grown(grown_size);
  std::vector<double> grown_extents(grown_size * slot_doubles);
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t slot = Slot(i);
    grown[i] = ring_[slot];
    std::copy_n(extents_.data() + slot * slot_doubles, slot_doubles,
                grown_extents.data() + i * slot_doubles);
  }
  ring_ = std::move(grown);
  extents_ = std::move(grown_extents);
  head_ = 0;
}

const FeatureBox* LevelThread::Find(std::uint64_t t) const {
  if (!has_first_ || size_ == 0) return nullptr;
  if (t < anchor_time_ || t > last_time()) return nullptr;
  const std::uint64_t offset = t - anchor_time_;
  if (offset % stride_ != 0) return nullptr;
  const std::uint64_t feature_index = offset / stride_;
  const std::uint64_t seq = feature_index / capacity_;
  return FindBySeq(seq);
}

bool LevelThread::CursorAt(std::uint64_t t, Cursor* cursor) const {
  const FeatureBox* box = Find(t);
  if (box == nullptr) return false;
  const std::size_t done =
      static_cast<std::size_t>((t - box->first_time) / stride_);
  cursor->lo_ = Lo(*box);
  cursor->begin_ = extents_.data();
  cursor->end_ = extents_.data() + extents_.size();
  cursor->dims_ = dims_;
  cursor->capacity_ = capacity_;
  cursor->left_ = capacity_ - done;
  return true;
}

const FeatureBox* LevelThread::FindBySeq(std::uint64_t seq) const {
  if (size_ == 0) return nullptr;
  const std::uint64_t front_seq = ring_[head_].seq;
  if (seq < front_seq) return nullptr;
  const std::uint64_t idx = seq - front_seq;
  if (idx >= size_) return nullptr;
  // The box exists, but the requested feature may not have been appended
  // yet when the box is still filling; callers check via count/first_time
  // if they need per-feature granularity. Returning the box is correct for
  // extent-based computation (the extent only covers appended features).
  return &ring_[Slot(static_cast<std::size_t>(idx))];
}

void LevelThread::ExpireBefore(
    std::uint64_t min_time,
    const std::function<void(const FeatureBox&)>& on_remove) {
  ExpireBeforeFast(min_time, [&](const FeatureBox& box) {
    if (on_remove) on_remove(box);
  });
}

std::uint64_t LevelThread::last_time() const {
  SD_CHECK(size_ > 0);
  const FeatureBox& last = back();
  return last.first_time +
         static_cast<std::uint64_t>(last.count - 1) * stride_;
}

void LevelThread::ForEachBox(
    const std::function<void(const FeatureBox&)>& fn) const {
  for (std::size_t i = 0; i < size_; ++i) fn(ring_[Slot(i)]);
}

void LevelThread::SaveTo(Writer* writer) const {
  writer->U64(dims_);
  writer->U64(capacity_);
  writer->U64(stride_);
  writer->U8(has_first_ ? 1 : 0);
  writer->U64(anchor_time_);
  writer->U64(next_seq_);
  writer->U64(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const FeatureBox& box = ring_[Slot(i)];
    writer->DoubleSpan(Lo(box), dims_);
    writer->DoubleSpan(Hi(box), dims_);
    writer->U64(box.first_time);
    writer->U32(box.count);
    writer->U64(box.seq);
    writer->U8(box.sealed ? 1 : 0);
  }
}

Status LevelThread::RestoreFrom(Reader* reader) {
  std::uint64_t dims = 0, capacity = 0, stride = 0;
  SD_RETURN_NOT_OK(reader->U64(&dims));
  SD_RETURN_NOT_OK(reader->U64(&capacity));
  SD_RETURN_NOT_OK(reader->U64(&stride));
  if (dims != dims_ || capacity != capacity_ || stride != stride_) {
    return Status::InvalidArgument(
        "snapshot thread geometry does not match the configuration");
  }
  std::uint8_t has_first = 0;
  SD_RETURN_NOT_OK(reader->U8(&has_first));
  SD_RETURN_NOT_OK(reader->U64(&anchor_time_));
  SD_RETURN_NOT_OK(reader->U64(&next_seq_));
  has_first_ = has_first != 0;
  std::uint64_t box_count = 0;
  SD_RETURN_NOT_OK(reader->U64(&box_count));
  if (!has_first_ && (anchor_time_ != 0 || next_seq_ != 0 || box_count != 0)) {
    return Status::InvalidArgument(
        "snapshot thread has boxes but no first feature");
  }
  // Each box takes two length-prefixed extents plus first_time, count,
  // seq and the seal flag; a count the bytes left cannot hold is
  // rejected before any box is built.
  const std::uint64_t box_bytes = 2 * (8 + 8 * dims_) + 8 + 4 + 8 + 1;
  if (box_count > reader->remaining() / box_bytes) {
    return Status::InvalidArgument("snapshot box count exceeds the bytes left");
  }
  // Restored boxes fill the ring from slot 0, keeping every slot's
  // storage; the ring grows only to hold box_count.
  head_ = 0;
  size_ = 0;
  if (ring_.size() < box_count) {
    ring_.resize(box_count);
    extents_.resize(ring_.size() * 2 * dims_);
  }
  // Box seq opens at feature index seq·c, so its first time is fixed by
  // the anchor; a box anywhere else would break Find and expiry.
  const std::uint64_t box_span = capacity_ * stride_;
  const std::uint64_t max_time = std::numeric_limits<std::uint64_t>::max();
  Point lo, hi;
  std::uint64_t prev_seq = 0;
  for (std::uint64_t i = 0; i < box_count; ++i) {
    SD_RETURN_NOT_OK(reader->DoubleVector(&lo, dims_));
    SD_RETURN_NOT_OK(reader->DoubleVector(&hi, dims_));
    if (lo.size() != dims_ || hi.size() != dims_) {
      return Status::InvalidArgument("snapshot box dimensionality mismatch");
    }
    for (std::size_t d = 0; d < dims_; ++d) {
      if (!(lo[d] <= hi[d])) {
        return Status::InvalidArgument("snapshot box has inverted extents");
      }
    }
    FeatureBox& box = ring_[i];
    double* extent = MutableLo(box);
    std::copy(lo.begin(), lo.end(), extent);
    std::copy(hi.begin(), hi.end(), extent + dims_);
    SD_RETURN_NOT_OK(reader->U64(&box.first_time));
    SD_RETURN_NOT_OK(reader->U32(&box.count));
    SD_RETURN_NOT_OK(reader->U64(&box.seq));
    std::uint8_t sealed = 0;
    SD_RETURN_NOT_OK(reader->U8(&sealed));
    box.sealed = sealed != 0;
    if (box.count == 0 || box.count > capacity_) {
      return Status::InvalidArgument("snapshot box count out of range");
    }
    if (box.sealed != (box.count == capacity_)) {
      return Status::InvalidArgument("snapshot box seal flag inconsistent");
    }
    if (!box.sealed && i + 1 != box_count) {
      return Status::InvalidArgument(
          "snapshot has an unsealed box before the last");
    }
    if (i > 0 && box.seq != prev_seq + 1) {
      return Status::InvalidArgument("snapshot box sequence gap");
    }
    const std::uint64_t last_offset = (box.count - 1) * stride_;
    if ((box.seq != 0 && box_span > (max_time - anchor_time_) / box.seq) ||
        box.first_time != anchor_time_ + box.seq * box_span ||
        box.first_time > max_time - last_offset) {
      return Status::InvalidArgument(
          "snapshot box time does not match its anchor and sequence");
    }
    prev_seq = box.seq;
    ++size_;
  }
  // next_seq_ always points one past the most recent box.
  if (size_ > 0 && back().seq + 1 != next_seq_) {
    return Status::InvalidArgument("snapshot next_seq inconsistent");
  }
  return Status::OK();
}

}  // namespace stardust
