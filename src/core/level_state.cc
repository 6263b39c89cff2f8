#include "core/level_state.h"

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
  box.extent.Expand(feature);
  ++box.count;
  if (box.count == capacity_) {
    box.sealed = true;
    return &box;
  }
  return nullptr;
}

const FeatureBox* LevelThread::Find(std::uint64_t t) const {
  if (!has_first_ || boxes_.empty()) return nullptr;
  if (t < anchor_time_ || t > last_time()) return nullptr;
  const std::uint64_t offset = t - anchor_time_;
  if (offset % stride_ != 0) return nullptr;
  const std::uint64_t feature_index = offset / stride_;
  const std::uint64_t seq = feature_index / capacity_;
  return FindBySeq(seq);
}

const FeatureBox* LevelThread::FindBySeq(std::uint64_t seq) const {
  if (boxes_.empty()) return nullptr;
  const std::uint64_t front_seq = boxes_.front().seq;
  if (seq < front_seq) return nullptr;
  const std::uint64_t idx = seq - front_seq;
  if (idx >= boxes_.size()) return nullptr;
  const FeatureBox& box = boxes_[idx];
  // The box exists, but the requested feature may not have been appended
  // yet when the box is still filling; callers check via count/first_time
  // if they need per-feature granularity. Returning the box is correct for
  // extent-based computation (the extent only covers appended features).
  return &box;
}

void LevelThread::ExpireBefore(
    std::uint64_t min_time,
    const std::function<void(const FeatureBox&)>& on_remove) {
  while (!boxes_.empty()) {
    FeatureBox& front = boxes_.front();
    if (!front.sealed) break;  // never drop the box still filling
    const std::uint64_t last_feature_time =
        front.first_time + static_cast<std::uint64_t>(front.count - 1) *
                               stride_;
    if (last_feature_time >= min_time) break;
    if (on_remove) on_remove(front);
    RecycleExtent(&front.extent);
    boxes_.pop_front();
  }
}

std::uint64_t LevelThread::last_time() const {
  SD_CHECK(!boxes_.empty());
  const FeatureBox& back = boxes_.back();
  return back.first_time +
         static_cast<std::uint64_t>(back.count - 1) * stride_;
}

void LevelThread::ForEachBox(
    const std::function<void(const FeatureBox&)>& fn) const {
  for (const FeatureBox& box : boxes_) fn(box);
}

void LevelThread::SaveTo(Writer* writer) const {
  writer->U64(dims_);
  writer->U64(capacity_);
  writer->U64(stride_);
  writer->U8(has_first_ ? 1 : 0);
  writer->U64(anchor_time_);
  writer->U64(next_seq_);
  writer->U64(boxes_.size());
  for (const FeatureBox& box : boxes_) {
    writer->DoubleVector(box.extent.lo());
    writer->DoubleVector(box.extent.hi());
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
  // Each box takes two length-prefixed extents plus first_time, count,
  // seq and the seal flag; a count the bytes left cannot hold is
  // rejected before any box is built.
  const std::uint64_t box_bytes = 2 * (8 + 8 * dims_) + 8 + 4 + 8 + 1;
  if (box_count > reader->remaining() / box_bytes) {
    return Status::InvalidArgument("snapshot box count exceeds the bytes left");
  }
  boxes_.clear();
  std::uint64_t prev_seq = 0;
  for (std::uint64_t i = 0; i < box_count; ++i) {
    FeatureBox box;
    Point lo, hi;
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
    box.extent = Mbr(std::move(lo), std::move(hi));
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
    prev_seq = box.seq;
    boxes_.push_back(std::move(box));
  }
  // next_seq_ always points one past the most recent box.
  if (!boxes_.empty() && boxes_.back().seq + 1 != next_seq_) {
    return Status::InvalidArgument("snapshot next_seq inconsistent");
  }
  return Status::OK();
}

}  // namespace stardust
