// Fixed-capacity ring buffers.
//
// RingBuffer: the single-threaded history window of a stream. Stardust
// keeps the raw tail of each stream (history of interest, size N) here so
// that candidate alarms and candidate matches can be verified exactly
// against the original data (paper, Algorithm 2 post-check).
//
// SpscRing: the atomic variant used by the sharded ingestion engine
// (src/engine) to hand (stream, value) tuples from a producer thread to a
// shard worker without locks.
#ifndef STARDUST_COMMON_RING_BUFFER_H_
#define STARDUST_COMMON_RING_BUFFER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace stardust {

/// Ring buffer indexed by the global, monotonically increasing position of
/// each appended element. Element at global position p is retrievable while
/// p >= size() - capacity (i.e., it is among the `capacity` most recent).
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : capacity_(capacity), data_(capacity) {
    SD_CHECK(capacity > 0);
  }

  /// Appends a value; the oldest value is overwritten once full.
  void Push(const T& value) {
    data_[size_ % capacity_] = value;
    ++size_;
  }

  /// Appends `count` values in order, equivalent to calling Push once per
  /// value but touching the size counter once and copying in at most two
  /// contiguous segments (no per-element modulo).
  void PushSpan(const T* values, std::size_t count) {
    SD_DCHECK(values != nullptr || count == 0);
    if (count >= capacity_) {
      // Only the last `capacity_` values survive; lay them out so that
      // position p lands at slot p % capacity_.
      const T* tail = values + (count - capacity_);
      const std::uint64_t first = size_ + (count - capacity_);
      for (std::size_t i = 0; i < capacity_; ++i) {
        data_[(first + i) % capacity_] = tail[i];
      }
      size_ += count;
      return;
    }
    const std::size_t start = static_cast<std::size_t>(size_ % capacity_);
    const std::size_t head = capacity_ - start < count ? capacity_ - start
                                                       : count;
    for (std::size_t i = 0; i < head; ++i) data_[start + i] = values[i];
    for (std::size_t i = head; i < count; ++i) {
      data_[i - head] = values[i];
    }
    size_ += count;
  }

  /// Total number of values ever appended.
  std::uint64_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Global position of the oldest retrievable element.
  std::uint64_t first_position() const {
    return size_ > capacity_ ? size_ - capacity_ : 0;
  }

  /// True if the element at global position `pos` is still buffered.
  bool Contains(std::uint64_t pos) const {
    return pos < size_ && pos >= first_position();
  }

  /// Element at global position `pos`. Requires Contains(pos).
  const T& At(std::uint64_t pos) const {
    SD_DCHECK(Contains(pos));
    return data_[pos % capacity_];
  }

  /// Copies the window [first, first + count) into `out` (at least
  /// `count` slots) in at most two contiguous segments — no per-element
  /// modulo. Requires the whole window to be buffered.
  void CopySpanTo(std::uint64_t first, std::size_t count, T* out) const {
    SD_DCHECK(count == 0 || (Contains(first) && Contains(first + count - 1)));
    const std::size_t start = static_cast<std::size_t>(first % capacity_);
    const std::size_t head =
        capacity_ - start < count ? capacity_ - start : count;
    std::copy(data_.begin() + start, data_.begin() + start + head, out);
    std::copy(data_.begin(), data_.begin() + (count - head), out + head);
  }

  /// Copies the window [first, first + count) into `out` (resized), in
  /// at most two contiguous segments. Requires the whole window to be
  /// buffered.
  void CopyWindow(std::uint64_t first, std::size_t count,
                  std::vector<T>* out) const {
    out->resize(count);
    CopySpanTo(first, count, out->data());
  }

  /// Rebuilds the buffer to the state where `total_count` values were
  /// ever appended and `tail` (oldest first) holds the most recent
  /// min(total_count, capacity) of them. Used by snapshot restore.
  void RestoreTail(std::uint64_t total_count, const std::vector<T>& tail) {
    SD_CHECK(tail.size() ==
             (total_count < capacity_ ? total_count : capacity_));
    size_ = total_count - tail.size();
    for (const T& v : tail) Push(v);
    SD_DCHECK(size_ == total_count);
  }

 private:
  std::size_t capacity_;
  std::uint64_t size_ = 0;
  std::vector<T> data_;
};

/// Bounded lock-free queue for exactly one producer thread. Pushes are
/// wait-free plain stores (no CAS on the hot path); pops are guarded by a
/// compare-and-swap on the head index so that, besides the single consumer,
/// the producer may also reclaim the oldest slot when the queue is full —
/// the mechanism behind the ingestion engine's kDropOldest overload policy.
/// Per-slot sequence numbers (Vyukov-style) make that contention safe.
///
/// Capacity is rounded up to a power of two. T must be trivially copyable
/// in spirit: a popped value is copied out of its slot before the slot is
/// released for reuse.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity) {
    SD_CHECK(min_capacity > 0);
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer only. False when the ring is full.
  bool TryPush(const T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[tail & mask_];
    if (slot.seq.load(std::memory_order_acquire) != tail) {
      return false;  // the oldest occupant has not been consumed yet
    }
    slot.value = value;
    slot.seq.store(tail + 1, std::memory_order_release);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer (or the producer stealing the oldest entry under
  /// kDropOldest). False when the ring is empty.
  bool TryPop(T* out) {
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[head & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      const std::int64_t ready =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(head + 1);
      if (ready == 0) {
        if (head_.compare_exchange_weak(head, head + 1,
                                        std::memory_order_relaxed)) {
          *out = slot.value;
          slot.seq.store(head + capacity(), std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `head`; retry with the new value.
      } else if (ready < 0) {
        return false;  // empty
      } else {
        head = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Racy size estimate for metrics (queue depth high-water marks).
  std::size_t ApproxSize() const {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  bool ApproxEmpty() const { return ApproxSize() == 0; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  // Producer and consumer indexes live on separate cache lines so a busy
  // producer does not invalidate the consumer's line on every push.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

}  // namespace stardust

#endif  // STARDUST_COMMON_RING_BUFFER_H_
