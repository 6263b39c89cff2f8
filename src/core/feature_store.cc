#include "core/feature_store.h"

#include <algorithm>
#include <cstring>
#include <utility>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/check.h"

namespace stardust {

namespace {

/// Ring slot never written yet.
constexpr std::uint64_t kNoTime = ~static_cast<std::uint64_t>(0);

}  // namespace

FeatureStore::FeatureStore(std::size_t num_streams, std::size_t capacity)
    : num_streams_(num_streams), capacity_(capacity) {
  SD_CHECK(num_streams_ > 0);
  SD_CHECK(capacity_ > 0);
}

FeatureStore::Slab FeatureStore::MakeSlab(const LevelSpec& spec) const {
  SD_CHECK(spec.window > 0 && spec.dims > 0);
  Slab slab;
  slab.spec = spec;
  slab.times.assign(num_streams_ * capacity_, kNoTime);
  slab.features.assign(num_streams_ * capacity_ * spec.dims, 0.0);
  slab.znormed.assign(num_streams_ * capacity_ * spec.window, 0.0);
  slab.means.assign(num_streams_ * capacity_, 0.0);
  slab.norms.assign(num_streams_ * capacity_, 0.0);
  slab.heads.assign(num_streams_, 0);
  slab.counts.assign(num_streams_, 0);
  return slab;
}

void FeatureStore::SetLevels(const std::vector<LevelSpec>& levels) {
  std::vector<Slab> next;
  next.reserve(levels.size());
  for (const LevelSpec& spec : levels) {
    Slab* kept = nullptr;
    for (Slab& slab : slabs_) {
      if (slab.spec.level == spec.level && slab.spec.window == spec.window &&
          slab.spec.dims == spec.dims) {
        kept = &slab;
        break;
      }
    }
    next.push_back(kept != nullptr ? std::move(*kept) : MakeSlab(spec));
    if (kept != nullptr) {
      // Leave a moved-from marker so a duplicate spec cannot steal twice.
      kept->spec.window = 0;
    }
  }
  slabs_ = std::move(next);
  specs_ = levels;
}

const FeatureStore::Slab* FeatureStore::FindSlab(std::size_t level) const {
  for (const Slab& slab : slabs_) {
    if (slab.spec.level == level) return &slab;
  }
  return nullptr;
}

void FeatureStore::Put(std::size_t level, StreamId stream,
                       std::uint64_t time, const double* feature,
                       const double* znormed, double mean, double norm2) {
  Slab* slab = const_cast<Slab*>(FindSlab(level));
  SD_CHECK(slab != nullptr);
  SD_CHECK(stream < num_streams_);
  SD_CHECK(time != kNoTime);
  const std::size_t slot =
      stream * capacity_ + slab->heads[stream];
  SD_DCHECK(slab->counts[stream] == 0 ||
            slab->times[stream * capacity_ +
                        (slab->heads[stream] + capacity_ - 1) % capacity_] <
                time);
  slab->times[slot] = time;
  std::memcpy(&slab->features[slot * slab->spec.dims], feature,
              slab->spec.dims * sizeof(double));
  std::memcpy(&slab->znormed[slot * slab->spec.window], znormed,
              slab->spec.window * sizeof(double));
  slab->means[slot] = mean;
  slab->norms[slot] = norm2;
  slab->heads[stream] =
      static_cast<std::uint32_t>((slab->heads[stream] + 1) % capacity_);
  slab->counts[stream] = static_cast<std::uint32_t>(
      std::min<std::size_t>(slab->counts[stream] + 1, capacity_));
  ++puts_;
}

bool FeatureStore::Find(std::size_t level, StreamId stream,
                        std::uint64_t time, View* out) const {
  const Slab* slab = FindSlab(level);
  if (slab == nullptr || stream >= num_streams_) {
    ++misses_;
    return false;
  }
  const std::size_t count = slab->counts[stream];
  // Newest first: correlator rounds chase the freshest aligned time.
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t ring =
        (slab->heads[stream] + capacity_ - 1 - i) % capacity_;
    const std::size_t slot = stream * capacity_ + ring;
    if (slab->times[slot] != time) continue;
    if (out != nullptr) {
      out->time = time;
      out->feature = &slab->features[slot * slab->spec.dims];
      out->znormed = &slab->znormed[slot * slab->spec.window];
      out->dims = slab->spec.dims;
      out->window = slab->spec.window;
      out->mean = slab->means[slot];
      out->norm2 = slab->norms[slot];
    }
    ++hits_;
    return true;
  }
  ++misses_;
  return false;
}

bool FeatureStore::Latest(std::size_t level, StreamId stream,
                          std::uint64_t* time) const {
  const Slab* slab = FindSlab(level);
  if (slab == nullptr || stream >= num_streams_) return false;
  if (slab->counts[stream] == 0) return false;
  const std::size_t ring = (slab->heads[stream] + capacity_ - 1) % capacity_;
  if (time != nullptr) *time = slab->times[stream * capacity_ + ring];
  return true;
}

void FeatureStore::Clear() {
  for (Slab& slab : slabs_) {
    std::fill(slab.times.begin(), slab.times.end(), kNoTime);
    std::fill(slab.heads.begin(), slab.heads.end(), 0);
    std::fill(slab.counts.begin(), slab.counts.end(), 0);
  }
}

void FeatureStore::Grow(std::size_t new_num_streams) {
  SD_CHECK(new_num_streams >= num_streams_);
  if (new_num_streams == num_streams_) return;
  for (Slab& slab : slabs_) {
    slab.times.resize(new_num_streams * capacity_, kNoTime);
    slab.features.resize(new_num_streams * capacity_ * slab.spec.dims, 0.0);
    slab.znormed.resize(new_num_streams * capacity_ * slab.spec.window, 0.0);
    slab.means.resize(new_num_streams * capacity_, 0.0);
    slab.norms.resize(new_num_streams * capacity_, 0.0);
    slab.heads.resize(new_num_streams, 0);
    slab.counts.resize(new_num_streams, 0);
  }
  num_streams_ = new_num_streams;
}

void FeatureStore::ClearStream(StreamId stream) {
  SD_CHECK(stream < num_streams_);
  for (Slab& slab : slabs_) {
    std::fill(slab.times.begin() + stream * capacity_,
              slab.times.begin() + (stream + 1) * capacity_, kNoTime);
    slab.heads[stream] = 0;
    slab.counts[stream] = 0;
  }
}

void FeatureStore::SaveStreamTo(StreamId stream, Writer* writer) const {
  SD_CHECK(stream < num_streams_);
  writer->U64(capacity_);
  writer->U64(slabs_.size());
  for (const Slab& slab : slabs_) {
    writer->U64(slab.spec.level);
    writer->U64(slab.spec.window);
    writer->U64(slab.spec.dims);
    writer->U32(slab.heads[stream]);
    writer->U32(slab.counts[stream]);
    const std::size_t row = stream * capacity_;
    for (std::size_t i = 0; i < capacity_; ++i) {
      writer->U64(slab.times[row + i]);
    }
    for (std::size_t i = 0; i < capacity_ * slab.spec.dims; ++i) {
      writer->F64(slab.features[row * slab.spec.dims + i]);
    }
    for (std::size_t i = 0; i < capacity_ * slab.spec.window; ++i) {
      writer->F64(slab.znormed[row * slab.spec.window + i]);
    }
    for (std::size_t i = 0; i < capacity_; ++i) {
      writer->F64(slab.means[row + i]);
    }
    for (std::size_t i = 0; i < capacity_; ++i) {
      writer->F64(slab.norms[row + i]);
    }
  }
}

Status FeatureStore::RestoreStreamFrom(StreamId stream, Reader* reader) {
  SD_CHECK(stream < num_streams_);
  std::uint64_t capacity = 0, num_slabs = 0;
  SD_RETURN_NOT_OK(reader->U64(&capacity));
  SD_RETURN_NOT_OK(reader->U64(&num_slabs));
  // Every slab starts with its spec, head and count (32 bytes).
  if (capacity == 0 || num_slabs > reader->remaining() / 32) {
    return Status::InvalidArgument("feature store slice corrupt");
  }
  for (std::uint64_t i = 0; i < num_slabs; ++i) {
    std::uint64_t level = 0, window = 0, dims = 0;
    std::uint32_t head = 0, count = 0;
    SD_RETURN_NOT_OK(reader->U64(&level));
    SD_RETURN_NOT_OK(reader->U64(&window));
    SD_RETURN_NOT_OK(reader->U64(&dims));
    SD_RETURN_NOT_OK(reader->U32(&head));
    SD_RETURN_NOT_OK(reader->U32(&count));
    if (window == 0 || dims == 0 || head >= capacity || count > capacity) {
      return Status::InvalidArgument("feature store slice corrupt");
    }
    // Per ring slot a slab holds a time, a mean, a norm, and its feature
    // and window values: 8 * (3 + dims + window) bytes.
    if (dims > reader->remaining() / 8 || window > reader->remaining() / 8 ||
        capacity > reader->remaining() / (8 * (3 + dims + window))) {
      return Status::InvalidArgument("feature store slice truncated");
    }
    // Rows are kept only for a slab this store monitors under the same
    // spec and ring capacity. Any other slab — another level set, or a
    // store sized for another host — still consumes its bytes, and the
    // stream re-warms from its correlation core.
    Slab* slab = nullptr;
    if (capacity == capacity_) {
      for (Slab& candidate : slabs_) {
        if (candidate.spec.level == level && candidate.spec.window == window &&
            candidate.spec.dims == dims) {
          slab = &candidate;
          break;
        }
      }
    }
    const std::size_t row = stream * capacity_;
    for (std::size_t j = 0; j < capacity; ++j) {
      std::uint64_t t = kNoTime;
      SD_RETURN_NOT_OK(reader->U64(&t));
      if (slab != nullptr) slab->times[row + j] = t;
    }
    for (std::size_t j = 0; j < capacity * dims; ++j) {
      double v = 0.0;
      SD_RETURN_NOT_OK(reader->F64(&v));
      if (slab != nullptr) slab->features[row * dims + j] = v;
    }
    for (std::size_t j = 0; j < capacity * window; ++j) {
      double v = 0.0;
      SD_RETURN_NOT_OK(reader->F64(&v));
      if (slab != nullptr) slab->znormed[row * window + j] = v;
    }
    for (std::size_t j = 0; j < capacity; ++j) {
      double v = 0.0;
      SD_RETURN_NOT_OK(reader->F64(&v));
      if (slab != nullptr) slab->means[row + j] = v;
    }
    for (std::size_t j = 0; j < capacity; ++j) {
      double v = 0.0;
      SD_RETURN_NOT_OK(reader->F64(&v));
      if (slab != nullptr) slab->norms[row + j] = v;
    }
    if (slab != nullptr) {
      slab->heads[stream] = head;
      slab->counts[stream] = count;
    }
  }
  return Status::OK();
}

std::size_t FeatureStoreEntryBytes(std::size_t window, std::size_t dims) {
  // Per entry across the slab columns: time (u64), `dims` feature
  // coefficients, `window` z-normalized values, mean + norm2, plus the
  // per-stream head/count bookkeeping amortized over the ring.
  return sizeof(std::uint64_t) + (dims + window + 2) * sizeof(double) +
         2 * sizeof(std::uint32_t);
}

std::size_t ProbedL2CacheBytes() {
#if defined(__linux__) && defined(_SC_LEVEL2_CACHE_SIZE)
  const long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (bytes > 0) return static_cast<std::size_t>(bytes);
#endif
  return 0;
}

std::size_t DeriveStoreCapacity(std::size_t streams, std::size_t entry_bytes,
                                std::size_t cache_bytes) {
  constexpr std::size_t kMinCapacity = 4;
  constexpr std::size_t kMaxCapacity = 64;
  constexpr std::size_t kFallback = 8;  // FeaturePipeline::kDefaultStoreCapacity
  if (streams == 0 || entry_bytes == 0 || cache_bytes == 0) return kFallback;
  // Budget half the cache for the store's hot set; the other half stays
  // with raw history, summarizer state, and code.
  const std::size_t budget = cache_bytes / 2;
  const std::size_t per_slot = streams * entry_bytes;
  std::size_t capacity = per_slot == 0 ? kFallback : budget / per_slot;
  if (capacity < kMinCapacity) capacity = kMinCapacity;
  if (capacity > kMaxCapacity) capacity = kMaxCapacity;
  return capacity;
}

}  // namespace stardust
