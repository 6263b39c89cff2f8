#include "sketch/countmin.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace stardust {

double CountMin::RowWidth(double epsilon) {
  constexpr double kE = 2.718281828459045;
  const double n = std::ceil(kE / epsilon);
  if (!std::isfinite(n)) return n;
  int exp = 0;
  // n = mantissa * 2^exp with mantissa in [0.5, 1): n is a power of two
  // exactly when the mantissa is 0.5.
  const double mantissa = std::frexp(n, &exp);
  return std::ldexp(1.0, mantissa == 0.5 ? exp - 1 : exp);
}

double CountMin::MemoryBytesFor(double epsilon, std::size_t depth,
                                std::size_t candidates) {
  return RowWidth(epsilon) * static_cast<double>(depth) *
             static_cast<double>(sizeof(std::uint32_t)) +
         static_cast<double>(candidates) *
             static_cast<double>(sizeof(Candidate));
}

CountMin::CountMin(double epsilon, std::size_t depth, std::size_t candidates)
    : epsilon_(epsilon), depth_(depth), capacity_(candidates) {
  SD_CHECK(epsilon > 0.0 && epsilon < 1.0);
  SD_CHECK(depth >= 1 && depth <= 16);
  SD_CHECK(candidates >= 1);
  // Keeps the cast below defined; SketchConfig::Validate bounds measures
  // far below this width.
  const double width = RowWidth(epsilon);
  SD_CHECK(width <= 0x1p32);
  width_ = static_cast<std::size_t>(width);
  counters_.assign(width_ * depth_, 0);
  row_seeds_.resize(depth_);
  for (std::size_t r = 0; r < depth_; ++r) {
    row_seeds_[r] = SketchHash64(r + 1);
  }
  candidates_.reserve(capacity_);
}

std::uint64_t CountMin::EstimateBits(std::uint64_t bits) const {
  std::uint64_t est = UINT64_MAX;
  const std::uint32_t* row = counters_.data();
  for (std::size_t r = 0; r < depth_; ++r, row += width_) {
    est = std::min<std::uint64_t>(est, row[Index(r, bits)]);
  }
  return est;
}

void CountMin::Add(double value) { AddSpan(&value, 1); }

void CountMin::AddSpan(const double* values, std::size_t n) {
  // The candidate set evolves per arrival, so counter updates and offers
  // run in arrival order; the span advantage is hashing ahead. Each block
  // first computes every value's row slots back-to-back — independent
  // hash chains keep the multiply pipeline full — and prefetches the
  // counter lines, then the in-order update walk finds its loads already
  // in flight instead of serializing hash -> load per value.
  constexpr std::size_t kBlock = 64;
  std::uint64_t bits[kBlock];
  std::size_t idx[kBlock * 16];  // depth_ <= 16 (constructor-checked)
  for (std::size_t at = 0; at < n; at += kBlock) {
    const std::size_t len = std::min(kBlock, n - at);
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t b = SketchValueBits(values[at + i]);
      bits[i] = b;
      std::size_t* slots = idx + i * depth_;
      for (std::size_t r = 0; r < depth_; ++r) {
        slots[r] = Index(r, b);
        __builtin_prefetch(counters_.data() + r * width_ + slots[r], 1, 1);
      }
    }
    total_ += len;
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t* slots = idx + i * depth_;
      std::uint64_t est = UINT64_MAX;
      std::uint32_t* row = counters_.data();
      for (std::size_t r = 0; r < depth_; ++r, row += width_) {
        std::uint32_t& c = row[slots[r]];
        if (c != UINT32_MAX) ++c;
        est = std::min<std::uint64_t>(est, c);
      }
      OfferCandidate(bits[i], est);
    }
  }
}

void CountMin::OfferCandidate(std::uint64_t bits, std::uint64_t estimate) {
  // Fast path: with a full set and an estimate at or below the weakest
  // tracked count, nothing can change — a tracked candidate already holds
  // count >= floor >= estimate, and an untracked value cannot displace
  // anyone — so the long tail skips the index lookup entirely.
  if (candidates_.size() == capacity_ && estimate <= candidate_floor_) {
    return;
  }
  auto it = candidate_index_.find(bits);
  if (it != candidate_index_.end()) {
    Candidate& c = candidates_[it->second];
    if (estimate > c.count) {
      const bool was_floor =
          candidates_.size() == capacity_ && c.count == candidate_floor_;
      c.count = estimate;
      if (was_floor) RecomputeCandidateFloor();
    }
    return;
  }
  if (candidates_.size() < capacity_) {
    candidate_index_.emplace(bits, candidates_.size());
    candidates_.push_back({bits, estimate});
    if (candidates_.size() == capacity_) RecomputeCandidateFloor();
    return;
  }
  // Full: only displace a tracked candidate when strictly ahead of the
  // weakest one. Ties keep the incumbent, so the long tail of singleton
  // values takes this early return almost always.
  if (estimate <= candidate_floor_) return;
  std::size_t victim = 0;
  for (std::size_t i = 1; i < candidates_.size(); ++i) {
    const Candidate& c = candidates_[i];
    const Candidate& v = candidates_[victim];
    if (c.count < v.count || (c.count == v.count && c.bits < v.bits)) {
      victim = i;
    }
  }
  candidate_index_.erase(candidates_[victim].bits);
  candidate_index_.emplace(bits, victim);
  candidates_[victim] = {bits, estimate};
  RecomputeCandidateFloor();
}

void CountMin::RecomputeCandidateFloor() {
  std::uint64_t floor = UINT64_MAX;
  for (const Candidate& c : candidates_) {
    floor = std::min(floor, c.count);
  }
  candidate_floor_ = floor;
}

std::uint64_t CountMin::EstimateCount(double value) const {
  return EstimateBits(SketchValueBits(value));
}

std::size_t CountMin::HeavyHitterCount(double phi) const {
  const double cutoff = phi * static_cast<double>(total_);
  std::size_t hitters = 0;
  for (const Candidate& c : candidates_) {
    // Re-estimate from the counters: the stored count can be stale for a
    // candidate last touched before its frequency grew via Merge.
    if (static_cast<double>(EstimateBits(c.bits)) >= cutoff) ++hitters;
  }
  return hitters;
}

Status CountMin::Merge(const CountMin& other) {
  if (other.width_ != width_ || other.depth_ != depth_ ||
      other.capacity_ != capacity_) {
    return Status::InvalidArgument("CountMin merge shape mismatch");
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const std::uint64_t sum =
        std::uint64_t{counters_[i]} + other.counters_[i];
    counters_[i] = sum > UINT32_MAX ? UINT32_MAX
                                    : static_cast<std::uint32_t>(sum);
  }
  total_ += other.total_;
  // Union the candidate sets, re-estimate everything against the merged
  // counters, and keep the strongest `capacity_` (count desc, bits asc —
  // deterministic regardless of insertion history).
  std::vector<Candidate> merged;
  merged.reserve(candidates_.size() + other.candidates_.size());
  for (const Candidate& c : candidates_) {
    merged.push_back({c.bits, EstimateBits(c.bits)});
  }
  for (const Candidate& c : other.candidates_) {
    if (candidate_index_.find(c.bits) != candidate_index_.end()) continue;
    merged.push_back({c.bits, EstimateBits(c.bits)});
  }
  std::sort(merged.begin(), merged.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.bits < b.bits;
            });
  if (merged.size() > capacity_) merged.resize(capacity_);
  candidates_ = std::move(merged);
  candidate_index_.clear();
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    candidate_index_.emplace(candidates_[i].bits, i);
  }
  candidate_floor_ = 0;
  if (candidates_.size() == capacity_) RecomputeCandidateFloor();
  return Status::OK();
}

void CountMin::Clear() {
  std::fill(counters_.begin(), counters_.end(), 0);
  total_ = 0;
  candidates_.clear();
  candidate_index_.clear();
  candidate_floor_ = 0;
}

std::size_t CountMin::MemoryBytes() const {
  return counters_.size() * sizeof(std::uint32_t) +
         capacity_ * sizeof(Candidate);
}

void CountMin::SaveTo(Writer* writer) const {
  writer->U64(width_);
  writer->U64(depth_);
  writer->U64(capacity_);
  writer->U64(total_);
  for (std::uint32_t c : counters_) writer->U32(c);
  writer->U64(candidates_.size());
  for (const Candidate& c : candidates_) {
    writer->U64(c.bits);
    writer->U64(c.count);
  }
}

Status CountMin::RestoreFrom(Reader* reader) {
  std::uint64_t width = 0;
  std::uint64_t depth = 0;
  std::uint64_t capacity = 0;
  SD_RETURN_NOT_OK(reader->U64(&width));
  SD_RETURN_NOT_OK(reader->U64(&depth));
  SD_RETURN_NOT_OK(reader->U64(&capacity));
  if (width != width_ || depth != depth_ || capacity != capacity_) {
    return Status::InvalidArgument("CountMin snapshot shape mismatch");
  }
  SD_RETURN_NOT_OK(reader->U64(&total_));
  for (std::uint32_t& c : counters_) {
    SD_RETURN_NOT_OK(reader->U32(&c));
  }
  std::uint64_t num_candidates = 0;
  SD_RETURN_NOT_OK(reader->U64(&num_candidates));
  if (num_candidates > capacity_) {
    return Status::InvalidArgument("CountMin snapshot candidate overflow");
  }
  candidates_.clear();
  candidate_index_.clear();
  for (std::uint64_t i = 0; i < num_candidates; ++i) {
    Candidate c;
    SD_RETURN_NOT_OK(reader->U64(&c.bits));
    SD_RETURN_NOT_OK(reader->U64(&c.count));
    if (candidate_index_.find(c.bits) != candidate_index_.end()) {
      return Status::InvalidArgument(
          "CountMin snapshot duplicate candidate");
    }
    candidate_index_.emplace(c.bits, candidates_.size());
    candidates_.push_back(c);
  }
  candidate_floor_ = 0;
  if (candidates_.size() == capacity_) RecomputeCandidateFloor();
  return Status::OK();
}

}  // namespace stardust
