#include "core/summarizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "dwt/haar.h"
#include "dwt/mbr_transform.h"
#include "transform/feature.h"

namespace stardust {

StreamSummarizer::StreamSummarizer(const StardustConfig& config)
    : config_(config), raw_(config.history) {
  SD_CHECK(config_.Validate().ok());
  threads_.reserve(config_.num_levels);
  for (std::size_t j = 0; j < config_.num_levels; ++j) {
    threads_.emplace_back(config_.FeatureDims(), config_.box_capacity,
                          config_.LevelPeriod(j));
  }
  // See FlatRunEligible(): the capacity bound c <= base window guarantees
  // left-merge inputs are final by their merge's arrival time, which is
  // what lets RunLevelPass read them from the post-pass level thread.
  flat_eligible_ = config_.transform == TransformKind::kAggregate &&
                   !config_.exact_levels &&
                   config_.box_capacity <= config_.base_window;
  for (std::size_t j = 0; flat_eligible_ && j < config_.num_levels; ++j) {
    if (config_.LevelPeriod(j) != 1) flat_eligible_ = false;
  }
  // RunExactLevelPass eligibility: every level computes exactly from raw
  // (the per-level `exact` predicate of ComputeFeature holds at all j).
  exact_levels_only_ = true;
  for (std::size_t j = 0; j < config_.num_levels; ++j) {
    const bool exact =
        j == 0 || config_.exact_levels || config_.LevelPeriod(j) > 1;
    if (!exact) exact_levels_only_ = false;
  }
}

Status StreamSummarizer::GetWindow(std::uint64_t end_time, std::size_t length,
                                   std::vector<double>* out) const {
  if (length == 0) return Status::InvalidArgument("empty window");
  if (end_time >= raw_.size()) {
    return Status::OutOfRange("window ends in the future");
  }
  if (end_time + 1 < length) {
    return Status::OutOfRange("window starts before the stream");
  }
  const std::uint64_t start = end_time + 1 - length;
  if (start < raw_.first_position()) {
    return Status::OutOfRange("window has left the history of interest");
  }
  raw_.CopyWindow(start, length, out);
  return Status::OK();
}

Point StreamSummarizer::ExactFeatureFromRaw(
    std::vector<double>* window) const {
  if (config_.transform == TransformKind::kAggregate) {
    return AggregateExactFeature(config_.aggregate, *window);
  }
  NormalizeWindowInPlace(window, config_.normalization, config_.r_max);
  if (config_.normalization == Normalization::kZNorm) {
    // A z-normalized window has zero mean, so the leading (scaled-mean)
    // DWT coefficient is identically zero. Keeping it would waste one of
    // the f feature dimensions; use the f coefficients after it instead
    // (any orthonormal-coefficient subset preserves the lower-bound
    // property). StatStream's feature does the same by excluding the DC
    // term of the DFT. Implementation: reduce to the 2f-long
    // approximation vector (whose ordered DWT is the first 2f ordered
    // coefficients of the full transform), then read coefficients 1..f.
    const std::size_t f = config_.coefficients;
    HaarApproxInPlace(window, 2 * f);
    const std::vector<double> prefix = HaarDwt(*window);
    return Point(prefix.begin() + 1, prefix.begin() + 1 + f);
  }
  HaarApproxInPlace(window, config_.coefficients);
  return *window;
}

Result<Point> StreamSummarizer::ExactFeature(std::uint64_t end_time,
                                             std::size_t length) const {
  std::vector<double> window;
  const Status st = GetWindow(end_time, length, &window);
  if (!st.ok()) return st;
  return ExactFeatureFromRaw(&window);
}

void StreamSummarizer::SaveTo(Writer* writer) const {
  writer->U64(raw_.size());
  const std::uint64_t retained = raw_.size() - raw_.first_position();
  std::vector<double> tail;
  raw_.CopyWindow(raw_.first_position(), retained, &tail);
  writer->DoubleVector(tail);
  writer->U64(threads_.size());
  for (const LevelThread& thread : threads_) thread.SaveTo(writer);
}

Status StreamSummarizer::RestoreFrom(Reader* reader) {
  std::uint64_t total = 0;
  SD_RETURN_NOT_OK(reader->U64(&total));
  std::vector<double> tail;
  SD_RETURN_NOT_OK(reader->DoubleVector(&tail, config_.history));
  const std::uint64_t expected_tail =
      total < config_.history ? total : config_.history;
  if (tail.size() != expected_tail) {
    return Status::InvalidArgument("snapshot raw tail size mismatch");
  }
  raw_.RestoreTail(total, tail);
  std::uint64_t thread_count = 0;
  SD_RETURN_NOT_OK(reader->U64(&thread_count));
  if (thread_count != threads_.size()) {
    return Status::InvalidArgument("snapshot level count mismatch");
  }
  for (LevelThread& thread : threads_) {
    SD_RETURN_NOT_OK(thread.RestoreFrom(reader));
  }
  return Status::OK();
}

std::size_t StreamSummarizer::TotalBoxCount() const {
  std::size_t total = 0;
  for (const LevelThread& thread : threads_) total += thread.box_count();
  return total;
}

Mbr StreamSummarizer::ComputeFeature(std::size_t level, std::uint64_t t) {
  const std::size_t w = config_.LevelWindow(level);
  const bool exact = level == 0 || config_.exact_levels ||
                     config_.LevelPeriod(level) > 1;
  if (exact) {
    const Status st = GetWindow(t, w, &scratch_);
    SD_CHECK(st.ok());
    return Mbr::FromPoint(ExactFeatureFromRaw(&scratch_));
  }
  // Incremental path: merge the level-(j-1) boxes holding the features of
  // the two halves (Algorithm 1, else-branch).
  const std::size_t half = w / 2;
  const FeatureBox* left = threads_[level - 1].Find(t - half);
  const FeatureBox* right = threads_[level - 1].Find(t);
  SD_CHECK(left != nullptr && right != nullptr);
  if (config_.transform == TransformKind::kAggregate) {
    return AggregateMergeExtents(config_.aggregate, left->extent,
                                 right->extent);
  }
  // Unit-sphere normalization divides by √w·R_max; the doubled window
  // needs an extra 1/√2 relative to its halves.
  const double rescale = config_.normalization == Normalization::kUnitSphere
                             ? 1.0 / std::sqrt(2.0)
                             : 1.0;
  return MergeMbrHalvesHaar(left->extent, right->extent, rescale);
}

void StreamSummarizer::ComputeFeatureInto(std::size_t level, std::uint64_t t,
                                          Mbr* out) {
  const std::size_t w = config_.LevelWindow(level);
  const bool exact = level == 0 || config_.exact_levels ||
                     config_.LevelPeriod(level) > 1;
  if (exact) {
    const std::uint64_t start = t + 1 - w;
    SD_DCHECK(start >= linear_base_);
    SD_DCHECK(start - linear_base_ + w <= linear_.size());
    ExactFeatureIntoFromSpan(
        linear_.data() + static_cast<std::size_t>(start - linear_base_), w,
        out);
    return;
  }
  const std::size_t half = w / 2;
  const FeatureBox* left = threads_[level - 1].Find(t - half);
  const FeatureBox* right = threads_[level - 1].Find(t);
  SD_CHECK(left != nullptr && right != nullptr);
  if (config_.transform == TransformKind::kAggregate) {
    AggregateMergeExtentsInto(config_.aggregate, left->extent, right->extent,
                              out);
    return;
  }
  const double rescale = config_.normalization == Normalization::kUnitSphere
                             ? 1.0 / std::sqrt(2.0)
                             : 1.0;
  MergeMbrHalvesHaarInto(left->extent, right->extent, rescale, out);
}

void StreamSummarizer::ExactFeatureIntoFromSpan(const double* window,
                                                std::size_t w, Mbr* out) {
  if (config_.transform == TransformKind::kAggregate) {
    AggregateExactFeatureInto(config_.aggregate, window, w, out);
    return;
  }
  scratch_.assign(window, window + w);
  NormalizeWindowInPlace(&scratch_, config_.normalization, config_.r_max);
  if (config_.normalization == Normalization::kZNorm) {
    // Same coefficient selection as ExactFeatureFromRaw (skip the zero DC
    // term), via the allocation-free DWT.
    const std::size_t f = config_.coefficients;
    HaarApproxInPlace(&scratch_, 2 * f);
    HaarDwtInto(scratch_, &dwt_out_, &dwt_scratch_);
    out->AssignPoint(dwt_out_.data() + 1, f);
    return;
  }
  HaarApproxInPlace(&scratch_, config_.coefficients);
  out->AssignPoint(scratch_.data(), config_.coefficients);
}

void StreamSummarizer::BeginRun(const double* values, std::size_t n) {
  SD_DCHECK(run_n_ == 0);
  SD_CHECK(n > 0);
  const std::uint64_t t_begin = raw_.size();
  // Stage [oldest value any window of the run can reach, end of run) as
  // one contiguous buffer. The largest window ending at the first run
  // arrival starts max_w - 1 values back.
  const std::size_t max_w = config_.LevelWindow(config_.num_levels - 1);
  std::uint64_t tail_lo = 0;
  if (t_begin >= max_w) tail_lo = t_begin - (max_w - 1);
  if (tail_lo < raw_.first_position()) tail_lo = raw_.first_position();
  const std::size_t tail_n = static_cast<std::size_t>(t_begin - tail_lo);
  linear_.resize(tail_n + n);
  // Two-segment ring copy — no per-element modulo.
  raw_.CopySpanTo(tail_lo, tail_n, linear_.data());
  std::copy(values, values + n, linear_.begin() + tail_n);
  // The ring only feeds the linear buffer (already copied) during the run,
  // so the whole run can be committed to it up front in two segments.
  raw_.PushSpan(values, n);
  linear_base_ = tail_lo;
  run_first_t_ = t_begin;
  run_n_ = n;
}

void StreamSummarizer::AppendRunStep(std::size_t i,
                                     std::vector<BoxRef>* sealed) {
  SD_DCHECK(i < run_n_);
  const std::uint64_t t = run_first_t_ + i;
  // Identical per-arrival schedule to Append; only the feature kernels and
  // the (deferred) expiration differ.
  for (std::size_t j = 0; j < config_.num_levels; ++j) {
    const std::size_t w = config_.LevelWindow(j);
    if (t + 1 < w) break;  // higher levels have even larger windows
    if ((t + 1 - w) % config_.LevelPeriod(j) != 0) continue;
    ComputeFeatureInto(j, t, &feature_scratch_);
    const FeatureBox* sealed_box = threads_[j].Append(t, feature_scratch_);
    if (sealed_box != nullptr && sealed != nullptr) {
      sealed->push_back({j, sealed_box->extent, sealed_box->seq});
    }
  }
}

void StreamSummarizer::EndRun(std::vector<BoxRef>* expired) {
  SD_DCHECK(run_n_ > 0);
  // Deferred expiration: ExpireBefore removes exactly the boxes whose last
  // feature time falls below the final min_time, and min_time is monotonic
  // in t, so expiring once at the end removes the same boxes the
  // per-arrival calls would have (grouped by level here).
  const std::uint64_t end = run_first_t_ + run_n_;
  if (end > config_.history) {
    const std::uint64_t min_time = end - config_.history;
    for (std::size_t j = 0; j < config_.num_levels; ++j) {
      threads_[j].ExpireBeforeFast(min_time, [&](const FeatureBox& box) {
        if (expired != nullptr) {
          expired->push_back({j, box.extent, box.seq});
        }
      });
    }
  }
  run_n_ = 0;
}

void StreamSummarizer::RunLevelPass(std::vector<BoxRef>* sealed) {
  SD_DCHECK(run_n_ > 0);
  SD_DCHECK(flat_eligible_);
  const std::size_t dims = config_.FeatureDims();
  const std::size_t n = run_n_;
  if (run_ring_lo_.size() != config_.num_levels) {
    run_ring_lo_.resize(config_.num_levels);
    run_ring_hi_.resize(config_.num_levels);
  }
  const AggregateKind kind = config_.aggregate;
  for (std::size_t j = 0; j < config_.num_levels; ++j) {
    const std::size_t w = config_.LevelWindow(j);
    // First run position whose arrival time satisfies t + 1 >= w; under
    // the uniform period-1 schedule every later arrival fires too.
    std::size_t i0 = 0;
    if (run_first_t_ + 1 < w) {
      const std::uint64_t skip = w - 1 - run_first_t_;
      if (skip >= n) break;  // higher levels have even larger windows
      i0 = static_cast<std::size_t>(skip);
    }
    run_ring_lo_[j].resize(n * dims);
    run_ring_hi_[j].resize(n * dims);
    double* ring_lo = run_ring_lo_[j].data();
    double* ring_hi = run_ring_hi_[j].data();
    LevelThread& thread = threads_[j];
    double flo[2], fhi[2];
    if (j == 0) {
      // Exact features: each window is a contiguous span of linear_,
      // sliding one value per arrival.
      const double* span =
          linear_.data() +
          static_cast<std::size_t>(run_first_t_ + i0 + 1 - w - linear_base_);
      for (std::size_t i = i0; i < n; ++i, ++span) {
        const std::uint64_t t = run_first_t_ + i;
        AggregateExactFeatureSpans(kind, span, w, flo, fhi);
        const FeatureBox* sealed_box =
            thread.AppendSpans(t, flo, fhi, ring_lo + i * dims,
                               ring_hi + i * dims);
        if (sealed_box != nullptr && sealed != nullptr) {
          sealed->push_back({j, sealed_box->extent, sealed_box->seq});
        }
      }
      continue;
    }
    // Incremental levels: left input is the level-(j-1) box covering
    // t - w/2 — final by arrival t (see FlatRunEligible), so the
    // post-pass thread's extent is exactly what the arrival-major merge
    // read. Right input is level-(j-1)'s as-of snapshot for position i.
    // The left box advances every `capacity` arrivals; a countdown
    // cursor avoids re-running Find's index arithmetic per arrival.
    const std::size_t half = w / 2;
    const LevelThread& prev = threads_[j - 1];
    const double* prev_lo = run_ring_lo_[j - 1].data();
    const double* prev_hi = run_ring_hi_[j - 1].data();
    const std::size_t cap = prev.capacity();
    const std::uint64_t anchor = prev.anchor_time();
    const FeatureBox* left = nullptr;
    std::size_t left_remaining = 0;
    for (std::size_t i = i0; i < n; ++i) {
      const std::uint64_t t = run_first_t_ + i;
      if (left_remaining == 0) {
        const std::uint64_t tl = t - half;
        left = prev.Find(tl);
        SD_CHECK(left != nullptr);
        left_remaining = cap - static_cast<std::size_t>((tl - anchor) % cap);
      }
      --left_remaining;
      AggregateMergeExtentSpans(kind, left->extent.lo().data(),
                                left->extent.hi().data(), prev_lo + i * dims,
                                prev_hi + i * dims, flo, fhi);
      const FeatureBox* sealed_box = thread.AppendSpans(
          t, flo, fhi, ring_lo + i * dims, ring_hi + i * dims);
      if (sealed_box != nullptr && sealed != nullptr) {
        sealed->push_back({j, sealed_box->extent, sealed_box->seq});
      }
    }
  }
}

void StreamSummarizer::RunExactLevelPass(std::vector<BoxRef>* sealed) {
  SD_DCHECK(run_n_ > 0);
  SD_DCHECK(exact_levels_only_);
  const std::size_t n = run_n_;
  for (std::size_t j = 0; j < config_.num_levels; ++j) {
    const std::size_t w = config_.LevelWindow(j);
    const std::size_t period = config_.LevelPeriod(j);
    // First firing position: the first i with t + 1 >= w and
    // (t + 1 - w) % period == 0 (at t + 1 == w the offset is 0, so the
    // level always fires there first).
    std::size_t i = 0;
    if (run_first_t_ + 1 < w) {
      const std::uint64_t skip = w - 1 - run_first_t_;
      if (skip >= n) break;  // higher levels have even larger windows
      i = static_cast<std::size_t>(skip);
    } else {
      const std::uint64_t rem = (run_first_t_ + 1 - w) % period;
      if (rem != 0) {
        const std::uint64_t skip = period - rem;
        if (skip >= n) continue;  // other levels may still fire this run
        i = static_cast<std::size_t>(skip);
      }
    }
    LevelThread& thread = threads_[j];
    for (; i < n; i += period) {
      const std::uint64_t t = run_first_t_ + i;
      ExactFeatureIntoFromSpan(
          linear_.data() + static_cast<std::size_t>(t + 1 - w - linear_base_),
          w, &feature_scratch_);
      const FeatureBox* sealed_box = thread.Append(t, feature_scratch_);
      if (sealed_box != nullptr && sealed != nullptr) {
        sealed->push_back({j, sealed_box->extent, sealed_box->seq});
      }
    }
  }
}

void StreamSummarizer::AppendRun(const double* values, std::size_t n,
                                 std::vector<BoxRef>* sealed,
                                 std::vector<BoxRef>* expired) {
  if (n == 0) return;
  BeginRun(values, n);
  if (flat_eligible_) {
    RunLevelPass(sealed);
  } else if (exact_levels_only_) {
    RunExactLevelPass(sealed);
  } else {
    for (std::size_t i = 0; i < n; ++i) AppendRunStep(i, sealed);
  }
  EndRun(expired);
}

void StreamSummarizer::Append(double value, std::vector<BoxRef>* sealed,
                              std::vector<BoxRef>* expired) {
  raw_.Push(value);
  const std::uint64_t t = raw_.size() - 1;
  for (std::size_t j = 0; j < config_.num_levels; ++j) {
    const std::size_t w = config_.LevelWindow(j);
    if (t + 1 < w) break;  // higher levels have even larger windows
    if ((t + 1 - w) % config_.LevelPeriod(j) != 0) continue;
    const Mbr feature = ComputeFeature(j, t);
    const FeatureBox* sealed_box = threads_[j].Append(t, feature);
    if (sealed_box != nullptr && sealed != nullptr) {
      sealed->push_back({j, sealed_box->extent, sealed_box->seq});
    }
    if (t + 1 > config_.history) {
      const std::uint64_t min_time = t + 1 - config_.history;
      threads_[j].ExpireBeforeFast(min_time, [&](const FeatureBox& box) {
        if (expired != nullptr) {
          expired->push_back({j, box.extent, box.seq});
        }
      });
    }
  }
}

}  // namespace stardust
