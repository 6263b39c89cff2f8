#include "core/summarizer.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "dwt/haar.h"
#include "dwt/mbr_transform.h"
#include "transform/feature.h"

namespace stardust {

StreamSummarizer::StreamSummarizer(const StardustConfig& config,
                                   RunScratch* scratch)
    : config_(config), raw_(config.history), run_(scratch) {
  SD_CHECK(config_.Validate().ok());
  if (run_ == nullptr) {
    own_run_ = std::make_unique<RunScratch>();
    run_ = own_run_.get();
  }
  threads_.reserve(config_.num_levels);
  for (std::size_t j = 0; j < config_.num_levels; ++j) {
    threads_.emplace_back(config_.FeatureDims(), config_.box_capacity,
                          config_.LevelPeriod(j));
  }
  // See FlatRunEligible(): the capacity bound c <= base window guarantees
  // left-merge inputs are final by their merge's arrival time, which is
  // what lets RunLevelPass read them from the post-pass level thread.
  flat_eligible_ = !config_.exact_levels &&
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
  for (std::size_t j = 0; j < threads_.size(); ++j) {
    LevelThread& thread = threads_[j];
    SD_RETURN_NOT_OK(thread.RestoreFrom(reader));
    // Level j fires at t = w - 1, w - 1 + T_j, ...: `total` values imply
    // its feature count, hence its anchor, its number of opened boxes and
    // its last feature time. A thread that disagrees would make the next
    // append look up boxes that are not there, or never expire.
    const std::uint64_t w = config_.LevelWindow(j);
    const std::uint64_t period = config_.LevelPeriod(j);
    const std::uint64_t features = total < w ? 0 : (total - w) / period + 1;
    const std::uint64_t c = config_.box_capacity;
    const std::uint64_t boxes = features / c + (features % c != 0 ? 1 : 0);
    const bool consistent =
        features == 0
            ? !thread.has_first()
            : thread.has_first() && thread.anchor_time() == w - 1 &&
                  thread.next_seq() == boxes &&
                  (thread.empty() ||
                   thread.last_time() == w - 1 + (features - 1) * period);
    if (!consistent) {
      return Status::InvalidArgument(
          "snapshot level " + std::to_string(j) +
          " does not match the raw tail's count");
    }
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
    const Status st = GetWindow(t, w, &run_->window);
    SD_CHECK(st.ok());
    return Mbr::FromPoint(ExactFeatureFromRaw(&run_->window));
  }
  Mbr feature;
  MergeHalvesInto(level, t, &feature);
  return feature;
}

void StreamSummarizer::ComputeFeatureInto(std::size_t level, std::uint64_t t,
                                          Mbr* out) {
  const std::size_t w = config_.LevelWindow(level);
  const bool exact = level == 0 || config_.exact_levels ||
                     config_.LevelPeriod(level) > 1;
  if (!exact) {
    MergeHalvesInto(level, t, out);
    return;
  }
  const std::uint64_t start = t + 1 - w;
  SD_DCHECK(start >= linear_base_);
  SD_DCHECK(start - linear_base_ + w <= run_->linear.size());
  const std::size_t dims = config_.FeatureDims();
  out->mutable_lo().resize(dims);
  out->mutable_hi().resize(dims);
  ExactFeatures(
      run_->linear.data() + static_cast<std::size_t>(start - linear_base_), w,
      1, out->mutable_lo().data(), out->mutable_hi().data());
}

void StreamSummarizer::MergeHalvesInto(std::size_t level, std::uint64_t t,
                                       Mbr* out) const {
  // Incremental path: merge the level-(j-1) boxes holding the features of
  // the two halves (Algorithm 1, else-branch).
  const std::size_t half = config_.LevelWindow(level) / 2;
  const LevelThread& prev = threads_[level - 1];
  const FeatureBox* left = prev.Find(t - half);
  const FeatureBox* right = prev.Find(t);
  SD_CHECK(left != nullptr && right != nullptr);
  const std::size_t dims = config_.FeatureDims();
  out->mutable_lo().resize(dims);
  out->mutable_hi().resize(dims);
  MergeHalvesSpans(prev.Lo(*left), prev.Hi(*left), prev.Lo(*right),
                   prev.Hi(*right), out->mutable_lo().data(),
                   out->mutable_hi().data());
}

void StreamSummarizer::MergeHalvesSpans(const double* left_lo,
                                        const double* left_hi,
                                        const double* right_lo,
                                        const double* right_hi,
                                        double* out_lo, double* out_hi) const {
  if (config_.transform == TransformKind::kAggregate) {
    AggregateMergeExtentSpans(config_.aggregate, left_lo, left_hi, right_lo,
                              right_hi, out_lo, out_hi);
    return;
  }
  // Unit-sphere normalization divides by √w·R_max; the doubled window
  // needs an extra 1/√2 relative to its halves.
  const double rescale = config_.normalization == Normalization::kUnitSphere
                             ? 1.0 / std::sqrt(2.0)
                             : 1.0;
  MergeHalvesHaarSpans(left_lo, left_hi, right_lo, right_hi,
                       config_.coefficients, rescale, out_lo, out_hi);
}

void StreamSummarizer::ExactFeatures(const double* window, std::size_t w,
                                     std::size_t count, double* lo,
                                     double* hi) {
  const std::size_t dims = config_.FeatureDims();
  if (config_.transform == TransformKind::kAggregate) {
    for (std::size_t k = 0; k < count; ++k) {
      AggregateExactFeatureSpans(config_.aggregate, window + k, w,
                                 lo + k * dims, hi + k * dims);
    }
    return;
  }
  std::vector<double>& x = run_->window;
  const std::size_t f = config_.coefficients;
  if (config_.normalization == Normalization::kZNorm) {
    for (std::size_t k = 0; k < count; ++k) {
      // Same coefficient selection as ExactFeatureFromRaw (skip the zero
      // DC term), via the allocation-free DWT.
      x.assign(window + k, window + k + w);
      NormalizeWindowInPlace(&x, config_.normalization, config_.r_max);
      HaarApproxInPlace(&x, 2 * f);
      HaarDwtInto(x, &run_->dwt_out, &run_->dwt_scratch);
      std::copy_n(run_->dwt_out.data() + 1, f, lo + k * dims);
      std::copy_n(run_->dwt_out.data() + 1, f, hi + k * dims);
    }
    return;
  }
  // Unit-sphere normalization multiplies every value by one factor per
  // window length (NormalizeWindowInPlace's), so it is computed once;
  // without normalization the factor is 1, which multiplies exactly. The
  // Haar halving then runs in place on the scaled copy.
  const double scale = config_.normalization == Normalization::kUnitSphere
                           ? UnitSphereScale(w, config_.r_max)
                           : 1.0;
  x.resize(w);
  double* scaled = x.data();
  for (std::size_t k = 0; k < count; ++k) {
    const double* in = window + k;
    for (std::size_t i = 0; i < w; ++i) scaled[i] = in[i] * scale;
    HaarApproxSpan(scaled, w, f);
    std::copy_n(scaled, f, lo + k * dims);
    std::copy_n(scaled, f, hi + k * dims);
  }
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
  AlignedVector<double>& linear = run_->linear;
  linear.resize(tail_n + n);
  // Two-segment ring copy — no per-element modulo.
  raw_.CopySpanTo(tail_lo, tail_n, linear.data());
  std::copy(values, values + n, linear.begin() + tail_n);
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
    ComputeFeatureInto(j, t, &run_->feature);
    const FeatureBox* sealed_box = threads_[j].Append(t, run_->feature);
    if (sealed_box != nullptr && sealed != nullptr) {
      sealed->push_back(
          {j, threads_[j].Extent(*sealed_box).ToMbr(), sealed_box->seq});
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
      LevelThread& thread = threads_[j];
      thread.ExpireBeforeFast(min_time, [&](const FeatureBox& box) {
        if (expired != nullptr) {
          expired->push_back({j, thread.Extent(box).ToMbr(), box.seq});
        }
      });
    }
  }
  run_n_ = 0;
}

void StreamSummarizer::RunLevelPass(std::vector<BoxRef>* sealed) {
  SD_DCHECK(run_n_ > 0);
  SD_DCHECK(flat_eligible_);
  RunScratch& run = *run_;
  const std::size_t dims = config_.FeatureDims();
  const std::size_t n = run_n_;
  if (run.ring_lo.size() < config_.num_levels) {
    run.ring_lo.resize(config_.num_levels);
    run.ring_hi.resize(config_.num_levels);
  }
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
    run.ring_lo[j].resize(n * dims);
    run.ring_hi[j].resize(n * dims);
    double* ring_lo = run.ring_lo[j].data();
    double* ring_hi = run.ring_hi[j].data();
    // The level's features go into its ring first; the append below then
    // turns each into the as-of extent of its box.
    if (j == 0) {
      // Exact features: each window is a contiguous span of the staged
      // run, sliding one value per arrival.
      const double* span =
          run.linear.data() +
          static_cast<std::size_t>(run_first_t_ + i0 + 1 - w - linear_base_);
      ExactFeatures(span, w, n - i0, ring_lo + i0 * dims,
                    ring_hi + i0 * dims);
    } else {
      // Incremental levels: left input is the level-(j-1) box covering
      // t - w/2 — final by arrival t (see FlatRunEligible), so the
      // post-pass thread's extent is exactly what the arrival-major merge
      // read; a cursor steps it one feature time per arrival. Right input
      // is level-(j-1)'s as-of snapshot for position i.
      const std::size_t half = w / 2;
      const double* prev_lo = run.ring_lo[j - 1].data();
      const double* prev_hi = run.ring_hi[j - 1].data();
      LevelThread::Cursor left;
      SD_CHECK(threads_[j - 1].CursorAt(run_first_t_ + i0 - half, &left));
      for (std::size_t i = i0; i < n; ++i) {
        MergeHalvesSpans(left.lo(), left.hi(), prev_lo + i * dims,
                         prev_hi + i * dims, ring_lo + i * dims,
                         ring_hi + i * dims);
        // Feature time t - half + 1 <= t is in the post-pass thread.
        left.Next();
      }
    }
    LevelThread& thread = threads_[j];
    thread.AppendRunInPlace(
        run_first_t_ + i0, n - i0, ring_lo + i0 * dims, ring_hi + i0 * dims,
        [&](const FeatureBox& box) {
          if (sealed != nullptr) {
            sealed->push_back({j, thread.Extent(box).ToMbr(), box.seq});
          }
        });
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
      ComputeFeatureInto(j, t, &run_->feature);
      const FeatureBox* sealed_box = thread.Append(t, run_->feature);
      if (sealed_box != nullptr && sealed != nullptr) {
        sealed->push_back(
            {j, thread.Extent(*sealed_box).ToMbr(), sealed_box->seq});
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
    LevelThread& thread = threads_[j];
    const Mbr feature = ComputeFeature(j, t);
    const FeatureBox* sealed_box = thread.Append(t, feature);
    if (sealed_box != nullptr && sealed != nullptr) {
      sealed->push_back(
          {j, thread.Extent(*sealed_box).ToMbr(), sealed_box->seq});
    }
    if (t + 1 > config_.history) {
      const std::uint64_t min_time = t + 1 - config_.history;
      thread.ExpireBeforeFast(min_time, [&](const FeatureBox& box) {
        if (expired != nullptr) {
          expired->push_back({j, thread.Extent(box).ToMbr(), box.seq});
        }
      });
    }
  }
}

}  // namespace stardust
