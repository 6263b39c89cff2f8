#include "core/stardust.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace stardust {

Result<std::unique_ptr<Stardust>> Stardust::Create(
    const StardustConfig& config) {
  const Status st = config.Validate();
  if (!st.ok()) return st;
  return std::unique_ptr<Stardust>(new Stardust(config));
}

Stardust::Stardust(const StardustConfig& config)
    : config_(config),
      run_scratch_(std::make_unique<RunScratch>()),
      indexed_levels_(config.num_levels, true),
      any_indexed_(config.index_features) {
  if (config_.index_features) {
    indexes_.reserve(config_.num_levels);
    for (std::size_t j = 0; j < config_.num_levels; ++j) {
      indexes_.push_back(
          std::make_unique<RTree>(config_.FeatureDims(), RTreeOptions{}));
    }
  }
}

StreamId Stardust::AddStream() {
  streams_.push_back(
      std::make_unique<StreamSummarizer>(config_, run_scratch_.get()));
  return static_cast<StreamId>(streams_.size() - 1);
}

Status Stardust::ResetStream(StreamId stream) {
  if (stream >= streams_.size()) {
    return Status::InvalidArgument("unknown stream");
  }
  streams_[stream] =
      std::make_unique<StreamSummarizer>(config_, run_scratch_.get());
  if (any_indexed_) return RebuildIndexes();
  return Status::OK();
}

Status Stardust::Append(StreamId stream, double value) {
  if (stream >= streams_.size()) {
    return Status::InvalidArgument("unknown stream");
  }
  if (!std::isfinite(value)) {
    // A NaN/Inf would silently poison every box it is merged into.
    return Status::InvalidArgument("stream values must be finite");
  }
  if (!any_indexed_) {
    // No level index consumes the deltas: skip collecting them (each
    // BoxRef copies a box extent, measurable per tuple at c == 1).
    streams_[stream]->Append(value, nullptr, nullptr);
    return Status::OK();
  }
  sealed_scratch_.clear();
  expired_scratch_.clear();
  streams_[stream]->Append(value, &sealed_scratch_, &expired_scratch_);
  return ApplyRunIndexDeltas(stream, sealed_scratch_, expired_scratch_);
}

Status Stardust::AppendRun(StreamId stream, const double* values,
                           std::size_t n) {
  if (n == 0) return Status::OK();
  if (stream >= streams_.size()) {
    return Status::InvalidArgument("unknown stream");
  }
  if (n <= ScalarRunCutoff()) {
    // Cost-based dispatch: short runs never pay the staged-run setup.
    // Append also handles non-finite values, so the scan below is skipped.
    for (std::size_t i = 0; i < n; ++i) {
      SD_RETURN_NOT_OK(Append(stream, values[i]));
    }
    return Status::OK();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      // Fall back to the per-value path: the prefix before the bad value
      // is applied and the error surfaces on exactly the value Append
      // would have rejected. (The engine pre-splits runs at non-finite
      // values, so this is a correctness net, not a hot path.)
      for (std::size_t k = 0; k < n; ++k) {
        SD_RETURN_NOT_OK(Append(stream, values[k]));
      }
      SD_CHECK(false);  // the scan saw a non-finite value; Append rejects it
    }
  }
  const bool indexed = any_indexed_;
  sealed_scratch_.clear();
  expired_scratch_.clear();
  streams_[stream]->AppendRun(values, n, indexed ? &sealed_scratch_ : nullptr,
                              indexed ? &expired_scratch_ : nullptr);
  return ApplyRunIndexDeltas(stream, sealed_scratch_, expired_scratch_);
}

Status Stardust::ApplyRunIndexDeltas(StreamId stream,
                                     const std::vector<BoxRef>& sealed,
                                     const std::vector<BoxRef>& expired) {
  if (!config_.index_features) return Status::OK();
  if (sealed.empty() && expired.empty()) return Status::OK();
  // Steady state seals one box per expired box per level, so pair the
  // k-th expired box with the k-th sealed box of the same level and
  // replace the record in place: the tree keeps its shape and none of
  // the Delete condense / Insert overflow churn happens. Leftovers
  // (warm-up seals before anything expires, shrink-only runs) fall back
  // to plain Insert/Delete.
  for (std::size_t level = 0; level < config_.num_levels; ++level) {
    if (!indexed_levels_[level]) continue;
    // A level's sealed and expired boxes each come in ascending seq. A
    // run longer than `history` can seal a box and expire it again; such
    // a box (seq >= the run's first seal, <= its last expiry) never
    // entered the index, so it is dropped from both lists. Every expired
    // box left predates the run, and with it its record.
    std::uint64_t first_sealed = std::numeric_limits<std::uint64_t>::max();
    for (const BoxRef& box : sealed) {
      if (box.level == level) {
        first_sealed = box.seq;
        break;
      }
    }
    bool any_expired = false;
    std::uint64_t last_expired = 0;
    for (const BoxRef& box : expired) {
      if (box.level != level) continue;
      any_expired = true;
      last_expired = box.seq;
    }
    const auto skip_sealed = [&](const BoxRef& box) {
      return box.level != level ||
             (any_expired && box.seq <= last_expired);
    };
    const auto skip_expired = [&](const BoxRef& box) {
      return box.level != level || box.seq >= first_sealed;
    };
    std::size_t si = 0;
    std::size_t ei = 0;
    for (;;) {
      while (si < sealed.size() && skip_sealed(sealed[si])) ++si;
      while (ei < expired.size() && skip_expired(expired[ei])) ++ei;
      const bool have_sealed = si < sealed.size();
      const bool have_expired = ei < expired.size();
      if (have_sealed && have_expired) {
        SD_RETURN_NOT_OK(indexes_[level]->Update(
            expired[ei].extent, MakeRecordId(stream, expired[ei].seq),
            sealed[si].extent, MakeRecordId(stream, sealed[si].seq)));
        ++si;
        ++ei;
      } else if (have_sealed) {
        SD_RETURN_NOT_OK(indexes_[level]->Insert(
            sealed[si].extent, MakeRecordId(stream, sealed[si].seq)));
        ++si;
      } else if (have_expired) {
        SD_RETURN_NOT_OK(indexes_[level]->Delete(
            expired[ei].extent, MakeRecordId(stream, expired[ei].seq)));
        ++ei;
      } else {
        break;
      }
    }
  }
  return Status::OK();
}

Status Stardust::RebuildLevelIndex(std::size_t level) {
  indexes_[level] =
      std::make_unique<RTree>(config_.FeatureDims(), RTreeOptions{});
  Status status = Status::OK();
  for (StreamId s = 0; s < streams_.size(); ++s) {
    const LevelThread& thread = streams_[s]->thread(level);
    thread.ForEachBox([&](const FeatureBox& box) {
      if (!box.sealed || !status.ok()) return;
      const Status st = indexes_[level]->Insert(thread.Extent(box).ToMbr(),
                                                MakeRecordId(s, box.seq));
      if (!st.ok()) status = st;
    });
  }
  return status;
}

Status Stardust::SetIndexedLevels(const std::vector<bool>& mask) {
  if (!config_.index_features) {
    return Status::InvalidArgument(
        "SetIndexedLevels requires index_features");
  }
  if (mask.size() != config_.num_levels) {
    return Status::InvalidArgument("indexed-level mask size mismatch");
  }
  for (std::size_t level = 0; level < config_.num_levels; ++level) {
    if (mask[level] == indexed_levels_[level]) continue;
    if (mask[level]) {
      // Turning on: rebuild from the live sealed boxes so probes see the
      // same records per-tuple maintenance would have accumulated.
      SD_RETURN_NOT_OK(RebuildLevelIndex(level));
    } else {
      indexes_[level] =
          std::make_unique<RTree>(config_.FeatureDims(), RTreeOptions{});
    }
    indexed_levels_[level] = mask[level];
  }
  any_indexed_ = false;
  for (std::size_t level = 0; level < config_.num_levels; ++level) {
    if (indexed_levels_[level]) any_indexed_ = true;
  }
  return Status::OK();
}

Status Stardust::RebuildIndexes() {
  if (!config_.index_features) return Status::OK();
  for (std::size_t j = 0; j < config_.num_levels; ++j) {
    if (indexed_levels_[j]) {
      SD_RETURN_NOT_OK(RebuildLevelIndex(j));
    } else {
      indexes_[j] =
          std::make_unique<RTree>(config_.FeatureDims(), RTreeOptions{});
    }
  }
  return Status::OK();
}

Result<ScalarInterval> Stardust::AggregateInterval(StreamId stream,
                                                   std::size_t window) const {
  // now() == 0 makes end_time wrap; end_time + 1 wraps back to 0 inside
  // AggregateIntervalAt's length check, so the short-stream error is still
  // reported before any box lookup.
  Mbr extent;
  const std::uint64_t end_time =
      stream < streams_.size() ? streams_[stream]->now() - 1 : 0;
  return AggregateIntervalAt(stream, window, end_time, &extent);
}

Result<ScalarInterval> Stardust::AggregateIntervalAt(
    StreamId stream, std::size_t window, std::uint64_t end_time,
    Mbr* extent_scratch) const {
  if (stream >= streams_.size()) {
    return Status::InvalidArgument("unknown stream");
  }
  if (config_.transform != TransformKind::kAggregate) {
    return Status::FailedPrecondition(
        "aggregate queries require an aggregate transform");
  }
  const std::size_t w_base = config_.base_window;
  if (window == 0 || window % w_base != 0) {
    return Status::InvalidArgument(
        "query window must be a positive multiple of the base window");
  }
  const std::size_t b = window / w_base;
  if (b >> config_.num_levels != 0) {
    return Status::InvalidArgument(
        "query window exceeds the largest indexed resolution");
  }
  const StreamSummarizer& summarizer = *streams_[stream];
  if (end_time + 1 < window) {
    return Status::OutOfRange("stream shorter than the query window");
  }
  // Algorithm 2: walk the ones of b from the least significant bit; the
  // smallest sub-window is anchored at the most recent data.
  std::uint64_t t = end_time;
  Mbr& extent = *extent_scratch;
  bool first = true;
  for (std::size_t j = 0; j < config_.num_levels; ++j) {
    if (((b >> j) & 1) == 0) continue;
    const LevelThread& thread = summarizer.thread(j);
    const FeatureBox* box = thread.Find(t);
    if (box == nullptr) {
      return Status::OutOfRange("sub-aggregate not available at level " +
                                std::to_string(j));
    }
    const double* lo = thread.Lo(*box);
    const double* hi = thread.Hi(*box);
    if (first) {
      const std::size_t dims = config_.FeatureDims();
      extent.mutable_lo().assign(lo, lo + dims);
      extent.mutable_hi().assign(hi, hi + dims);
      first = false;
    } else {
      Point& acc_lo = extent.mutable_lo();
      Point& acc_hi = extent.mutable_hi();
      AggregateMergeExtentSpans(config_.aggregate, lo, hi, acc_lo.data(),
                                acc_hi.data(), acc_lo.data(), acc_hi.data());
    }
    t -= config_.LevelWindow(j);
  }
  SD_DCHECK(!first);
  return AggregateScalarBound(config_.aggregate, extent);
}

Result<Stardust::AggregateAnswer> Stardust::AggregateQuery(
    StreamId stream, std::size_t window, double threshold) const {
  Result<ScalarInterval> interval = AggregateInterval(stream, window);
  if (!interval.ok()) return interval.status();
  AggregateAnswer answer;
  answer.approx = interval.value();
  answer.exact = std::numeric_limits<double>::quiet_NaN();
  if (answer.approx.hi < threshold) return answer;
  answer.candidate = true;
  // Verification: retrieve the most recent subsequence of length w and
  // compute the true aggregate (Algorithm 2's post-check).
  const StreamSummarizer& summarizer = *streams_[stream];
  Result<Point> feature =
      summarizer.ExactFeature(summarizer.now() - 1, window);
  if (!feature.ok()) return feature.status();
  answer.exact = AggregateScalar(config_.aggregate, feature.value());
  answer.alarm = answer.exact >= threshold;
  return answer;
}

}  // namespace stardust
