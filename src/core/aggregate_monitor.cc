#include "core/aggregate_monitor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "transform/aggregate.h"

namespace stardust {

namespace {

std::vector<std::size_t> WindowSizes(
    const std::vector<WindowThreshold>& thresholds) {
  std::vector<std::size_t> out;
  out.reserve(thresholds.size());
  for (const auto& wt : thresholds) out.push_back(wt.window);
  return out;
}

}  // namespace

Result<std::unique_ptr<AggregateMonitor>> AggregateMonitor::Create(
    const StardustConfig& config, std::vector<WindowThreshold> thresholds) {
  if (thresholds.empty()) {
    return Status::InvalidArgument("no windows to monitor");
  }
  SD_RETURN_NOT_OK(Validate(config, thresholds));
  Result<std::unique_ptr<Stardust>> core = Stardust::Create(config);
  if (!core.ok()) return core.status();
  return std::unique_ptr<AggregateMonitor>(new AggregateMonitor(
      std::move(core).value(), std::move(thresholds)));
}

Status AggregateMonitor::Validate(
    const StardustConfig& config,
    const std::vector<WindowThreshold>& thresholds) {
  SD_RETURN_NOT_OK(config.Validate());
  if (config.transform != TransformKind::kAggregate) {
    return Status::InvalidArgument(
        "aggregate monitoring requires an aggregate transform");
  }
  if (config.update_period != 1 ||
      config.update_schedule != UpdateSchedule::kUniform) {
    // Algorithm 2 composes sub-aggregates for every current time; strided
    // schedules only have features at aligned times.
    return Status::InvalidArgument(
        "continuous aggregate monitoring requires the online algorithm "
        "(uniform T == 1)");
  }
  for (const auto& wt : thresholds) {
    if (wt.window == 0 || wt.window % config.base_window != 0) {
      return Status::InvalidArgument(
          "window sizes must be positive multiples of the base window");
    }
    const std::size_t b = wt.window / config.base_window;
    if (b >> config.num_levels != 0) {
      return Status::InvalidArgument(
          "window too large for the configured number of levels");
    }
    if (wt.window > config.history) {
      return Status::InvalidArgument("window exceeds the history");
    }
  }
  return Status::OK();
}

AggregateMonitor::AggregateMonitor(std::unique_ptr<Stardust> stardust,
                                   std::vector<WindowThreshold> thresholds)
    : stardust_(std::move(stardust)),
      thresholds_(std::move(thresholds)),
      tracker_(stardust_->config().aggregate, WindowSizes(thresholds_)),
      stats_(thresholds_.size()) {
  stream_ = stardust_->AddStream();
}

Status AggregateMonitor::Append(double value) {
  SD_RETURN_NOT_OK(stardust_->Append(stream_, value));
  tracker_.Push(value);
  for (std::size_t i = 0; i < thresholds_.size(); ++i) {
    if (!tracker_.Ready(i)) continue;
    Result<ScalarInterval> interval =
        stardust_->AggregateInterval(stream_, thresholds_[i].window);
    if (!interval.ok()) return interval.status();
    AlarmStats& stats = stats_[i];
    ++stats.checks;
    if (interval.value().hi < thresholds_[i].threshold) continue;
    ++stats.candidates;
    if (tracker_.Current(i) >= thresholds_[i].threshold) {
      ++stats.true_alarms;
    }
  }
  return Status::OK();
}

Status AggregateMonitor::AppendRun(const double* values, std::size_t n) {
  if (n == 0) return Status::OK();
  if (n <= Stardust::ScalarRunCutoff()) {
    // Cost-based dispatch: short runs never pay the staged-run setup
    // (see Stardust::ScalarRunCutoff). Append also rejects non-finite
    // values with the same per-value error, so no pre-scan is needed.
    for (std::size_t i = 0; i < n; ++i) {
      SD_RETURN_NOT_OK(Append(values[i]));
    }
    return Status::OK();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(values[i])) {
      // Per-value fallback: the prefix before the bad value is applied and
      // the error surfaces on exactly the value Append would reject.
      for (std::size_t k = 0; k < n; ++k) {
        SD_RETURN_NOT_OK(Append(values[k]));
      }
      SD_CHECK(false);  // unreachable: Append rejects the non-finite value
    }
  }
  const bool indexed = stardust_->config().index_features;
  StreamSummarizer* summarizer = stardust_->mutable_summarizer(stream_);
  run_sealed_.clear();
  run_expired_.clear();
  summarizer->BeginRun(values, n);
  if (summarizer->FlatRunEligible()) {
    // Two-phase form: all maintenance first (level-major, recording the
    // as-of extent rings), then the per-arrival checks composed from the
    // rings — same checks against the same values as the interleaved
    // loop below, with the per-arrival level dispatch amortized away.
    summarizer->RunLevelPass(indexed ? &run_sealed_ : nullptr);
    const Status checks = RunChecksFlat(*summarizer, values, n);
    summarizer->EndRun(indexed ? &run_expired_ : nullptr);
    SD_RETURN_NOT_OK(checks);
    return stardust_->ApplyRunIndexDeltas(stream_, run_sealed_,
                                          run_expired_);
  }
  for (std::size_t i = 0; i < n; ++i) {
    summarizer->AppendRunStep(i, indexed ? &run_sealed_ : nullptr);
    tracker_.Push(values[i]);
    const std::uint64_t t = summarizer->RunTime(i);
    for (std::size_t w = 0; w < thresholds_.size(); ++w) {
      if (!tracker_.Ready(w)) continue;
      // Same check as Append, composed at this arrival's time (now()
      // already reflects the whole staged run).
      Result<ScalarInterval> interval = stardust_->AggregateIntervalAt(
          stream_, thresholds_[w].window, t, &extent_scratch_);
      if (!interval.ok()) {
        summarizer->EndRun(indexed ? &run_expired_ : nullptr);
        return interval.status();
      }
      AlarmStats& stats = stats_[w];
      ++stats.checks;
      if (interval.value().hi < thresholds_[w].threshold) continue;
      ++stats.candidates;
      if (tracker_.Current(w) >= thresholds_[w].threshold) {
        ++stats.true_alarms;
      }
    }
  }
  summarizer->EndRun(indexed ? &run_expired_ : nullptr);
  return stardust_->ApplyRunIndexDeltas(stream_, run_sealed_, run_expired_);
}

Status AggregateMonitor::RunChecksFlat(const StreamSummarizer& summarizer,
                                       const double* values, std::size_t n) {
  const StardustConfig& config = stardust_->config();
  const AggregateKind kind = config.aggregate;
  const std::size_t dims = config.FeatureDims();
  const std::size_t w_base = config.base_window;
  for (std::size_t i = 0; i < n; ++i) {
    tracker_.Push(values[i]);
    const std::uint64_t t = summarizer.RunTime(i);
    for (std::size_t w = 0; w < thresholds_.size(); ++w) {
      if (!tracker_.Ready(w)) continue;
      // Same Algorithm-2 walk as Stardust::AggregateIntervalAt, with the
      // lowest set bit's sub-aggregate read from the as-of ring (the box
      // covering t as of this arrival) and every higher bit from a final
      // box extent (complete by arrival t under FlatRunEligible's
      // capacity bound). Merge operand order matches exactly: the box
      // extent is the left input, the accumulator the right.
      const std::size_t b = thresholds_[w].window / w_base;
      std::uint64_t tj = t;
      double acc_lo[2], acc_hi[2];
      bool first = true;
      bool composed = true;
      for (std::size_t j = 0; (b >> j) != 0; ++j) {
        if (((b >> j) & 1) == 0) continue;
        if (first) {
          const double* rl = summarizer.RunRingLo(j) + i * dims;
          const double* rh = summarizer.RunRingHi(j) + i * dims;
          for (std::size_t d = 0; d < dims; ++d) {
            acc_lo[d] = rl[d];
            acc_hi[d] = rh[d];
          }
          first = false;
        } else {
          const LevelThread& thread = summarizer.thread(j);
          const FeatureBox* box = thread.Find(tj);
          if (box == nullptr) {
            composed = false;
            break;
          }
          AggregateMergeExtentSpans(kind, thread.Lo(*box), thread.Hi(*box),
                                    acc_lo, acc_hi, acc_lo, acc_hi);
        }
        tj -= config.LevelWindow(j);
      }
      ScalarInterval interval;
      if (composed) {
        // AggregateScalarBound on the accumulated extent.
        if (kind == AggregateKind::kSpread) {
          interval = {std::max(0.0, acc_lo[0] - acc_hi[1]),
                      acc_hi[0] - acc_lo[1]};
        } else {
          interval = {acc_lo[0], acc_hi[0]};
        }
      } else {
        // Defensive fallback (a box the walk needs is missing): compose
        // through the full-path lookup, which reports the precise error.
        Result<ScalarInterval> r = stardust_->AggregateIntervalAt(
            stream_, thresholds_[w].window, t, &extent_scratch_);
        if (!r.ok()) return r.status();
        interval = r.value();
      }
      AlarmStats& stats = stats_[w];
      ++stats.checks;
      if (interval.hi < thresholds_[w].threshold) continue;
      ++stats.candidates;
      if (tracker_.Current(w) >= thresholds_[w].threshold) {
        ++stats.true_alarms;
      }
    }
  }
  return Status::OK();
}

AlarmStats AggregateMonitor::TotalStats() const {
  AlarmStats total;
  for (const AlarmStats& s : stats_) {
    total.candidates += s.candidates;
    total.true_alarms += s.true_alarms;
    total.checks += s.checks;
  }
  return total;
}

}  // namespace stardust
