#include "core/correlation_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "transform/feature.h"

namespace stardust {

Result<std::unique_ptr<CorrelationMonitor>> CorrelationMonitor::Create(
    const StardustConfig& config, std::size_t num_streams, double radius,
    std::vector<std::size_t> monitor_levels) {
  if (config.transform != TransformKind::kDwt ||
      config.normalization != Normalization::kZNorm) {
    return Status::InvalidArgument(
        "correlation monitoring requires the z-normalized DWT transform");
  }
  if (config.update_period != config.base_window ||
      config.box_capacity != 1 ||
      config.update_schedule != UpdateSchedule::kUniform) {
    return Status::InvalidArgument(
        "correlation monitoring uses the batch algorithm "
        "(uniform T == W, c == 1)");
  }
  if (monitor_levels.empty()) {
    // The paper's setting: detect at resolution J where N = W * 2^J.
    if (config.LevelWindow(config.num_levels - 1) != config.history) {
      return Status::InvalidArgument(
          "top-level window must equal the history (N = W * 2^J)");
    }
    monitor_levels.push_back(config.num_levels - 1);
  }
  std::sort(monitor_levels.begin(), monitor_levels.end());
  monitor_levels.erase(
      std::unique(monitor_levels.begin(), monitor_levels.end()),
      monitor_levels.end());
  for (std::size_t level : monitor_levels) {
    if (level >= config.num_levels) {
      return Status::InvalidArgument("monitored level out of range");
    }
    if (config.LevelWindow(level) > config.history) {
      return Status::InvalidArgument(
          "history must cover every monitored window");
    }
  }
  if (num_streams == 0) {
    return Status::InvalidArgument("need at least one stream");
  }
  if (radius < 0.0) return Status::InvalidArgument("negative radius");
  Result<std::unique_ptr<Stardust>> core = Stardust::Create(config);
  if (!core.ok()) return core.status();
  return std::unique_ptr<CorrelationMonitor>(
      new CorrelationMonitor(std::move(core).value(), num_streams, radius,
                             std::move(monitor_levels)));
}

CorrelationMonitor::CorrelationMonitor(
    std::unique_ptr<Stardust> core, std::size_t num_streams, double radius,
    std::vector<std::size_t> monitor_levels)
    : core_(std::move(core)),
      radius_(radius),
      monitored_levels_(std::move(monitor_levels)) {
  levels_.reserve(monitored_levels_.size());
  for (std::size_t level : monitored_levels_) {
    levels_.emplace_back(level, core_->config().coefficients, num_streams);
  }
  for (std::size_t i = 0; i < num_streams; ++i) core_->AddStream();
}

Status CorrelationMonitor::AppendAll(const std::vector<double>& values) {
  if (values.size() != core_->num_streams()) {
    return Status::InvalidArgument("value count != stream count");
  }
  for (StreamId i = 0; i < values.size(); ++i) {
    SD_RETURN_NOT_OK(core_->Append(i, values[i]));
  }
  // Every batch level refreshes at the same tick boundary once its
  // window is full; detect when the smallest monitored window has data
  // and the boundary is aligned.
  const std::uint64_t now = core_->summarizer(0).now();
  const std::size_t w_step = core_->config().update_period;
  const std::size_t smallest =
      core_->config().LevelWindow(monitored_levels_.front());
  if (now >= smallest && now % w_step == 0) {
    SD_RETURN_NOT_OK(Detect(now - 1));
  }
  return Status::OK();
}

Status CorrelationMonitor::Detect(std::uint64_t t) {
  const std::size_t m = core_->num_streams();
  last_round_.clear();
  std::vector<RTreeEntry> hits;
  std::vector<double> window;
  for (LevelState& state : levels_) {
    const std::size_t w = core_->config().LevelWindow(state.level);
    if (t + 1 < w) continue;  // this level's window is not full yet
    // Refresh the current-feature index: replace each stream's point.
    for (StreamId i = 0; i < m; ++i) {
      const LevelThread& thread = core_->summarizer(i).thread(state.level);
      const FeatureBox* box = thread.Find(t);
      SD_CHECK(box != nullptr);
      const double* lo = thread.Lo(*box);  // c == 1: a point
      const Point feature(lo, lo + thread.dims());
      if (!state.previous[i].empty()) {
        SD_RETURN_NOT_OK(
            state.features.Delete(Mbr::FromPoint(state.previous[i]), i));
      }
      SD_RETURN_NOT_OK(state.features.Insert(Mbr::FromPoint(feature), i));
      state.previous[i] = feature;
    }
    // Range query around every stream's feature; count each pair once.
    // z-normalized windows are computed lazily, once per stream.
    std::vector<std::vector<double>> znormed(m);
    auto znorm_of = [&](StreamId s) -> Status {
      if (!znormed[s].empty()) return Status::OK();
      SD_RETURN_NOT_OK(core_->summarizer(s).GetWindow(t, w, &window));
      znormed[s] = ZNormalize(window);
      return Status::OK();
    };
    for (StreamId i = 0; i < m; ++i) {
      hits.clear();
      state.features.SearchWithin(state.previous[i], radius_, &hits);
      for (const RTreeEntry& hit : hits) {
        const StreamId j = static_cast<StreamId>(hit.id);
        if (j <= i) continue;
        ++state.stats.candidates;
        ++stats_.candidates;
        // Verify with the exact z-normalized window distance.
        SD_RETURN_NOT_OK(znorm_of(i));
        SD_RETURN_NOT_OK(znorm_of(j));
        const double d2 = Dist2(znormed[i], znormed[j]);
        const bool verified = d2 <= radius_ * radius_;
        if (verified) {
          ++state.stats.true_pairs;
          ++stats_.true_pairs;
        }
        last_round_.push_back(
            {i, j, state.level, w, std::sqrt(d2), verified});
      }
    }
  }
  return Status::OK();
}

Result<std::vector<CorrelationMonitor::ReportedPair>>
CorrelationMonitor::TopKPairs(std::size_t k) const {
  const std::size_t m = core_->num_streams();
  const LevelState& state = levels_.back();  // highest monitored level
  if (state.features.size() != m) {
    return Status::FailedPrecondition(
        "no detection round has completed yet");
  }
  std::vector<ReportedPair> result;
  if (k == 0 || m < 2) return result;
  const std::uint64_t t = core_->summarizer(0).now() - 1;
  // Exact z-normalized windows at the most recent refresh time.
  const std::size_t w = core_->config().LevelWindow(state.level);
  const std::size_t w_step = core_->config().update_period;
  const std::uint64_t t_round = t - ((t + 1) % w_step);
  std::vector<std::vector<double>> znormed(m);
  std::vector<double> window;
  for (StreamId s = 0; s < m; ++s) {
    SD_RETURN_NOT_OK(core_->summarizer(s).GetWindow(t_round, w, &window));
    znormed[s] = ZNormalize(window);
  }
  // Expanding-radius search: all true pairs within r have feature
  // distance within r, so once >= k verified pairs are found inside r,
  // the k smallest are the global top-k.
  double radius = 0.05;
  std::vector<RTreeEntry> hits;
  for (;;) {
    result.clear();
    for (StreamId i = 0; i < m; ++i) {
      hits.clear();
      state.features.SearchWithin(state.previous[i], radius, &hits);
      for (const RTreeEntry& hit : hits) {
        const StreamId j = static_cast<StreamId>(hit.id);
        if (j <= i) continue;
        const double d = std::sqrt(Dist2(znormed[i], znormed[j]));
        if (d <= radius) {
          result.push_back({i, j, state.level, w, d, true});
        }
      }
    }
    if (result.size() >= k || radius > 2.01) break;
    radius *= 2.0;
  }
  std::sort(result.begin(), result.end(),
            [](const ReportedPair& a, const ReportedPair& b) {
              return a.distance < b.distance;
            });
  if (result.size() > k) result.resize(k);
  return result;
}

}  // namespace stardust
