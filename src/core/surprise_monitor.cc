#include "core/surprise_monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "transform/feature.h"

namespace stardust {

Result<std::unique_ptr<SurpriseMonitor>> SurpriseMonitor::Create(
    const StardustConfig& config, std::size_t num_streams, double threshold,
    std::vector<std::size_t> monitor_levels, bool within_stream) {
  if (config.transform != TransformKind::kDwt || !config.index_features) {
    return Status::InvalidArgument(
        "surprise monitoring requires an indexed DWT configuration");
  }
  if (config.update_period != 1 || config.box_capacity != 1 ||
      config.update_schedule != UpdateSchedule::kUniform) {
    return Status::InvalidArgument(
        "surprise monitoring requires exact point features "
        "(online algorithm with c == 1)");
  }
  if (threshold <= 0.0) {
    return Status::InvalidArgument("threshold must be positive");
  }
  if (num_streams == 0) {
    return Status::InvalidArgument("need at least one stream");
  }
  if (monitor_levels.empty()) {
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
  }
  Result<std::unique_ptr<Stardust>> core = Stardust::Create(config);
  if (!core.ok()) return core.status();
  auto monitor = std::unique_ptr<SurpriseMonitor>(
      new SurpriseMonitor(std::move(core).value(), threshold,
                          std::move(monitor_levels), within_stream));
  for (std::size_t i = 0; i < num_streams; ++i) {
    monitor->core_->AddStream();
  }
  return monitor;
}

SurpriseMonitor::SurpriseMonitor(std::unique_ptr<Stardust> core,
                                 double threshold,
                                 std::vector<std::size_t> monitor_levels,
                                 bool within_stream)
    : core_(std::move(core)),
      threshold_(threshold),
      monitored_levels_(std::move(monitor_levels)),
      within_stream_(within_stream) {}

Status SurpriseMonitor::Append(StreamId stream, double value,
                               std::vector<SurpriseEvent>* new_events) {
  SD_RETURN_NOT_OK(core_->Append(stream, value));
  const std::uint64_t t = core_->summarizer(stream).now() - 1;
  for (std::size_t level : monitored_levels_) {
    // Warm up until at least one disjoint earlier window exists —
    // "never seen anything comparable" is not the same as "novel".
    if (t + 1 < 2 * core_->config().LevelWindow(level)) continue;
    SD_RETURN_NOT_OK(Check(stream, level, t, new_events));
  }
  return Status::OK();
}

Status SurpriseMonitor::Check(StreamId stream, std::size_t level,
                              std::uint64_t t,
                              std::vector<SurpriseEvent>* new_events) {
  ++stats_.checks;
  const std::size_t w = core_->config().LevelWindow(level);
  const StreamSummarizer& summarizer = core_->summarizer(stream);
  const LevelThread& thread = summarizer.thread(level);
  const FeatureBox* box = thread.Find(t);
  SD_CHECK(box != nullptr);
  const double* lo = thread.Lo(*box);  // c == 1: a point
  const Point feature(lo, lo + thread.dims());

  // Range query over the level index (all streams' features). Verify the
  // closest features first: the nearest candidate almost always disproves
  // a non-novel window in one exact check.
  std::vector<RTreeEntry> hits;
  core_->index(level).SearchWithin(feature, threshold_, &hits);
  std::sort(hits.begin(), hits.end(),
            [&](const RTreeEntry& a, const RTreeEntry& b) {
              return a.box.MinDist2(feature) < b.box.MinDist2(feature);
            });

  // Verify the candidates: any disjoint earlier window whose exact
  // distance is within the threshold disproves the surprise.
  const std::uint64_t anchor = w - 1;  // first feature time, stride 1
  std::vector<double> current_raw, other_raw;
  std::vector<double> current;  // normalized lazily on first verification
  double nearest = std::numeric_limits<double>::infinity();
  bool surprising = true;
  for (const RTreeEntry& hit : hits) {
    const StreamId other = RecordStream(hit.id);
    const std::uint64_t other_end = anchor + RecordSeq(hit.id);
    if (within_stream_ && other != stream) continue;
    // Exclude the window itself and anything overlapping it in the same
    // stream (those are trivially similar).
    if (other == stream && other_end + w > t) continue;
    ++stats_.verifications;
    if (current.empty()) {
      SD_RETURN_NOT_OK(summarizer.GetWindow(t, w, &current_raw));
      current = NormalizeWindow(current_raw, core_->config().normalization,
                                core_->config().r_max);
    }
    const Status st =
        core_->summarizer(other).GetWindow(other_end, w, &other_raw);
    if (!st.ok()) {
      // The raw history has partially expired: we cannot prove novelty
      // against this candidate, so conservatively suppress the event.
      surprising = false;
      break;
    }
    const std::vector<double> other_norm = NormalizeWindow(
        other_raw, core_->config().normalization, core_->config().r_max);
    const double d = std::sqrt(Dist2(current, other_norm));
    nearest = std::min(nearest, d);
    if (d <= threshold_) {
      surprising = false;
      break;
    }
  }
  if (!surprising) return Status::OK();
  // Debounce: a novel episode spans many overlapping windows; report it
  // once per window length.
  auto& last = last_event_[{stream, level}];
  if (last.has_value && t < last.time + w) return Status::OK();
  last.has_value = true;
  last.time = t;
  ++stats_.events;
  if (new_events != nullptr) {
    new_events->push_back({stream, level, w, t, nearest});
  }
  return Status::OK();
}

}  // namespace stardust
