#include "core/lag_correlation.h"

#include <cmath>

#include "common/check.h"
#include "transform/feature.h"

namespace stardust {

Result<std::unique_ptr<LagCorrelationMonitor>> LagCorrelationMonitor::Create(
    const StardustConfig& config, std::size_t num_streams, double radius,
    std::size_t max_lag) {
  if (config.transform != TransformKind::kDwt ||
      config.normalization != Normalization::kZNorm) {
    return Status::InvalidArgument(
        "lag correlation requires the z-normalized DWT transform");
  }
  if (config.update_period != config.base_window ||
      config.box_capacity != 1 ||
      config.update_schedule != UpdateSchedule::kUniform) {
    return Status::InvalidArgument(
        "lag correlation uses the batch algorithm (uniform T == W, c == 1)");
  }
  const std::size_t n = config.LevelWindow(config.num_levels - 1);
  if (max_lag % config.base_window != 0) {
    return Status::InvalidArgument(
        "max_lag must be a multiple of the base window");
  }
  if (config.history < n + max_lag) {
    return Status::InvalidArgument(
        "history must cover the correlation window plus the lag horizon");
  }
  if (num_streams == 0) {
    return Status::InvalidArgument("need at least one stream");
  }
  if (radius < 0.0) return Status::InvalidArgument("negative radius");
  Result<std::unique_ptr<Stardust>> core = Stardust::Create(config);
  if (!core.ok()) return core.status();
  return std::unique_ptr<LagCorrelationMonitor>(new LagCorrelationMonitor(
      std::move(core).value(), num_streams, radius, max_lag));
}

LagCorrelationMonitor::LagCorrelationMonitor(std::unique_ptr<Stardust> core,
                                             std::size_t num_streams,
                                             double radius,
                                             std::size_t max_lag)
    : core_(std::move(core)),
      features_(core_->config().coefficients),
      radius_(radius),
      max_lag_(max_lag),
      top_level_(core_->config().num_levels - 1) {
  for (std::size_t i = 0; i < num_streams; ++i) core_->AddStream();
}

Status LagCorrelationMonitor::AppendAll(const std::vector<double>& values) {
  if (values.size() != core_->num_streams()) {
    return Status::InvalidArgument("value count != stream count");
  }
  for (StreamId i = 0; i < values.size(); ++i) {
    SD_RETURN_NOT_OK(core_->Append(i, values[i]));
  }
  const std::uint64_t now = core_->summarizer(0).now();
  const std::size_t n =
      core_->config().LevelWindow(core_->config().num_levels - 1);
  const std::size_t w_step = core_->config().update_period;
  if (now >= n && (now - n) % w_step == 0) {
    SD_RETURN_NOT_OK(Detect(now - 1));
  }
  return Status::OK();
}

Status LagCorrelationMonitor::Detect(std::uint64_t t) {
  const std::size_t m = core_->num_streams();
  const std::size_t w = core_->config().base_window;
  const std::size_t num_lags = max_lag_ / w;  // lags 0..num_lags rounds
  const std::size_t n =
      core_->config().LevelWindow(core_->config().num_levels - 1);

  // Expire entries older than the lag horizon, then insert this round's
  // features.
  while (!live_.empty() && live_.front().round + num_lags < round_) {
    const LiveEntry& old = live_.front();
    SD_RETURN_NOT_OK(features_.Delete(
        Mbr::FromPoint(old.feature),
        MakeRecordId(old.stream, old.round % (num_lags + 2))));
    live_.pop_front();
  }
  for (StreamId i = 0; i < m; ++i) {
    const LevelThread& thread = core_->summarizer(i).thread(top_level_);
    const FeatureBox* box = thread.Find(t);
    SD_CHECK(box != nullptr);
    const double* lo = thread.Lo(*box);  // c == 1: a point
    const Point feature(lo, lo + thread.dims());
    SD_RETURN_NOT_OK(features_.Insert(
        Mbr::FromPoint(feature),
        MakeRecordId(i, round_ % (num_lags + 2))));
    live_.push_back({feature, i, round_});
  }

  // One range query per stream; hits decode into (partner, lag).
  last_round_.clear();
  std::vector<RTreeEntry> hits;
  std::vector<double> window;
  // Lazily z-normalized windows: follower windows end at t, leader
  // windows end at t − lag; cache per (stream, lag round).
  std::vector<std::vector<std::vector<double>>> cache(
      m, std::vector<std::vector<double>>(num_lags + 1));
  auto znorm_of = [&](StreamId s,
                      std::size_t lag_rounds) -> Result<const std::vector<double>*> {
    auto& slot = cache[s][lag_rounds];
    if (slot.empty()) {
      SD_RETURN_NOT_OK(core_->summarizer(s).GetWindow(
          t - lag_rounds * w, n, &window));
      slot = ZNormalize(window);
    }
    return &slot;
  };
  for (StreamId i = 0; i < m; ++i) {
    const Point& current = live_[live_.size() - m + i].feature;
    hits.clear();
    features_.SearchWithin(current, radius_, &hits);
    for (const RTreeEntry& hit : hits) {
      const StreamId j = RecordStream(hit.id);
      const std::uint64_t hit_slot = RecordSeq(hit.id);
      // Decode the round from the slot (slots cycle mod num_lags + 2 and
      // only rounds in [round_ - num_lags, round_] are live).
      std::uint64_t hit_round = round_;
      while (hit_round % (num_lags + 2) != hit_slot) --hit_round;
      const std::size_t lag_rounds =
          static_cast<std::size_t>(round_ - hit_round);
      const std::size_t lag = lag_rounds * w;
      if (lag == 0 && j <= i) continue;  // lag-0 pairs counted once
      ++stats_.candidates;
      Result<const std::vector<double>*> za = znorm_of(i, 0);
      if (!za.ok()) return za.status();
      Result<const std::vector<double>*> zb = znorm_of(j, lag_rounds);
      if (!zb.ok()) return zb.status();
      const double d2 = Dist2(*za.value(), *zb.value());
      const bool verified = d2 <= radius_ * radius_;
      if (verified) ++stats_.true_pairs;
      last_round_.push_back({j, i, lag, std::sqrt(d2), verified});
    }
  }
  ++round_;
  return Status::OK();
}

}  // namespace stardust
