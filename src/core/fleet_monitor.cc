#include "core/fleet_monitor.h"

#include "common/check.h"

namespace stardust {

Result<std::unique_ptr<FleetAggregateMonitor>> FleetAggregateMonitor::Create(
    const StardustConfig& config, std::vector<WindowThreshold> thresholds,
    std::size_t num_streams) {
  if (num_streams == 0) {
    return Status::InvalidArgument("need at least one stream");
  }
  std::vector<std::unique_ptr<AggregateMonitor>> monitors;
  monitors.reserve(num_streams);
  for (std::size_t i = 0; i < num_streams; ++i) {
    Result<std::unique_ptr<AggregateMonitor>> monitor =
        AggregateMonitor::Create(config, thresholds);
    if (!monitor.ok()) return monitor.status();
    monitors.push_back(std::move(monitor).value());
  }
  return std::unique_ptr<FleetAggregateMonitor>(
      new FleetAggregateMonitor(std::move(monitors)));
}

FleetAggregateMonitor::FleetAggregateMonitor(
    std::vector<std::unique_ptr<AggregateMonitor>> monitors)
    : monitors_(std::move(monitors)) {}

Status FleetAggregateMonitor::Append(StreamId stream, double value) {
  if (stream >= monitors_.size()) {
    return Status::InvalidArgument("unknown stream");
  }
  return monitors_[stream]->Append(value);
}

Status FleetAggregateMonitor::AppendRun(StreamId stream, const double* values,
                                        std::size_t n) {
  if (stream >= monitors_.size()) {
    return Status::InvalidArgument("unknown stream");
  }
  return monitors_[stream]->AppendRun(values, n);
}

Status FleetAggregateMonitor::AppendAll(const std::vector<double>& values) {
  if (values.size() != monitors_.size()) {
    return Status::InvalidArgument("value count != stream count");
  }
  for (StreamId i = 0; i < values.size(); ++i) {
    SD_RETURN_NOT_OK(monitors_[i]->Append(values[i]));
  }
  return Status::OK();
}

std::uint64_t FleetAggregateMonitor::AppendCount(StreamId stream) const {
  SD_DCHECK(stream < monitors_.size());
  return monitors_[stream]->stardust().summarizer(0).now();
}

AlarmStats FleetAggregateMonitor::FleetTotal() const {
  AlarmStats total;
  for (const auto& monitor : monitors_) {
    const AlarmStats s = monitor->TotalStats();
    total.candidates += s.candidates;
    total.true_alarms += s.true_alarms;
    total.checks += s.checks;
  }
  return total;
}

Result<std::vector<StreamId>> FleetAggregateMonitor::CurrentlyAlarming(
    std::size_t window_index) const {
  if (window_index >= num_windows()) {
    return Status::InvalidArgument("unknown window");
  }
  std::vector<StreamId> alarming;
  for (StreamId i = 0; i < monitors_.size(); ++i) {
    const AggregateMonitor& monitor = *monitors_[i];
    const WindowThreshold& wt = monitor.threshold(window_index);
    Result<Stardust::AggregateAnswer> answer =
        monitor.stardust().AggregateQuery(0, wt.window, wt.threshold);
    if (!answer.ok()) {
      if (answer.status().code() == StatusCode::kOutOfRange) {
        continue;  // stream shorter than the window: not alarming
      }
      return answer.status();
    }
    if (answer.value().alarm) alarming.push_back(i);
  }
  return alarming;
}

}  // namespace stardust
