// Network traffic operations — the paper's telecom motivation (Section 1)
// end to end: a fleet of link counters is monitored for volume bursts at
// many timescales, while a lag-correlation monitor discovers which links
// feed which (propagation paths) without being told the topology.
//
// The burst fleet runs behind the sharded ingestion engine (src/engine):
// arrivals are posted to lock-free shard queues and applied by worker
// threads, the way a production collector would ingest link counters.
// Every trained {window, threshold} is an aggregate query; a counting
// sink tallies their alerts per link. The engine's runtime metrics are
// printed at the end.
//
//   $ ./build/examples/traffic_ops
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/lag_correlation.h"
#include "engine/engine.h"
#include "query/sinks.h"
#include "stream/threshold.h"

int main() {
  using namespace stardust;

  // Topology (hidden from the monitors): ingress link 0 feeds link 3
  // after 32 ticks and link 5 after 64; links 1, 2, 4 are independent.
  const std::size_t links = 6;
  Rng rng(8080);
  auto traffic_step = [&](std::uint64_t t,
                          std::vector<std::vector<double>>& history) {
    std::vector<double> values(links);
    // Ingress: diurnal-ish base + bursts.
    const double base =
        400.0 + 150.0 * std::sin(2.0 * 3.14159 * t / 4000.0);
    const bool burst = (t / 500) % 7 == 3;
    values[0] = std::max(
        0.0, base + (burst ? 350.0 : 0.0) + 20.0 * rng.NextGaussian());
    for (std::size_t i : {1u, 2u, 4u}) {
      values[i] =
          std::max(0.0, 300.0 + 60.0 * std::sin(2.0 * 3.14159 * t /
                                                (900.0 + 200.0 * i)) +
                            15.0 * rng.NextGaussian());
    }
    values[3] = t >= 32 ? 0.92 * history[0][t - 32] +
                              8.0 * rng.NextGaussian()
                        : 300.0;
    values[5] = t >= 64 ? 0.85 * history[0][t - 64] +
                              8.0 * rng.NextGaussian()
                        : 300.0;
    for (std::size_t i = 0; i < links; ++i) {
      values[i] = std::max(0.0, values[i]);
      history[i].push_back(values[i]);
    }
    return values;
  };

  // --- Fleet burst monitoring over windows 25..400 ----------------------
  std::vector<std::vector<double>> warmup_history(links);
  std::vector<double> training;
  {
    for (std::uint64_t t = 0; t < 4000; ++t) {
      const auto v = traffic_step(t, warmup_history);
      training.push_back(v[0]);
    }
  }
  std::vector<std::size_t> windows;
  for (std::size_t i = 1; i <= 16; ++i) windows.push_back(i * 25);
  const auto thresholds =
      TrainThresholds(AggregateKind::kSum, training, windows, 2.0);
  StardustConfig fleet_config;
  fleet_config.transform = TransformKind::kAggregate;
  fleet_config.aggregate = AggregateKind::kSum;
  fleet_config.base_window = 25;
  fleet_config.num_levels = 5;
  fleet_config.history = 800;
  fleet_config.box_capacity = 5;
  fleet_config.update_period = 1;
  // Two shards: links {0,2,4} land on shard 0, links {1,3,5} on shard 1.
  // kBlock keeps the run lossless; the drop policies are for live feeds.
  // max_batch 1 evaluates the queries after every arrival, so the alert
  // counts depend only on the traffic, not on how arrivals were batched.
  EngineConfig engine_config;
  engine_config.num_shards = 2;
  engine_config.queue_capacity = 1024;
  engine_config.max_batch = 1;
  engine_config.overload = OverloadPolicy::kBlock;
  // Declared before the engine so the sink's counters outlive its bus.
  std::vector<std::atomic<std::uint64_t>> alerts_per_link(links);
  auto engine = std::move(IngestEngine::Create(fleet_config, thresholds,
                                               links, engine_config))
                    .value();
  engine->alerts().AddSink(std::make_shared<CallbackSink>(
      [&alerts_per_link](const Alert& alert) {
        alerts_per_link[alert.stream].fetch_add(1, std::memory_order_relaxed);
      }));

  // --- Lag correlation over windows of 256, lags up to 128 --------------
  StardustConfig lag_config;
  lag_config.transform = TransformKind::kDwt;
  lag_config.normalization = Normalization::kZNorm;
  lag_config.coefficients = 8;
  lag_config.base_window = 32;
  lag_config.num_levels = 4;  // N = 256
  lag_config.history = 256 + 128;
  lag_config.box_capacity = 1;
  lag_config.update_period = 32;
  auto lag_monitor = std::move(LagCorrelationMonitor::Create(
                                   lag_config, links, 0.45, 128))
                         .value();

  std::vector<std::vector<double>> history(links);
  std::vector<StreamValue> tick(links);
  for (std::uint64_t t = 0; t < 8000; ++t) {
    const auto values = traffic_step(t, history);
    for (StreamId link = 0; link < links; ++link) {
      tick[link] = {link, values[link]};
    }
    if (!engine->PostBatch(tick).ok()) return 1;
    if (!lag_monitor->AppendAll(values).ok()) return 1;
  }
  // Drain the shard queues and the alert bus so the counts below cover
  // every arrival.
  if (!engine->Flush().ok()) return 1;

  std::printf("fleet burst monitoring (%zu aggregate queries x %zu links, "
              "%zu engine shards):\n",
              thresholds.size(), links, engine->num_shards());
  for (StreamId link = 0; link < links; ++link) {
    std::printf("  link %u: %6llu alerts\n", link,
                static_cast<unsigned long long>(alerts_per_link[link].load()));
  }
  std::printf("\nalarming after the last arrival:\n");
  for (const auto& query : engine->queries().snapshot()->aggregate) {
    Result<std::vector<StreamId>> alarming =
        engine->CurrentlyAlarming(query->id);
    if (!alarming.ok()) return 1;
    std::printf("  window %3zu:", query->spec.window);
    for (StreamId link : alarming.value()) std::printf(" link %u", link);
    std::printf("%s\n", alarming.value().empty() ? " (none)" : "");
  }

  std::printf("\ndiscovered propagation (last round, verified lagged "
              "pairs):\n");
  bool any = false;
  for (const auto& pair : lag_monitor->last_round()) {
    if (!pair.verified || pair.lag == 0) continue;
    std::printf("  link %u -> link %u after %zu ticks (corr %.3f)\n",
                pair.leader, pair.follower, pair.lag,
                1.0 - pair.distance * pair.distance / 2.0);
    any = true;
  }
  if (!any) std::printf("  (none this round)\n");
  std::printf("\nexpected: 0 -> 3 after ~32 ticks and 0 -> 5 after ~64\n"
              "(lag granularity = the 32-tick feature refresh).\n");

  std::printf("\ningestion engine metrics:\n%s\n",
              engine->MetricsJson().c_str());
  if (!engine->Stop().ok()) return 1;
  return 0;
}
