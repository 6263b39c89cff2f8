// Ingestion throughput: single-threaded FleetAggregateMonitor baseline
// (Algorithm 2 on every window) vs the sharded IngestEngine at 1/2/4/8
// shards, which registers the same thresholds as aggregate queries,
// answers them from exact sliding trackers and appends their alerts to
// the alert log (no sink attached). Producers post round-robin
// over the fleet under kBlock (no data loss), so the measured rate is the
// end-to-end sustained append throughput. One JSON line per configuration
// on stdout (prose goes to stderr), ready for plotting:
//
//   $ ./build/bench/bench_ingest
//   {"bench":"ingest","mode":"direct","shards":0,...}
//   {"bench":"ingest","mode":"engine","shards":1,...}
//   ...
//
// STARDUST_FULL=1 scales the workload up ~8x.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/fleet_monitor.h"
#include "engine/engine.h"
#include "stream/bursty_source.h"
#include "stream/threshold.h"

namespace {

using namespace stardust;

StardustConfig StreamConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 16;
  config.num_levels = 5;  // windows up to 16 * 2^4 = 256
  config.history = 256;
  config.box_capacity = 4;
  config.update_period = 1;
  return config;
}

struct Workload {
  std::size_t streams = 0;
  std::vector<double> values;  // shared value tape, reused per stream
};

double RunDirect(const Workload& load,
                 const std::vector<WindowThreshold>& thresholds,
                 std::uint64_t* appended) {
  auto fleet = std::move(FleetAggregateMonitor::Create(
                             StreamConfig(), thresholds, load.streams))
                   .value();
  Stopwatch watch;
  watch.Start();
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < load.values.size(); ++i) {
    const StreamId stream = static_cast<StreamId>(i % load.streams);
    if (!fleet->Append(stream, load.values[i]).ok()) std::abort();
    ++n;
  }
  watch.Stop();
  *appended = n;
  return watch.ElapsedSeconds();
}

double RunEngine(const Workload& load,
                 const std::vector<WindowThreshold>& thresholds,
                 std::size_t shards, std::size_t producers, bool pin,
                 std::uint64_t* appended, std::uint64_t* dropped,
                 std::string* metrics_json) {
  EngineConfig econfig;
  econfig.num_shards = shards;
  econfig.queue_capacity = 4096;
  econfig.max_producers = producers;
  econfig.overload = OverloadPolicy::kBlock;
  econfig.pin_shards = pin;
  auto engine = std::move(IngestEngine::Create(StreamConfig(), thresholds,
                                               load.streams, econfig))
                    .value();
  const std::size_t per_producer = load.values.size() / producers;
  Stopwatch watch;
  watch.Start();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      // Producer p owns an equal slice of the tape and spreads it over
      // the fleet round-robin, offset so producers hit distinct shards.
      const std::size_t begin = p * per_producer;
      for (std::size_t i = 0; i < per_producer; ++i) {
        const StreamId stream =
            static_cast<StreamId>((begin + i) % load.streams);
        if (!engine->Post(stream, load.values[begin + i]).ok()) {
          std::abort();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!engine->Flush().ok()) std::abort();
  watch.Stop();
  *appended = engine->metrics().appended.load();
  *dropped = engine->metrics().dropped_newest.load() +
             engine->metrics().dropped_oldest.load();
  *metrics_json = engine->MetricsJson();
  if (!engine->Stop().ok()) std::abort();
  return watch.ElapsedSeconds();
}

// Hot-tenant skew: ~90% of the traffic lands on the streams the
// modulo-hash default all places on shard 0, so the fixed layout
// serializes the hot set behind one worker. The deterministic tape
// interleaves nine hot picks with one cold pick, round-robin within
// each set, so both the fixed and the rebalanced run replay the exact
// same sequence.
std::vector<StreamId> SkewedStreamTape(std::size_t total,
                                       std::size_t streams,
                                       std::size_t shards) {
  std::vector<StreamId> hot;
  std::vector<StreamId> cold;
  for (StreamId s = 0; s < streams; ++s) {
    (s % shards == 0 ? hot : cold).push_back(s);
  }
  std::vector<StreamId> tape(total);
  std::size_t h = 0;
  std::size_t c = 0;
  for (std::size_t i = 0; i < total; ++i) {
    tape[i] = (i % 10 != 9) ? hot[h++ % hot.size()]
                            : cold[c++ % cold.size()];
  }
  return tape;
}

double RunSkewed(const Workload& load, const std::vector<StreamId>& tape,
                 const std::vector<WindowThreshold>& thresholds,
                 std::size_t shards, std::size_t producers, bool rebalance,
                 std::uint64_t* appended, std::uint64_t* migrations) {
  EngineConfig econfig;
  econfig.num_shards = shards;
  econfig.queue_capacity = 4096;
  econfig.max_producers = producers;
  econfig.overload = OverloadPolicy::kBlock;
  if (rebalance) {
    econfig.rebalance_period_ms = 10;
    econfig.rebalance_min_delta = 4096;
  }
  auto engine = std::move(IngestEngine::Create(StreamConfig(), thresholds,
                                               load.streams, econfig))
                    .value();
  const std::size_t per_producer = tape.size() / producers;
  Stopwatch watch;
  watch.Start();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t begin = p * per_producer;
      for (std::size_t i = 0; i < per_producer; ++i) {
        const std::size_t slot = begin + i;
        const double value = load.values[slot % load.values.size()];
        if (!engine->Post(tape[slot], value).ok()) std::abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!engine->Flush().ok()) std::abort();
  watch.Stop();
  *appended = engine->metrics().appended.load();
  *migrations = engine->metrics().migrations.load();
  if (!engine->Stop().ok()) std::abort();
  return watch.ElapsedSeconds();
}

void EmitSkewLine(const char* mode, std::size_t shards,
                  std::size_t producers, std::uint64_t appended,
                  std::uint64_t migrations, double seconds,
                  double fixed_rate) {
  const double rate =
      seconds > 0.0 ? static_cast<double>(appended) / seconds : 0.0;
  std::printf("{\"bench\":\"ingest\",\"mode\":\"%s\",\"shards\":%zu,"
              "\"producers\":%zu,\"appended\":%" PRIu64
              ",\"migrations\":%" PRIu64 ",\"seconds\":%.4f,"
              "\"appends_per_sec\":%.0f,\"recovery_vs_fixed\":%.2f}\n",
              mode, shards, producers, appended, migrations, seconds, rate,
              fixed_rate > 0.0 ? rate / fixed_rate : 0.0);
  std::fflush(stdout);
}

void EmitLine(const char* mode, std::size_t shards, std::size_t producers,
              bool pinned, std::uint64_t appended, std::uint64_t dropped,
              double seconds, double baseline_rate) {
  const double rate =
      seconds > 0.0 ? static_cast<double>(appended) / seconds : 0.0;
  std::printf("{\"bench\":\"ingest\",\"mode\":\"%s\",\"shards\":%zu,"
              "\"producers\":%zu,\"pinned\":%s,\"appended\":%" PRIu64
              ",\"dropped\":%" PRIu64 ",\"seconds\":%.4f,"
              "\"appends_per_sec\":%.0f,\"speedup_vs_direct\":%.2f}\n",
              mode, shards, producers, pinned ? "true" : "false", appended,
              dropped, seconds, rate,
              baseline_rate > 0.0 ? rate / baseline_rate : 0.0);
  std::fflush(stdout);
}

}  // namespace

int main() {
  bench::PrintHeaderStderr(
      "Ingestion engine throughput (sharded vs single-threaded)",
      "north-star scaling: Section 2.1 deployment at fleet scale");

  Workload load;
  load.streams = 64;
  const std::size_t total =
      bench::FullScale() ? 8 * 1024 * 1024 : 1024 * 1024;
  BurstySource source(bench::BenchSeed());
  load.values = source.Take(total);

  const std::vector<std::size_t> window_sizes{16, 64, 256};
  const auto thresholds = TrainThresholds(
      AggregateKind::kSum,
      std::vector<double>(load.values.begin(),
                          load.values.begin() + 65536),
      window_sizes, 3.0);

  std::uint64_t appended = 0;
  const double direct_seconds = RunDirect(load, thresholds, &appended);
  const double direct_rate =
      static_cast<double>(appended) / direct_seconds;
  EmitLine("direct", 0, 1, false, appended, 0, direct_seconds, direct_rate);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::fprintf(stderr, "hardware threads: %u\n", hw);
  // Each shard count runs unpinned then pinned (EngineConfig::pin_shards),
  // so adjacent lines isolate the affinity effect at fixed parallelism.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    const std::size_t producers = std::min<std::size_t>(shards, 4);
    for (const bool pin : {false, true}) {
      std::uint64_t engine_appended = 0;
      std::uint64_t dropped = 0;
      std::string metrics_json;
      const double seconds =
          RunEngine(load, thresholds, shards, producers, pin,
                    &engine_appended, &dropped, &metrics_json);
      EmitLine("engine", shards, producers, pin, engine_appended, dropped,
               seconds, direct_rate);
      std::fprintf(stderr, "engine metrics (%zu shards, %s): %s\n", shards,
                   pin ? "pinned" : "unpinned", metrics_json.c_str());
    }
  }

  // Hot-tenant skew: the same engine at 4 shards, fed the 90/10 skewed
  // tape that lands all hot streams on shard 0 under the modulo-hash
  // default. "zipf-fixed" keeps the rebalancer off (the placement
  // bottleneck); "zipf-rebalanced" turns it on and the load-driven
  // migrations spread the hot set, recovering the lost parallelism
  // (recovery_vs_fixed is the throughput ratio; target: BENCH_INGEST.json).
  {
    const std::size_t skew_shards = 4;
    const std::size_t skew_producers = 4;
    const std::vector<StreamId> tape = SkewedStreamTape(
        2 * load.values.size(), load.streams, skew_shards);
    double fixed_rate = 0.0;
    for (const bool rebalance : {false, true}) {
      std::uint64_t skew_appended = 0;
      std::uint64_t migrations = 0;
      const double seconds =
          RunSkewed(load, tape, thresholds, skew_shards, skew_producers,
                    rebalance, &skew_appended, &migrations);
      const double rate =
          seconds > 0.0 ? static_cast<double>(skew_appended) / seconds : 0.0;
      if (!rebalance) fixed_rate = rate;
      EmitSkewLine(rebalance ? "zipf-rebalanced" : "zipf-fixed",
                   skew_shards, skew_producers, skew_appended, migrations,
                   seconds, fixed_rate);
    }
  }
  return 0;
}
