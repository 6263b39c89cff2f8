// Continuous-query subsystem throughput: the sharded IngestEngine with
// live queries registered on it, across shard counts and query
// mixes. Every stream carries a phase-shifted square wave so aggregate
// edges fire repeatedly, the waves correlate pairwise, and the pattern
// cores do real per-tuple summarization work. One JSON line per
// (mix, shards) configuration on stdout (prose goes to stderr):
//
//   $ ./build/bench/bench_query
//   {"bench":"query","mix":"aggregate","shards":1,...}
//   {"bench":"query","mix":"mixed","shards":1,...}
//   ...
//
// Reported per config: sustained appends/sec under kBlock (no data
// loss), alert-log published/delivered/dropped counters, and the
// append-to-sink delivery latency p50/p99 from the log's histogram.
// STARDUST_FULL=1 scales the workload up ~8x.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "query/query_spec.h"
#include "query/sinks.h"
#include "stream/threshold.h"

namespace {

using namespace stardust;

constexpr std::size_t kStreams = 64;
constexpr std::size_t kBurstPeriod = 256;  // square-wave period per stream
constexpr std::size_t kBurstLen = 64;      // high phase within each period
constexpr double kLow = 1.0;
constexpr double kHigh = 9.0;

// Phase-shifted square wave: every stream bursts once per period, and
// streams with nearby ids overlap enough to correlate.
double ValueAt(std::size_t stream, std::size_t t) {
  const std::size_t phase = (t + 16 * stream) % kBurstPeriod;
  return phase < kBurstLen ? kHigh : kLow;
}

StardustConfig FleetConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 16;
  config.num_levels = 5;  // windows 16..256
  config.history = 256;
  config.box_capacity = 4;
  config.update_period = 1;
  return config;
}

StardustConfig PatternCoreConfig() {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = 4;
  config.r_max = 16.0;
  config.base_window = 8;
  config.num_levels = 2;
  config.history = 256;
  config.box_capacity = 1;
  config.update_period = 1;
  config.index_features = true;
  return config;
}

StardustConfig CorrelationCoreConfig() {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kZNorm;
  config.coefficients = 4;
  config.base_window = 16;
  config.num_levels = 2;
  config.history = 32;
  config.box_capacity = 1;
  config.update_period = 16;  // batch algorithm, T == W
  return config;
}

struct Mix {
  const char* name;
  bool enable_patterns;
  bool enable_correlation;
  std::vector<QuerySpec> specs;
};

std::vector<Mix> MakeMixes() {
  // Thresholds sit halfway between the quiet-phase and burst-phase sums
  // for each window, so every burst produces one edge-triggered alert
  // per (query, stream).
  std::vector<Mix> mixes;
  Mix aggregate_only{"aggregate", false, false, {}};
  for (const auto& [window, threshold] :
       std::vector<std::pair<std::size_t, double>>{
           {16, 80.0}, {32, 160.0}, {64, 320.0},
           {128, 384.0}, {256, 512.0}, {16, 120.0}}) {
    aggregate_only.specs.push_back(QuerySpec::Aggregate(window, threshold));
  }
  mixes.push_back(std::move(aggregate_only));

  Mix mixed{"mixed", true, true, {}};
  mixed.specs.push_back(QuerySpec::Aggregate(16, 80.0));
  mixed.specs.push_back(QuerySpec::Aggregate(64, 320.0));
  mixed.specs.push_back(QuerySpec::Aggregate(256, 512.0));
  std::vector<double> edge_pattern;
  for (std::size_t i = 0; i < 16; ++i) {
    edge_pattern.push_back(i < 8 ? kLow : kHigh);  // the burst onset shape
  }
  mixed.specs.push_back(QuerySpec::Pattern(edge_pattern, 0.1));
  std::vector<double> ramp_pattern;
  for (std::size_t i = 0; i < 16; ++i) {
    ramp_pattern.push_back(kLow + (kHigh - kLow) * i / 15.0);
  }
  mixed.specs.push_back(QuerySpec::Pattern(ramp_pattern, 0.1));
  mixed.specs.push_back(QuerySpec::Correlation(0.5));
  mixes.push_back(std::move(mixed));
  return mixes;
}

struct RunResult {
  double seconds = 0.0;
  std::uint64_t appended = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t correlator_rounds = 0;
};

RunResult RunConfig(const Mix& mix, std::size_t shards,
                    std::size_t producers, std::size_t total) {
  EngineConfig econfig;
  econfig.num_shards = shards;
  econfig.queue_capacity = 4096;
  econfig.max_producers = producers;
  econfig.overload = OverloadPolicy::kBlock;
  // Evaluate queries at base-window granularity so edge-triggered
  // crossings inside a burst are observed rather than stepped over.
  econfig.max_batch = 32;
  econfig.query.enable_patterns = mix.enable_patterns;
  econfig.query.pattern = PatternCoreConfig();
  econfig.query.enable_correlation = mix.enable_correlation;
  econfig.query.correlation = CorrelationCoreConfig();
  econfig.query.correlator_period_ms = 5;
  econfig.query.alert_capacity = 4096;
  econfig.query.alert_overflow = OverloadPolicy::kBlock;

  auto engine =
      std::move(IngestEngine::Create(FleetConfig(), {}, kStreams, econfig))
          .value();
  std::atomic<std::uint64_t> sink_count{0};
  engine->alerts().AddSink(std::make_shared<CallbackSink>(
      [&sink_count](const Alert&) {
        sink_count.fetch_add(1, std::memory_order_relaxed);
      }));
  for (const QuerySpec& spec : mix.specs) {
    if (!engine->RegisterQuery(spec).ok()) std::abort();
  }

  const std::size_t per_producer = total / producers;
  Stopwatch watch;
  watch.Start();
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t begin = p * per_producer;
      for (std::size_t i = 0; i < per_producer; ++i) {
        const std::size_t global = begin + i;
        const StreamId stream = static_cast<StreamId>(global % kStreams);
        const double value = ValueAt(stream, global / kStreams);
        if (!engine->Post(stream, value).ok()) std::abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!engine->Flush().ok()) std::abort();
  watch.Stop();

  RunResult result;
  result.seconds = watch.ElapsedSeconds();
  result.appended = engine->metrics().appended.load();
  const AlertLog& log = engine->alerts();
  result.published = log.published();
  result.delivered = log.delivered();
  result.dropped = log.dropped_newest() + log.dropped_oldest();
  result.p50_ns = log.delivery_latency().PercentileNanos(0.50);
  result.p99_ns = log.delivery_latency().PercentileNanos(0.99);
  result.correlator_rounds = engine->metrics().correlator_rounds.load();
  if (!engine->Stop().ok()) std::abort();
  if (sink_count.load() != result.delivered) std::abort();
  return result;
}

void EmitLine(const Mix& mix, std::size_t shards, std::size_t producers,
              const RunResult& r) {
  const double rate = r.seconds > 0.0
                          ? static_cast<double>(r.appended) / r.seconds
                          : 0.0;
  std::printf(
      "{\"bench\":\"query\",\"mix\":\"%s\",\"shards\":%zu,"
      "\"producers\":%zu,\"queries\":%zu,\"appended\":%" PRIu64
      ",\"seconds\":%.4f,\"appends_per_sec\":%.0f,"
      "\"alerts_published\":%" PRIu64 ",\"alerts_delivered\":%" PRIu64
      ",\"alerts_dropped\":%" PRIu64 ",\"delivery_p50_ns\":%" PRIu64
      ",\"delivery_p99_ns\":%" PRIu64 ",\"correlator_rounds\":%" PRIu64
      "}\n",
      mix.name, shards, producers, mix.specs.size(), r.appended, r.seconds,
      rate, r.published, r.delivered, r.dropped, r.p50_ns, r.p99_ns,
      r.correlator_rounds);
  std::fflush(stdout);
}

}  // namespace

int main() {
  bench::PrintHeaderStderr(
      "Continuous-query subsystem throughput (query mix x shard count)",
      "north-star serving: Sections 4-5 queries over live ingestion");

  const std::size_t total =
      bench::FullScale() ? 2 * 1024 * 1024 : 256 * 1024;
  for (const Mix& mix : MakeMixes()) {
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      const std::size_t producers = std::min<std::size_t>(shards, 2);
      const RunResult result = RunConfig(mix, shards, producers, total);
      EmitLine(mix, shards, producers, result);
    }
  }
  return 0;
}
