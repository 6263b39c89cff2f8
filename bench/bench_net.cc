// bench_net — loopback throughput and delivery latency of the network
// front door (src/net, docs/NETWORK.md).
//
// Two measurements, one JSON line each on stdout (prose goes to stderr
// so `./bench_net > BENCH_NET.json` stays parseable):
//
//  - net_ingest: a grid of producer connections x batch sizes against a
//    4-shard engine over 127.0.0.1. Each connection blocks on the
//    BatchAck round trip per frame, so frames_per_sec is the sustained
//    acked frame rate and appends_per_sec the engine-accepted value
//    rate (the acceptance bar is >= 100k appends/s at 4 shards).
//
//  - net_alert_latency: end-to-end alert delivery. A producer pulses an
//    aggregate-threshold query above/below its threshold; the time from
//    just before the crossing batch is sent until the subscriber reads
//    the Alert frame covers the full path (frame decode, TryPost, shard
//    apply, query eval, AlertBus dispatch, AlertHub sequencing, epoll
//    push, subscriber read). Reported as p50/p90/p99/max microseconds.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "stream/threshold.h"

namespace {

using namespace stardust;

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Aggregate-path configuration shared by both measurements: SUM
/// aggregates so the query window `agg_window` is an indexed resolution
/// (alerts come from registered queries).
StardustConfig FleetConfig(std::size_t base, std::size_t agg_window) {
  StardustConfig fleet;
  fleet.transform = TransformKind::kAggregate;
  fleet.aggregate = AggregateKind::kSum;
  fleet.base_window = base;
  fleet.num_levels = 1;
  while ((agg_window / base) >> fleet.num_levels) ++fleet.num_levels;
  fleet.history = std::max(4 * agg_window, base << (fleet.num_levels - 1));
  fleet.box_capacity = 4;
  fleet.update_period = 1;
  return fleet;
}

struct ServerFixture {
  std::unique_ptr<IngestEngine> engine;
  std::unique_ptr<net::NetServer> server;
};

ServerFixture StartFixture(std::size_t num_streams, std::size_t base,
                           std::size_t agg_window) {
  EngineConfig econfig;
  econfig.num_shards = 4;
  econfig.queue_capacity = 1 << 14;
  econfig.max_batch = 256;
  econfig.overload = OverloadPolicy::kBlock;

  ServerFixture fx;
  auto engine = IngestEngine::Create(FleetConfig(base, agg_window), {},
                                     num_streams, econfig);
  if (!engine.ok()) {
    std::fprintf(stderr, "bench_net: engine: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  fx.engine = std::move(engine).value();
  auto server = net::NetServer::Start(fx.engine.get());
  if (!server.ok()) {
    std::fprintf(stderr, "bench_net: server: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  fx.server = std::move(server).value();
  return fx;
}

// ---------------------------------------------------------------------------
// net_ingest: connections x batch size grid
// ---------------------------------------------------------------------------

void RunIngestConfig(std::size_t connections, std::size_t batch_values,
                     std::size_t total_values) {
  constexpr std::size_t kStreams = 64;
  ServerFixture fx = StartFixture(kStreams, /*base=*/16, /*agg_window=*/32);
  const std::uint16_t port = fx.server->port();

  const std::size_t batches_per_conn =
      std::max<std::size_t>(1, total_values / (connections * batch_values));
  std::vector<std::uint64_t> accepted(connections, 0);
  std::vector<std::uint64_t> dropped(connections, 0);
  std::vector<std::thread> threads;
  threads.reserve(connections);

  const std::uint64_t t0 = NowNanos();
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::ProducerClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        std::fprintf(stderr, "bench_net: connect: %s\n",
                     client.status().ToString().c_str());
        std::exit(1);
      }
      net::BatchMessage batch;
      batch.runs.resize(1);
      batch.runs[0].values.assign(batch_values, 1.0);
      for (std::size_t i = 0; i < batches_per_conn; ++i) {
        // Cycle the target stream so every shard sees traffic.
        batch.runs[0].stream =
            static_cast<std::uint32_t>((i * connections + c) % kStreams);
        auto ack = client.value()->Send(batch);
        if (!ack.ok()) {
          std::fprintf(stderr, "bench_net: send: %s\n",
                       ack.status().ToString().c_str());
          std::exit(1);
        }
        accepted[c] += ack.value().accepted;
        dropped[c] += ack.value().dropped;
      }
      client.value()->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = static_cast<double>(NowNanos() - t0) * 1e-9;

  std::uint64_t total_accepted = 0;
  std::uint64_t total_dropped = 0;
  for (std::size_t c = 0; c < connections; ++c) {
    total_accepted += accepted[c];
    total_dropped += dropped[c];
  }
  const std::uint64_t total_batches =
      static_cast<std::uint64_t>(batches_per_conn) * connections;
  fx.server->Stop();
  fx.engine->Stop();

  std::printf("{\"bench\":\"net_ingest\",\"shards\":4,\"connections\":%zu,"
              "\"batch_values\":%zu,\"batches\":%" PRIu64
              ",\"accepted\":%" PRIu64 ",\"dropped\":%" PRIu64
              ",\"seconds\":%.3f,\"frames_per_sec\":%.0f,"
              "\"appends_per_sec\":%.0f}\n",
              connections, batch_values, total_batches, total_accepted,
              total_dropped, seconds,
              static_cast<double>(total_batches) / seconds,
              static_cast<double>(total_accepted) / seconds);
  std::fprintf(stderr,
               "  ingest conns=%zu batch=%zu: %.0f appends/s "
               "(%.0f frames/s, %.3fs)\n",
               connections, batch_values,
               static_cast<double>(total_accepted) / seconds,
               static_cast<double>(total_batches) / seconds, seconds);
}

// ---------------------------------------------------------------------------
// net_alert_latency: pulse a threshold query, time delivery
// ---------------------------------------------------------------------------

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void RunAlertLatency(std::size_t rounds) {
  constexpr std::size_t kStreams = 8;
  constexpr std::size_t kWindow = 20;
  ServerFixture fx = StartFixture(kStreams, /*base=*/10, /*agg_window=*/kWindow);
  auto query = fx.engine->RegisterQuery(QuerySpec::Aggregate(kWindow, 100.0));
  if (!query.ok()) {
    std::fprintf(stderr, "bench_net: query: %s\n",
                 query.status().ToString().c_str());
    std::exit(1);
  }
  const std::uint16_t port = fx.server->port();

  auto producer = net::ProducerClient::Connect("127.0.0.1", port);
  auto subscriber =
      net::SubscriberClient::Connect("127.0.0.1", port, "bench-sub");
  if (!producer.ok() || !subscriber.ok()) {
    std::fprintf(stderr, "bench_net: client connect failed\n");
    std::exit(1);
  }

  net::BatchMessage high;
  high.runs.resize(1);
  high.runs[0].stream = 0;
  high.runs[0].values.assign(kWindow, 50.0);
  net::BatchMessage low = high;
  low.runs[0].values.assign(kWindow, 0.0);

  std::vector<double> latencies_us;
  latencies_us.reserve(rounds);
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < rounds; ++i) {
    // The query is edge-triggered: a window of 50s crosses the SUM
    // threshold once; the window of 0s that follows re-arms it.
    high.runs[0].stream = static_cast<std::uint32_t>(i % kStreams);
    low.runs[0].stream = high.runs[0].stream;
    const std::uint64_t t0 = NowNanos();
    auto ack = producer.value()->Send(high);
    if (!ack.ok()) break;
    auto alert = subscriber.value()->Next(/*timeout_ms=*/5000);
    const std::uint64_t t1 = NowNanos();
    if (!alert.ok()) {
      std::fprintf(stderr, "bench_net: round %zu: no alert: %s\n", i,
                   alert.status().ToString().c_str());
      break;
    }
    ++delivered;
    latencies_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    (void)subscriber.value()->Ack(alert.value().seq);
    if (!producer.value()->Send(low).ok()) break;
  }
  producer.value()->Close();
  subscriber.value()->Close();
  fx.server->Stop();
  fx.engine->Stop();

  std::sort(latencies_us.begin(), latencies_us.end());
  std::printf("{\"bench\":\"net_alert_latency\",\"shards\":4,\"rounds\":%zu,"
              "\"delivered\":%zu,\"p50_us\":%.1f,\"p90_us\":%.1f,"
              "\"p99_us\":%.1f,\"max_us\":%.1f}\n",
              rounds, delivered, Percentile(latencies_us, 50.0),
              Percentile(latencies_us, 90.0), Percentile(latencies_us, 99.0),
              latencies_us.empty() ? 0.0 : latencies_us.back());
  std::fprintf(stderr,
               "  alert delivery over %zu rounds: p50=%.0fus p99=%.0fus\n",
               delivered, Percentile(latencies_us, 50.0),
               Percentile(latencies_us, 99.0));
}

}  // namespace

int main() {
  bench::PrintHeaderStderr(
      "bench_net: loopback front-door throughput and delivery latency",
      "Sec. 6 online monitoring; docs/NETWORK.md acceptance bar");

  const std::size_t total_values =
      bench::FullScale() ? (8u << 20) : (1u << 20);
  for (const std::size_t connections : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t batch_values :
         {std::size_t{16}, std::size_t{256}, std::size_t{4096}}) {
      RunIngestConfig(connections, batch_values, total_values);
    }
  }

  RunAlertLatency(bench::FullScale() ? 1000 : 200);
  return 0;
}
