// Loopback end-to-end tests of the network front door (src/net):
// producers stream batches into a live NetServer over real sockets, the
// engine evaluates continuous queries, and subscribers receive every
// alert with strictly increasing sequence numbers — across disconnects,
// reconnects, and a full server checkpoint/restore cycle
// (docs/NETWORK.md). Sequence-number conservation is the acceptance
// property: no alert is lost, none is delivered twice to an up-to-date
// subscriber.
#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "net/client.h"
#include "stream/threshold.h"

namespace stardust::net {
namespace {

// Fleet configuration: SUM monitoring, base window 10 (the registered
// aggregate query below fires once per stream per threshold crossing).
StardustConfig AggregateConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 10;
  config.num_levels = 4;
  config.history = 200;
  config.box_capacity = 2;
  config.update_period = 1;
  return config;
}

std::filesystem::path TempDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::unique_ptr<IngestEngine> MakeEngine(std::size_t num_streams,
                                         const EngineConfig& econfig,
                                         const std::string& restore = {}) {
  auto engine = IngestEngine::Create(AggregateConfig(), {}, num_streams,
                                     econfig, restore);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// One run of `count` copies of `value` for every stream in [0, n).
BatchMessage UniformBatch(std::size_t n, std::size_t count, double value) {
  BatchMessage batch;
  for (std::size_t s = 0; s < n; ++s) {
    batch.runs.push_back({static_cast<std::uint32_t>(s),
                          std::vector<double>(count, value)});
  }
  return batch;
}

/// Collects exactly `n` alerts, acking each; fails the test on timeout.
std::vector<AlertFrameMessage> Collect(SubscriberClient* sub,
                                       std::size_t n,
                                       bool ack = true) {
  std::vector<AlertFrameMessage> out;
  while (out.size() < n) {
    Result<AlertFrameMessage> alert = sub->Next(5000);
    if (!alert.ok()) {
      ADD_FAILURE() << "subscriber timed out after " << out.size() << "/"
                    << n << " alerts: " << alert.status().ToString();
      break;
    }
    if (ack) {
      EXPECT_TRUE(sub->Ack(alert.value().seq).ok());
    }
    out.push_back(std::move(alert).value());
  }
  return out;
}

void ExpectStrictlyIncreasing(const std::vector<AlertFrameMessage>& alerts) {
  for (std::size_t i = 1; i < alerts.size(); ++i) {
    EXPECT_GT(alerts[i].seq, alerts[i - 1].seq);
  }
}

// --- Basic loopback path ------------------------------------------------

TEST(NetServerTest, ProducerBatchesFeedEngineAndSubscriberGetsAlerts) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_batch = 8;
  auto engine = MakeEngine(4, econfig);
  ASSERT_TRUE(
      engine->RegisterQuery(QuerySpec::Aggregate(10, 100.0)).ok());
  auto server = std::move(NetServer::Start(engine.get())).value();
  ASSERT_NE(server->port(), 0);

  auto sub = std::move(SubscriberClient::Connect("127.0.0.1",
                                                 server->port(), "sub-a"))
                 .value();
  EXPECT_EQ(sub->resume_from(), 0u);

  auto producer =
      std::move(ProducerClient::Connect("127.0.0.1", server->port()))
          .value();
  // 30 x 50.0 per stream: every stream's trailing-10 sum crosses 100
  // once -> exactly one alert per stream.
  Result<BatchAckMessage> ack = producer->Send(UniformBatch(4, 30, 50.0));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().accepted, 120u);
  EXPECT_EQ(ack.value().dropped, 0u);
  ASSERT_TRUE(engine->Flush().ok());

  const std::vector<AlertFrameMessage> alerts = Collect(sub.get(), 4);
  ASSERT_EQ(alerts.size(), 4u);
  ExpectStrictlyIncreasing(alerts);
  std::set<std::uint64_t> seqs;
  for (const auto& alert : alerts) {
    seqs.insert(alert.seq);
    // The JSON line carries its sequence number (the alert schema plus a
    // leading "seq" field).
    EXPECT_NE(alert.json.find("\"seq\":"), std::string::npos);
    EXPECT_NE(alert.json.find("\"kind\":"), std::string::npos);
  }
  EXPECT_EQ(*seqs.begin(), 1u);
  EXPECT_EQ(*seqs.rbegin(), 4u);

  const NetMetricsSnapshot metrics = server->Metrics();
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(metrics.accepted, 120u);
  EXPECT_EQ(metrics.alerts_sent, 4u);
  EXPECT_EQ(metrics.corrupt_frames, 0u);
  const std::string json = server->MetricsJson();
  EXPECT_NE(json.find("\"net\":{"), std::string::npos);
  EXPECT_NE(json.find("\"hub\":{"), std::string::npos);

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(engine->Stop().ok());
}

TEST(NetServerTest, UnknownStreamsCountAsDroppedAndTheFeedSurvives) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  auto engine = MakeEngine(4, econfig);
  auto server = std::move(NetServer::Start(engine.get())).value();
  auto producer =
      std::move(ProducerClient::Connect("127.0.0.1", server->port()))
          .value();

  BatchMessage bad;
  bad.runs.push_back({999, {1.0, 2.0, 3.0}});  // no such stream
  bad.runs.push_back({0, {1.0}});
  Result<BatchAckMessage> ack = producer->Send(bad);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().accepted, 1u);
  EXPECT_EQ(ack.value().dropped, 3u);

  // The connection is still healthy after the partial drop.
  ack = producer->Send(UniformBatch(4, 5, 1.0));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().accepted, 20u);

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(engine->Stop().ok());
}

TEST(NetServerTest, EmptySubscriberIdIsRejectedClientSide) {
  EXPECT_FALSE(SubscriberClient::Connect("127.0.0.1", 1, "").ok());
}

// --- Fan-out and sequence conservation ----------------------------------

// N producers, two subscribers: both observe the identical sequence
// 1..K with no gaps and no duplicates, regardless of which producer
// drove which alert.
TEST(NetServerTest, TwoSubscribersSeeTheSameGaplessSequence) {
  constexpr std::size_t kStreams = 8;
  EngineConfig econfig;
  econfig.num_shards = 4;
  econfig.max_batch = 8;
  auto engine = MakeEngine(kStreams, econfig);
  ASSERT_TRUE(
      engine->RegisterQuery(QuerySpec::Aggregate(10, 100.0)).ok());
  auto server = std::move(NetServer::Start(engine.get())).value();

  auto sub_a = std::move(SubscriberClient::Connect(
                             "127.0.0.1", server->port(), "sub-a"))
                   .value();
  auto sub_b = std::move(SubscriberClient::Connect(
                             "127.0.0.1", server->port(), "sub-b"))
                   .value();

  // Three producer connections, each feeding its own slice of streams
  // from its own thread. Pulsing high/low drives one crossing per pulse
  // per stream: 2 pulses x 8 streams = 16 alerts.
  constexpr std::size_t kPulses = 2;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([p, port = server->port()] {
      auto client =
          std::move(ProducerClient::Connect("127.0.0.1", port)).value();
      for (std::size_t pulse = 0; pulse < kPulses; ++pulse) {
        for (std::uint32_t s = static_cast<std::uint32_t>(p); s < kStreams;
             s += 3) {
          BatchMessage high;
          high.runs.push_back({s, std::vector<double>(20, 50.0)});
          ASSERT_TRUE(client->Send(high).ok());
          BatchMessage low;
          low.runs.push_back({s, std::vector<double>(20, 0.0)});
          ASSERT_TRUE(client->Send(low).ok());
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(engine->Flush().ok());

  constexpr std::size_t kExpected = kPulses * kStreams;
  const auto alerts_a = Collect(sub_a.get(), kExpected);
  const auto alerts_b = Collect(sub_b.get(), kExpected);
  ASSERT_EQ(alerts_a.size(), kExpected);
  ASSERT_EQ(alerts_b.size(), kExpected);
  ExpectStrictlyIncreasing(alerts_a);
  ExpectStrictlyIncreasing(alerts_b);
  // Identical, gapless 1..K on both subscriptions.
  for (std::size_t i = 0; i < kExpected; ++i) {
    EXPECT_EQ(alerts_a[i].seq, i + 1);
    EXPECT_EQ(alerts_b[i].seq, i + 1);
    EXPECT_EQ(alerts_a[i].json, alerts_b[i].json);
  }

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(engine->Stop().ok());
}

// A subscriber killed mid-stream reconnects with the same id and resumes
// exactly after its last acknowledged sequence — nothing lost, nothing
// redelivered.
TEST(NetServerTest, KilledSubscriberResumesFromItsCursor) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_batch = 8;
  auto engine = MakeEngine(4, econfig);
  ASSERT_TRUE(
      engine->RegisterQuery(QuerySpec::Aggregate(10, 100.0)).ok());
  auto server = std::move(NetServer::Start(engine.get())).value();
  auto producer =
      std::move(ProducerClient::Connect("127.0.0.1", server->port()))
          .value();

  auto sub = std::move(SubscriberClient::Connect(
                           "127.0.0.1", server->port(), "phoenix"))
                 .value();
  ASSERT_TRUE(producer->Send(UniformBatch(4, 20, 50.0)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  const auto first = Collect(sub.get(), 2);  // ack only the first two
  ASSERT_EQ(first.size(), 2u);
  sub->Close();  // killed mid-run, alerts 3 and 4 unacknowledged

  // More alerts flow while the subscriber is gone.
  ASSERT_TRUE(producer->Send(UniformBatch(4, 20, 0.0)).ok());
  ASSERT_TRUE(producer->Send(UniformBatch(4, 20, 50.0)).ok());
  ASSERT_TRUE(engine->Flush().ok());

  auto reborn = std::move(SubscriberClient::Connect(
                              "127.0.0.1", server->port(), "phoenix"))
                    .value();
  EXPECT_EQ(reborn->resume_from(), first.back().seq);
  const auto rest = Collect(reborn.get(), 6);  // 2 unacked + 4 new
  ASSERT_EQ(rest.size(), 6u);
  ExpectStrictlyIncreasing(rest);
  EXPECT_EQ(rest.front().seq, first.back().seq + 1);
  EXPECT_EQ(rest.back().seq, 8u);

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(engine->Stop().ok());
}

// --- Checkpoint / restore -----------------------------------------------

// The flagship durability property: a full server restart in the middle
// of a subscription. The alert log's sequence allocator, its retained
// entries, and the subscriber's cursor ride the engine checkpoint's net
// file, so after restore the subscriber replays exactly its
// unacknowledged suffix and new alerts continue the sequence with no
// reuse.
TEST(NetServerTest, CheckpointRestoreConservesSequencesAndCursors) {
  const auto dir = TempDir("stardust_net_ckpt_test");
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_batch = 8;

  std::uint64_t acked = 0;
  std::uint64_t last_seen = 0;
  {
    auto engine = MakeEngine(4, econfig);
    ASSERT_TRUE(
        engine->RegisterQuery(QuerySpec::Aggregate(10, 100.0)).ok());
    auto server = std::move(NetServer::Start(engine.get())).value();
    auto producer =
        std::move(ProducerClient::Connect("127.0.0.1", server->port()))
            .value();
    auto sub = std::move(SubscriberClient::Connect(
                             "127.0.0.1", server->port(), "durable"))
                   .value();

    ASSERT_TRUE(producer->Send(UniformBatch(4, 20, 50.0)).ok());
    ASSERT_TRUE(engine->Flush().ok());
    // Consume all four alerts but acknowledge only the first two.
    const auto alerts = Collect(sub.get(), 4, /*ack=*/false);
    ASSERT_EQ(alerts.size(), 4u);
    acked = alerts[1].seq;
    last_seen = alerts[3].seq;
    ASSERT_TRUE(sub->Ack(acked).ok());
    // Give the ack a moment to land before the checkpoint.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    ASSERT_TRUE(server->Stop().ok());
    ASSERT_TRUE(engine->Checkpoint(dir.string()).ok());
    ASSERT_TRUE(engine->Stop().ok());
  }

  {
    auto engine = MakeEngine(4, econfig, dir.string());
    EXPECT_EQ(engine->alerts().retained(), last_seen - acked);
    auto server = std::move(NetServer::Start(engine.get())).value();
    // Allocator continued: nothing before last_seen + 1 is ever reused.
    EXPECT_EQ(engine->alerts().next_seq(), last_seen + 1);

    auto sub = std::move(SubscriberClient::Connect(
                             "127.0.0.1", server->port(), "durable"))
                   .value();
    EXPECT_EQ(sub->resume_from(), acked);
    // The unacknowledged suffix replays first...
    const auto replay = Collect(sub.get(), 2);
    ASSERT_EQ(replay.size(), 2u);
    EXPECT_EQ(replay.front().seq, acked + 1);
    EXPECT_EQ(replay.back().seq, last_seen);

    // ...and new alerts extend the same sequence. The restored monitors
    // are still saturated, so dip below the threshold and re-cross.
    auto producer =
        std::move(ProducerClient::Connect("127.0.0.1", server->port()))
            .value();
    ASSERT_TRUE(producer->Send(UniformBatch(4, 20, 0.0)).ok());
    ASSERT_TRUE(producer->Send(UniformBatch(4, 20, 50.0)).ok());
    ASSERT_TRUE(engine->Flush().ok());
    const auto fresh = Collect(sub.get(), 4);
    ASSERT_EQ(fresh.size(), 4u);
    ExpectStrictlyIncreasing(fresh);
    EXPECT_EQ(fresh.front().seq, last_seen + 1);

    ASSERT_TRUE(server->Stop().ok());
    ASSERT_TRUE(engine->Stop().ok());
  }
  std::filesystem::remove_all(dir);
}

// --- Backpressure -------------------------------------------------------

// Under kBlock with the workers paused, a full ring parks the batch:
// the ack is withheld (TCP backpressure to the producer) until the
// engine drains, and every value is eventually accepted — none dropped.
TEST(NetServerTest, BlockPolicyParksTheBatchUntilTheEngineDrains) {
  EngineConfig econfig;
  econfig.num_shards = 1;
  econfig.queue_capacity = 64;
  econfig.overload = OverloadPolicy::kBlock;
  econfig.start_paused = true;
  auto engine = MakeEngine(2, econfig);
  auto server = std::move(NetServer::Start(engine.get())).value();
  auto producer =
      std::move(ProducerClient::Connect("127.0.0.1", server->port()))
          .value();

  constexpr std::size_t kValues = 400;  // far beyond the ring capacity
  std::atomic<bool> acked{false};
  std::thread sender([&] {
    Result<BatchAckMessage> ack =
        producer->Send(UniformBatch(2, kValues, 1.0));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack.value().accepted, 2 * kValues);
    EXPECT_EQ(ack.value().dropped, 0u);
    acked = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(acked.load());  // parked: the ring is full, workers paused
  engine->Resume();
  sender.join();
  EXPECT_TRUE(acked.load());
  EXPECT_GE(server->Metrics().backpressure_episodes, 1u);
  EXPECT_EQ(engine->StreamAppendCount(0), 0u + kValues);

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(engine->Stop().ok());
}

// --- Admin plane --------------------------------------------------------

TEST(NetServerTest, AdminFramesDumpPlacementAndDriveMigration) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  auto engine = MakeEngine(4, econfig);
  auto server = std::move(NetServer::Start(engine.get())).value();
  auto admin =
      std::move(AdminClient::Connect("127.0.0.1", server->port())).value();

  // Placement dump: the live table as JSON, no Hello required.
  Result<AdminResultMessage> dump = admin->PlacementDump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_TRUE(dump.value().ok);
  EXPECT_NE(dump.value().json.find("\"epoch\":0"), std::string::npos);
  EXPECT_NE(dump.value().json.find("\"num_shards\":2"), std::string::npos);

  // Migrate stream 0 off its modulo-default shard 0.
  Result<AdminResultMessage> moved = admin->Migrate(0, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_TRUE(moved.value().ok) << moved.value().message;
  EXPECT_EQ(engine->placement().ShardOf(0), 1u);
  EXPECT_EQ(engine->metrics().migrations.load(), 1u);
  EXPECT_NE(moved.value().json.find("\"epoch\":1"), std::string::npos);

  // A refusal travels back as ok=0 with the engine's message, and the
  // connection survives to serve the next request.
  Result<AdminResultMessage> refused = admin->Migrate(0, 99);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_FALSE(refused.value().ok);
  EXPECT_FALSE(refused.value().message.empty());

  Result<AdminResultMessage> dump2 = admin->PlacementDump();
  ASSERT_TRUE(dump2.ok()) << dump2.status().ToString();
  EXPECT_NE(dump2.value().json.find("\"epoch\":1"), std::string::npos);

  // The migrated stream still ingests through the front door.
  auto producer =
      std::move(ProducerClient::Connect("127.0.0.1", server->port()))
          .value();
  Result<BatchAckMessage> ack = producer->Send(UniformBatch(4, 8, 1.0));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().accepted, 4u * 8u);
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->StreamAppendCount(0), 8u);

  EXPECT_EQ(server->Metrics().admin_requests, 4u);
  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(engine->Stop().ok());
}

// --- Hostile cursors and one server per engine -------------------------

// Regression: Hello.resume_after reached the subscriber cursor unchecked.
// A cursor past the last assigned sequence number silenced the
// subscriber until the allocator caught up (forever near 2^64), and
// 2^64 - 1 wrapped the fetch arithmetic. The cursor is clamped to the
// last assigned number, so every subscriber still gets the next alerts.
TEST(NetServerTest, ResumeCursorBeyondTheAllocatorIsClamped) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_batch = 8;
  auto engine = MakeEngine(4, econfig);
  ASSERT_TRUE(
      engine->RegisterQuery(QuerySpec::Aggregate(10, 100.0)).ok());
  auto server = std::move(NetServer::Start(engine.get())).value();

  const std::uint64_t hostile[] = {5, UINT64_MAX - 1, UINT64_MAX};
  std::vector<std::unique_ptr<SubscriberClient>> subs;
  for (std::size_t i = 0; i < 3; ++i) {
    auto sub = SubscriberClient::Connect("127.0.0.1", server->port(),
                                         "hostile-" + std::to_string(i),
                                         hostile[i]);
    ASSERT_TRUE(sub.ok()) << sub.status().ToString();
    EXPECT_EQ(sub.value()->resume_from(), 0u) << hostile[i];
    subs.push_back(std::move(sub).value());
  }

  auto producer =
      std::move(ProducerClient::Connect("127.0.0.1", server->port()))
          .value();
  ASSERT_TRUE(producer->Send(UniformBatch(4, 30, 50.0)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  for (const auto& sub : subs) {
    const auto alerts = Collect(sub.get(), 4);
    ASSERT_EQ(alerts.size(), 4u);
    for (std::size_t i = 0; i < alerts.size(); ++i) {
      EXPECT_EQ(alerts[i].seq, i + 1);
    }
  }
  EXPECT_EQ(server->Metrics().skipped_alerts, 0u);

  ASSERT_TRUE(server->Stop().ok());
  ASSERT_TRUE(engine->Stop().ok());
}

// The alert log wakes one server's loop; a second server on the same
// engine would take over that wakeup and starve the first.
TEST(NetServerTest, SecondServerOnOneEngineIsRefused) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_batch = 8;
  auto engine = MakeEngine(4, econfig);
  ASSERT_TRUE(
      engine->RegisterQuery(QuerySpec::Aggregate(10, 100.0)).ok());
  auto server = std::move(NetServer::Start(engine.get())).value();
  Result<std::unique_ptr<NetServer>> second = NetServer::Start(engine.get());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);

  // The refused server left the first one's wakeup in place.
  auto sub = std::move(SubscriberClient::Connect("127.0.0.1",
                                                 server->port(), "first"))
                 .value();
  auto producer =
      std::move(ProducerClient::Connect("127.0.0.1", server->port()))
          .value();
  ASSERT_TRUE(producer->Send(UniformBatch(4, 30, 50.0)).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(Collect(sub.get(), 4).size(), 4u);

  // Once the first server stops, the engine takes a new one.
  ASSERT_TRUE(server->Stop().ok());
  auto next = NetServer::Start(engine.get());
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next.value()->Stop().ok());
  ASSERT_TRUE(engine->Stop().ok());
}

}  // namespace
}  // namespace stardust::net
