// Concurrency stress for the continuous-query subsystem: query
// registration and unregistration racing live multi-producer ingestion
// and the correlator. Run under TSan in CI; the assertions here are the
// invariants that must hold regardless of interleaving (unique ids,
// consistent registry size, conserved alert accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "query/sinks.h"
#include "stream/threshold.h"

namespace stardust {
namespace {

StardustConfig AggregateConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 10;
  config.num_levels = 3;
  config.history = 100;
  config.box_capacity = 2;
  config.update_period = 1;
  return config;
}

EngineConfig StressEngineConfig() {
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_batch = 32;
  econfig.query.enable_patterns = true;
  econfig.query.pattern.transform = TransformKind::kDwt;
  econfig.query.pattern.normalization = Normalization::kUnitSphere;
  econfig.query.pattern.coefficients = 4;
  econfig.query.pattern.r_max = 8.0;
  econfig.query.pattern.base_window = 8;
  econfig.query.pattern.num_levels = 2;
  econfig.query.pattern.history = 64;
  econfig.query.pattern.update_period = 1;
  econfig.query.pattern.index_features = true;
  econfig.query.enable_correlation = true;
  econfig.query.correlation.transform = TransformKind::kDwt;
  econfig.query.correlation.normalization = Normalization::kZNorm;
  econfig.query.correlation.coefficients = 4;
  econfig.query.correlation.base_window = 8;
  econfig.query.correlation.num_levels = 2;
  econfig.query.correlation.history = 64;
  econfig.query.correlation.update_period = 8;
  econfig.query.correlator_period_ms = 2;
  return econfig;
}

// Register/unregister churn from multiple threads while producers post and
// the shard workers + correlator evaluate against whatever snapshot they
// hold. Every returned id must be unique and the registry must account
// for exactly the registrations that were not unregistered.
TEST(QueryStressTest, RegisterUnregisterRacesLiveIngestion) {
  constexpr std::size_t kStreams = 4;
  constexpr int kProducers = 2;
  constexpr int kChurners = 2;
  constexpr int kChurnIterations = 150;
  constexpr std::uint64_t kStepsPerStream = 4000;

  auto engine = std::move(IngestEngine::Create(AggregateConfig(),
                                               {}, kStreams,
                                               StressEngineConfig()))
                    .value();
  auto ring = std::make_shared<RingSink>(1 << 16);
  engine->alerts().AddSink(ring);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      // Disjoint stream sets: streams p and p + kProducers.
      const StreamId streams[2] = {static_cast<StreamId>(p),
                                   static_cast<StreamId>(p + kProducers)};
      for (std::uint64_t t = 0; t < kStepsPerStream; ++t) {
        for (StreamId s : streams) {
          // A low/high square wave: crosses aggregate thresholds often so
          // churned queries really alert while they exist.
          const double value = (t / 16) % 2 == 0 ? 1.0 : 9.0;
          ASSERT_TRUE(engine->Post(s, value).ok());
        }
      }
    });
  }

  std::mutex ids_mu;
  std::vector<QueryId> all_ids;
  std::atomic<int> registered{0};
  std::atomic<int> unregistered{0};
  std::vector<std::thread> churners;
  for (int c = 0; c < kChurners; ++c) {
    churners.emplace_back([&, c] {
      std::vector<QueryId> mine;
      for (int i = 0; i < kChurnIterations; ++i) {
        QuerySpec spec;
        switch ((c + i) % 3) {
          case 0:
            spec = QuerySpec::Aggregate(10 * (1 + i % 4), 50.0 + i);
            break;
          case 1:
            spec = QuerySpec::Pattern(
                std::vector<double>(8, 1.0 + 0.1 * i), 0.2);
            break;
          default:
            spec = QuerySpec::Correlation(0.25 + 0.01 * (i % 10));
            break;
        }
        auto id = engine->RegisterQuery(std::move(spec));
        ASSERT_TRUE(id.ok());
        mine.push_back(id.value());
        registered.fetch_add(1);
        // Unregister every other query, sometimes after letting it run.
        if (i % 2 == 1) {
          const QueryId victim = mine[mine.size() - 2];
          ASSERT_TRUE(engine->UnregisterQuery(victim).ok());
          unregistered.fetch_add(1);
        }
        if (i % 16 == 0) std::this_thread::yield();
      }
      std::lock_guard<std::mutex> lock(ids_mu);
      all_ids.insert(all_ids.end(), mine.begin(), mine.end());
    });
  }

  for (std::thread& t : churners) t.join();
  for (std::thread& t : producers) t.join();
  ASSERT_TRUE(engine->Flush().ok());

  // Every id handed out is unique — across threads, across kinds, across
  // unregistrations.
  std::set<QueryId> unique(all_ids.begin(), all_ids.end());
  EXPECT_EQ(unique.size(), all_ids.size());
  EXPECT_EQ(static_cast<int>(all_ids.size()), registered.load());
  EXPECT_EQ(unique.count(kInvalidQueryId), 0u);

  // The registry holds exactly the surviving queries.
  EXPECT_EQ(engine->queries().size(),
            static_cast<std::size_t>(registered.load() -
                                     unregistered.load()));

  ASSERT_TRUE(engine->Stop().ok());

  // Alert accounting is conserved under all the churn.
  const AlertBus& bus = engine->alerts();
  EXPECT_EQ(bus.published(),
            bus.delivered() + bus.dropped_newest() + bus.dropped_oldest());
  EXPECT_EQ(ring->total(), bus.delivered());
  // The square wave crosses the churned thresholds: the subsystem really
  // evaluated and alerted while being reconfigured.
  EXPECT_GT(bus.delivered(), 0u);
  for (const auto& m : engine->queries().Metrics()) {
    EXPECT_NE(m.id, kInvalidQueryId);
  }
}

// Sinks added and removed while alerts flow: no lost dispatcher, no
// crash, and the permanent sink sees every delivered alert.
TEST(QueryStressTest, SinkChurnDuringDelivery) {
  constexpr std::uint64_t kSteps = 3000;
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_batch = 16;
  auto engine = std::move(IngestEngine::Create(AggregateConfig(),
                                               {}, 2, econfig))
                    .value();
  auto permanent = std::make_shared<RingSink>(1 << 16);
  engine->alerts().AddSink(permanent);
  ASSERT_TRUE(engine->RegisterQuery(QuerySpec::Aggregate(10, 40.0)).ok());

  std::atomic<bool> stop_churn{false};
  std::thread churner([&engine, &stop_churn] {
    while (!stop_churn.load()) {
      auto transient = std::make_shared<RingSink>();
      const AlertBus::SinkId id = engine->alerts().AddSink(transient);
      std::this_thread::yield();
      ASSERT_TRUE(engine->alerts().RemoveSink(id));
    }
  });

  for (std::uint64_t t = 0; t < kSteps; ++t) {
    const double value = (t / 8) % 2 == 0 ? 0.0 : 9.0;
    ASSERT_TRUE(engine->Post(0, value).ok());
    ASSERT_TRUE(engine->Post(1, value).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  stop_churn.store(true);
  churner.join();
  ASSERT_TRUE(engine->Stop().ok());

  EXPECT_GT(permanent->total(), 0u);
  EXPECT_EQ(permanent->total(), engine->alerts().delivered());
}

}  // namespace
}  // namespace stardust
