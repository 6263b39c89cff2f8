#include "engine/engine.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "alert_recorder.h"
#include "core/fleet_monitor.h"
#include "engine/feature_pipeline.h"
#include "engine/metrics.h"
#include "engine/shard.h"
#include "stream/bursty_source.h"
#include "stream/threshold.h"

namespace stardust {
namespace {

StardustConfig StreamConfig() {
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

std::vector<WindowThreshold> Thresholds(double lambda) {
  BurstySource source(21);
  const std::vector<double> training = source.Take(3000);
  return TrainThresholds(AggregateKind::kSum, training, {10, 20, 40},
                         lambda);
}

TEST(IngestEngineTest, CreateValidation) {
  EXPECT_FALSE(
      IngestEngine::Create(StreamConfig(), Thresholds(2.0), 0).ok());
  EngineConfig bad;
  bad.num_shards = 0;
  EXPECT_FALSE(
      IngestEngine::Create(StreamConfig(), Thresholds(2.0), 4, bad).ok());
  // The aggregate path keeps AggregateMonitor's requirements.
  StardustConfig invalid = StreamConfig();
  invalid.base_window = 0;
  EXPECT_FALSE(IngestEngine::Create(invalid, {}, 4).ok());
  StardustConfig dwt = StreamConfig();
  dwt.transform = TransformKind::kDwt;
  dwt.base_window = 16;
  EXPECT_FALSE(IngestEngine::Create(dwt, {}, 4).ok());
  StardustConfig batch = StreamConfig();
  batch.update_period = 10;
  batch.box_capacity = 1;
  EXPECT_FALSE(IngestEngine::Create(batch, {}, 4).ok());
  StardustConfig dyadic = StreamConfig();
  dyadic.update_schedule = UpdateSchedule::kDyadic;
  dyadic.box_capacity = 1;
  EXPECT_FALSE(IngestEngine::Create(dyadic, {}, 4).ok());
  // Threshold windows: not a multiple of the base window, beyond the
  // levels (10 * 16 > 10 * (2^4 - 1)), beyond the history.
  EXPECT_FALSE(IngestEngine::Create(StreamConfig(), {{15, 1.0}}, 4).ok());
  EXPECT_FALSE(IngestEngine::Create(StreamConfig(), {{160, 1.0}}, 4).ok());
  StardustConfig short_history = StreamConfig();
  short_history.history = 100;
  EXPECT_FALSE(IngestEngine::Create(short_history, {{120, 1.0}}, 4).ok());
  // No thresholds is a plain engine: alerts come from registered queries.
  auto plain = IngestEngine::Create(StreamConfig(), {}, 4);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain.value()->queries().size(), 0u);
  EXPECT_TRUE(
      IngestEngine::Create(StreamConfig(), Thresholds(2.0), 4).ok());
}

// Create's thresholds are sugar: each becomes, in order, an aggregate
// query with the next id.
TEST(IngestEngineTest, ThresholdsRegisterAggregateQueriesInOrder) {
  EngineConfig config;
  config.num_shards = 8;
  const auto thresholds = Thresholds(2.0);
  auto engine = std::move(
                    IngestEngine::Create(StreamConfig(), thresholds, 3, config))
                    .value();
  EXPECT_EQ(engine->num_shards(), 3u);
  EXPECT_EQ(engine->num_streams(), 3u);
  const auto snapshot = engine->queries().snapshot();
  ASSERT_EQ(snapshot->size(), thresholds.size());
  ASSERT_EQ(snapshot->aggregate.size(), thresholds.size());
  for (std::size_t w = 0; w < thresholds.size(); ++w) {
    const auto& q = snapshot->aggregate[w];
    EXPECT_EQ(q->id, w + 1);
    EXPECT_EQ(q->spec.window, thresholds[w].window);
    EXPECT_EQ(q->spec.threshold, thresholds[w].threshold);
  }
  // An id that names no aggregate or sketch query is rejected.
  EXPECT_FALSE(engine->CurrentlyAlarming(thresholds.size() + 1).ok());
}

// Regression for the shape accessors: ShardOf() takes stream modulo the
// shard count, which was undefined on an (hypothetically) shardless
// engine. It is now guarded with SD_DCHECK; this pins the behavior on
// the smallest engine Create can produce.
TEST(IngestEngineTest, MinimalEngineShapeAccessorsAreSafe) {
  EngineConfig config;
  config.num_shards = 1;
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 1, config))
                    .value();
  EXPECT_EQ(engine->num_shards(), 1u);
  EXPECT_EQ(engine->num_streams(), 1u);
  EXPECT_EQ(engine->ShardOf(0), 0u);
  ASSERT_TRUE(engine->Stop().ok());
}

/// Per-tuple reference for Create's threshold queries (ids 1, 2, ...):
/// the exact rolling SUM of every window, recomputed from the raw values
/// after each arrival, alerting on each rising edge of `sum >= threshold`.
/// The BurstySource values are event counts, so the sums are exact.
std::vector<AlertRecorder::Key> RollingSumAlerts(
    const std::vector<std::vector<double>>& values,
    const std::vector<WindowThreshold>& thresholds) {
  std::vector<AlertRecorder::Key> keys;
  for (StreamId s = 0; s < values.size(); ++s) {
    for (std::size_t w = 0; w < thresholds.size(); ++w) {
      const std::size_t window = thresholds[w].window;
      bool alarming = false;
      for (std::size_t t = window - 1; t < values[s].size(); ++t) {
        double sum = 0.0;
        for (std::size_t k = t + 1 - window; k <= t; ++k) sum += values[s][k];
        const bool alarm = sum >= thresholds[w].threshold;
        if (alarm && !alarming) keys.emplace_back(w + 1, s, t, sum);
        alarming = alarm;
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// `engine` answers every threshold query like `direct`: the same append
/// count per stream and the same CurrentlyAlarming set per window.
void ExpectSameAsDirect(const IngestEngine& engine,
                        const FleetAggregateMonitor& direct,
                        std::size_t num_windows, std::uint64_t ticks) {
  for (StreamId s = 0; s < engine.num_streams(); ++s) {
    EXPECT_EQ(engine.StreamAppendCount(s), ticks) << "stream " << s;
  }
  for (std::size_t w = 0; w < num_windows; ++w) {
    auto want_alarming = direct.CurrentlyAlarming(w);
    auto got_alarming = engine.CurrentlyAlarming(w + 1);
    ASSERT_TRUE(want_alarming.ok());
    ASSERT_TRUE(got_alarming.ok()) << got_alarming.status().ToString();
    EXPECT_EQ(got_alarming.value(), want_alarming.value()) << "window " << w;
  }
}

/// Creates two engines over `thresholds` and feeds each `ticks`
/// synchronized arrivals of every stream, the same tuples a direct
/// FleetAggregateMonitor gets. The batched engine is flushed once at the
/// end, so its shards apply long runs through the span path (raw tail,
/// trackers, AppendRun); the per-tuple engine is flushed after every
/// tick, so each stream is evaluated after each of its tuples. Both must
/// end in the direct Algorithm-2 answer, and the per-tuple engine's
/// alerts must equal the rolling-sum reference. Returns the batched
/// engine.
std::unique_ptr<IngestEngine> ExpectMatchesDirectReplay(
    std::size_t streams, const std::vector<WindowThreshold>& thresholds,
    const EngineConfig& econfig, int ticks,
    const std::function<double(StreamId)>& next) {
  auto direct = std::move(FleetAggregateMonitor::Create(
                              StreamConfig(), thresholds, streams))
                    .value();
  auto batched = std::move(IngestEngine::Create(StreamConfig(), thresholds,
                                                streams, econfig))
                     .value();
  auto per_tuple = std::move(IngestEngine::Create(StreamConfig(), thresholds,
                                                  streams, econfig))
                       .value();
  AlertRecorder log(per_tuple.get());
  std::vector<std::vector<double>> values(streams);
  for (int t = 0; t < ticks; ++t) {
    for (StreamId s = 0; s < streams; ++s) {
      const double v = next(s);
      values[s].push_back(v);
      EXPECT_TRUE(direct->Append(s, v).ok());
      EXPECT_TRUE(batched->Post(s, v).ok());
      EXPECT_TRUE(per_tuple->Post(s, v).ok());
    }
    EXPECT_TRUE(per_tuple->Flush().ok());
  }
  EXPECT_TRUE(batched->Flush().ok());
  const auto count = static_cast<std::uint64_t>(ticks);
  ExpectSameAsDirect(*batched, *direct, thresholds.size(), count);
  ExpectSameAsDirect(*per_tuple, *direct, thresholds.size(), count);
  const std::vector<AlertRecorder::Key> want =
      RollingSumAlerts(values, thresholds);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(log.Sorted(), want);
  EXPECT_TRUE(per_tuple->Stop().ok());
  return batched;
}

// The core acceptance property: a 1-shard engine fed by one producer
// answers its threshold queries exactly like a direct Algorithm-2
// FleetAggregateMonitor replay of the same sequence.
TEST(IngestEngineTest, SingleShardMatchesDirectReplay) {
  const std::size_t streams = 4;
  EngineConfig econfig;
  econfig.num_shards = 1;
  econfig.queue_capacity = 64;
  std::vector<std::unique_ptr<BurstySource>> sources;
  for (std::uint64_t i = 0; i < streams; ++i) {
    sources.push_back(std::make_unique<BurstySource>(300 + i));
  }
  auto engine = ExpectMatchesDirectReplay(
      streams, Thresholds(2.0), econfig, 2000,
      [&sources](StreamId s) { return sources[s]->Next(); });
  std::vector<ShardStamp> stamps;
  ASSERT_TRUE(engine->CurrentlyAlarming(1, &stamps).ok());
  ASSERT_EQ(stamps.size(), 1u);
  EXPECT_EQ(stamps[0].appended, 2000u * streams);
  ASSERT_TRUE(engine->Stop().ok());
}

// Sharded and unsharded runs agree too: streams are independent, so the
// partitioning must not change any per-stream result.
TEST(IngestEngineTest, ShardedMatchesDirectReplayPerStream) {
  EngineConfig econfig;
  econfig.num_shards = 3;
  BurstySource source(77);
  auto engine = ExpectMatchesDirectReplay(
      6, Thresholds(2.0), econfig, 1500,
      [&source](StreamId) { return source.Next(); });
  EXPECT_EQ(engine->num_shards(), 3u);
  ASSERT_TRUE(engine->Stop().ok());
}

// A non-finite value is rejected as one append error and leaves no trace
// in the stream's state: the tuples around it apply as if it was never
// posted.
TEST(IngestEngineTest, NonFiniteValuesAreRejectedWithoutTouchingState) {
  EngineConfig econfig;
  econfig.num_shards = 1;
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 2, econfig))
                    .value();
  auto clean = std::move(IngestEngine::Create(StreamConfig(),
                                              Thresholds(2.0), 2, econfig))
                   .value();
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  std::vector<StreamValue> batch;
  std::vector<StreamValue> clean_batch;
  for (int t = 0; t < 120; ++t) {
    const StreamValue tuple{static_cast<StreamId>(t % 2), 1.0 * t};
    batch.push_back(tuple);
    clean_batch.push_back(tuple);
    // Mid-run, so the batched path must split the run around it.
    if (t == 40 || t == 41 || t == 90) batch.push_back({0, bad[t % 3]});
  }
  ASSERT_TRUE(engine->PostBatch(batch).ok());
  ASSERT_TRUE(clean->PostBatch(clean_batch).ok());
  const Status flushed = engine->Flush();
  EXPECT_EQ(flushed.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(flushed.message(), "stream values must be finite");
  ASSERT_TRUE(clean->Flush().ok());
  EXPECT_EQ(engine->metrics().append_errors.load(), 3u);
  EXPECT_EQ(engine->metrics().appended.load(), 120u);
  EXPECT_EQ(engine->StreamAppendCount(0), 60u);
  for (StreamId s = 0; s < 2; ++s) {
    std::string got;
    std::string want;
    ASSERT_TRUE(engine->DebugStreamState(s, &got).ok());
    ASSERT_TRUE(clean->DebugStreamState(s, &want).ok());
    EXPECT_EQ(got, want) << "stream " << s;
  }
}

TEST(IngestEngineTest, PostBatchAndValidation) {
  auto engine =
      std::move(IngestEngine::Create(StreamConfig(), Thresholds(2.0), 2))
          .value();
  EXPECT_FALSE(engine->Post(5, 1.0).ok());
  std::vector<StreamValue> batch;
  for (int t = 0; t < 100; ++t) {
    batch.push_back({0, 1.0 * t});
    batch.push_back({1, 2.0 * t});
  }
  ASSERT_TRUE(engine->PostBatch(batch).ok());
  const std::vector<StreamValue> bad_batch{{9, 1.0}};
  EXPECT_FALSE(engine->PostBatch(bad_batch).ok());
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->StreamAppendCount(0), 100u);
  EXPECT_EQ(engine->StreamAppendCount(1), 100u);
  ASSERT_TRUE(engine->Stop().ok());
  EXPECT_FALSE(engine->Post(0, 1.0).ok());
  EXPECT_TRUE(engine->Stop().ok());  // idempotent
}

// Fill a paused engine's queue beyond capacity and check the drop
// counters account for exactly the overflow.
TEST(IngestEngineTest, DropNewestCountsTheOverflow) {
  EngineConfig econfig;
  econfig.num_shards = 1;
  econfig.queue_capacity = 64;  // power of two: exact ring capacity
  econfig.overload = OverloadPolicy::kDropNewest;
  econfig.start_paused = true;  // nothing drains until Resume
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 1, econfig))
                    .value();
  const std::uint64_t posts = 64 + 37;
  for (std::uint64_t i = 0; i < posts; ++i) {
    ASSERT_TRUE(engine->Post(0, 1.0).ok());
  }
  EXPECT_EQ(engine->metrics().dropped_newest.load(), 37u);
  engine->Resume();
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->StreamAppendCount(0), 64u);  // the oldest 64 survived
  EXPECT_EQ(engine->metrics().posted.load(), 64u);
  EXPECT_EQ(engine->metrics().appended.load(), 64u);
  EXPECT_EQ(engine->metrics().dropped_oldest.load(), 0u);
}

TEST(IngestEngineTest, DropOldestKeepsTheFreshestData) {
  EngineConfig econfig;
  econfig.num_shards = 1;
  econfig.queue_capacity = 64;
  econfig.overload = OverloadPolicy::kDropOldest;
  econfig.start_paused = true;
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 1, econfig))
                    .value();
  const std::uint64_t posts = 64 + 37;
  for (std::uint64_t i = 0; i < posts; ++i) {
    ASSERT_TRUE(engine->Post(0, 1.0).ok());
  }
  EXPECT_EQ(engine->metrics().dropped_oldest.load(), 37u);
  engine->Resume();
  ASSERT_TRUE(engine->Flush().ok());
  // Every post was accepted; the 37 oldest were reclaimed unprocessed.
  EXPECT_EQ(engine->metrics().posted.load(), posts);
  EXPECT_EQ(engine->StreamAppendCount(0), 64u);
  EXPECT_EQ(engine->metrics().appended.load(), 64u);
  EXPECT_EQ(engine->metrics().dropped_newest.load(), 0u);
}

TEST(IngestEngineTest, MetricsJsonHasTheSchemaFields) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 4, econfig))
                    .value();
  for (int t = 0; t < 200; ++t) {
    for (StreamId s = 0; s < 4; ++s) {
      ASSERT_TRUE(engine->Post(s, 1.0 * t).ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  const std::string json = engine->MetricsJson();
  for (const char* field :
       {"\"posted\":800", "\"appended\":800", "\"dropped_newest\":0",
        "\"dropped_oldest\":0", "\"append_latency_ns\"", "\"p99\"",
        "\"buckets\"", "\"shards\":[", "\"queue_high_water\"",
        "\"epoch\"", "\"pin_failures\":0", "\"pinned\":false",
        "\"maintain_ns_per_append\"", "\"apply_batch_ns\""}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << "missing " << field << " in " << json;
  }
  EXPECT_EQ(engine->metrics().append_latency.Count(), 800u);
}

// Regression: a kBlock producer spinning against a full ring used to spin
// forever if the worker was paused when Stop() was called — Stop joins
// the workers, the producer never frees, deadlock. The wait loop now
// checks the stop flag and bails out with Aborted.
TEST(IngestEngineTest, BlockedPostDoesNotDeadlockStop) {
  EngineConfig econfig;
  econfig.num_shards = 1;
  econfig.queue_capacity = 64;
  econfig.overload = OverloadPolicy::kBlock;
  econfig.start_paused = true;  // the worker never drains
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 1, econfig))
                    .value();

  std::atomic<bool> returned{false};
  Status blocked_status;
  // Rings are per producer, so the fill and the blocking post must come
  // from the same thread.
  std::thread producer([&] {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(engine->Post(0, 1.0).ok());
    }
    blocked_status = engine->Post(0, 2.0);  // ring full: blocks
    returned.store(true, std::memory_order_release);
  });
  // Let the producer reach the blocking wait.
  for (int i = 0; i < 100 && !returned.load(std::memory_order_acquire);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(engine->Stop().ok());
  producer.join();  // the regression: this join used to hang forever
  EXPECT_TRUE(returned.load());
  // The blocked post either squeezed in while the worker drained for
  // shutdown, or was cleanly aborted — never stuck, never a crash.
  EXPECT_TRUE(blocked_status.ok() ||
              blocked_status.code() == StatusCode::kAborted)
      << blocked_status.ToString();
}

TEST(IngestEngineTest, EpochStampsAdvanceWithAppliedBatches) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 4, econfig))
                    .value();
  std::vector<ShardStamp> before;
  ASSERT_TRUE(engine->CurrentlyAlarming(1, &before).ok());
  for (int t = 0; t < 300; ++t) {
    for (StreamId s = 0; s < 4; ++s) {
      ASSERT_TRUE(engine->Post(s, 1.0).ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  std::vector<ShardStamp> after;
  ASSERT_TRUE(engine->CurrentlyAlarming(1, &after).ok());
  ASSERT_EQ(before.size(), 2u);
  ASSERT_EQ(after.size(), 2u);
  std::uint64_t appended = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_GT(after[i].epoch, before[i].epoch);
    EXPECT_EQ(after[i].shard, i);
    appended += after[i].appended;
  }
  EXPECT_EQ(appended, 1200u);
}

// The compute-once contract of the feature pipeline (docs/FEATURES.md):
// every applied batch updates the pipeline exactly once, so the pipeline
// counters track the shard epoch and append count exactly — no batch is
// skipped and none is processed twice.
TEST(IngestEngineTest, FeaturePipelineUpdatesExactlyOncePerBatch) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 4, econfig))
                    .value();
  for (int t = 0; t < 250; ++t) {
    for (StreamId s = 0; s < 4; ++s) {
      ASSERT_TRUE(engine->Post(s, 1.0 * t).ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  std::uint64_t pipeline_appends = 0;
  for (const ShardMetricsSnapshot& shard : engine->ShardMetrics()) {
    EXPECT_EQ(shard.pipeline_batches, shard.epoch)
        << "shard " << shard.shard
        << ": pipeline updated a different number of times than batches "
           "were applied";
    EXPECT_EQ(shard.pipeline_appends, shard.appended);
    pipeline_appends += shard.pipeline_appends;
  }
  EXPECT_EQ(pipeline_appends, 1000u);
  const std::string json = engine->MetricsJson();
  for (const char* field : {"\"pipeline\"", "\"znorm_computes\"",
                            "\"plan\"", "\"queries\":["}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << "missing " << field << " in " << json;
  }
}

// Regression: the worker used to scan the producer rings from slot 0 on
// every sweep, so a producer keeping ring 0 full under kBlock could
// starve every later ring indefinitely (its blocked producers never
// progressed). The drain now rotates its starting ring per sweep; this
// pins that by demanding rings 1 and 2 drain while a thread keeps ring 0
// saturated. max_batch (16) is deliberately smaller than what ring 0 can
// supply, so an unrotated drain would fill every batch from ring 0 alone.
TEST(ShardTest, DrainRotationKeepsSaturatedProducerFromStarvingOthers) {
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kQueue = 64;
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 10;
  config.num_levels = 2;
  config.history = 40;
  auto pipeline =
      std::make_unique<FeaturePipeline>(config, nullptr, nullptr, kProducers);
  EngineMetrics metrics;
  Shard shard(0, 1, kProducers, kQueue, OverloadPolicy::kBlock,
              /*max_batch=*/16, std::move(pipeline), nullptr, nullptr,
              &metrics);
  shard.set_paused(true);
  shard.Start();
  // Fill every ring while the worker is paused (producer p -> stream p).
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < kQueue; ++i) {
      ASSERT_TRUE(shard.Push(p, static_cast<StreamId>(p), 1.0).ok());
    }
  }
  // Keep ring 0 under constant kBlock pressure from its own thread.
  std::thread pusher([&shard] {
    for (int i = 0; i < 200000; ++i) {
      if (!shard.Push(0, 0, 1.0).ok()) return;  // Aborted at shutdown
    }
  });
  shard.set_paused(false);
  // Mid-flight fairness: by the time 12 batches' worth of tuples have
  // been applied, a rotating drain has visited every ring several times
  // while ring 0 was never empty. The old fixed-start drain would have
  // served those first ~192 tuples entirely from ring 0.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (shard.applied() < 12 * 16 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GE(shard.applied(), 12u * 16u) << "worker made no progress";
  std::uint64_t count1 = 0;
  std::uint64_t count2 = 0;
  ASSERT_TRUE(shard.FindStreamAppendCount(1, &count1));
  ASSERT_TRUE(shard.FindStreamAppendCount(2, &count2));
  EXPECT_GE(count1, 16u)
      << "producer 1 starved behind the saturated ring 0";
  EXPECT_GE(count2, 16u)
      << "producer 2 starved behind the saturated ring 0";
  shard.RequestStop();
  pusher.join();
  shard.Join();
  EXPECT_TRUE(shard.worker_status().ok());
}

// pin_shards with a failing affinity call must degrade gracefully: one
// pin_failures tick per shard, workers unpinned but fully functional,
// and never an abort.
TEST(IngestEngineTest, PinFailureIsCountedOnceAndNonFatal) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.pin_shards = true;
  std::atomic<int> attempts{0};
  econfig.pin_hook = [&attempts](std::size_t) {
    attempts.fetch_add(1);
    return false;  // injected affinity failure
  };
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 4, econfig))
                    .value();
  for (int t = 0; t < 100; ++t) {
    for (StreamId s = 0; s < 4; ++s) {
      ASSERT_TRUE(engine->Post(s, 1.0 * t).ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(attempts.load(), 2);  // one attempt per shard, not per batch
  EXPECT_EQ(engine->metrics().pin_failures.load(), 2u);
  EXPECT_EQ(engine->metrics().appended.load(), 400u);
  const std::string json = engine->MetricsJson();
  EXPECT_NE(json.find("\"pin_failures\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pinned\":false"), std::string::npos) << json;
  ASSERT_TRUE(engine->Stop().ok());
}

TEST(IngestEngineTest, PinSuccessIsReportedPerShard) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.pin_shards = true;
  std::atomic<int> attempts{0};
  econfig.pin_hook = [&attempts](std::size_t) {
    attempts.fetch_add(1);
    return true;
  };
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 4, econfig))
                    .value();
  for (StreamId s = 0; s < 4; ++s) {
    ASSERT_TRUE(engine->Post(s, 1.0).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(engine->metrics().pin_failures.load(), 0u);
  const std::string json = engine->MetricsJson();
  EXPECT_NE(json.find("\"pinned\":true"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"pinned\":false"), std::string::npos) << json;
  ASSERT_TRUE(engine->Stop().ok());
}

// Regression: pin_shards pinned shard s to core s modulo the hardware
// concurrency, which under an affinity mask can be a CPU the process may
// not use. Every shard now pins to a CPU of the creating thread's mask.
TEST(IngestEngineTest, PinShardsStayInsideTheAffinityMask) {
#if defined(__linux__)
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  std::size_t cpu = 0;
  for (std::size_t c = 1; c < CPU_SETSIZE && cpu == 0; ++c) {
    if (CPU_ISSET(c, &original)) cpu = c;
  }
  if (cpu == 0) GTEST_SKIP() << "needs a usable CPU other than 0";
  // Restores this thread's mask however the test exits.
  struct MaskGuard {
    const cpu_set_t& mask;
    ~MaskGuard() { sched_setaffinity(0, sizeof(mask), &mask); }
  } guard{original};
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);

  EngineConfig econfig;
  econfig.num_shards = 3;
  econfig.pin_shards = true;
  std::mutex mu;
  std::vector<std::size_t> cores;
  econfig.pin_hook = [&mu, &cores](std::size_t core) {
    std::lock_guard<std::mutex> lock(mu);
    cores.push_back(core);
    return true;
  };
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 3, econfig))
                    .value();
  ASSERT_TRUE(engine->Stop().ok());
  EXPECT_EQ(cores, std::vector<std::size_t>(3, cpu));
#else
  GTEST_SKIP() << "thread affinity is Linux only";
#endif
}

}  // namespace
}  // namespace stardust
