// Concurrency stress for the ingestion engine and its SPSC rings. These
// tests are the payload of the CI thread-sanitizer job (-DSTARDUST_SANITIZE
// =thread): they exercise multi-producer posting, drop-oldest stealing,
// and concurrent snapshot reads while workers are applying batches.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/ring_buffer.h"
#include "engine/engine.h"
#include "stream/threshold.h"

namespace stardust {
namespace {

StardustConfig StreamConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 8;
  config.num_levels = 3;
  config.history = 64;
  config.box_capacity = 2;
  config.update_period = 1;
  return config;
}

std::vector<WindowThreshold> Thresholds() {
  std::vector<double> training;
  for (int i = 0; i < 2000; ++i) {
    training.push_back(static_cast<double>(i % 17));
  }
  return TrainThresholds(AggregateKind::kSum, training, {8, 16}, 2.0);
}

// SPSC ring ping-pong: every pushed value arrives exactly once, in order.
TEST(SpscRingStressTest, HandsOverEveryValueInOrder) {
  SpscRing<std::uint64_t> ring(256);
  const std::uint64_t total = 200000;
  std::atomic<bool> fail{false};
  std::thread consumer([&] {
    std::uint64_t expected = 0;
    while (expected < total) {
      std::uint64_t v;
      if (ring.TryPop(&v)) {
        if (v != expected) {
          fail.store(true);
          return;
        }
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < total; ++i) {
    while (!ring.TryPush(i)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_FALSE(fail.load());
  EXPECT_TRUE(ring.ApproxEmpty());
}

// The drop-oldest path has the producer popping its own ring while the
// consumer pops concurrently: every value must surface exactly once, on
// exactly one side.
TEST(SpscRingStressTest, ProducerStealRacesConsumerSafely) {
  SpscRing<std::uint64_t> ring(64);
  const std::uint64_t total = 100000;
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> done{false};
  std::atomic<bool> duplicate{false};
  std::vector<std::uint8_t> consumer_seen(total, 0);

  std::thread consumer([&] {
    std::uint64_t v;
    while (!done.load(std::memory_order_acquire)) {
      if (ring.TryPop(&v)) {
        consumer_seen[v]++;
        consumed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    while (ring.TryPop(&v)) {
      consumer_seen[v]++;
      consumed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::uint64_t stolen = 0;
  std::vector<std::uint8_t> producer_seen(total, 0);
  for (std::uint64_t i = 0; i < total; ++i) {
    while (!ring.TryPush(i)) {
      std::uint64_t victim;
      if (ring.TryPop(&victim)) {
        producer_seen[victim]++;
        ++stolen;
      }
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(consumed.load() + stolen, total);
  for (std::uint64_t i = 0; i < total; ++i) {
    const int times = consumer_seen[i] + producer_seen[i];
    if (times != 1) duplicate.store(true);
  }
  EXPECT_FALSE(duplicate.load()) << "a value was lost or duplicated";
}

// Multi-producer ingestion under kBlock: nothing is lost, nothing is
// duplicated, per-stream append counts come out exact.
TEST(EngineStressTest, MultiProducerBlockLosesNothing) {
  const std::size_t streams = 16;
  const std::size_t producers = 4;
  const std::uint64_t posts_per_producer = 20000;
  EngineConfig econfig;
  econfig.num_shards = 4;
  econfig.queue_capacity = 128;  // small: forces real backpressure
  econfig.max_producers = producers;
  econfig.overload = OverloadPolicy::kBlock;
  auto engine = std::move(IngestEngine::Create(StreamConfig(), Thresholds(),
                                               streams, econfig))
                    .value();

  std::atomic<bool> post_failed{false};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      // Producer p posts to every stream in a producer-specific rotation.
      for (std::uint64_t i = 0; i < posts_per_producer; ++i) {
        const StreamId stream =
            static_cast<StreamId>((i + p * 7) % streams);
        if (!engine->Post(stream, static_cast<double>(i % 100)).ok()) {
          post_failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(post_failed.load());
  ASSERT_TRUE(engine->Flush().ok());

  const std::uint64_t total = producers * posts_per_producer;
  EXPECT_EQ(engine->metrics().posted.load(), total);
  EXPECT_EQ(engine->metrics().appended.load(), total);
  EXPECT_EQ(engine->metrics().dropped_newest.load(), 0u);
  EXPECT_EQ(engine->metrics().dropped_oldest.load(), 0u);
  EXPECT_EQ(engine->metrics().append_errors.load(), 0u);
  // Each producer hits each stream exactly posts_per_producer / streams
  // times (both are multiples), so per-stream counts are exact.
  std::uint64_t sum = 0;
  for (StreamId s = 0; s < streams; ++s) {
    const std::uint64_t count = engine->StreamAppendCount(s);
    EXPECT_EQ(count, total / streams) << "stream " << s;
    sum += count;
  }
  EXPECT_EQ(sum, total);
  ASSERT_TRUE(engine->Stop().ok());
}

// Readers snapshotting while producers and workers run: no torn reads
// (TSan checks the synchronization; the assert checks monotonic epochs).
TEST(EngineStressTest, ConcurrentReadersSeeMonotonicEpochs) {
  const std::size_t streams = 8;
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_producers = 2;
  auto engine = std::move(IngestEngine::Create(StreamConfig(), Thresholds(),
                                               streams, econfig))
                    .value();

  std::atomic<bool> stop_readers{false};
  std::atomic<bool> monotonic{true};
  std::thread reader([&] {
    std::vector<std::uint64_t> last_epoch(engine->num_shards(), 0);
    std::vector<ShardStamp> stamps;
    while (!stop_readers.load(std::memory_order_acquire)) {
      // Query 1 is Thresholds()'s first window.
      if (!engine->CurrentlyAlarming(1, &stamps).ok()) monotonic.store(false);
      for (const ShardStamp& stamp : stamps) {
        if (stamp.epoch < last_epoch[stamp.shard]) monotonic.store(false);
        last_epoch[stamp.shard] = stamp.epoch;
      }
      (void)engine->MetricsJson();
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < 15000; ++i) {
        const StreamId stream = static_cast<StreamId>((i + p) % streams);
        ASSERT_TRUE(engine->Post(stream, static_cast<double>(i % 50)).ok());
      }
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(engine->Flush().ok());
  stop_readers.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(monotonic.load());
  EXPECT_EQ(engine->metrics().appended.load(), 2u * 15000u);
}

// More producer threads than slots: the surplus thread gets a clean error
// instead of corrupting someone else's ring.
TEST(EngineStressTest, ProducerSlotExhaustionIsACleanError) {
  EngineConfig econfig;
  econfig.max_producers = 1;
  auto engine = std::move(IngestEngine::Create(StreamConfig(), Thresholds(),
                                               2, econfig))
                    .value();
  ASSERT_TRUE(engine->Post(0, 1.0).ok());  // this thread takes slot 0
  Status other_status = Status::OK();
  std::thread other([&] { other_status = engine->Post(1, 1.0); });
  other.join();
  EXPECT_FALSE(other_status.ok());
  EXPECT_EQ(other_status.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(engine->metrics().appended.load(), 1u);
}

}  // namespace
}  // namespace stardust
