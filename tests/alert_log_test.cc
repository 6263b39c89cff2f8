#include "query/alert_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "engine/engine.h"
#include "fixture_bytes.h"
#include "query/sinks.h"

namespace stardust {
namespace {

constexpr char kNetMagic[4] = {'S', 'D', 'N', 'H'};
constexpr char kCursorMagic[4] = {'S', 'D', 'N', 'C'};

Alert MakeAlert(std::uint64_t n) {
  Alert alert;
  alert.query = n;
  alert.kind = QueryKind::kAggregate;
  alert.stream = static_cast<StreamId>(n);
  alert.window = 20;
  alert.end_time = 100 + n;
  alert.epoch = n;
  alert.value = 1.5 * static_cast<double>(n);
  alert.threshold = 1.0;
  return alert;
}

std::filesystem::path TempDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Holds the delivery thread inside its first OnAlert until Release, so
/// the entries appended meanwhile pile up as the sinks' backlog.
class LatchSink : public AlertSink {
 public:
  void OnAlert(const Alert& alert) override {
    std::unique_lock<std::mutex> lock(mu_);
    seen_.push_back(alert.query);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  std::vector<std::uint64_t> seen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
  std::vector<std::uint64_t> seen_;
};

class FailingFlushSink : public AlertSink {
 public:
  void OnAlert(const Alert&) override {}
  Status Flush() override { return Status::Internal("fsync failed"); }
};

TEST(AlertJsonTest, EncodesEveryField) {
  Alert alert;
  alert.query = 3;
  alert.kind = QueryKind::kPattern;
  alert.stream = 5;
  alert.stream_b = 0;
  alert.window = 32;
  alert.end_time = 511;
  alert.epoch = 14;
  alert.value = 0.5;
  alert.threshold = 0.75;
  EXPECT_EQ(AlertToJson(alert),
            "{\"query\":3,\"kind\":\"pattern\",\"stream\":5,"
            "\"stream_b\":0,\"window\":32,\"end_time\":511,\"epoch\":14,"
            "\"value\":0.5,\"threshold\":0.75}");
}

// --- In-process delivery ------------------------------------------------

TEST(AlertLogTest, DeliversInOrderToAllSinks) {
  AlertLog log(64, OverloadPolicy::kBlock);
  auto ring = std::make_shared<RingSink>();
  std::vector<std::uint64_t> seen;
  auto callback = std::make_shared<CallbackSink>(
      [&seen](const Alert& alert) { seen.push_back(alert.query); });
  log.AddSink(ring);
  log.AddSink(callback);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
  }
  const std::vector<Alert> rest = {MakeAlert(4), MakeAlert(5), MakeAlert(6),
                                   MakeAlert(7), MakeAlert(8), MakeAlert(9)};
  ASSERT_TRUE(log.Append(rest).ok());
  EXPECT_EQ(log.head(), 10u);
  log.WaitDelivered(log.head());
  EXPECT_EQ(log.delivered(), 10u);
  ASSERT_TRUE(log.Stop().ok());
  EXPECT_EQ(log.published(), 10u);
  ASSERT_EQ(seen.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
  const std::vector<Alert> kept = ring->Snapshot();
  ASSERT_EQ(kept.size(), 10u);
  EXPECT_EQ(kept.front().query, 0u);
  EXPECT_EQ(kept.back().query, 9u);
  EXPECT_GT(log.delivery_latency().Count(), 0u);
  // With no subscriber the log holds only undelivered alerts.
  EXPECT_EQ(log.retained(), 0u);
}

// Overflow property, kDropNewest: with the sinks held, the log keeps the
// first `capacity` undelivered alerts; later ones are refused and
// counted, and published == delivered + dropped_newest.
TEST(AlertLogTest, DropNewestKeepsOldestAlerts) {
  AlertLog log(4, OverloadPolicy::kDropNewest);
  auto latch = std::make_shared<LatchSink>();
  log.AddSink(latch);
  ASSERT_TRUE(log.Append(MakeAlert(0)).ok());
  latch->WaitEntered();
  for (std::uint64_t i = 1; i < 10; ++i) {
    ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
  }
  EXPECT_EQ(log.dropped_newest(), 5u);
  EXPECT_EQ(log.retained(), 4u);
  latch->Release();
  EXPECT_TRUE(log.Stop().ok());
  EXPECT_EQ(log.delivered(), 5u);
  EXPECT_EQ(log.published(), log.delivered() + log.dropped_newest());
  EXPECT_EQ(latch->seen(), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

// Overflow property, kDropOldest: with the sinks held, the log keeps the
// last `capacity` undelivered alerts; the sinks skip the evicted ones.
TEST(AlertLogTest, DropOldestKeepsNewestAlerts) {
  AlertLog log(4, OverloadPolicy::kDropOldest);
  auto latch = std::make_shared<LatchSink>();
  log.AddSink(latch);
  ASSERT_TRUE(log.Append(MakeAlert(0)).ok());
  latch->WaitEntered();
  for (std::uint64_t i = 1; i < 10; ++i) {
    ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
  }
  EXPECT_EQ(log.dropped_oldest(), 5u);
  EXPECT_EQ(log.retained(), 4u);
  latch->Release();
  EXPECT_TRUE(log.Stop().ok());
  EXPECT_EQ(log.delivered(), 5u);
  EXPECT_EQ(log.published(), log.delivered() + log.dropped_oldest());
  EXPECT_EQ(latch->seen(), (std::vector<std::uint64_t>{0, 6, 7, 8, 9}));
}

// Overflow property, kBlock: an appender against a full log waits until
// the delivery thread takes the oldest entry; nothing is lost.
TEST(AlertLogTest, BlockPolicyAppliesBackpressure) {
  AlertLog log(2, OverloadPolicy::kBlock);
  auto latch = std::make_shared<LatchSink>();
  log.AddSink(latch);
  ASSERT_TRUE(log.Append(MakeAlert(0)).ok());
  latch->WaitEntered();
  ASSERT_TRUE(log.Append(MakeAlert(1)).ok());
  ASSERT_TRUE(log.Append(MakeAlert(2)).ok());
  std::atomic<bool> appended{false};
  std::thread appender([&log, &appended] {
    EXPECT_TRUE(log.Append(MakeAlert(3)).ok());
    appended.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(appended.load());  // full log, sinks held
  latch->Release();
  appender.join();
  EXPECT_TRUE(appended.load());
  EXPECT_GE(log.block_waits(), 1u);
  EXPECT_TRUE(log.Stop().ok());
  EXPECT_EQ(log.delivered(), 4u);
  EXPECT_EQ(log.dropped_newest() + log.dropped_oldest(), 0u);
  EXPECT_EQ(latch->seen(), (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(AlertLogTest, StopDeliversTheTailAndRejectsLaterAppends) {
  AlertLog log(16, OverloadPolicy::kBlock);
  auto ring = std::make_shared<RingSink>();
  log.AddSink(ring);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
  }
  EXPECT_TRUE(log.Stop().ok());
  EXPECT_EQ(ring->total(), 8u);
  EXPECT_EQ(log.delivered(), 8u);
  const std::vector<Alert> kept = ring->Snapshot();
  ASSERT_EQ(kept.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(kept[i].query, i);
  const Status rejected = log.Append(MakeAlert(9));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kAborted);
  EXPECT_EQ(log.published(), 8u);
  EXPECT_TRUE(log.Stop().ok());  // idempotent
  log.WaitDelivered(log.head());  // returns on a stopped log
}

TEST(AlertLogTest, RemoveSinkStopsDelivery) {
  AlertLog log(16, OverloadPolicy::kBlock);
  auto ring = std::make_shared<RingSink>();
  const AlertLog::SinkId id = log.AddSink(ring);
  ASSERT_TRUE(log.Append(MakeAlert(0)).ok());
  log.WaitDelivered(log.head());
  EXPECT_TRUE(log.RemoveSink(id));
  EXPECT_FALSE(log.RemoveSink(id));  // already gone
  ASSERT_TRUE(log.Append(MakeAlert(1)).ok());
  log.WaitDelivered(log.head());
  EXPECT_TRUE(log.Stop().ok());
  EXPECT_EQ(ring->total(), 1u);
  EXPECT_EQ(log.delivered(), 2u);  // passed with or without sinks
}

TEST(AlertLogTest, RingSinkRetainsOnlyTheMostRecent) {
  RingSink sink(3);
  for (std::uint64_t i = 0; i < 7; ++i) sink.OnAlert(MakeAlert(i));
  EXPECT_EQ(sink.total(), 7u);
  const std::vector<Alert> kept = sink.Snapshot();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].query, 4u);
  EXPECT_EQ(kept[2].query, 6u);
}

TEST(AlertLogTest, JsonlFileSinkWritesOneLinePerAlert) {
  const std::filesystem::path dir = TempDir("stardust_jsonl_sink_test");
  const std::string path = (dir / "alerts.jsonl").string();
  {
    AlertLog log(16, OverloadPolicy::kBlock);
    auto sink = std::move(JsonlFileSink::Open(path)).value();
    log.AddSink(std::shared_ptr<JsonlFileSink>(std::move(sink)));
    for (std::uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
    }
    EXPECT_TRUE(log.Stop().ok());  // flushes the sink
  }
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(lines[i], AlertToJson(MakeAlert(i)));
  }
  std::filesystem::remove_all(dir);
}

// Stop flushes a file sink: the tail is on disk when Stop returns, not
// only when the sink is destroyed.
TEST(AlertLogTest, StopFlushesFileSink) {
  const std::filesystem::path dir = TempDir("stardust_stop_flush_test");
  const std::string path = (dir / "alerts.jsonl").string();
  {
    AlertLog log(16, OverloadPolicy::kBlock);
    auto sink = std::move(JsonlFileSink::Open(path)).value();
    log.AddSink(std::shared_ptr<JsonlFileSink>(std::move(sink)));
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
    }
    EXPECT_TRUE(log.Stop().ok());
    const std::vector<std::string> lines = ReadLines(path);
    ASSERT_EQ(lines.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(lines[i], AlertToJson(MakeAlert(i)));
    }
  }
  std::filesystem::remove_all(dir);
}

// Regression: the delivery stage used to discard sink flush errors, so a
// JSONL alert file whose final fsync failed reported a clean stop.
TEST(AlertLogTest, StopReturnsTheFirstSinkFlushError) {
  AlertLog log(16, OverloadPolicy::kBlock);
  log.AddSink(std::make_shared<RingSink>());
  log.AddSink(std::make_shared<FailingFlushSink>());
  ASSERT_TRUE(log.Append(MakeAlert(0)).ok());
  const Status stopped = log.Stop();
  EXPECT_EQ(stopped.code(), StatusCode::kInternal) << stopped.ToString();
  EXPECT_TRUE(log.Stop().ok());
}

// Many appenders racing one delivery thread: everything published is
// either delivered or accounted as dropped, never lost or duplicated.
TEST(AlertLogTest, ConcurrentAppendersConserveAlerts) {
  AlertLog log(32, OverloadPolicy::kDropOldest);
  auto ring = std::make_shared<RingSink>(100000);
  log.AddSink(ring);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::vector<std::thread> appenders;
  for (int p = 0; p < kThreads; ++p) {
    appenders.emplace_back([&log, p] {
      const std::uint64_t base = static_cast<std::uint64_t>(p) * kPerThread;
      for (std::uint64_t i = 0; i < kPerThread; i += 2) {
        const std::vector<Alert> pair = {MakeAlert(base + i),
                                         MakeAlert(base + i + 1)};
        EXPECT_TRUE(log.Append(pair).ok());
      }
    });
  }
  for (std::thread& t : appenders) t.join();
  EXPECT_TRUE(log.Stop().ok());
  EXPECT_EQ(log.published(), kThreads * kPerThread);
  EXPECT_EQ(log.published(), log.delivered() + log.dropped_oldest());
  EXPECT_EQ(ring->total(), log.delivered());
  EXPECT_LE(log.high_water(), 32u);
}

// Regression: a second Stop used to return as soon as the first had set
// the stopping flag, before the tail was delivered or the sinks flushed.
// Both racing Stops must observe full delivery.
TEST(AlertLogTest, ConcurrentStopsBothWaitForDelivery) {
  AlertLog log(64, OverloadPolicy::kBlock);
  auto ring = std::make_shared<RingSink>();
  auto slow = std::make_shared<CallbackSink>([](const Alert&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  log.AddSink(slow);
  log.AddSink(ring);
  static constexpr std::uint64_t kAlerts = 8;
  for (std::uint64_t i = 0; i < kAlerts; ++i) {
    ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
  }
  std::atomic<int> stops_returned{0};
  std::vector<std::thread> stoppers;
  for (int t = 0; t < 2; ++t) {
    stoppers.emplace_back([&log, &ring, &stops_returned] {
      EXPECT_TRUE(log.Stop().ok());
      EXPECT_EQ(ring->total(), kAlerts);
      stops_returned.fetch_add(1);
    });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_EQ(stops_returned.load(), 2);
  EXPECT_EQ(log.delivered(), kAlerts);
}

// --- Subscriber cursors --------------------------------------------------

// A subscriber that never acknowledges pins entries only up to the
// capacity: once the sinks have them, appends evict them instead of
// waiting, even under kBlock.
TEST(AlertLogTest, StuckSubscriberNeverBlocksAnAppend) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::uint64_t kAlerts = 1000;
  AlertLog log(kCapacity, OverloadPolicy::kBlock);
  auto ring = std::make_shared<RingSink>(kAlerts);
  log.AddSink(ring);
  EXPECT_EQ(log.Attach("stuck", 0), 0u);
  for (std::uint64_t i = 0; i < kAlerts; ++i) {
    ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
    ASSERT_LE(log.retained(), kCapacity);
  }
  log.WaitDelivered(log.head());
  EXPECT_EQ(ring->total(), kAlerts);
  EXPECT_EQ(log.retained(), kCapacity);
  EXPECT_EQ(log.evicted(), kAlerts - kCapacity);
  EXPECT_EQ(log.dropped_newest() + log.dropped_oldest(), 0u);
  EXPECT_LE(log.high_water(), kCapacity);

  std::vector<SequencedAlert> fetched;
  std::uint64_t skipped = 0;
  EXPECT_EQ(log.FetchAfter(0, 100, &fetched, &skipped), kCapacity);
  EXPECT_EQ(skipped, kAlerts - kCapacity);
  EXPECT_EQ(fetched.front().seq, kAlerts - kCapacity + 1);
  EXPECT_EQ(fetched.back().seq, kAlerts);
  EXPECT_TRUE(log.Stop().ok());
}

// An entry evicted while a subscriber still needed it is reported as the
// gap on that subscriber's next fetch.
TEST(AlertLogTest, EvictedSubscriberEntryReportsItsGap) {
  AlertLog log(4, OverloadPolicy::kDropOldest);
  log.Attach("laggard", 0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
  }
  log.WaitDelivered(log.head());
  EXPECT_EQ(log.retained(), 4u);
  // The sinks received every alert; only the subscriber lost 1..6.
  EXPECT_EQ(log.delivered(), 10u - log.dropped_oldest());
  EXPECT_EQ(log.dropped_oldest() + log.evicted(), 6u);

  std::vector<SequencedAlert> fetched;
  std::uint64_t skipped = 0;
  EXPECT_EQ(log.FetchAfter(0, 10, &fetched, &skipped), 4u);
  EXPECT_EQ(skipped, 6u);
  EXPECT_EQ(fetched.front().seq, 7u);
  EXPECT_TRUE(log.Stop().ok());
}

// kDropNewest refuses an alert before numbering it, so the numbers a
// subscriber sees stay consecutive.
TEST(AlertLogTest, DropNewestNeverCreatesSequenceGaps) {
  AlertLog log(4, OverloadPolicy::kDropNewest);
  auto latch = std::make_shared<LatchSink>();
  log.AddSink(latch);
  log.Attach("sub", 0);
  ASSERT_TRUE(log.Append(MakeAlert(0)).ok());
  latch->WaitEntered();
  log.Ack("sub", 1);
  for (std::uint64_t i = 1; i < 10; ++i) {
    ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
  }
  EXPECT_EQ(log.retained(), 4u);
  EXPECT_EQ(log.dropped_newest(), 5u);
  EXPECT_EQ(log.next_seq(), 6u);  // refused before numbering: 1..5 exist

  std::vector<SequencedAlert> fetched;
  std::uint64_t skipped = 0;
  EXPECT_EQ(log.FetchAfter(1, 10, &fetched, &skipped), 4u);
  EXPECT_EQ(skipped, 0u);
  for (std::size_t i = 0; i < fetched.size(); ++i) {
    EXPECT_EQ(fetched[i].seq, i + 2);
  }
  latch->Release();
  EXPECT_TRUE(log.Stop().ok());
}

// Regression: an acknowledgement beyond the allocator moved the cursor
// there, so the subscriber never saw another alert and a fetch at
// 2^64 - 1 wrapped. Cursors clamp to the last numbered alert.
TEST(AlertLogTest, AckAndAttachClampToTheLastNumberedAlert) {
  AlertLog log(16, OverloadPolicy::kBlock);
  EXPECT_EQ(log.Attach("sub", UINT64_MAX), 0u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(log.Append(MakeAlert(i)).ok());
  }
  log.Ack("sub", UINT64_MAX);
  ASSERT_EQ(log.Cursors().size(), 1u);
  EXPECT_EQ(log.Cursors()[0].second, 3u);
  EXPECT_EQ(log.Attach("sub", UINT64_MAX - 1), 3u);

  ASSERT_TRUE(log.Append(MakeAlert(3)).ok());
  std::vector<SequencedAlert> fetched;
  std::uint64_t skipped = 7;
  EXPECT_EQ(log.FetchAfter(3, 10, &fetched, &skipped), 1u);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(fetched.front().seq, 4u);
  fetched.clear();
  EXPECT_EQ(log.FetchAfter(UINT64_MAX, 10, &fetched, &skipped), 0u);
  EXPECT_EQ(skipped, 0u);
  EXPECT_TRUE(log.Stop().ok());
}

TEST(AlertLogTest, OnlyOneWakeCallbackAtATime) {
  AlertLog log(16, OverloadPolicy::kBlock);
  std::atomic<int> wakes{0};
  ASSERT_TRUE(log.SetWakeCallback([&wakes] { wakes.fetch_add(1); }).ok());
  EXPECT_EQ(log.SetWakeCallback([] {}).code(),
            StatusCode::kFailedPrecondition);
  const std::vector<Alert> batch = {MakeAlert(0), MakeAlert(1)};
  ASSERT_TRUE(log.Append(batch).ok());
  EXPECT_EQ(wakes.load(), 1);  // once per append call
  ASSERT_TRUE(log.SetWakeCallback(nullptr).ok());
  ASSERT_TRUE(log.Append(MakeAlert(2)).ok());
  EXPECT_EQ(wakes.load(), 1);
  EXPECT_TRUE(log.SetWakeCallback([] {}).ok());
  EXPECT_TRUE(log.Stop().ok());
}

// --- The checkpoint's net file ("SDNH" v1) -------------------------------

TEST(AlertLogTest, SnapshotRoundTripsAndRejectsCorruption) {
  AlertLog log(8, OverloadPolicy::kBlock);
  Alert alert;
  alert.query = 3;
  alert.kind = QueryKind::kSketch;
  alert.stream = 1;
  alert.window = 10;
  alert.end_time = 99;
  alert.value = 123.5;
  alert.threshold = 100.0;
  log.Attach("b", 0);
  log.Attach("a", 0);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(log.Append(alert).ok());
  log.Ack("a", 2);
  log.WaitDelivered(log.head());

  const std::string bytes = log.Serialize();
  AlertLog restored(8, OverloadPolicy::kBlock);
  ASSERT_TRUE(restored.Restore(bytes).ok());
  EXPECT_EQ(restored.next_seq(), 6u);
  EXPECT_EQ(restored.retained(), 5u);  // "b" acknowledged nothing
  EXPECT_EQ(restored.Cursors(), log.Cursors());
  EXPECT_EQ(restored.Serialize(), bytes);

  std::vector<SequencedAlert> fetched;
  std::uint64_t skipped = 0;
  EXPECT_EQ(restored.FetchAfter(2, 10, &fetched, &skipped), 3u);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(fetched.front().seq, 3u);
  EXPECT_EQ(fetched.front().alert.value, 123.5);
  EXPECT_EQ(fetched.front().alert.kind, QueryKind::kSketch);

  // The delivery cursor starts at the restored head: restored entries
  // serve subscribers only, and new alerts continue the sequence.
  auto ring = std::make_shared<RingSink>();
  restored.AddSink(ring);
  ASSERT_TRUE(restored.Append(MakeAlert(7)).ok());
  EXPECT_TRUE(restored.Stop().ok());
  ASSERT_EQ(ring->total(), 1u);
  EXPECT_EQ(ring->Snapshot().front().query, 7u);
  EXPECT_EQ(restored.head(), 6u);

  AlertLog target(8, OverloadPolicy::kBlock);
  EXPECT_FALSE(target.Restore("").ok());
  EXPECT_FALSE(target.Restore("garbage").ok());
  EXPECT_FALSE(target.Restore(bytes.substr(0, bytes.size() - 2)).ok());
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x08;
  EXPECT_FALSE(target.Restore(flipped).ok());

  // Restoring into a log that already numbered alerts is refused.
  EXPECT_EQ(log.Restore(bytes).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(log.Stop().ok());
}

// Frozen bytes of the net file: an allocator at 7, cursors "audit" at 2
// and "pager" at 4, and entries 3..6 (aggregate, pattern and correlation
// alerts) that both still need. Any change to the layout fails here
// instead of orphaning existing checkpoints.
constexpr const char* kNetFileFixtureHex =
    "53444e48010000007a2a0b789120a10507000000000000004200000000000000"
    "53444e4301000000138783e94e5967b502000000000000000500000000000000"
    "6175646974020000000000000005000000000000007061676572040000000000"
    "0000040000000000000003000000000000000300000000000000020c00000016"
    "0000004000000000000000f6030000000000002a000000000000000000000000"
    "9059400000000000e0584004000000000000000400000000000000000d000000"
    "000000004000000000000000fd030000000000002b0000000000000000000000"
    "00d059400000000000e0584005000000000000000300000000000000010e0000"
    "0000000000400000000000000004040000000000002c00000000000000000000"
    "0000105a400000000000e0584006000000000000000400000000000000020f00"
    "00001900000040000000000000000b040000000000002d000000000000000000"
    "000000505a400000000000e05840";

TEST(AlertLogTest, FrozenNetFileRestoresAndReserializesByteEqual) {
  const std::string bytes = FromHex(kNetFileFixtureHex);
  ASSERT_EQ(bytes.size(), 366u);
  AlertLog log(16, OverloadPolicy::kBlock);
  ASSERT_TRUE(log.Restore(bytes).ok());
  EXPECT_EQ(log.Serialize(), bytes);
  EXPECT_EQ(log.next_seq(), 7u);
  EXPECT_EQ(log.retained(), 4u);
  EXPECT_EQ(log.Cursors(),
            (std::vector<std::pair<std::string, std::uint64_t>>{
                {"audit", 2}, {"pager", 4}}));
  std::vector<SequencedAlert> fetched;
  std::uint64_t skipped = 0;
  ASSERT_EQ(log.FetchAfter(2, 10, &fetched, &skipped), 4u);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(fetched[0].seq, 3u);
  EXPECT_EQ(fetched[0].alert.kind, QueryKind::kCorrelation);
  EXPECT_EQ(fetched[0].alert.stream, 12u);
  EXPECT_EQ(fetched[0].alert.stream_b, 22u);
  EXPECT_EQ(fetched[0].alert.end_time, 1014u);
  EXPECT_EQ(fetched[3].seq, 6u);
  EXPECT_EQ(fetched[3].alert.query, 4u);
  EXPECT_EQ(fetched[3].alert.value, 105.25);
  EXPECT_TRUE(log.Stop().ok());
}

// Every truncated prefix and every single-byte flip either restores or
// returns an error — of the file, and of its payload re-wrapped with a
// valid checksum so the flips reach the parser itself.
TEST(AlertLogTest, HostileNetFileBytesNeverCrash) {
  const std::string bytes = FromHex(kNetFileFixtureHex);
  std::uint32_t version = 0;
  std::string payload;
  ASSERT_TRUE(UnwrapEnvelope(bytes, kNetMagic, "net file", &version, &payload)
                  .ok());
  AlertLog target(16, OverloadPolicy::kBlock);
  std::size_t restored = 0;
  const auto attempt = [&](const std::string& candidate) {
    if (target.Restore(candidate).ok()) ++restored;
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    attempt(bytes.substr(0, len));
  }
  for (std::size_t len = 0; len < payload.size(); ++len) {
    attempt(WrapEnvelope(kNetMagic, 1, payload.substr(0, len)));
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      attempt(flipped);
    }
  }
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xff}) {
      std::string flipped = payload;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      attempt(WrapEnvelope(kNetMagic, 1, flipped));
    }
  }
  // Only payload flips inside the alert values can still restore.
  EXPECT_LT(restored, payload.size() * 3);
  EXPECT_TRUE(target.Stop().ok());
}

/// Builds a net file from parts, so each field can be made hostile.
struct NetFile {
  std::uint64_t next_seq = 5;
  std::vector<std::pair<std::string, std::uint64_t>> cursors = {{"a", 2}};
  std::uint64_t cursor_count_delta = 0;
  std::vector<std::uint64_t> seqs = {3, 4};
  std::uint64_t entry_count_delta = 0;

  std::string Build() const {
    Writer blob;
    blob.U64(cursors.size() + cursor_count_delta);
    for (const auto& [id, seq] : cursors) {
      blob.U64(id.size());
      blob.Bytes(id.data(), id.size());
      blob.U64(seq);
    }
    const std::string cursor_bytes = WrapEnvelope(kCursorMagic, 1, blob.buffer());
    Writer w;
    w.U64(next_seq);
    w.U64(cursor_bytes.size());
    w.Bytes(cursor_bytes.data(), cursor_bytes.size());
    w.U64(seqs.size() + entry_count_delta);
    for (const std::uint64_t seq : seqs) {
      w.U64(seq);
      w.U64(1);  // query
      w.U8(0);   // kind
      w.U32(0);  // stream
      w.U32(0);  // stream_b
      w.U64(8);  // window
      w.U64(seq);
      w.U64(0);  // epoch
      w.F64(1.0);
      w.F64(0.5);
    }
    return WrapEnvelope(kNetMagic, 1, w.buffer());
  }
};

TEST(AlertLogTest, HostileNetFileFieldsAreInvalidArgument) {
  const auto restore = [](const NetFile& file) {
    AlertLog log(16, OverloadPolicy::kBlock);
    const Status status = log.Restore(file.Build());
    EXPECT_TRUE(log.Stop().ok());
    return status;
  };
  ASSERT_TRUE(restore(NetFile{}).ok());

  NetFile entries_beyond_bytes;
  entries_beyond_bytes.entry_count_delta = 1000;
  EXPECT_EQ(restore(entries_beyond_bytes).code(),
            StatusCode::kInvalidArgument);

  NetFile cursors_beyond_bytes;
  cursors_beyond_bytes.cursor_count_delta = 1000;
  EXPECT_EQ(restore(cursors_beyond_bytes).code(),
            StatusCode::kInvalidArgument);

  NetFile out_of_order;
  out_of_order.seqs = {4, 3};
  EXPECT_EQ(restore(out_of_order).code(), StatusCode::kInvalidArgument);

  NetFile with_a_gap;
  with_a_gap.seqs = {2, 4};
  EXPECT_EQ(restore(with_a_gap).code(), StatusCode::kInvalidArgument);

  NetFile entry_at_allocator;
  entry_at_allocator.seqs = {4, 5};
  EXPECT_EQ(restore(entry_at_allocator).code(),
            StatusCode::kInvalidArgument);

  NetFile cursor_beyond_allocator;
  cursor_beyond_allocator.cursors = {{"a", 5}};
  EXPECT_EQ(restore(cursor_beyond_allocator).code(),
            StatusCode::kInvalidArgument);

  NetFile long_id;
  long_id.cursors = {{std::string(4097, 'x'), 2}};
  EXPECT_EQ(restore(long_id).code(), StatusCode::kInvalidArgument);
}

// --- Through the engine ----------------------------------------------------

StardustConfig SumConfig() {
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

// Regression: IngestEngine::Stop reported a clean stop when a sink's
// final flush (the JSONL file's fsync) failed.
TEST(AlertLogEngineTest, StopReturnsTheSinkFlushError) {
  auto engine = std::move(IngestEngine::Create(SumConfig(), {}, 2)).value();
  engine->alerts().AddSink(std::make_shared<FailingFlushSink>());
  ASSERT_TRUE(engine->Post(0, 1.0).ok());
  const Status stopped = engine->Stop();
  EXPECT_EQ(stopped.code(), StatusCode::kInternal) << stopped.ToString();
  EXPECT_TRUE(engine->Stop().ok());
}

// Flush waits for the head it read, not for an empty log: an appender
// that never pauses cannot hold it.
TEST(AlertLogEngineTest, FlushReturnsWhileAnotherThreadKeepsAppending) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  auto engine =
      std::move(IngestEngine::Create(SumConfig(), {}, 2, econfig)).value();
  ASSERT_TRUE(engine->RegisterQuery(QuerySpec::Aggregate(10, 40.0)).ok());
  auto ring = std::make_shared<RingSink>();
  engine->alerts().AddSink(ring);
  std::atomic<bool> stop{false};
  std::thread appender([&engine, &stop] {
    for (std::uint64_t i = 0; !stop.load(); ++i) {
      if (!engine->alerts().Append(MakeAlert(1000 + i)).ok()) break;
    }
  });
  for (int round = 0; round < 5; ++round) {
    for (int t = 0; t < 20; ++t) {
      ASSERT_TRUE(engine->Post(0, 9.0).ok());
      ASSERT_TRUE(engine->Post(1, 0.0).ok());
    }
    ASSERT_TRUE(engine->Flush().ok());
  }
  stop.store(true);
  appender.join();
  ASSERT_TRUE(engine->Stop().ok());
  const AlertLog& log = engine->alerts();
  EXPECT_EQ(log.published(), log.delivered());
  EXPECT_EQ(ring->total(), log.delivered());
}

}  // namespace
}  // namespace stardust
