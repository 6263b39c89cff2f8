// Elastic stream placement: the PlacementTable routing map, live
// MigrateStream correctness (state equivalence against an unmigrated
// twin engine), the rebalancer thread, and placement across checkpoints
// (the shard files' slot tables and the manifest's placement epoch) —
// including crash injection on a shard file write after a migration.
#include "engine/placement.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "alert_recorder.h"
#include "common/atomic_file.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "stream/bursty_source.h"
#include "stream/threshold.h"

namespace stardust {
namespace {

namespace fs = std::filesystem;

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

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A fresh engine registers Thresholds(2.0) as aggregate queries; a
/// restoring one takes its queries from the checkpoint.
std::unique_ptr<IngestEngine> MakeEngine(std::size_t streams,
                                         std::size_t shards,
                                         const std::string& restore_dir = {}) {
  EngineConfig econfig;
  econfig.num_shards = shards;
  Result<std::unique_ptr<IngestEngine>> engine = IngestEngine::Create(
      StreamConfig(),
      restore_dir.empty() ? Thresholds(2.0) : std::vector<WindowThreshold>{},
      streams, econfig, restore_dir);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

std::vector<BurstySource> Sources(std::size_t streams, std::uint64_t seed) {
  std::vector<BurstySource> sources;
  sources.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    sources.emplace_back(seed + s);
  }
  return sources;
}

void Feed(IngestEngine* engine, std::vector<BurstySource>* sources,
          int count) {
  for (int t = 0; t < count; ++t) {
    for (StreamId s = 0; s < engine->num_streams(); ++s) {
      ASSERT_TRUE(engine->Post(s, (*sources)[s].Next()).ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
}

/// Every externally observable monitoring answer of the two engines must
/// agree exactly: append counts and which streams each aggregate query
/// finds alarming.
void ExpectSameAnswers(const IngestEngine& a, const IngestEngine& b) {
  ASSERT_EQ(a.num_streams(), b.num_streams());
  for (StreamId s = 0; s < a.num_streams(); ++s) {
    EXPECT_EQ(b.StreamAppendCount(s), a.StreamAppendCount(s))
        << "stream " << s;
  }
  const auto snapshot = a.queries().snapshot();
  ASSERT_FALSE(snapshot->aggregate.empty());
  for (const auto& q : snapshot->aggregate) {
    auto want = a.CurrentlyAlarming(q->id);
    auto got = b.CurrentlyAlarming(q->id);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), want.value()) << "query " << q->id;
  }
}

/// The serialized per-stream state bytes of the two engines agree
/// exactly. Holds for engines that applied the same tuples under the same
/// queries, migrated or not, and for an engine restored from the other's
/// checkpoint.
void ExpectSameStreamState(const IngestEngine& a, const IngestEngine& b) {
  ASSERT_EQ(a.num_streams(), b.num_streams());
  for (StreamId s = 0; s < a.num_streams(); ++s) {
    std::string want_state;
    std::string got_state;
    ASSERT_TRUE(a.DebugStreamState(s, &want_state).ok()) << "stream " << s;
    ASSERT_TRUE(b.DebugStreamState(s, &got_state).ok()) << "stream " << s;
    EXPECT_EQ(got_state, want_state)
        << "serialized state diverged on stream " << s;
  }
}

// --- PlacementTable unit -------------------------------------------------

TEST(PlacementTableTest, DefaultsToModuloHash) {
  PlacementTable table(7, 3);
  EXPECT_EQ(table.epoch(), 0u);
  for (StreamId s = 0; s < 7; ++s) {
    EXPECT_EQ(table.ShardOf(s), s % 3) << "stream " << s;
  }
}

TEST(PlacementTableTest, SetShardBumpsEpochAndKeepsOldSnapshotsValid) {
  PlacementTable table(4, 2);
  const PlacementTable::Snapshot* before = table.Acquire();
  ASSERT_TRUE(table.SetShard(1, 0).ok());
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_EQ(table.ShardOf(1), 0u);
  // The retired snapshot is immutable and still readable (wait-free
  // readers may hold it across the flip).
  EXPECT_EQ(before->epoch, 0u);
  EXPECT_EQ(before->shard_of[1], 1u);
  ASSERT_TRUE(table.SetShard(1, 1).ok());
  EXPECT_EQ(table.epoch(), 2u);
  EXPECT_EQ(table.ShardOf(1), 1u);
}

TEST(PlacementTableTest, RejectsOutOfRangeArguments) {
  PlacementTable table(4, 2);
  EXPECT_FALSE(table.SetShard(4, 0).ok());
  EXPECT_FALSE(table.SetShard(0, 2).ok());
  EXPECT_FALSE(table.Reset(1, {0, 1, 0}).ok());     // wrong length
  EXPECT_FALSE(table.Reset(1, {0, 1, 0, 2}).ok());  // shard out of range
  ASSERT_TRUE(table.Reset(5, {1, 0, 1, 0}).ok());
  EXPECT_EQ(table.epoch(), 5u);
  EXPECT_EQ(table.ShardOf(0), 1u);
}

TEST(PlacementTableTest, ToJsonCarriesEpochAndMap) {
  PlacementTable table(3, 2);
  ASSERT_TRUE(table.SetShard(2, 1).ok());
  const std::string json = table.ToJson();
  EXPECT_NE(json.find("\"epoch\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"num_shards\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard_of\":[0,1,1]"), std::string::npos) << json;
}

// --- Live migration ------------------------------------------------------

TEST(MigrateStreamTest, RejectsInvalidArguments) {
  auto engine = MakeEngine(4, 2);
  ASSERT_NE(engine, nullptr);
  EXPECT_FALSE(engine->MigrateStream(99, 0, 1).ok());  // unknown stream
  EXPECT_FALSE(engine->MigrateStream(0, 0, 9).ok());   // bad target
  EXPECT_FALSE(engine->MigrateStream(0, 9, 1).ok());   // bad source
  EXPECT_FALSE(engine->MigrateStream(0, 0, 0).ok());   // from == to
  EXPECT_FALSE(engine->MigrateStream(0, 1, 0).ok());   // wrong owner
  ASSERT_TRUE(engine->Stop().ok());
  EXPECT_FALSE(engine->MigrateStream(0, 1).ok());  // stopped engine
}

TEST(MigrateStreamTest, RefusesPausedShards) {
  auto engine = MakeEngine(4, 2);
  ASSERT_NE(engine, nullptr);
  engine->Pause();
  EXPECT_FALSE(engine->MigrateStream(0, 1).ok());
  engine->Resume();
  EXPECT_TRUE(engine->MigrateStream(0, 1).ok());
  ASSERT_TRUE(engine->Stop().ok());
}

// The core elasticity property: a migrated engine answers every
// monitoring question exactly as an unmigrated twin fed the identical
// data, and the moved stream's serialized state is byte-identical.
TEST(MigrateStreamTest, MigratedEngineMatchesUnmigratedTwin) {
  const std::size_t kStreams = 6;
  auto subject = MakeEngine(kStreams, 3);
  auto golden = MakeEngine(kStreams, 3);
  ASSERT_NE(subject, nullptr);
  ASSERT_NE(golden, nullptr);
  auto subject_sources = Sources(kStreams, 500);
  auto golden_sources = Sources(kStreams, 500);

  Feed(subject.get(), &subject_sources, 300);
  Feed(golden.get(), &golden_sources, 300);

  // Move stream 0 off its home shard, feed more, move it again (to the
  // third shard), feed, and finally return it home: state must survive
  // arbitrary itineraries, not just one hop.
  ASSERT_TRUE(subject->MigrateStream(0, 0, 1).ok());
  EXPECT_EQ(subject->ShardOf(0), 1u);
  EXPECT_EQ(subject->placement().epoch(), 1u);
  Feed(subject.get(), &subject_sources, 200);
  Feed(golden.get(), &golden_sources, 200);

  ASSERT_TRUE(subject->MigrateStream(0, 2).ok());
  ASSERT_TRUE(subject->MigrateStream(5, 0).ok());
  Feed(subject.get(), &subject_sources, 200);
  Feed(golden.get(), &golden_sources, 200);

  ASSERT_TRUE(subject->MigrateStream(0, 0).ok());
  Feed(subject.get(), &subject_sources, 100);
  Feed(golden.get(), &golden_sources, 100);

  EXPECT_EQ(subject->metrics().migrations.load(), 4u);
  EXPECT_GT(subject->metrics().migrated_bytes.load(), 0u);
  ExpectSameAnswers(*golden, *subject);
  ExpectSameStreamState(*golden, *subject);
  ASSERT_TRUE(subject->Stop().ok());
  ASSERT_TRUE(golden->Stop().ok());
}

// The migration slice carries the raw tail: an aggregate query on a new
// window, registered after a stream moved, answers on the moved stream's
// first batch instead of warming up for a window.
TEST(MigrateStreamTest, QueryRegisteredAfterMigrationIsReadyOnFirstBatch) {
  const std::size_t kStreams = 4;
  auto engine = MakeEngine(kStreams, 2);
  ASSERT_NE(engine, nullptr);
  auto sources = Sources(kStreams, 1700);
  Feed(engine.get(), &sources, 300);
  ASSERT_TRUE(engine->MigrateStream(0, 1).ok());
  ASSERT_TRUE(engine->MigrateStream(3, 0).ok());

  AlertRecorder log(engine.get());
  // Event counts are non-negative, so every full 30-value SUM alarms.
  Result<QueryId> id = engine->RegisterQuery(QuerySpec::Aggregate(30, 0.0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  for (StreamId s : {0u, 3u}) {
    ASSERT_TRUE(engine->Post(s, sources[s].Next()).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  const std::vector<AlertRecorder::Key> alerts = log.Sorted(id.value());
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(std::get<1>(alerts[0]), 0u);
  EXPECT_EQ(std::get<1>(alerts[1]), 3u);
  auto replay = Sources(kStreams, 1700);
  for (const AlertRecorder::Key& alert : alerts) {
    const StreamId s = std::get<1>(alert);
    EXPECT_EQ(std::get<2>(alert), 300u) << "stream " << s;
    // The backfilled window holds the moved values, not zeros.
    const std::vector<double> values = replay[s].Take(301);
    EXPECT_EQ(std::get<3>(alert),
              std::accumulate(values.end() - 30, values.end(), 0.0))
        << "stream " << s;
  }
  ASSERT_TRUE(engine->Stop().ok());
}

// Migration under live concurrent producers: no tuple is lost or
// duplicated while the placement flips mid-ingest.
TEST(MigrateStreamTest, ConservesTuplesUnderConcurrentProducers) {
  const std::size_t kStreams = 4;
  auto engine = MakeEngine(kStreams, 2);
  ASSERT_NE(engine, nullptr);
  constexpr int kPerProducer = 20000;
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&engine, p] {
      BurstySource source(900 + p);
      for (int t = 0; t < kPerProducer; ++t) {
        const StreamId s = static_cast<StreamId>((p * 2 + t) % kStreams);
        ASSERT_TRUE(engine->Post(s, source.Next()).ok());
      }
    });
  }
  // Bounce stream 0 between the shards while the producers run.
  for (int hop = 0; hop < 6; ++hop) {
    const Status moved =
        engine->MigrateStream(0, engine->ShardOf(0) == 0 ? 1 : 0);
    ASSERT_TRUE(moved.ok()) << moved.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& p : producers) p.join();
  const Status flushed = engine->Flush();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  std::uint64_t appended = 0;
  for (StreamId s = 0; s < kStreams; ++s) {
    appended += engine->StreamAppendCount(s);
  }
  EXPECT_EQ(appended, 2u * kPerProducer);
  ASSERT_TRUE(engine->Stop().ok());
}

// --- Rebalancer ----------------------------------------------------------

// A hot-skewed workload (every active stream hashes to shard 0) must
// make the background rebalancer move load off the hot shard.
TEST(RebalancerTest, MovesAStreamOffTheHotShard) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.rebalance_period_ms = 5;
  econfig.rebalance_min_delta = 64;
  Result<std::unique_ptr<IngestEngine>> created = IngestEngine::Create(
      StreamConfig(), Thresholds(2.0), 4, econfig);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();

  // Streams 0 and 2 both live on shard 0 under the modulo default; feed
  // them exclusively until a rebalance tick separates them.
  BurstySource source(77);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (engine->metrics().migrations.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int t = 0; t < 512; ++t) {
      ASSERT_TRUE(engine->Post(0, source.Next()).ok());
      ASSERT_TRUE(engine->Post(2, source.Next()).ok());
    }
    ASSERT_TRUE(engine->Flush().ok());
  }
  EXPECT_GE(engine->metrics().migrations.load(), 1u);
  // The two hot streams no longer share shard 0.
  EXPECT_NE(engine->ShardOf(0), engine->ShardOf(2));
  ASSERT_TRUE(engine->Stop().ok());
}

// --- Checkpoint ----------------------------------------------------------

TEST(PlacementCheckpointTest, ManifestRoundTripCarriesPlacement) {
  CheckpointManifest manifest;
  manifest.seq = 4;
  manifest.num_streams = 2;
  manifest.num_shards = 1;
  manifest.shards = {{1, 1, CheckpointFeaturesFileName(0, 4), 2}};
  manifest.placement_epoch = 9;
  manifest.queries_file = CheckpointQueriesFileName(4);
  Result<CheckpointManifest> parsed =
      ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().placement_epoch, 9u);
}

// Checkpoint after migrations, restore, and the restored engine both
// keeps the migrated placement and matches the origin: in answers, in
// continued alerts under the threshold queries, and in every stream's
// state bytes — right after the restore, after 300 more ticks, and after
// migrating the moved stream again.
TEST(PlacementCheckpointTest, RestoreKeepsMigratedPlacement) {
  const std::string dir = FreshDir("placement_restore");
  const std::size_t kStreams = 5;
  auto origin = MakeEngine(kStreams, 2);
  ASSERT_NE(origin, nullptr);
  auto sources = Sources(kStreams, 640);
  Feed(origin.get(), &sources, 400);
  ASSERT_TRUE(origin->MigrateStream(0, 1).ok());
  ASSERT_TRUE(origin->MigrateStream(3, 0).ok());
  Feed(origin.get(), &sources, 100);
  ASSERT_TRUE(origin->Checkpoint(dir).ok());

  auto restored = MakeEngine(kStreams, 2, dir);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->placement().epoch(), origin->placement().epoch());
  for (StreamId s = 0; s < kStreams; ++s) {
    EXPECT_EQ(restored->ShardOf(s), origin->ShardOf(s)) << "stream " << s;
  }
  ExpectSameAnswers(*origin, *restored);
  ExpectSameStreamState(*origin, *restored);

  // The restored engine keeps working: it raises the alerts the origin
  // raises (one tick per flush, so every stream is evaluated after each
  // of its tuples on both engines) — including after migrating the moved
  // stream again.
  AlertRecorder origin_alerts(origin.get());
  AlertRecorder restored_alerts(restored.get());
  auto origin_more = sources;
  for (int t = 0; t < 300; ++t) {
    Feed(origin.get(), &sources, 1);
    Feed(restored.get(), &origin_more, 1);
  }
  const std::vector<AlertRecorder::Key> want = origin_alerts.Sorted();
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(restored_alerts.Sorted(), want);
  ExpectSameAnswers(*origin, *restored);
  ExpectSameStreamState(*origin, *restored);
  ASSERT_TRUE(restored->MigrateStream(0, 0).ok());
  EXPECT_EQ(restored->StreamAppendCount(0), 800u);
  ExpectSameStreamState(*origin, *restored);
  for (IngestEngine* engine : {origin.get(), restored.get()}) {
    ASSERT_TRUE(engine->Stop().ok());
  }
}

// The shard files carry the slot tables, so a crash while writing one
// after a migration must not produce a corrupt "latest" checkpoint:
// recovery falls back to the previous complete one and its layout.
TEST(PlacementCheckpointTest, CrashOnPlacementWriteKeepsPreviousCheckpoint) {
  const std::string dir = FreshDir("placement_crash");
  const std::size_t kStreams = 4;
  auto origin = MakeEngine(kStreams, 2);
  ASSERT_NE(origin, nullptr);
  auto sources = Sources(kStreams, 820);
  Feed(origin.get(), &sources, 200);
  ASSERT_TRUE(origin->Checkpoint(dir).ok());

  ASSERT_TRUE(origin->MigrateStream(1, 0).ok());
  Feed(origin.get(), &sources, 200);
  // Shard 0's file (now holding stream 1) lands; shard 1's does not.
  SetAtomicFileHookForTest(
      [](AtomicWritePhase, const std::string& path) {
        return path.find(CheckpointFeaturesFileName(1, 2)) ==
               std::string::npos;
      });
  EXPECT_FALSE(origin->Checkpoint(dir).ok());
  SetAtomicFileHookForTest(nullptr);
  EXPECT_GE(origin->metrics().checkpoint_failures.load(), 1u);

  // Recovery lands on checkpoint 1: 200 rows per stream, modulo layout.
  auto restored = MakeEngine(kStreams, 2, dir);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->placement().epoch(), 0u);
  for (StreamId s = 0; s < kStreams; ++s) {
    EXPECT_EQ(restored->StreamAppendCount(s), 200u) << "stream " << s;
    EXPECT_EQ(restored->ShardOf(s), s % 2) << "stream " << s;
  }
  ASSERT_TRUE(origin->Stop().ok());
  ASSERT_TRUE(restored->Stop().ok());
}

}  // namespace
}  // namespace stardust
