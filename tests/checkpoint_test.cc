// Crash-safety tests of the engine checkpoint/restore path: manifest
// format, recovery semantics (restored state byte-equal to the origin's,
// restore under another feature-store capacity, hostile shard files), and
// crash injection at every phase of the atomic file protocol
// (common/atomic_file.h).
#include "engine/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "alert_recorder.h"
#include "fixture_bytes.h"
#include "common/atomic_file.h"
#include "common/serialize.h"
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

/// Fresh empty directory under the test tempdir.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A fresh engine registers Thresholds(2.0) as aggregate queries 1..3; a
/// restoring one takes its queries from the checkpoint. `max_batch` 1
/// evaluates the queries after every tuple, so two engines fed the same
/// tuples raise the same alerts however their workers were scheduled.
std::unique_ptr<IngestEngine> MakeEngine(
    std::size_t streams, std::size_t shards,
    const std::string& restore_dir = {},
    std::size_t max_batch = EngineConfig().max_batch) {
  EngineConfig econfig;
  econfig.num_shards = shards;
  econfig.max_batch = max_batch;
  Result<std::unique_ptr<IngestEngine>> engine = IngestEngine::Create(
      StreamConfig(),
      restore_dir.empty() ? Thresholds(2.0) : std::vector<WindowThreshold>{},
      streams, econfig, restore_dir);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

/// Posts `count` deterministic values per stream, round-robin, and waits
/// until the workers applied them all.
void Feed(IngestEngine* engine, std::vector<BurstySource>* sources,
          int count) {
  for (int t = 0; t < count; ++t) {
    for (StreamId s = 0; s < engine->num_streams(); ++s) {
      ASSERT_TRUE(engine->Post(s, (*sources)[s].Next()).ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
}

std::vector<BurstySource> Sources(std::size_t streams, std::uint64_t seed) {
  std::vector<BurstySource> sources;
  sources.reserve(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    sources.emplace_back(seed + s);
  }
  return sources;
}

/// Every externally observable monitoring answer of the two engines must
/// agree exactly: append counts, the registered queries, and which
/// streams each aggregate query finds alarming.
void ExpectSameAnswers(const IngestEngine& a, const IngestEngine& b) {
  ASSERT_EQ(a.num_streams(), b.num_streams());
  for (StreamId s = 0; s < a.num_streams(); ++s) {
    EXPECT_EQ(b.StreamAppendCount(s), a.StreamAppendCount(s))
        << "stream " << s;
  }
  ASSERT_EQ(b.queries().size(), a.queries().size());
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

TEST(CheckpointManifestTest, FileNamesEncodeShardAndSeq) {
  EXPECT_EQ(CheckpointFeaturesFileName(0, 1), "features-0-ck1.feat");
  EXPECT_EQ(CheckpointFeaturesFileName(3, 12), "features-3-ck12.feat");
  EXPECT_EQ(CheckpointManifestFileName(7), "manifest-7.ck");
  EXPECT_EQ(CheckpointQueriesFileName(5), "queries-ck5.qry");
}

/// A manifest with every entry a real checkpoint carries: per shard the
/// progress stamps and the shard file, plus the queries and net files.
CheckpointManifest CompleteManifest(std::uint64_t seq,
                                    std::size_t num_shards) {
  CheckpointManifest manifest;
  manifest.seq = seq;
  manifest.num_streams = 2 * num_shards;
  manifest.num_shards = num_shards;
  for (std::size_t i = 0; i < num_shards; ++i) {
    manifest.shards.push_back({1, 1, CheckpointFeaturesFileName(i, seq), 2});
  }
  manifest.queries_file = CheckpointQueriesFileName(seq);
  manifest.net_file = CheckpointNetFileName(seq);
  return manifest;
}

TEST(CheckpointManifestTest, RoundTripCarriesQueryRegistryEntry) {
  CheckpointManifest manifest = CompleteManifest(9, 1);
  manifest.queries_checksum = 0x2222ULL;
  Result<CheckpointManifest> parsed =
      ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().queries_file, "queries-ck9.qry");
  EXPECT_EQ(parsed.value().queries_checksum, 0x2222ULL);
}

TEST(CheckpointManifestTest, RejectsEscapingQueriesFileName) {
  CheckpointManifest manifest = CompleteManifest(1, 1);
  manifest.queries_file = "../queries-ck1.qry";
  EXPECT_FALSE(ParseManifest(SerializeManifest(manifest)).ok());
}

TEST(CheckpointManifestTest, RoundTrip) {
  CheckpointManifest manifest = CompleteManifest(42, 2);
  manifest.num_streams = 6;
  manifest.shards[0].epoch = 10;
  manifest.shards[0].appended = 300;
  manifest.shards[1].epoch = 11;
  manifest.shards[1].appended = 301;
  manifest.shards[1].checksum = 0x77;
  manifest.placement_epoch = 5;
  Result<CheckpointManifest> parsed =
      ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const CheckpointManifest& got = parsed.value();
  EXPECT_EQ(got.seq, 42u);
  EXPECT_EQ(got.num_streams, 6u);
  EXPECT_EQ(got.num_shards, 2u);
  ASSERT_EQ(got.shards.size(), 2u);
  EXPECT_EQ(got.shards[0].epoch, 10u);
  EXPECT_EQ(got.shards[0].appended, 300u);
  EXPECT_EQ(got.shards[1].epoch, 11u);
  EXPECT_EQ(got.shards[1].appended, 301u);
  EXPECT_EQ(got.shards[1].file, "features-1-ck42.feat");
  EXPECT_EQ(got.shards[1].checksum, 0x77u);
  EXPECT_EQ(got.placement_epoch, 5u);
}

TEST(CheckpointManifestTest, RejectsCorruption) {
  const std::string bytes = SerializeManifest(CompleteManifest(1, 1));
  ASSERT_TRUE(ParseManifest(bytes).ok());

  EXPECT_FALSE(ParseManifest("").ok());
  EXPECT_FALSE(ParseManifest("garbage").ok());
  EXPECT_FALSE(ParseManifest(bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(ParseManifest(bytes + '\0').ok());
  for (std::size_t pos : {std::size_t{0}, std::size_t{5}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    EXPECT_FALSE(ParseManifest(corrupt).ok()) << "pos " << pos;
  }
}

TEST(CheckpointManifestTest, RejectsEscapingFileNames) {
  CheckpointManifest manifest = CompleteManifest(1, 1);
  manifest.shards[0].file = "../../etc/passwd";
  EXPECT_FALSE(ParseManifest(SerializeManifest(manifest)).ok());
}

TEST(CheckpointRestoreTest, RoundTripPreservesEveryAnswer) {
  const std::string dir = FreshDir("ck_roundtrip");
  auto engine = MakeEngine(6, 2);
  ASSERT_NE(engine, nullptr);
  auto sources = Sources(6, 500);
  Feed(engine.get(), &sources, 1200);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  EXPECT_EQ(engine->metrics().checkpoints.load(), 1u);
  EXPECT_EQ(engine->last_checkpoint_seq(), 1u);

  // N shards checkpoint as N + 3 files: one shard file each (slot table
  // and stream slices), the query registry, the alert log and the
  // manifest.
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{
                       "features-0-ck1.feat", "features-1-ck1.feat",
                       "manifest-1.ck", "net-ck1.net", "queries-ck1.qry"}));

  auto restored = MakeEngine(6, 2, dir);
  ASSERT_NE(restored, nullptr);
  ExpectSameAnswers(*engine, *restored);
  // Epoch stamps continue the pre-crash lineage, not a fresh count.
  std::vector<ShardStamp> stamps;
  ASSERT_TRUE(restored->CurrentlyAlarming(1, &stamps).ok());
  std::uint64_t appended = 0;
  for (const ShardStamp& stamp : stamps) appended += stamp.appended;
  EXPECT_EQ(appended, 6u * 1200u);
  EXPECT_EQ(restored->last_checkpoint_seq(), 1u);
}

// The acceptance property: restore + identical tail == uninterrupted run,
// down to every append count, alarming-stream list, and continued alert.
TEST(CheckpointRestoreTest, RestoredEngineContinuesBitExact) {
  const std::string dir = FreshDir("ck_continue");
  auto uninterrupted = MakeEngine(6, 3, {}, 1);
  auto crashing = MakeEngine(6, 3, {}, 1);
  ASSERT_NE(uninterrupted, nullptr);
  ASSERT_NE(crashing, nullptr);

  auto sources_a = Sources(6, 900);
  auto sources_b = Sources(6, 900);
  Feed(uninterrupted.get(), &sources_a, 800);
  Feed(crashing.get(), &sources_b, 800);
  ASSERT_TRUE(crashing->Checkpoint(dir).ok());
  // "Crash": drop the engine without any further persistence.
  crashing.reset();

  auto restored = MakeEngine(6, 3, dir, 1);
  ASSERT_NE(restored, nullptr);
  // Replay the tail into both; the tail values continue the same
  // deterministic per-stream sequences.
  AlertRecorder uninterrupted_alerts(uninterrupted.get());
  AlertRecorder restored_alerts(restored.get());
  auto tail_a = sources_a;
  Feed(uninterrupted.get(), &sources_a, 700);
  Feed(restored.get(), &tail_a, 700);
  ExpectSameAnswers(*uninterrupted, *restored);
  const auto want = uninterrupted_alerts.Sorted();
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(restored_alerts.Sorted(), want);
}

// Trackers are rebuilt from the restored raw tails: an aggregate query on
// a new window, registered after a restore, answers on its first batch
// instead of warming up for a window.
TEST(CheckpointRestoreTest, QueryRegisteredAfterRestoreIsReadyOnFirstBatch) {
  const std::string dir = FreshDir("ck_backfill");
  auto engine = MakeEngine(4, 2);
  ASSERT_NE(engine, nullptr);
  auto sources = Sources(4, 1300);
  Feed(engine.get(), &sources, 300);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  engine.reset();

  auto restored = MakeEngine(4, 2, dir);
  ASSERT_NE(restored, nullptr);
  AlertRecorder log(restored.get());
  // Event counts are non-negative, so every full 30-value SUM alarms.
  Result<QueryId> id = restored->RegisterQuery(QuerySpec::Aggregate(30, 0.0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  Feed(restored.get(), &sources, 1);
  const std::vector<AlertRecorder::Key> alerts = log.Sorted(id.value());
  ASSERT_EQ(alerts.size(), 4u);
  auto replay = Sources(4, 1300);
  for (StreamId s = 0; s < 4; ++s) {
    EXPECT_EQ(std::get<1>(alerts[s]), s);
    EXPECT_EQ(std::get<2>(alerts[s]), 300u) << "stream " << s;
    // The backfilled window holds the checkpointed values, not zeros.
    const std::vector<double> values = replay[s].Take(301);
    EXPECT_EQ(std::get<3>(alerts[s]),
              std::accumulate(values.end() - 30, values.end(), 0.0))
        << "stream " << s;
  }
  auto alarming = restored->CurrentlyAlarming(id.value());
  ASSERT_TRUE(alarming.ok());
  EXPECT_EQ(alarming.value(), (std::vector<StreamId>{0, 1, 2, 3}));
}

/// Every stream's serialized state (the slice DebugStreamState returns)
/// agrees byte for byte between the two engines.
void ExpectSameStreamState(const IngestEngine& a, const IngestEngine& b) {
  ASSERT_EQ(a.num_streams(), b.num_streams());
  for (StreamId s = 0; s < a.num_streams(); ++s) {
    std::string want;
    std::string got;
    ASSERT_TRUE(a.DebugStreamState(s, &want).ok()) << "stream " << s;
    ASSERT_TRUE(b.DebugStreamState(s, &got).ok()) << "stream " << s;
    EXPECT_EQ(got, want) << "serialized state diverged on stream " << s;
  }
}

/// Posts `count` ticks, each one PostBatch of one value per stream, and
/// waits until the workers applied them all.
void FeedBatched(IngestEngine* engine, std::vector<BurstySource>* sources,
                 int count) {
  std::vector<StreamValue> tick(engine->num_streams());
  for (int t = 0; t < count; ++t) {
    for (StreamId s = 0; s < engine->num_streams(); ++s) {
      tick[s] = {s, (*sources)[s].Next()};
    }
    ASSERT_TRUE(engine->PostBatch(tick).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
}

// A checkpoint writes each stream's slice and a restore installs it under
// the restored registry's plan, so the restored state is the origin's
// byte for byte — trackers, sketch measures, the pattern core and edge
// state included — right after the restore and after both engines apply
// the same further tuples.
TEST(CheckpointRestoreTest, RestoredStateBytesMatchOrigin) {
  const std::string dir = FreshDir("ck_state_bytes");
  constexpr std::size_t kStreams = 6;
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.query.enable_patterns = true;
  StardustConfig& pattern = econfig.query.pattern;
  pattern.transform = TransformKind::kDwt;
  pattern.normalization = Normalization::kUnitSphere;
  pattern.coefficients = 4;
  pattern.r_max = 8.0;
  pattern.base_window = 8;
  pattern.num_levels = 2;
  pattern.history = 512;
  pattern.box_capacity = 1;
  pattern.update_period = 1;
  pattern.index_features = true;
  const auto create = [&](const std::string& restore_dir) {
    Result<std::unique_ptr<IngestEngine>> engine = IngestEngine::Create(
        StreamConfig(), {}, kStreams, econfig, restore_dir);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  };
  auto origin = create({});
  ASSERT_NE(origin, nullptr);
  for (const WindowThreshold& wt : Thresholds(2.0)) {
    ASSERT_TRUE(origin
                    ->RegisterQuery(
                        QuerySpec::Aggregate(wt.window, wt.threshold))
                    .ok());
  }
  SketchConfig distinct;
  distinct.window = 32;
  distinct.hll_precision = 6;
  AssessRange assess;
  assess.hi = 6.0;
  ASSERT_TRUE(
      origin->RegisterQuery(QuerySpec::Sketch(distinct, assess)).ok());
  ASSERT_TRUE(origin
                  ->RegisterQuery(QuerySpec::Pattern(
                      {0, 1, 0, 2, 0, 1, 0, 3}, 0.2))
                  .ok());
  auto sources = Sources(kStreams, 5300);
  FeedBatched(origin.get(), &sources, 300);
  ASSERT_TRUE(origin->MigrateStream(1, 0).ok());
  FeedBatched(origin.get(), &sources, 100);
  ASSERT_TRUE(origin->Checkpoint(dir).ok());

  auto restored = create(dir);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->ShardOf(1), 0u);
  ExpectSameStreamState(*origin, *restored);

  // One flushed tick at a time, so both engines evaluate every stream
  // after each of its tuples: the rising-edge state that follows each
  // slice still depends on where batches end (ROADMAP, the edge item).
  auto restored_sources = sources;
  for (int t = 0; t < 250; ++t) {
    FeedBatched(origin.get(), &sources, 1);
    FeedBatched(restored.get(), &restored_sources, 1);
  }
  ExpectSameStreamState(*origin, *restored);
}

// The correlation core's deterministic workload: streams 0 and 1 share a
// wave except while stream 1 deviates on [64, 128), streams 2 and 3 share
// a slower wave, streams 4 and 5 are pseudo-noise.
double CorrelatedValue(StreamId s, std::uint64_t t) {
  const double x = static_cast<double>(t);
  switch (s) {
    case 0:
      return std::sin(0.37 * x);
    case 1:
      return std::sin(0.37 * x) +
             ((t >= 64 && t < 128) ? 5.0 * std::sin(3.1 * x) : 0.0);
    case 2:
    case 3:
      return std::sin(0.11 * x + 1.0);
    default:
      return std::sin((0.53 + 0.17 * static_cast<double>(s)) * x) +
             0.3 * std::sin(1.9 * x + static_cast<double>(s));
  }
}

// With correlation enabled and no explicit capacity the feature-store
// ring is sized from the host's cache, so a checkpoint must restore under
// another capacity: the restored streams drop their cached rows, re-warm
// from the correlation core, and raise the origin's correlation alerts.
TEST(CheckpointRestoreTest, RestoresUnderAnotherStoreCapacity) {
  const std::string dir = FreshDir("ck_store_capacity");
  constexpr std::size_t kStreams = 6;
  const auto create = [&](std::size_t capacity,
                          const std::string& restore_dir) {
    EngineConfig econfig;
    econfig.num_shards = 2;
    econfig.store_capacity = capacity;
    econfig.query.enable_correlation = true;
    StardustConfig& corr = econfig.query.correlation;
    corr.transform = TransformKind::kDwt;
    corr.normalization = Normalization::kZNorm;
    corr.coefficients = 4;
    corr.base_window = 8;
    corr.num_levels = 2;
    corr.history = 1024;
    corr.box_capacity = 1;
    corr.update_period = 8;
    // Rounds run only when triggered, so every engine sees the same ones.
    econfig.query.correlator_period_ms = 3600000;
    Result<std::unique_ptr<IngestEngine>> engine = IngestEngine::Create(
        StreamConfig(), {}, kStreams, econfig, restore_dir);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  };
  const auto feed = [](IngestEngine* engine, std::uint64_t from,
                       std::uint64_t to) {
    for (std::uint64_t t = from; t < to; ++t) {
      for (StreamId s = 0; s < kStreams; ++s) {
        ASSERT_TRUE(engine->Post(s, CorrelatedValue(s, t)).ok());
      }
    }
    ASSERT_TRUE(engine->Flush().ok());
  };

  auto origin = create(8, {});
  ASSERT_NE(origin, nullptr);
  ASSERT_TRUE(origin->RegisterQuery(QuerySpec::Correlation(0.3)).ok());
  feed(origin.get(), 0, 96);
  ASSERT_TRUE(origin->Checkpoint(dir).ok());

  std::vector<std::unique_ptr<IngestEngine>> engines;
  engines.push_back(std::move(origin));
  for (const std::size_t capacity : {4u, 16u}) {
    engines.push_back(create(capacity, dir));
    ASSERT_NE(engines.back(), nullptr) << "capacity " << capacity;
  }
  std::vector<AlertRecorder> logs;
  for (const auto& engine : engines) logs.emplace_back(engine.get());
  for (std::uint64_t phase = 0; phase < 6; ++phase) {
    for (const auto& engine : engines) {
      feed(engine.get(), 96 + 32 * phase, 128 + 32 * phase);
      engine->TriggerCorrelatorRound();
      ASSERT_TRUE(engine->Flush().ok());
    }
  }
  const std::vector<AlertRecorder::Key> want = logs[0].Sorted();
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(logs[1].Sorted(), want) << "restored at capacity 4";
  EXPECT_EQ(logs[2].Sorted(), want) << "restored at capacity 16";
}

/// Byte offset of the first tracker window in a slice taken without query
/// cores: the raw tail (capacity, total, value count, values), the
/// absent-pattern, absent-correlation and present-tracker flags, then the
/// window count.
std::size_t FirstTrackerWindowOffset(const std::string& slice) {
  Reader reader(slice);
  std::uint64_t skip = 0;
  std::uint64_t values = 0;
  EXPECT_TRUE(reader.U64(&skip).ok());
  EXPECT_TRUE(reader.U64(&skip).ok());
  EXPECT_TRUE(reader.U64(&values).ok());
  return 24 + 8 * values + 3 + 8;
}

// Shard files are read from disk, so every hostile slot table or slice is
// rejected with InvalidArgument — even with valid checksums — before it
// can abort the process or drive an unbounded allocation.
TEST(CheckpointRestoreTest, RejectsHostileShardFiles) {
  const std::string dir = FreshDir("ck_hostile");
  auto engine = MakeEngine(4, 2);
  ASSERT_NE(engine, nullptr);
  auto sources = Sources(4, 5100);
  Feed(engine.get(), &sources, 300);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  engine.reset();

  const std::string manifest_path =
      (fs::path(dir) / CheckpointManifestFileName(1)).string();
  const std::string shard_path =
      (fs::path(dir) / CheckpointFeaturesFileName(0, 1)).string();
  const Result<std::string> manifest_bytes = ReadFileToString(manifest_path);
  const Result<std::string> shard_bytes = ReadFileToString(shard_path);
  ASSERT_TRUE(manifest_bytes.ok());
  ASSERT_TRUE(shard_bytes.ok());
  const Result<CheckpointShardFile> parsed =
      ParseShardFile(shard_bytes.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The modulo layout: shard 0 holds streams 0 and 2.
  const CheckpointShardFile& shard0 = parsed.value();
  ASSERT_EQ(shard0.globals, (std::vector<StreamId>{0, 2}));
  const std::size_t window_at = FirstTrackerWindowOffset(shard0.slices[0]);

  const auto with_slot = [&](StreamId global, std::string slice) {
    CheckpointShardFile file = shard0;
    file.globals[1] = global;
    file.slices[1] = std::move(slice);
    return SerializeShardFile(file);
  };
  const auto with_slice = [&](std::string slice) {
    CheckpointShardFile file = shard0;
    file.slices[0] = std::move(slice);
    return SerializeShardFile(file);
  };
  const char magic[4] = {'S', 'D', 'F', 'P'};
  const std::string payload = shard_bytes.value().substr(16);
  const std::string& slice = shard0.slices[0];
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"stream named twice", with_slot(0, slice)},
      {"stream id beyond the stream count", with_slot(4, slice)},
      {"stream missing", with_slot(kNoStream, "")},
      {"tracker window 0", with_slice(Patched(slice, window_at, 0))},
      {"tracker window above history",
       with_slice(Patched(slice, window_at, 201))},
      {"tracker window of 2^40",
       with_slice(Patched(slice, window_at, std::uint64_t{1} << 40))},
      {"tracker window count beyond the bytes left",
       with_slice(Patched(slice, window_at - 8, std::uint64_t{1} << 40))},
      {"truncated slice", with_slice(slice.substr(0, slice.size() / 2))},
      {"slice with trailing bytes", with_slice(slice + '\0')},
      {"truncated file",
       WrapEnvelope(magic, 4, payload.substr(0, payload.size() - 9))},
      {"file with trailing bytes", WrapEnvelope(magic, 4, payload + '\0')},
  };
  EngineConfig econfig;
  econfig.num_shards = 2;
  for (const auto& [name, bytes] : cases) {
    // Re-sign the manifest so the restore gets past the file checksums.
    Result<CheckpointManifest> manifest =
        ParseManifest(manifest_bytes.value());
    ASSERT_TRUE(manifest.ok());
    CheckpointManifest resigned = manifest.value();
    resigned.shards[0].checksum = Fnv1a(bytes);
    ASSERT_TRUE(AtomicWriteFile(shard_path, bytes).ok());
    ASSERT_TRUE(
        AtomicWriteFile(manifest_path, SerializeManifest(resigned)).ok());
    const Result<std::unique_ptr<IngestEngine>> restored =
        IngestEngine::Create(StreamConfig(), {}, 4, econfig, dir);
    ASSERT_FALSE(restored.ok()) << name;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << name << ": " << restored.status().ToString();
  }
  // The untouched checkpoint still restores.
  ASSERT_TRUE(AtomicWriteFile(shard_path, shard_bytes.value()).ok());
  ASSERT_TRUE(AtomicWriteFile(manifest_path, manifest_bytes.value()).ok());
  EXPECT_TRUE(IngestEngine::Create(StreamConfig(), {}, 4, econfig, dir).ok());
}

// Sketch configs reach a restore from disk twice: in the queries file and
// in every stream slice. A re-signed checkpoint whose heavy-hitter config
// asks for epsilon 1e-9 (2^32 counters per CountMin row) is rejected
// before any measure is built, in either place.
TEST(CheckpointRestoreTest, RejectsOversizedSketchConfigs) {
  const std::string dir = FreshDir("ck_sketch_size");
  SketchConfig heavy;
  heavy.kind = SketchKind::kHeavyHitters;
  heavy.window = 32;
  auto engine = MakeEngine(4, 2);
  ASSERT_NE(engine, nullptr);
  ASSERT_TRUE(
      engine->RegisterQuery(QuerySpec::Sketch(heavy, AssessRange{})).ok());
  auto sources = Sources(4, 5200);
  Feed(engine.get(), &sources, 100);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  engine.reset();

  // The config serializes as kind (u8), window, buckets, precision (u64
  // each), then epsilon (f64 at offset 25).
  Writer config_writer;
  heavy.SaveTo(&config_writer);
  const std::string config_bytes = config_writer.buffer();
  const auto oversized = [&config_bytes](const std::string& bytes) {
    const std::size_t at = bytes.find(config_bytes);
    EXPECT_NE(at, std::string::npos);
    return Patched(bytes, at + 25, std::bit_cast<std::uint64_t>(1e-9));
  };

  const std::string manifest_path =
      (fs::path(dir) / CheckpointManifestFileName(1)).string();
  const std::string queries_path =
      (fs::path(dir) / CheckpointQueriesFileName(1)).string();
  const std::string shard_path =
      (fs::path(dir) / CheckpointFeaturesFileName(0, 1)).string();
  const Result<std::string> manifest_bytes = ReadFileToString(manifest_path);
  const Result<std::string> queries_bytes = ReadFileToString(queries_path);
  const Result<std::string> shard_bytes = ReadFileToString(shard_path);
  ASSERT_TRUE(manifest_bytes.ok());
  ASSERT_TRUE(queries_bytes.ok());
  ASSERT_TRUE(shard_bytes.ok());
  const Result<CheckpointManifest> manifest =
      ParseManifest(manifest_bytes.value());
  ASSERT_TRUE(manifest.ok());

  // The queries file, re-wrapped with a valid checksum.
  const char queries_magic[4] = {'S', 'D', 'Q', 'R'};
  std::uint32_t queries_version = 0;
  std::string queries_payload;
  ASSERT_TRUE(UnwrapEnvelope(queries_bytes.value(), queries_magic, "queries",
                             &queries_version, &queries_payload)
                  .ok());
  const std::string hostile_queries = WrapEnvelope(
      queries_magic, queries_version, oversized(queries_payload));
  // Stream 0's slice inside shard 0's file.
  Result<CheckpointShardFile> shard0 = ParseShardFile(shard_bytes.value());
  ASSERT_TRUE(shard0.ok()) << shard0.status().ToString();
  shard0.value().slices[0] = oversized(shard0.value().slices[0]);
  const std::string hostile_shard = SerializeShardFile(shard0.value());

  EngineConfig econfig;
  econfig.num_shards = 2;
  for (const bool in_slice : {false, true}) {
    const std::string& queries =
        in_slice ? queries_bytes.value() : hostile_queries;
    const std::string& shard = in_slice ? hostile_shard : shard_bytes.value();
    CheckpointManifest resigned = manifest.value();
    resigned.queries_checksum = Fnv1a(queries);
    resigned.shards[0].checksum = Fnv1a(shard);
    ASSERT_TRUE(AtomicWriteFile(queries_path, queries).ok());
    ASSERT_TRUE(AtomicWriteFile(shard_path, shard).ok());
    ASSERT_TRUE(
        AtomicWriteFile(manifest_path, SerializeManifest(resigned)).ok());
    const Result<std::unique_ptr<IngestEngine>> restored =
        IngestEngine::Create(StreamConfig(), {}, 4, econfig, dir);
    ASSERT_FALSE(restored.ok()) << (in_slice ? "slice" : "queries file");
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find("sketch measure needs"),
              std::string::npos)
        << restored.status().ToString();
  }
  // The untouched checkpoint still restores.
  ASSERT_TRUE(AtomicWriteFile(queries_path, queries_bytes.value()).ok());
  ASSERT_TRUE(AtomicWriteFile(shard_path, shard_bytes.value()).ok());
  ASSERT_TRUE(AtomicWriteFile(manifest_path, manifest_bytes.value()).ok());
  EXPECT_TRUE(IngestEngine::Create(StreamConfig(), {}, 4, econfig, dir).ok());
}

TEST(CheckpointRestoreTest, ValidatesShape) {
  const std::string dir = FreshDir("ck_shape");
  auto engine = MakeEngine(6, 2);
  ASSERT_NE(engine, nullptr);
  auto sources = Sources(6, 100);
  Feed(engine.get(), &sources, 300);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  EngineConfig two_shards;
  two_shards.num_shards = 2;
  // Wrong stream count.
  EXPECT_FALSE(IngestEngine::Create(StreamConfig(), Thresholds(2.0), 5,
                                    two_shards, dir)
                   .ok());
  // Wrong shard count: placement would scramble the streams.
  EngineConfig three_shards;
  three_shards.num_shards = 3;
  EXPECT_FALSE(IngestEngine::Create(StreamConfig(), Thresholds(2.0), 6,
                                    three_shards, dir)
                   .ok());
  // Non-empty thresholds on restore are rejected: the queries come from
  // the checkpoint.
  const Result<std::unique_ptr<IngestEngine>> with_thresholds =
      IngestEngine::Create(StreamConfig(), Thresholds(2.0), 6, two_shards,
                           dir);
  ASSERT_FALSE(with_thresholds.ok());
  EXPECT_EQ(with_thresholds.status().code(), StatusCode::kInvalidArgument);
  // A raw-tail history other than the checkpointed one.
  StardustConfig longer_history = StreamConfig();
  longer_history.history = 400;
  EXPECT_FALSE(
      IngestEngine::Create(longer_history, {}, 6, two_shards, dir).ok());
  // Another aggregate kind: the restored queries would silently evaluate
  // MAX over a state checkpointed under SUM.
  StardustConfig max_kind = StreamConfig();
  max_kind.aggregate = AggregateKind::kMax;
  const Result<std::unique_ptr<IngestEngine>> other_kind =
      IngestEngine::Create(max_kind, {}, 6, two_shards, dir);
  ASSERT_FALSE(other_kind.ok());
  EXPECT_EQ(other_kind.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(other_kind.status().message().find("aggregate kind"),
            std::string::npos)
      << other_kind.status().ToString();
  // Matching shape restores fine, with the checkpointed queries.
  auto restored =
      IngestEngine::Create(StreamConfig(), {}, 6, two_shards, dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->queries().size(), Thresholds(2.0).size());
}

TEST(CheckpointRestoreTest, EmptyOrMissingDirectoryIsNotFound) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  const std::string empty = FreshDir("ck_empty");
  Result<std::unique_ptr<IngestEngine>> from_empty =
      IngestEngine::Create(StreamConfig(), {}, 4, econfig, empty);
  ASSERT_FALSE(from_empty.ok());
  EXPECT_EQ(from_empty.status().code(), StatusCode::kNotFound);
  Result<std::unique_ptr<IngestEngine>> from_missing = IngestEngine::Create(
      StreamConfig(), {}, 4, econfig, empty + "/does-not-exist");
  ASSERT_FALSE(from_missing.ok());
  EXPECT_EQ(from_missing.status().code(), StatusCode::kNotFound);
}

// Inject a crash at every phase of the atomic write protocol, during the
// second checkpoint. Whatever the phase, recovery must come up with the
// complete state of the first checkpoint — never a blend, never a torn
// file.
TEST(CheckpointCrashTest, CrashAtEveryPhaseFallsBackToPreviousCheckpoint) {
  for (const AtomicWritePhase crash_phase :
       {AtomicWritePhase::kTmpCreated, AtomicWritePhase::kTmpMidWrite,
        AtomicWritePhase::kTmpWritten, AtomicWritePhase::kBeforeRename}) {
    const std::string dir =
        FreshDir("ck_crash_" +
                 std::to_string(static_cast<int>(crash_phase)));
    auto engine = MakeEngine(4, 2);
    ASSERT_NE(engine, nullptr);
    auto sources = Sources(4, 4200);
    Feed(engine.get(), &sources, 500);
    ASSERT_TRUE(engine->Checkpoint(dir).ok());

    // Reference: answers as of checkpoint 1.
    auto reference = MakeEngine(4, 2, dir);
    ASSERT_NE(reference, nullptr);

    // More data, then a checkpoint that dies at the injected phase.
    Feed(engine.get(), &sources, 400);
    SetAtomicFileHookForTest(
        [crash_phase](AtomicWritePhase phase, const std::string&) {
          return phase != crash_phase;
        });
    const Status crashed = engine->Checkpoint(dir);
    SetAtomicFileHookForTest(nullptr);
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.code(), StatusCode::kAborted);
    EXPECT_EQ(engine->metrics().checkpoint_failures.load(), 1u);

    auto recovered = MakeEngine(4, 2, dir);
    ASSERT_NE(recovered, nullptr)
        << "phase " << static_cast<int>(crash_phase);
    EXPECT_EQ(recovered->last_checkpoint_seq(), 1u);
    ExpectSameAnswers(*reference, *recovered);
  }
}

// A crash that kills only the manifest write — after every shard file
// already landed — must also resolve to the previous checkpoint: the
// manifest is the commit point.
TEST(CheckpointCrashTest, CrashOnManifestWriteOnlyFallsBack) {
  const std::string dir = FreshDir("ck_crash_manifest");
  auto engine = MakeEngine(4, 2);
  ASSERT_NE(engine, nullptr);
  auto sources = Sources(4, 4300);
  Feed(engine.get(), &sources, 500);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  auto reference = MakeEngine(4, 2, dir);
  ASSERT_NE(reference, nullptr);

  Feed(engine.get(), &sources, 400);
  SetAtomicFileHookForTest(
      [](AtomicWritePhase phase, const std::string& path) {
        return !(phase == AtomicWritePhase::kBeforeRename &&
                 path.find("manifest-") != std::string::npos);
      });
  const Status crashed = engine->Checkpoint(dir);
  SetAtomicFileHookForTest(nullptr);
  ASSERT_FALSE(crashed.ok());

  // The orphaned ck2 files exist but no manifest commits them.
  EXPECT_TRUE(fs::exists(fs::path(dir) / "features-0-ck2.feat"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "manifest-2.ck"));
  auto recovered = MakeEngine(4, 2, dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->last_checkpoint_seq(), 1u);
  ExpectSameAnswers(*reference, *recovered);
}

// Post-crash corruption of the newest checkpoint's files (truncation,
// bit flips, deletion) must fall back to the previous one. Each
// corruption runs against a freshly built pair of checkpoints.
TEST(CheckpointCrashTest, CorruptNewestCheckpointFallsBack) {
  const auto corruptions =
      std::vector<std::function<void(const std::string&)>>{
          // Truncate a feature file of checkpoint 2.
          [](const std::string& dir) {
            fs::resize_file(fs::path(dir) / "features-0-ck2.feat", 10);
          },
          // Flip one byte in the middle of a feature file.
          [](const std::string& dir) {
            const fs::path path = fs::path(dir) / "features-1-ck2.feat";
            std::fstream f(path,
                           std::ios::in | std::ios::out | std::ios::binary);
            f.seekg(0, std::ios::end);
            const std::streamoff mid =
                static_cast<std::streamoff>(f.tellg()) / 2;
            char c = 0;
            f.seekg(mid);
            f.read(&c, 1);
            c = static_cast<char>(c ^ 0x5a);
            f.seekp(mid);
            f.write(&c, 1);
          },
          // Delete a shard file outright.
          [](const std::string& dir) {
            fs::remove(fs::path(dir) / "features-0-ck2.feat");
          },
          // Truncate the manifest itself.
          [](const std::string& dir) {
            fs::resize_file(fs::path(dir) / "manifest-2.ck", 6);
          },
      };
  for (std::size_t i = 0; i < corruptions.size(); ++i) {
    const std::string dir = FreshDir("ck_corrupt_" + std::to_string(i));
    auto engine = MakeEngine(4, 2);
    ASSERT_NE(engine, nullptr);
    auto sources = Sources(4, 4400);
    Feed(engine.get(), &sources, 500);
    ASSERT_TRUE(engine->Checkpoint(dir).ok());
    auto reference = MakeEngine(4, 2, dir);
    ASSERT_NE(reference, nullptr);
    Feed(engine.get(), &sources, 400);
    ASSERT_TRUE(engine->Checkpoint(dir).ok());

    corruptions[i](dir);
    Result<CheckpointManifest> found = FindLatestValidCheckpoint(dir);
    ASSERT_TRUE(found.ok())
        << "corruption " << i << ": " << found.status().ToString();
    EXPECT_EQ(found.value().seq, 1u) << "corruption " << i;
    auto recovered = MakeEngine(4, 2, dir);
    ASSERT_NE(recovered, nullptr) << "corruption " << i;
    ExpectSameAnswers(*reference, *recovered);
  }
}

// The query-registry file is covered by the same checksum discipline as
// the per-shard files: corrupting it invalidates the whole checkpoint and
// recovery falls back to the previous one.
TEST(CheckpointCrashTest, CorruptQueriesFileFallsBack) {
  const std::string dir = FreshDir("ck_corrupt_queries");
  auto engine = MakeEngine(4, 2);
  ASSERT_NE(engine, nullptr);
  ASSERT_TRUE(engine->RegisterQuery(QuerySpec::Aggregate(10, 5.0)).ok());
  // The three threshold queries plus the one above.
  const std::size_t registered = Thresholds(2.0).size() + 1;
  ASSERT_EQ(engine->queries().size(), registered);
  auto sources = Sources(4, 4800);
  Feed(engine.get(), &sources, 500);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  auto reference = MakeEngine(4, 2, dir);
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(reference->queries().size(), registered);
  Feed(engine.get(), &sources, 400);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  {
    const fs::path path = fs::path(dir) / "queries-ck2.qry";
    ASSERT_TRUE(fs::exists(path));
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    char c = 0;
    f.seekg(4);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(4);
    f.write(&c, 1);
  }
  Result<CheckpointManifest> found = FindLatestValidCheckpoint(dir);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found.value().seq, 1u);
  auto recovered = MakeEngine(4, 2, dir);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->queries().size(), registered);
  ExpectSameAnswers(*reference, *recovered);
}

// A committed manifest that lacks a file every checkpoint carries (a
// shard entry, a shard's file name, the queries file or the net file) is
// rejected, and recovery falls back to the previous checkpoint.
TEST(CheckpointCrashTest, IncompleteManifestFallsBackToPreviousCheckpoint) {
  const std::vector<std::function<void(CheckpointManifest*)>> strips = {
      [](CheckpointManifest* m) { m->shards.pop_back(); },
      [](CheckpointManifest* m) { m->shards[0].file.clear(); },
      [](CheckpointManifest* m) { m->queries_file.clear(); },
      [](CheckpointManifest* m) { m->net_file.clear(); },
  };
  for (std::size_t i = 0; i < strips.size(); ++i) {
    const std::string dir = FreshDir("ck_incomplete_" + std::to_string(i));
    auto engine = MakeEngine(4, 2);
    ASSERT_NE(engine, nullptr);
    auto sources = Sources(4, 4900);
    Feed(engine.get(), &sources, 500);
    ASSERT_TRUE(engine->Checkpoint(dir).ok());
    auto reference = MakeEngine(4, 2, dir);
    ASSERT_NE(reference, nullptr);
    Feed(engine.get(), &sources, 400);
    ASSERT_TRUE(engine->Checkpoint(dir).ok());

    const std::string path = (fs::path(dir) / "manifest-2.ck").string();
    Result<std::string> bytes = ReadFileToString(path);
    ASSERT_TRUE(bytes.ok());
    Result<CheckpointManifest> complete = ParseManifest(bytes.value());
    ASSERT_TRUE(complete.ok()) << complete.status().ToString();
    CheckpointManifest stripped = complete.value();
    strips[i](&stripped);
    const std::string stripped_bytes = SerializeManifest(stripped);
    EXPECT_FALSE(ParseManifest(stripped_bytes).ok()) << "strip " << i;
    ASSERT_TRUE(AtomicWriteFile(path, stripped_bytes).ok());

    Result<CheckpointManifest> found = FindLatestValidCheckpoint(dir);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found.value().seq, 1u) << "strip " << i;
    auto recovered = MakeEngine(4, 2, dir);
    ASSERT_NE(recovered, nullptr) << "strip " << i;
    EXPECT_EQ(recovered->last_checkpoint_seq(), 1u);
    ExpectSameAnswers(*reference, *recovered);
  }
}

TEST(CheckpointGcTest, KeepsCurrentAndPreviousDropsOlderAndTmp) {
  const std::string dir = FreshDir("ck_gc");
  auto engine = MakeEngine(2, 1);
  ASSERT_NE(engine, nullptr);
  auto sources = Sources(2, 4500);
  // A stray tmp file from a hypothetical interrupted writer.
  { std::ofstream(dir + "/features-0-ck9.feat.tmp") << "partial"; }
  Feed(engine.get(), &sources, 200);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  Feed(engine.get(), &sources, 200);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  Feed(engine.get(), &sources, 200);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());

  // Checkpoints 2 and 3 survive; 1 and the tmp leftover are gone.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "features-0-ck9.feat.tmp"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "manifest-1.ck"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "features-0-ck1.feat"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "queries-ck1.qry"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest-2.ck"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest-3.ck"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "queries-ck2.qry"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "queries-ck3.qry"));
  Result<CheckpointManifest> found = FindLatestValidCheckpoint(dir);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().seq, 3u);
}

TEST(CheckpointRestoreTest, SequenceLineageContinuesAfterRestore) {
  const std::string dir = FreshDir("ck_lineage");
  auto engine = MakeEngine(2, 1);
  ASSERT_NE(engine, nullptr);
  auto sources = Sources(2, 4600);
  Feed(engine.get(), &sources, 300);
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  ASSERT_TRUE(engine->Checkpoint(dir).ok());
  engine.reset();

  auto restored = MakeEngine(2, 1, dir);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->last_checkpoint_seq(), 2u);
  ASSERT_TRUE(restored->Checkpoint(dir).ok());
  // The new checkpoint continues the lineage at 3 and keeps 2 as
  // fallback.
  EXPECT_EQ(restored->last_checkpoint_seq(), 3u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest-2.ck"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "manifest-3.ck"));
}

TEST(CheckpointRestoreTest, BackgroundThreadCheckpointsPeriodically) {
  const std::string dir = FreshDir("ck_background");
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.checkpoint_period_ms = 5;
  econfig.checkpoint_dir = dir;
  auto engine = std::move(IngestEngine::Create(StreamConfig(),
                                               Thresholds(2.0), 4, econfig))
                    .value();
  auto sources = Sources(4, 4700);
  Feed(engine.get(), &sources, 500);
  // Wait for the background thread to land at least one checkpoint.
  for (int i = 0; i < 400 && engine->last_checkpoint_seq() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(engine->metrics().checkpoints.load(), 0u);
  ASSERT_TRUE(engine->Stop().ok());
  const std::uint64_t seq_at_stop = engine->last_checkpoint_seq();
  ASSERT_GT(seq_at_stop, 0u);
  // Stop() joins the thread: no more checkpoints after it returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(engine->last_checkpoint_seq(), seq_at_stop);

  auto restored = MakeEngine(4, 2, dir);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->last_checkpoint_seq(), seq_at_stop);
}

TEST(CheckpointRestoreTest, PeriodRequiresDirectory) {
  EngineConfig econfig;
  econfig.checkpoint_period_ms = 50;
  EXPECT_FALSE(
      IngestEngine::Create(StreamConfig(), Thresholds(2.0), 4, econfig)
          .ok());
}

}  // namespace
}  // namespace stardust
