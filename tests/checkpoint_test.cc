// Crash-safety tests of the engine checkpoint/restore path: manifest
// format, recovery semantics, and crash injection at every phase of the
// atomic file protocol (common/atomic_file.h).
#include "engine/checkpoint.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "alert_log.h"
#include "common/atomic_file.h"
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
  EXPECT_EQ(CheckpointEdgesFileName(3, 12), "edges-3-ck12.edge");
  EXPECT_EQ(CheckpointManifestFileName(7), "manifest-7.ck");
  EXPECT_EQ(CheckpointQueriesFileName(5), "queries-ck5.qry");
}

/// A manifest with every entry a real checkpoint carries: per shard the
/// progress stamps, a feature and an edge entry, plus the queries and
/// placement files.
CheckpointManifest CompleteManifest(std::uint64_t seq,
                                    std::size_t num_shards) {
  CheckpointManifest manifest;
  manifest.seq = seq;
  manifest.num_streams = 2 * num_shards;
  manifest.num_shards = num_shards;
  for (std::size_t i = 0; i < num_shards; ++i) {
    manifest.shards.push_back({1, 1});
    manifest.features.push_back({CheckpointFeaturesFileName(i, seq), 2});
    manifest.edges.push_back({CheckpointEdgesFileName(i, seq), 3});
  }
  manifest.queries_file = CheckpointQueriesFileName(seq);
  manifest.placement_file = CheckpointPlacementFileName(seq);
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
  manifest.queue_capacity = 1024;
  manifest.max_producers = 8;
  manifest.max_batch = 256;
  manifest.overload = 1;
  manifest.shards = {{10, 300}, {11, 301}};
  Result<CheckpointManifest> parsed =
      ParseManifest(SerializeManifest(manifest));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const CheckpointManifest& got = parsed.value();
  EXPECT_EQ(got.seq, 42u);
  EXPECT_EQ(got.num_streams, 6u);
  EXPECT_EQ(got.num_shards, 2u);
  EXPECT_EQ(got.queue_capacity, 1024u);
  EXPECT_EQ(got.max_producers, 8u);
  EXPECT_EQ(got.max_batch, 256u);
  EXPECT_EQ(got.overload, 1);
  ASSERT_EQ(got.shards.size(), 2u);
  EXPECT_EQ(got.shards[0].epoch, 10u);
  EXPECT_EQ(got.shards[0].appended, 300u);
  EXPECT_EQ(got.shards[1].epoch, 11u);
  EXPECT_EQ(got.shards[1].appended, 301u);
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
  manifest.features[0].file = "../../etc/passwd";
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

  // The pipeline snapshot carries the raw tails: no per-shard fleet
  // file is written.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().rfind("shard-", 0), 0u)
        << entry.path();
  }

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
  AlertLog uninterrupted_alerts(uninterrupted.get());
  AlertLog restored_alerts(restored.get());
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
  AlertLog log(restored.get());
  // Event counts are non-negative, so every full 30-value SUM alarms.
  Result<QueryId> id = restored->RegisterQuery(QuerySpec::Aggregate(30, 0.0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  Feed(restored.get(), &sources, 1);
  const std::vector<AlertLog::Key> alerts = log.Sorted(id.value());
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
          // Delete an edge file outright.
          [](const std::string& dir) {
            fs::remove(fs::path(dir) / "edges-0-ck2.edge");
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
// feature entry, an edge entry, the queries file, or the placement file)
// is rejected, and recovery falls back to the previous checkpoint.
TEST(CheckpointCrashTest, IncompleteManifestFallsBackToPreviousCheckpoint) {
  const std::vector<std::function<void(CheckpointManifest*)>> strips = {
      [](CheckpointManifest* m) { m->features.pop_back(); },
      [](CheckpointManifest* m) { m->edges.pop_back(); },
      [](CheckpointManifest* m) { m->queries_file.clear(); },
      [](CheckpointManifest* m) { m->placement_file.clear(); },
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
