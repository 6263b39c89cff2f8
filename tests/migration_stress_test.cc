// Alert conservation across live migrations: two identical engines —
// one static, one whose streams are shuffled between shards mid-ingest —
// replay the same deterministic data with all four query classes
// registered (aggregate, pattern, correlation, sketch) and must publish
// the identical alert multiset. Batch boundaries are pinned with
// Pause/post/Resume/Flush cycles so the comparison is exact, and
// correlator rounds run only through TriggerCorrelatorRound; migrations
// fire between pinned batches, while the engines run un-paused. Alert
// epochs are excluded from the comparison: the moved stream's shard
// epoch legitimately differs between the layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "engine/engine.h"
#include "query/sinks.h"
#include "stream/threshold.h"

namespace stardust {
namespace {

constexpr std::size_t kStreams = 6;
constexpr std::size_t kShards = 3;
constexpr int kSteps = 400;

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

StardustConfig PatternCoreConfig() {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = 4;
  config.r_max = 8.0;
  config.base_window = 8;
  config.num_levels = 2;
  // Short retention: the planted match expires from the index well
  // before the restore test's checkpoint cut, so the restored engine's
  // empty delivery watermark cannot re-find it.
  config.history = 64;
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
  config.base_window = 8;
  config.num_levels = 2;
  config.history = 1024;
  config.box_capacity = 1;
  config.update_period = 8;  // T == W: batch algorithm
  return config;
}

// The planted 16-step shape for the pattern query.
std::vector<double> PatternShape() {
  return {1, 5, 2, 8, 3, 7, 4, 6, 1, 5, 2, 8, 3, 7, 4, 6};
}

// Deterministic integer-valued data planting at least one event per
// query class:
//  - streams 0 and 1 share a 5-periodic wave except t in [150, 250) —
//    the correlation pair forms, breaks, re-forms;
//  - stream 2 holds at 1 and bursts to 50 on [100, 140) and [300, 340)
//    — rising edges for the aggregate query;
//  - stream 3 is hash noise with the pattern planted at [200, 216);
//  - streams 4 and 5 are distinct-value ramps whose cardinality swings
//    drive the sketch query out of its assess range.
double ValueAt(StreamId stream, int t) {
  switch (stream) {
    case 0:
      return static_cast<double>(t % 5 + 1);
    case 1:
      if (t >= 150 && t < 250) {
        return static_cast<double>((t * 13 + 7) % 9 + 1);
      }
      return static_cast<double>(t % 5 + 1);
    case 2:
      return ((t >= 100 && t < 140) || (t >= 300 && t < 340)) ? 50.0 : 1.0;
    case 3:
      if (t >= 200 && t < 216) return PatternShape()[t - 200];
      return static_cast<double>((t * 31 + 11) % 10);
    case 4:
      // Low cardinality normally, a burst of fresh values on [120, 180).
      if (t >= 120 && t < 180) return static_cast<double>(1000 + t);
      return static_cast<double>(t % 3);
    default:
      return static_cast<double>(t % 7);
  }
}

std::unique_ptr<IngestEngine> MakeQueryEngine() {
  EngineConfig econfig;
  econfig.num_shards = kShards;
  econfig.start_paused = true;
  econfig.query.enable_patterns = true;
  econfig.query.pattern = PatternCoreConfig();
  econfig.query.enable_correlation = true;
  econfig.query.correlation = CorrelationCoreConfig();
  // Rounds fire only through TriggerCorrelatorRound.
  econfig.query.correlator_period_ms = 3600 * 1000;
  Result<std::unique_ptr<IngestEngine>> engine = IngestEngine::Create(
      AggregateConfig(), {}, kStreams, econfig);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

void RegisterQueries(IngestEngine* engine) {
  ASSERT_TRUE(
      engine->RegisterQuery(QuerySpec::Aggregate(20, 200.0)).ok());
  ASSERT_TRUE(
      engine->RegisterQuery(QuerySpec::Pattern(PatternShape(), 0.05)).ok());
  ASSERT_TRUE(engine->RegisterQuery(QuerySpec::Correlation(0.5, 0)).ok());
  SketchConfig sketch;
  sketch.kind = SketchKind::kDistinct;
  sketch.window = 40;
  sketch.buckets = 4;
  AssessRange assess;
  assess.hi = 20.0;  // the [120, 180) burst on stream 4 exceeds this
  ASSERT_TRUE(engine->RegisterQuery(QuerySpec::Sketch(sketch, assess)).ok());
}

/// One alert stripped of its epoch (shard epochs legitimately differ
/// between the migrated and static layouts).
using AlertKey = std::tuple<QueryId, int, StreamId, StreamId, std::size_t,
                            std::uint64_t, double, double>;

std::vector<AlertKey> KeysOf(const std::vector<Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const Alert& alert : alerts) {
    keys.emplace_back(alert.query, static_cast<int>(alert.kind),
                      alert.stream, alert.stream_b, alert.window,
                      alert.end_time, alert.value, alert.threshold);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::size_t CountKind(const std::vector<Alert>& alerts, QueryKind kind) {
  std::size_t n = 0;
  for (const Alert& alert : alerts) n += alert.kind == kind ? 1 : 0;
  return n;
}

/// Feeds one pinned batch (one tuple per stream) to both engines.
void PinnedStep(IngestEngine* subject, IngestEngine* golden, int t) {
  for (StreamId s = 0; s < kStreams; ++s) {
    const double v = ValueAt(s, t);
    ASSERT_TRUE(subject->Post(s, v).ok());
    ASSERT_TRUE(golden->Post(s, v).ok());
  }
  for (IngestEngine* engine : {subject, golden}) {
    engine->Resume();
    ASSERT_TRUE(engine->Flush().ok());
    engine->Pause();
    engine->TriggerCorrelatorRound();
  }
}

TEST(MigrationStressTest, AlertMultisetSurvivesRandomMigrations) {
  auto subject = MakeQueryEngine();
  auto golden = MakeQueryEngine();
  ASSERT_NE(subject, nullptr);
  ASSERT_NE(golden, nullptr);
  auto subject_ring = std::make_shared<RingSink>(1 << 16);
  auto golden_ring = std::make_shared<RingSink>(1 << 16);
  subject->alerts().AddSink(subject_ring);
  golden->alerts().AddSink(golden_ring);
  RegisterQueries(subject.get());
  RegisterQueries(golden.get());

  // Deterministic migration schedule: every 23 steps, the subject moves
  // one stream to the next shard over — including mid-burst (t=115,
  // stream 2 while its aggregate window is rising), mid-pattern (t=207,
  // stream 3 inside the planted shape), mid-divergence (t=161, stream 1
  // while its correlation pair is broken), and mid-sketch-burst (t=138,
  // stream 4 with fresh values in flight).
  std::uint64_t migrations = 0;
  for (int t = 0; t < kSteps; ++t) {
    if (t > 0 && t % 23 == 0) {
      const StreamId victim = static_cast<StreamId>((t / 23) % kStreams);
      const std::size_t from = subject->ShardOf(victim);
      const std::size_t to = (from + 1) % kShards;
      // The engines sit paused between pinned batches; migration needs
      // running workers on both sides.
      subject->Resume();
      const Status moved = subject->MigrateStream(victim, from, to);
      subject->Pause();
      ASSERT_TRUE(moved.ok()) << "t=" << t << ": " << moved.ToString();
      ++migrations;
    }
    PinnedStep(subject.get(), golden.get(), t);
  }
  EXPECT_GE(migrations, 17u);
  ASSERT_TRUE(subject->Stop().ok());
  ASSERT_TRUE(golden->Stop().ok());

  const std::vector<Alert> subject_alerts = subject_ring->Snapshot();
  const std::vector<Alert> golden_alerts = golden_ring->Snapshot();
  // Every class fired: the comparison is not vacuous for any of them.
  EXPECT_GE(CountKind(golden_alerts, QueryKind::kAggregate), 2u);
  EXPECT_GE(CountKind(golden_alerts, QueryKind::kPattern), 1u);
  EXPECT_GE(CountKind(golden_alerts, QueryKind::kCorrelation), 2u);
  EXPECT_GE(CountKind(golden_alerts, QueryKind::kSketch), 1u);
  EXPECT_EQ(KeysOf(subject_alerts), KeysOf(golden_alerts));
  EXPECT_EQ(subject->metrics().migrations.load(), migrations);
}

// The same property under checkpoint/restore: the subject checkpoints
// mid-run with a migrated layout, a restored twin takes over, and the
// combined alert stream still matches the static golden engine.
TEST(MigrationStressTest, RestoredMigratedEngineContinuesTheAlertStream) {
  const std::string dir = ::testing::TempDir() + "/migration_stress_ck";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto subject = MakeQueryEngine();
  auto golden = MakeQueryEngine();
  ASSERT_NE(subject, nullptr);
  ASSERT_NE(golden, nullptr);
  auto subject_ring = std::make_shared<RingSink>(1 << 16);
  auto golden_ring = std::make_shared<RingSink>(1 << 16);
  subject->alerts().AddSink(subject_ring);
  golden->alerts().AddSink(golden_ring);
  RegisterQueries(subject.get());
  RegisterQueries(golden.get());

  constexpr int kCut = 230;  // past the first burst and the pattern plant
  for (int t = 0; t < kCut; ++t) {
    if (t == 100) {
      subject->Resume();
      ASSERT_TRUE(subject->MigrateStream(2, (subject->ShardOf(2) + 1) %
                                                kShards).ok());
      ASSERT_TRUE(subject->MigrateStream(4, (subject->ShardOf(4) + 1) %
                                                kShards).ok());
      subject->Pause();
    }
    PinnedStep(subject.get(), golden.get(), t);
  }
  ASSERT_TRUE(subject->Checkpoint(dir).ok());
  ASSERT_TRUE(subject->Stop().ok());

  EngineConfig econfig;
  econfig.num_shards = kShards;
  econfig.start_paused = true;
  econfig.query.enable_patterns = true;
  econfig.query.pattern = PatternCoreConfig();
  econfig.query.enable_correlation = true;
  econfig.query.correlation = CorrelationCoreConfig();
  econfig.query.correlator_period_ms = 3600 * 1000;
  Result<std::unique_ptr<IngestEngine>> restored_result =
      IngestEngine::Create(AggregateConfig(), {},
                           kStreams, econfig, dir);
  ASSERT_TRUE(restored_result.ok()) << restored_result.status().ToString();
  auto restored = std::move(restored_result).value();
  EXPECT_EQ(restored->ShardOf(2), subject->ShardOf(2));
  EXPECT_EQ(restored->ShardOf(4), subject->ShardOf(4));
  auto restored_ring = std::make_shared<RingSink>(1 << 16);
  restored->alerts().AddSink(restored_ring);

  for (int t = kCut; t < kSteps; ++t) {
    PinnedStep(restored.get(), golden.get(), t);
  }
  ASSERT_TRUE(restored->Stop().ok());
  ASSERT_TRUE(golden->Stop().ok());

  std::vector<Alert> combined = subject_ring->Snapshot();
  const std::vector<Alert> tail = restored_ring->Snapshot();
  combined.insert(combined.end(), tail.begin(), tail.end());
  const std::vector<Alert> golden_alerts = golden_ring->Snapshot();
  EXPECT_GE(CountKind(golden_alerts, QueryKind::kAggregate), 2u);
  EXPECT_GE(CountKind(golden_alerts, QueryKind::kSketch), 1u);
  EXPECT_EQ(KeysOf(combined), KeysOf(golden_alerts));
}

}  // namespace
}  // namespace stardust
