// Tests for the compute-once feature state introduced by the pipeline
// refactor: FeatureStore ring/rotation semantics and byte-stable
// serialization, FeaturePipeline "SDFP" snapshot round trips (including
// core-presence compatibility, corruption and retired-version rejection),
// and the checkpoint manifest with its per-shard feature and edge entries
// (plus frozen manifest bytes that pin the on-disk format).
#include "core/feature_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "core/stardust.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "engine/feature_pipeline.h"
#include "fixture_bytes.h"
#include "query/eval_plan.h"
#include "query/registry.h"
#include "stream/threshold.h"

namespace stardust {
namespace {

constexpr std::size_t kStreams = 4;

// Same core shapes as the engine integration tests (query_test.cc).
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
  config.history = 1024;
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

QueryConfig FullQueryConfig() {
  QueryConfig config;
  config.enable_patterns = true;
  config.pattern = PatternCoreConfig();
  config.enable_correlation = true;
  config.correlation = CorrelationCoreConfig();
  config.correlator_period_ms = 3600 * 1000;
  return config;
}

std::unique_ptr<Stardust> MakeCore(const StardustConfig& config) {
  auto created = Stardust::Create(config);
  EXPECT_TRUE(created.ok()) << created.status().message();
  std::unique_ptr<Stardust> core = std::move(created.value());
  for (std::size_t s = 0; s < kStreams; ++s) core->AddStream();
  return core;
}

// Deterministic integer-valued signal (exact in double).
double ValueAt(std::size_t stream, std::uint64_t t) {
  return static_cast<double>((stream + 1) * (t % 7 + 1));
}

std::string SerializeStore(const FeatureStore& store) {
  Writer writer;
  store.SaveTo(&writer);
  return std::move(writer.TakeBuffer());
}

// --- Cache-geometry capacity derivation --------------------------------

TEST(FeatureStoreTest, EntryBytesCountsEveryColumn) {
  // time (8) + dims + window + mean + norm2 doubles + head/count u32s.
  EXPECT_EQ(FeatureStoreEntryBytes(/*window=*/8, /*dims=*/4),
            8u + (4 + 8 + 2) * 8u + 2 * 4u);
}

TEST(FeatureStoreTest, DeriveStoreCapacityTargetsHalfTheCache) {
  // 64 streams x 200-byte entries = 12800 bytes per ring slot; half of a
  // 1 MiB cache budgets 524288 bytes -> 40 slots, inside the clamps.
  EXPECT_EQ(DeriveStoreCapacity(64, 200, 1 << 20), 40u);
  // A huge cache clamps to the ceiling, a tiny one to the floor.
  EXPECT_EQ(DeriveStoreCapacity(4, 100, 1 << 30), 64u);
  EXPECT_EQ(DeriveStoreCapacity(1024, 4096, 1 << 16), 4u);
}

TEST(FeatureStoreTest, DeriveStoreCapacityFallsBackOnUnknownInputs) {
  // Zero/unknown geometry (no probed cache, empty shard, zero-sized
  // entry) must yield the pipeline's fixed default, never a clamp edge.
  EXPECT_EQ(DeriveStoreCapacity(64, 200, 0), 8u);
  EXPECT_EQ(DeriveStoreCapacity(0, 200, 1 << 20), 8u);
  EXPECT_EQ(DeriveStoreCapacity(64, 0, 1 << 20), 8u);
}

TEST(FeatureStoreTest, StoreCapacityOverrideTakesPrecedence) {
  // An explicit capacity bypasses derivation entirely: the pipeline's
  // store is built with exactly the requested ring size.
  FeaturePipeline pipeline(AggregateConfig(), nullptr,
                           MakeCore(CorrelationCoreConfig()), kStreams,
                           /*store_capacity=*/3);
  EXPECT_EQ(pipeline.store().capacity(), 3u);
  // And an engine built with the EngineConfig override (instead of
  // cache-geometry derivation) must construct and run cleanly.
  EngineConfig econfig;
  econfig.num_shards = 1;
  econfig.store_capacity = 3;
  econfig.query = FullQueryConfig();
  auto engine = std::move(IngestEngine::Create(AggregateConfig(), {},
                                               /*num_streams=*/2, econfig))
                    .value();
  ASSERT_TRUE(engine->Post(0, 1.0).ok());
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Stop().ok());
}

// --- FeatureStore unit tests ------------------------------------------

TEST(FeatureStoreTest, PutFindLatestAndRotation) {
  FeatureStore store(2, /*capacity=*/3);
  store.SetLevels({{/*level=*/0, /*window=*/4, /*dims=*/2}});
  ASSERT_TRUE(store.has_level(0));
  EXPECT_FALSE(store.has_level(1));

  std::uint64_t latest = 0;
  EXPECT_FALSE(store.Latest(0, 0, &latest));

  // Four strictly increasing puts into a capacity-3 ring: the oldest
  // time (3) must rotate out, the newest three stay addressable.
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t t = 3 + 4 * i;
    const double feature[2] = {1.0 * static_cast<double>(t), -2.0};
    const double znormed[4] = {0.5, -0.5, 1.5, -1.5};
    store.Put(0, 0, t, feature, znormed, /*mean=*/10.0 + static_cast<double>(t),
              /*norm2=*/4.0);
  }
  EXPECT_EQ(store.puts(), 4u);

  FeatureStore::View view;
  EXPECT_FALSE(store.Find(0, 0, 3, &view));   // rotated out
  EXPECT_FALSE(store.Find(0, 0, 9, &view));   // never cached
  EXPECT_FALSE(store.Find(0, 1, 15, &view));  // other stream untouched
  EXPECT_FALSE(store.Find(1, 0, 15, &view));  // unmonitored level

  ASSERT_TRUE(store.Find(0, 0, 15, &view));
  EXPECT_EQ(view.time, 15u);
  ASSERT_EQ(view.dims, 2u);
  ASSERT_EQ(view.window, 4u);
  EXPECT_DOUBLE_EQ(view.feature[0], 15.0);
  EXPECT_DOUBLE_EQ(view.feature[1], -2.0);
  EXPECT_DOUBLE_EQ(view.znormed[2], 1.5);
  EXPECT_DOUBLE_EQ(view.mean, 25.0);
  EXPECT_DOUBLE_EQ(view.norm2, 4.0);
  ASSERT_TRUE(store.Find(0, 0, 7, &view));  // oldest survivor
  EXPECT_EQ(view.time, 7u);

  ASSERT_TRUE(store.Latest(0, 0, &latest));
  EXPECT_EQ(latest, 15u);
  EXPECT_FALSE(store.Latest(0, 1, &latest));

  EXPECT_GE(store.hits(), 2u);
  EXPECT_GE(store.misses(), 4u);

  store.Clear();
  EXPECT_FALSE(store.Find(0, 0, 15, &view));
  EXPECT_TRUE(store.has_level(0));  // level set survives Clear
}

TEST(FeatureStoreTest, SetLevelsKeepsUnchangedSlabsAndDropsReshaped) {
  FeatureStore store(1, 4);
  store.SetLevels({{0, 4, 2}, {1, 8, 2}});
  const double feature[2] = {1.0, 2.0};
  const double znormed[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  store.Put(0, 0, 3, feature, znormed, 0.0, 1.0);
  store.Put(1, 0, 7, feature, znormed, 0.0, 1.0);

  // Level 0 unchanged (entry kept); level 1 reshaped (entry dropped);
  // level 2 added (starts empty).
  store.SetLevels({{0, 4, 2}, {1, 8, 4}, {2, 16, 4}});
  FeatureStore::View view;
  EXPECT_TRUE(store.Find(0, 0, 3, &view));
  EXPECT_FALSE(store.Find(1, 0, 7, &view));
  std::uint64_t latest = 0;
  EXPECT_FALSE(store.Latest(2, 0, &latest));
}

TEST(FeatureStoreTest, SaveRestoreRoundTripIsByteStable) {
  FeatureStore store(2, 3);
  store.SetLevels({{0, 4, 2}, {1, 8, 3}});
  const double znormed[8] = {1, -1, 2, -2, 3, -3, 4, -4};
  for (std::uint64_t i = 0; i < 5; ++i) {
    const double feature[3] = {static_cast<double>(i), -1.0, 0.25};
    store.Put(0, i % 2, 3 + 4 * i, feature, znormed,
              static_cast<double>(i), 2.0);
  }
  store.BumpEpoch();
  store.BumpEpoch();

  const std::string bytes = SerializeStore(store);
  FeatureStore restored(2, 3);
  Reader reader(bytes);
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());

  EXPECT_EQ(restored.epoch(), store.epoch());
  EXPECT_EQ(restored.puts(), store.puts());
  FeatureStore::View a;
  FeatureStore::View b;
  ASSERT_TRUE(store.Find(0, 1, 15, &a));
  ASSERT_TRUE(restored.Find(0, 1, 15, &b));
  EXPECT_EQ(a.time, b.time);
  EXPECT_DOUBLE_EQ(a.feature[0], b.feature[0]);
  EXPECT_DOUBLE_EQ(a.znormed[3], b.znormed[3]);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.norm2, b.norm2);

  // Ring heads and counts are serialized, so re-serialization is
  // byte-identical — the checkpoint layer can rely on stable checksums.
  EXPECT_EQ(SerializeStore(restored), bytes);
}

TEST(FeatureStoreTest, RestoreRejectsShapeMismatchAndCorruption) {
  FeatureStore store(2, 3);
  store.SetLevels({{0, 4, 2}});
  const double feature[2] = {1.0, 2.0};
  const double znormed[4] = {1, -1, 2, -2};
  store.Put(0, 0, 3, feature, znormed, 0.5, 2.0);
  const std::string bytes = SerializeStore(store);

  {
    FeatureStore wrong_streams(3, 3);
    Reader reader(bytes);
    EXPECT_FALSE(wrong_streams.RestoreFrom(&reader).ok());
  }
  {
    FeatureStore wrong_capacity(2, 4);
    Reader reader(bytes);
    EXPECT_FALSE(wrong_capacity.RestoreFrom(&reader).ok());
  }
  {
    // Truncation fails and must not clobber the target's existing state.
    FeatureStore target(2, 3);
    target.SetLevels({{0, 4, 2}});
    target.Put(0, 1, 7, feature, znormed, 0.25, 8.0);
    const std::string truncated = bytes.substr(0, bytes.size() - 5);
    Reader reader(truncated);
    EXPECT_FALSE(target.RestoreFrom(&reader).ok());
    FeatureStore::View view;
    ASSERT_TRUE(target.Find(0, 1, 7, &view));
    EXPECT_DOUBLE_EQ(view.norm2, 8.0);
  }
}

// --- FeaturePipeline snapshot round trip ------------------------------

class FeaturePipelineSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<QueryRegistry>(AggregateConfig(),
                                                FullQueryConfig());
    ASSERT_TRUE(registry_->Register(QuerySpec::Aggregate(20, 100.0)).ok());
    ASSERT_TRUE(
        registry_
            ->Register(QuerySpec::Pattern({1, 5, 2, 8, 3, 7, 4, 6}, 0.05))
            .ok());
    ASSERT_TRUE(registry_->Register(QuerySpec::Correlation(0.5, 0)).ok());

    agg_config_ = AggregateConfig();
    pattern_config_ = PatternCoreConfig();
    corr_config_ = CorrelationCoreConfig();
    PlanContext ctx;
    ctx.fleet = &agg_config_;
    ctx.pattern = &pattern_config_;
    ctx.correlation = &corr_config_;
    plan_ = CompileEvalPlan(*registry_->snapshot(), registry_->version(), ctx);
    ASSERT_NE(plan_, nullptr);
  }

  std::unique_ptr<FeaturePipeline> MakePipeline(bool with_pattern,
                                                bool with_corr) {
    return std::make_unique<FeaturePipeline>(
        agg_config_, with_pattern ? MakeCore(pattern_config_) : nullptr,
        with_corr ? MakeCore(corr_config_) : nullptr, kStreams);
  }

  // Drives `steps` synchronized batches through the pipeline, mirroring
  // the shard worker's apply loop.
  void Feed(FeaturePipeline* pipeline, std::uint64_t steps) {
    std::vector<StreamId> touched;
    for (StreamId s = 0; s < kStreams; ++s) touched.push_back(s);
    for (std::uint64_t t = 0; t < steps; ++t) {
      for (StreamId s = 0; s < kStreams; ++s) {
        ASSERT_TRUE(pipeline->Append(s, ValueAt(s, t)).ok());
      }
      pipeline->FinishBatch(touched);
    }
  }

  std::unique_ptr<QueryRegistry> registry_;
  StardustConfig agg_config_;
  StardustConfig pattern_config_;
  StardustConfig corr_config_;
  std::shared_ptr<const EvalPlan> plan_;
};

TEST_F(FeaturePipelineSnapshotTest, SerializeRestoreRoundTrip) {
  std::unique_ptr<FeaturePipeline> pipeline = MakePipeline(true, true);
  pipeline->AdoptPlan(*plan_);
  Feed(pipeline.get(), 40);

  const FeaturePipeline::Counters counters = pipeline->counters();
  EXPECT_EQ(counters.batches, 40u);
  EXPECT_EQ(counters.appends, 40u * kStreams);
  // Level 0 (window 8, update period 8) produced aligned features at
  // t = 7, 15, 23, 31, 39 for each stream, cached exactly once.
  EXPECT_EQ(counters.store_puts, 5u * kStreams);

  const std::string bytes = pipeline->Serialize();
  std::unique_ptr<FeaturePipeline> restored = MakePipeline(true, true);
  ASSERT_TRUE(restored->Restore(bytes).ok());

  // The restored store serves the same views without recomputation, and
  // the restored raw tails carry every append count.
  EXPECT_EQ(restored->store().puts(), counters.store_puts);
  EXPECT_EQ(restored->Serialize(), bytes);
  for (StreamId s = 0; s < kStreams; ++s) {
    std::uint64_t t_a = 0;
    std::uint64_t t_b = 0;
    ASSERT_TRUE(pipeline->store().Latest(0, s, &t_a));
    ASSERT_TRUE(restored->store().Latest(0, s, &t_b));
    EXPECT_EQ(t_a, t_b);
    EXPECT_EQ(t_a, 39u);
    EXPECT_EQ(restored->AppendCount(s), 40u);

    FeatureStore::View a;
    FeatureStore::View b;
    ASSERT_TRUE(pipeline->CorrelationFeature(0, s, 39, &a));
    ASSERT_TRUE(restored->CorrelationFeature(0, s, 39, &b));
    ASSERT_EQ(a.dims, b.dims);
    ASSERT_EQ(a.window, b.window);
    for (std::size_t d = 0; d < a.dims; ++d) {
      EXPECT_DOUBLE_EQ(a.feature[d], b.feature[d]);
    }
    for (std::size_t i = 0; i < a.window; ++i) {
      EXPECT_DOUBLE_EQ(a.znormed[i], b.znormed[i]);
    }
    EXPECT_DOUBLE_EQ(a.mean, b.mean);
    EXPECT_DOUBLE_EQ(a.norm2, b.norm2);
  }

  // Trackers are deliberately not serialized: AdoptPlan on the restored
  // pipeline rebuilds them from the restored raw tails and must land on
  // the same exact aggregate the live pipeline maintains.
  restored->AdoptPlan(*plan_);
  ASSERT_FALSE(plan_->aggregate_windows.empty());
  for (StreamId s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(pipeline->TrackerReady(s, 0));
    ASSERT_TRUE(restored->TrackerReady(s, 0));
    double expected = 0.0;
    for (std::uint64_t t = 20; t < 40; ++t) expected += ValueAt(s, t);
    EXPECT_DOUBLE_EQ(pipeline->TrackerValue(s, 0), expected);
    EXPECT_DOUBLE_EQ(restored->TrackerValue(s, 0), expected);
  }
}

TEST_F(FeaturePipelineSnapshotTest, RestoreRejectsCorruptBytes) {
  std::unique_ptr<FeaturePipeline> pipeline = MakePipeline(true, true);
  pipeline->AdoptPlan(*plan_);
  Feed(pipeline.get(), 16);
  const std::string bytes = pipeline->Serialize();

  {
    std::string bad_magic = bytes;
    bad_magic[0] ^= 0x5a;
    std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
    EXPECT_FALSE(target->Restore(bad_magic).ok());
  }
  {
    std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
    EXPECT_FALSE(target->Restore(bytes.substr(0, bytes.size() / 2)).ok());
  }
  {
    std::string flipped = bytes;
    flipped[bytes.size() / 2] ^= 0x01;  // payload bit flip → checksum fails
    std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
    EXPECT_FALSE(target->Restore(flipped).ok());
  }
  {
    std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
    EXPECT_FALSE(target->Restore(std::string()).ok());
  }
}

TEST_F(FeaturePipelineSnapshotTest, RestoreChecksCorePresence) {
  // Bytes carrying a correlation core must not restore into a pipeline
  // without one.
  std::unique_ptr<FeaturePipeline> full = MakePipeline(true, true);
  full->AdoptPlan(*plan_);
  Feed(full.get(), 16);
  std::unique_ptr<FeaturePipeline> pattern_only = MakePipeline(true, false);
  EXPECT_FALSE(pattern_only->Restore(full->Serialize()).ok());

  // The reverse is allowed: a snapshot without a correlation core leaves
  // this pipeline's core empty (pre-v3 checkpoints warm up).
  const std::string pattern_bytes = pattern_only->Serialize();
  std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
  EXPECT_TRUE(target->Restore(pattern_bytes).ok());

  // Stream-count mismatch is structural corruption.
  FeaturePipeline narrow(agg_config_, nullptr, nullptr, kStreams - 1);
  FeaturePipeline wide(agg_config_, nullptr, nullptr, kStreams);
  EXPECT_FALSE(narrow.Restore(wide.Serialize()).ok());
}

TEST_F(FeaturePipelineSnapshotTest, RestoreRejectsATailOfAnotherHistory) {
  std::unique_ptr<FeaturePipeline> pipeline = MakePipeline(false, false);
  Feed(pipeline.get(), 16);
  StardustConfig longer = agg_config_;
  longer.history = 2 * agg_config_.history;
  FeaturePipeline target(longer, nullptr, nullptr, kStreams);
  const Status status = target.Restore(pipeline->Serialize());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("raw tail capacity"), std::string::npos)
      << status.ToString();
}

TEST_F(FeaturePipelineSnapshotTest, RestoreRejectsRetiredVersions) {
  std::unique_ptr<FeaturePipeline> pipeline = MakePipeline(true, true);
  pipeline->AdoptPlan(*plan_);
  Feed(pipeline.get(), 16);
  const std::string bytes = pipeline->Serialize();
  for (std::uint32_t version : {0u, 1u, 2u, 4u}) {
    std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
    const Status status = target->Restore(WithVersion(bytes, version));
    ASSERT_FALSE(status.ok()) << "version " << version;
    EXPECT_NE(status.message().find("unsupported feature pipeline version " +
                                    std::to_string(version)),
              std::string::npos)
        << status.ToString();
  }
  std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
  EXPECT_TRUE(target->Restore(WithVersion(bytes, 3)).ok());
}

// --- Checkpoint manifest -----------------------------------------------

/// A manifest with every entry a real checkpoint carries: per shard the
/// progress stamps, a feature and an edge entry, plus the queries and
/// placement files. The net file is optional and left out.
CheckpointManifest BaseManifest() {
  CheckpointManifest manifest;
  manifest.seq = 7;
  manifest.num_streams = 4;
  manifest.num_shards = 2;
  manifest.queue_capacity = 1024;
  manifest.max_producers = 4;
  manifest.max_batch = 256;
  manifest.overload = 1;
  for (std::size_t i = 0; i < 2; ++i) {
    manifest.shards.push_back({10 + i, 100 + i});
    manifest.features.push_back({CheckpointFeaturesFileName(i, 7), 0x9999 + i});
    manifest.edges.push_back({CheckpointEdgesFileName(i, 7), 0x7770 + i});
  }
  manifest.queries_file = CheckpointQueriesFileName(7);
  manifest.queries_checksum = 0x1234;
  manifest.placement_file = CheckpointPlacementFileName(7);
  manifest.placement_checksum = 0xbeef;
  return manifest;
}

TEST(CheckpointManifestTest, RoundTripCarriesEveryEntry) {
  auto parsed = ParseManifest(SerializeManifest(BaseManifest()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const CheckpointManifest& m = parsed.value();
  EXPECT_EQ(m.seq, 7u);
  EXPECT_EQ(m.num_streams, 4u);
  EXPECT_EQ(m.num_shards, 2u);
  EXPECT_EQ(m.queue_capacity, 1024u);
  EXPECT_EQ(m.max_producers, 4u);
  EXPECT_EQ(m.max_batch, 256u);
  EXPECT_EQ(m.overload, 1u);
  ASSERT_EQ(m.shards.size(), 2u);
  EXPECT_EQ(m.shards[1].epoch, 11u);
  EXPECT_EQ(m.shards[1].appended, 101u);
  EXPECT_EQ(m.queries_file, CheckpointQueriesFileName(7));
  EXPECT_EQ(m.queries_checksum, 0x1234u);
  ASSERT_EQ(m.features.size(), 2u);
  EXPECT_EQ(m.features[0].file, CheckpointFeaturesFileName(0, 7));
  EXPECT_EQ(m.features[1].checksum, 0x999au);
  ASSERT_EQ(m.edges.size(), 2u);
  EXPECT_EQ(m.edges[1].file, CheckpointEdgesFileName(1, 7));
  EXPECT_EQ(m.edges[1].checksum, 0x7771u);
  EXPECT_EQ(m.placement_file, CheckpointPlacementFileName(7));
  EXPECT_EQ(m.placement_checksum, 0xbeefu);
  EXPECT_TRUE(m.net_file.empty());
}

TEST(CheckpointManifestTest, RejectsEntryCountShardMismatch) {
  // A manifest carries exactly one feature and one edge entry per shard;
  // anything else is a torn checkpoint.
  CheckpointManifest features = BaseManifest();
  features.features.pop_back();
  EXPECT_FALSE(ParseManifest(SerializeManifest(features)).ok());
  CheckpointManifest edges = BaseManifest();
  edges.edges.push_back(edges.edges.back());
  EXPECT_FALSE(ParseManifest(SerializeManifest(edges)).ok());
}

TEST(CheckpointManifestTest, RejectsEscapingFileNames) {
  CheckpointManifest manifest = BaseManifest();
  manifest.features[0].file = "../features-0-ck7.feat";
  EXPECT_FALSE(ParseManifest(SerializeManifest(manifest)).ok());
}

TEST(CheckpointManifestTest, RejectsBadVersionsAndChecksum) {
  const std::string bytes = SerializeManifest(BaseManifest());
  ASSERT_TRUE(ParseManifest(bytes).ok());

  // Versions 1-6 are the retired layouts; 0 and 8+ never existed.
  for (std::uint32_t version : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 8u, 9u}) {
    const Result<CheckpointManifest> parsed =
        ParseManifest(WithVersion(bytes, version));
    ASSERT_FALSE(parsed.ok()) << "version " << version;
    EXPECT_NE(parsed.status().message().find("unsupported manifest version " +
                                             std::to_string(version)),
              std::string::npos)
        << parsed.status().ToString();
  }

  std::string flipped = bytes;
  flipped[flipped.size() - 1] ^= 0x01;
  EXPECT_FALSE(ParseManifest(flipped).ok());

  // Trailing bytes behind a complete payload, with a matching checksum.
  const std::string payload = bytes.substr(16) + std::string(8, '\0');
  Writer extended;
  extended.Bytes(bytes.data(), 8);
  extended.U64(Fnv1a(payload));
  extended.Bytes(payload.data(), payload.size());
  EXPECT_FALSE(ParseManifest(extended.buffer()).ok());
}

// Frozen bytes of BaseManifest() plus a net file, written by
// SerializeManifest. Any change to the on-disk manifest layout fails
// here instead of silently orphaning existing checkpoints.
constexpr const char* kManifestFixtureHex =
    "53444d46070000006abd3bebdb3505d407000000000000000400000000000000"
    "0200000000000000000400000000000004000000000000000001000000000000"
    "0102000000000000000a0000000000000064000000000000000b000000000000"
    "0065000000000000000f00000000000000717565726965732d636b372e717279"
    "3412000000000000020000000000000013000000000000006665617475726573"
    "2d302d636b372e66656174999900000000000013000000000000006665617475"
    "7265732d312d636b372e666561749a990000000000000b000000000000006e65"
    "742d636b372e6e657455550000000000001100000000000000706c6163656d65"
    "6e742d636b372e706c63efbe0000000000000200000000000000100000000000"
    "000065646765732d302d636b372e656467657077000000000000100000000000"
    "000065646765732d312d636b372e656467657177000000000000";

TEST(CheckpointManifestTest, FrozenManifestParsesAndReserializesByteEqual) {
  const std::string bytes = FromHex(kManifestFixtureHex);
  ASSERT_EQ(bytes.size(), 346u);
  const Result<CheckpointManifest> parsed = ParseManifest(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  CheckpointManifest expected = BaseManifest();
  expected.net_file = CheckpointNetFileName(7);
  expected.net_checksum = 0x5555;
  EXPECT_EQ(SerializeManifest(parsed.value()), bytes);
  EXPECT_EQ(SerializeManifest(expected), bytes);
}

}  // namespace
}  // namespace stardust
