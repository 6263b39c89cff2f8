// Tests for the compute-once feature state: FeatureStore ring/rotation
// semantics, the per-stream slice every stream's state travels in
// (FeatureStore and FeaturePipeline round trips, core presence, corrupt
// and hostile slices, another store capacity), the checkpoint shard file
// ("SDFP") that persists the slices, and the checkpoint manifest — with
// frozen bytes pinning both on-disk formats.
#include "core/feature_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/stardust.h"
#include "engine/checkpoint.h"
#include "engine/engine.h"
#include "engine/feature_pipeline.h"
#include "engine/placement.h"
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

std::string SaveStoreSlice(const FeatureStore& store, StreamId stream) {
  Writer writer;
  store.SaveStreamTo(stream, &writer);
  return std::move(writer.TakeBuffer());
}

std::string SaveSlice(const FeaturePipeline& pipeline, StreamId stream) {
  Writer writer;
  EXPECT_TRUE(pipeline.SaveStreamTo(stream, &writer).ok());
  return std::move(writer.TakeBuffer());
}

// A distinct-count sketch small enough for frozen fixtures.
SketchConfig SmallDistinct() {
  SketchConfig config;
  config.kind = SketchKind::kDistinct;
  config.window = 4;
  config.buckets = 1;
  config.hll_precision = 4;
  return config;
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
  ASSERT_EQ(store.levels().size(), 1u);
  EXPECT_EQ(store.levels()[0].level, 0u);

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
  // The level set survives Clear: the level still takes puts.
  const double feature[2] = {1.0, 2.0};
  const double znormed[4] = {0.5, -0.5, 1.5, -1.5};
  store.Put(0, 0, 19, feature, znormed, /*mean=*/0.0, /*norm2=*/4.0);
  EXPECT_TRUE(store.Find(0, 0, 19, &view));
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

TEST(FeatureStoreTest, StreamSliceRoundTripIsByteStable) {
  FeatureStore store(2, 3);
  store.SetLevels({{0, 4, 2}, {1, 8, 3}});
  const double znormed[8] = {1, -1, 2, -2, 3, -3, 4, -4};
  for (std::uint64_t i = 0; i < 5; ++i) {
    const double feature[3] = {static_cast<double>(i), -1.0, 0.25};
    store.Put(0, i % 2, 3 + 4 * i, feature, znormed,
              static_cast<double>(i), 2.0);
    store.Put(1, i % 2, 7 + 8 * i, feature, znormed, 0.5,
              static_cast<double>(i));
  }

  FeatureStore restored(2, 3);
  restored.SetLevels({{0, 4, 2}, {1, 8, 3}});
  for (StreamId s = 0; s < 2; ++s) {
    const std::string slice = SaveStoreSlice(store, s);
    Reader reader(slice);
    ASSERT_TRUE(restored.RestoreStreamFrom(s, &reader).ok());
    EXPECT_TRUE(reader.AtEnd());
    // Ring heads and counts ride the slice, so re-serialization is
    // byte-identical.
    EXPECT_EQ(SaveStoreSlice(restored, s), slice);
  }
  for (const auto& [level, stream, time] :
       std::vector<std::tuple<std::size_t, StreamId, std::uint64_t>>{
           {0, 1, 15}, {0, 0, 19}, {1, 0, 39}, {1, 1, 31}}) {
    FeatureStore::View a;
    FeatureStore::View b;
    ASSERT_TRUE(store.Find(level, stream, time, &a));
    ASSERT_TRUE(restored.Find(level, stream, time, &b));
    ASSERT_EQ(a.dims, b.dims);
    ASSERT_EQ(a.window, b.window);
    for (std::size_t d = 0; d < a.dims; ++d) {
      EXPECT_EQ(a.feature[d], b.feature[d]);
    }
    for (std::size_t i = 0; i < a.window; ++i) {
      EXPECT_EQ(a.znormed[i], b.znormed[i]);
    }
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.norm2, b.norm2);
  }
}

// Store slice layout: the ring capacity (u64 at 0) and slab count (u64 at
// 8), then per slab its level, window and dims (u64 at 16, 24, 32), head
// and count (u32 at 40, 44) and the ring columns.
TEST(FeatureStoreTest, StreamSliceRejectsCorruptionAndDropsAnotherCapacity) {
  FeatureStore store(1, 3);
  store.SetLevels({{0, 4, 2}});
  const double feature[2] = {1.0, 2.0};
  const double znormed[4] = {1, -1, 2, -2};
  store.Put(0, 0, 3, feature, znormed, 0.5, 2.0);
  const std::string slice = SaveStoreSlice(store, 0);
  const auto restores = [](const std::string& bytes) {
    FeatureStore target(1, 3);
    target.SetLevels({{0, 4, 2}});
    Reader reader(bytes);
    return target.RestoreStreamFrom(0, &reader).ok();
  };
  ASSERT_TRUE(restores(slice));
  for (std::size_t cut : {std::size_t{0}, std::size_t{8}, std::size_t{20},
                          std::size_t{44}, slice.size() - 1}) {
    EXPECT_FALSE(restores(slice.substr(0, cut))) << "cut at " << cut;
  }
  EXPECT_FALSE(restores(Patched(slice, 40, 3, 4))) << "head == capacity";
  EXPECT_FALSE(restores(Patched(slice, 44, 4, 4))) << "count > capacity";
  EXPECT_FALSE(restores(Patched(slice, 0, 0))) << "zero capacity";
  EXPECT_FALSE(restores(Patched(slice, 0, std::uint64_t{1} << 40)))
      << "capacity beyond the bytes left";
  EXPECT_FALSE(restores(Patched(slice, 8, std::uint64_t{1} << 40)))
      << "slab count beyond the bytes left";
  EXPECT_FALSE(restores(Patched(slice, 24, std::uint64_t{1} << 60)))
      << "window beyond the bytes left";
  EXPECT_FALSE(restores(Patched(slice, 24, 0))) << "zero window";

  // A slice of another ring capacity (a store sized on another host) is
  // consumed whole and keeps no rows: the stream re-warms from its core.
  FeatureStore wider(1, 4);
  wider.SetLevels({{0, 4, 2}});
  Reader reader(slice);
  ASSERT_TRUE(wider.RestoreStreamFrom(0, &reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  std::uint64_t latest = 0;
  EXPECT_FALSE(wider.Latest(0, 0, &latest));
}

// --- FeaturePipeline stream slices --------------------------------------

class FeaturePipelineSliceTest : public ::testing::Test {
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
    ASSERT_TRUE(
        registry_->Register(QuerySpec::Sketch(SmallDistinct(), AssessRange{}))
            .ok());

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

  /// A pipeline running the fixture's plan, as a shard restoring a
  /// checkpoint runs it before installing any slice.
  std::unique_ptr<FeaturePipeline> MakePipeline(bool with_pattern,
                                                bool with_corr) {
    auto pipeline = std::make_unique<FeaturePipeline>(
        agg_config_, with_pattern ? MakeCore(pattern_config_) : nullptr,
        with_corr ? MakeCore(corr_config_) : nullptr, kStreams);
    pipeline->AdoptPlan(*plan_);
    return pipeline;
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

TEST_F(FeaturePipelineSliceTest, StreamSliceRoundTrip) {
  std::unique_ptr<FeaturePipeline> pipeline = MakePipeline(true, true);
  Feed(pipeline.get(), 40);

  const FeaturePipeline::Counters counters = pipeline->counters();
  EXPECT_EQ(counters.batches, 40u);
  EXPECT_EQ(counters.appends, 40u * kStreams);
  // Level 0 (window 8, update period 8) produced aligned features at
  // t = 7, 15, 23, 31, 39 for each stream, cached exactly once.
  EXPECT_EQ(counters.store_puts, 5u * kStreams);

  std::unique_ptr<FeaturePipeline> restored = MakePipeline(true, true);
  for (StreamId s = 0; s < kStreams; ++s) {
    const std::string slice = SaveSlice(*pipeline, s);
    Reader reader(slice);
    ASSERT_TRUE(restored->RestoreStreamFrom(s, &reader).ok());
    EXPECT_TRUE(reader.AtEnd());
  }
  EXPECT_GT(pipeline->counters().sketch_serialized_bytes, 0u);

  ASSERT_FALSE(plan_->aggregate_windows.empty());
  for (StreamId s = 0; s < kStreams; ++s) {
    // Byte-stable: the installed slice serializes back to itself.
    EXPECT_EQ(SaveSlice(*restored, s), SaveSlice(*pipeline, s));
    EXPECT_EQ(restored->AppendCount(s), 40u);

    // The store serves the same views without recomputation.
    std::uint64_t t_a = 0;
    std::uint64_t t_b = 0;
    ASSERT_TRUE(pipeline->store().Latest(0, s, &t_a));
    ASSERT_TRUE(restored->store().Latest(0, s, &t_b));
    EXPECT_EQ(t_a, 39u);
    EXPECT_EQ(t_b, 39u);
    FeatureStore::View a;
    FeatureStore::View b;
    ASSERT_TRUE(pipeline->CorrelationFeature(0, s, 39, &a));
    ASSERT_TRUE(restored->CorrelationFeature(0, s, 39, &b));
    ASSERT_EQ(a.dims, b.dims);
    ASSERT_EQ(a.window, b.window);
    for (std::size_t d = 0; d < a.dims; ++d) {
      EXPECT_EQ(a.feature[d], b.feature[d]);
    }
    for (std::size_t i = 0; i < a.window; ++i) {
      EXPECT_EQ(a.znormed[i], b.znormed[i]);
    }
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.norm2, b.norm2);

    // The tracker and the sketch measure come back with their values.
    ASSERT_TRUE(pipeline->TrackerReady(s, 0));
    ASSERT_TRUE(restored->TrackerReady(s, 0));
    double expected = 0.0;
    for (std::uint64_t t = 20; t < 40; ++t) expected += ValueAt(s, t);
    EXPECT_EQ(pipeline->TrackerValue(s, 0), expected);
    EXPECT_EQ(restored->TrackerValue(s, 0), expected);
    ASSERT_TRUE(pipeline->SketchReady(s, 0));
    ASSERT_TRUE(restored->SketchReady(s, 0));
    EXPECT_EQ(restored->SketchEstimate(s, 0), pipeline->SketchEstimate(s, 0));
  }
}

TEST_F(FeaturePipelineSliceTest, RestoreChecksCorePresence) {
  // A slice carrying a correlation core must not install into a pipeline
  // without one.
  std::unique_ptr<FeaturePipeline> full = MakePipeline(true, true);
  Feed(full.get(), 16);
  std::unique_ptr<FeaturePipeline> pattern_only = MakePipeline(true, false);
  {
    const std::string slice = SaveSlice(*full, 0);
    Reader reader(slice);
    const Status status = pattern_only->RestoreStreamFrom(0, &reader);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("correlation core"), std::string::npos)
        << status.ToString();
  }

  // The reverse is allowed: a slice without a correlation core leaves the
  // target's core stream empty (it warms up).
  std::unique_ptr<FeaturePipeline> source = MakePipeline(true, false);
  Feed(source.get(), 16);
  std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
  const std::string slice = SaveSlice(*source, 0);
  Reader reader(slice);
  ASSERT_TRUE(target->RestoreStreamFrom(0, &reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(target->AppendCount(0), 16u);
  EXPECT_EQ(target->pattern_core()->summarizer(0).now(), 16u);
  EXPECT_EQ(target->corr_core()->summarizer(0).now(), 0u);
}

// The pipeline keeps no level index of its cores: one built over an
// index_features pattern core switches every level off at construction,
// before any plan, so an installed slice keeps taking runs and single
// values with no index rebuild.
TEST_F(FeaturePipelineSliceTest, IndexedPatternCoreKeepsNoLevelIndex) {
  ASSERT_TRUE(pattern_config_.index_features);
  std::unique_ptr<FeaturePipeline> source = MakePipeline(true, false);
  Feed(source.get(), 40);
  const std::string slice = SaveSlice(*source, 2);

  FeaturePipeline target(agg_config_, MakeCore(pattern_config_), nullptr,
                         kStreams);
  for (std::size_t level = 0; level < pattern_config_.num_levels; ++level) {
    EXPECT_FALSE(target.pattern_core()->level_indexed(level))
        << "level " << level;
  }
  target.AdoptPlan(*plan_);
  Reader reader(slice);
  ASSERT_TRUE(target.RestoreStreamFrom(2, &reader).ok());
  std::vector<double> run(64);
  for (std::size_t i = 0; i < run.size(); ++i) run[i] = ValueAt(2, 40 + i);
  for (FeaturePipeline* pipeline : {source.get(), &target}) {
    ASSERT_TRUE(pipeline->AppendRun(2, run.data(), run.size()).ok());
    ASSERT_TRUE(pipeline->Append(2, ValueAt(2, 104)).ok());
  }
  EXPECT_EQ(target.AppendCount(2), 105u);
  EXPECT_EQ(SaveSlice(target, 2), SaveSlice(*source, 2));
}

TEST_F(FeaturePipelineSliceTest, RestoreRejectsATailOfAnotherHistory) {
  std::unique_ptr<FeaturePipeline> pipeline = MakePipeline(false, false);
  Feed(pipeline.get(), 16);
  StardustConfig longer = agg_config_;
  longer.history = 2 * agg_config_.history;
  FeaturePipeline target(longer, nullptr, nullptr, kStreams);
  const std::string slice = SaveSlice(*pipeline, 0);
  Reader reader(slice);
  const Status status = target.RestoreStreamFrom(0, &reader);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("raw tail capacity"), std::string::npos)
      << status.ToString();
}

// A sketch measure's slice carries its state only: how often the shard
// estimated it (which depends on batching) leaves no trace in the bytes.
TEST_F(FeaturePipelineSliceTest, SketchSliceBytesDoNotDependOnEvaluations) {
  std::unique_ptr<FeaturePipeline> eager = MakePipeline(false, false);
  std::unique_ptr<FeaturePipeline> lazy = MakePipeline(false, false);
  ASSERT_EQ(eager->num_sketch_slots(), 1u);
  std::uint64_t estimates = 0;
  for (std::uint64_t t = 0; t < 30; ++t) {
    for (StreamId s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(eager->Append(s, ValueAt(s, t)).ok());
      ASSERT_TRUE(lazy->Append(s, ValueAt(s, t)).ok());
      if (eager->SketchReady(s, 0)) {
        eager->SketchEstimate(s, 0);
        ++estimates;
      }
    }
  }
  for (StreamId s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(lazy->SketchReady(s, 0));
    EXPECT_EQ(lazy->SketchEstimate(s, 0), eager->SketchEstimate(s, 0));
    EXPECT_EQ(SaveSlice(*eager, s), SaveSlice(*lazy, s)) << "stream " << s;
  }
  // The evaluation counters moved to the pipeline's metrics: one bucket
  // union per estimate over the distinct ring's buckets + 1 sketches.
  const std::uint64_t ring = SmallDistinct().buckets + 1;
  EXPECT_EQ(eager->counters().sketch_estimates, estimates + kStreams);
  EXPECT_EQ(eager->counters().sketch_merges, (estimates + kStreams) * ring);
  EXPECT_EQ(lazy->counters().sketch_estimates, kStreams);
  EXPECT_EQ(eager->counters().sketch_appends, 30u * kStreams);
}

// Hostile slices of a stream carrying every kind of state (raw tail,
// pattern and correlation cores, tracker, sketch measure, store rows)
// fail closed: every truncation is rejected, and every single-byte flip
// either installs or is rejected, with no sanitizer report.
TEST_F(FeaturePipelineSliceTest, EveryTruncatedPrefixIsRejected) {
  std::unique_ptr<FeaturePipeline> source = MakePipeline(true, true);
  Feed(source.get(), 40);
  const std::string slice = SaveSlice(*source, 1);
  std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
  for (std::size_t keep = 0; keep < slice.size(); ++keep) {
    const std::string prefix = slice.substr(0, keep);
    Reader reader(prefix);
    EXPECT_FALSE(target->RestoreStreamFrom(1, &reader).ok())
        << "kept " << keep << " of " << slice.size();
  }
  const std::string trailing = slice + '\0';
  Reader reader(trailing);
  ASSERT_TRUE(target->RestoreStreamFrom(1, &reader).ok());
  EXPECT_FALSE(reader.AtEnd()) << "a slice must consume exactly its bytes";
}

TEST_F(FeaturePipelineSliceTest, EverySingleByteFlipInstallsOrIsRejected) {
  std::unique_ptr<FeaturePipeline> source = MakePipeline(true, true);
  Feed(source.get(), 40);
  const std::string slice = SaveSlice(*source, 1);
  std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
  std::vector<double> run(64);
  for (std::size_t i = 0; i < run.size(); ++i) run[i] = ValueAt(1, 40 + i);
  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < slice.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0xff}) {
      std::string flipped = slice;
      flipped[pos] = static_cast<char>(flipped[pos] ^ mask);
      Reader reader(flipped);
      if (!target->RestoreStreamFrom(1, &reader).ok()) {
        ++rejected;
        continue;
      }
      // An installed slice must also keep taking appends (a run through
      // the batched path, then one value through the scalar one) and
      // serialize again.
      EXPECT_TRUE(target->AppendRun(1, run.data(), run.size()).ok())
          << "pos " << pos;
      EXPECT_TRUE(target->Append(1, 3.0).ok()) << "pos " << pos;
      SaveSlice(*target, 1);
    }
  }
  EXPECT_GT(rejected, 0u);
}

// A slice whose level threads contradict its own clock is rejected: each
// level's anchor, box count and last feature time follow from the raw
// tail's append count, and each box's first time from its sequence
// number. Without those checks each case below installs and then breaks
// the stream: the first two abort the next append, the third stops the
// level from ever expiring a box.
class SliceClockTest : public FeaturePipelineSliceTest {
 protected:
  void SetUp() override {
    FeaturePipelineSliceTest::SetUp();
    source_ = MakePipeline(true, false);
    // Past the pattern core's history, so the raw tail is full and its
    // length no longer follows the append count.
    Feed(source_.get(), pattern_config_.history + 40);
    slice_ = SaveSlice(*source_, 1);
    Writer writer;
    source_->pattern_core()->summarizer(1).SaveTo(&writer);
    at_ = slice_.find(writer.buffer());
    ASSERT_NE(at_, std::string::npos);
    // Append count (u64), raw tail (u64 length + doubles), thread count
    // (u64); then level 0: dims, capacity, stride (u64 each), the first
    // flag (u8), anchor time and next seq (u64 each), the box count (u64)
    // and the oldest box: lo and hi (u64 length + dims doubles each),
    // then its first time.
    const std::size_t tail = pattern_config_.history;
    const std::size_t level0 = at_ + 8 + 8 + 8 * tail + 8;
    has_first_at_ = level0 + 3 * 8;
    const std::size_t dims = pattern_config_.FeatureDims();
    first_time_at_ = has_first_at_ + 1 + 2 * 8 + 8 + 2 * (8 + 8 * dims);
    target_ = MakePipeline(true, false);
    ASSERT_TRUE(Restore(slice_).ok());
  }

  Status Restore(const std::string& bytes) {
    Reader reader(bytes);
    return target_->RestoreStreamFrom(1, &reader);
  }

  std::uint64_t U64At(std::size_t offset) const {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(slice_[offset + i]))
               << (8 * i);
    }
    return value;
  }

  std::unique_ptr<FeaturePipeline> source_;
  std::unique_ptr<FeaturePipeline> target_;
  std::string slice_;
  std::size_t at_ = 0;
  std::size_t has_first_at_ = 0;
  std::size_t first_time_at_ = 0;
};

TEST_F(SliceClockTest, RawTailCountAheadOfTheLevelsIsRejected) {
  const std::uint64_t total = U64At(at_);
  ASSERT_EQ(total, pattern_config_.history + 40);
  const Status status = Restore(Patched(slice_, at_, total + 5));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("does not match the raw tail's count"),
            std::string::npos)
      << status.ToString();
}

TEST_F(SliceClockTest, LevelWithBoxesButNoFirstFeatureIsRejected) {
  ASSERT_EQ(slice_[has_first_at_], 1);
  const Status status = Restore(Patched(slice_, has_first_at_, 0, 1));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("has boxes but no first feature"),
            std::string::npos)
      << status.ToString();
}

TEST_F(SliceClockTest, BoxTimeOffItsSequenceIsRejected) {
  const std::uint64_t first_time = U64At(first_time_at_);
  // The oldest retained level-0 box of a full history.
  ASSERT_EQ(first_time,
            pattern_config_.history + 40 - pattern_config_.history);
  const Status status = Restore(
      Patched(slice_, first_time_at_, first_time + (std::uint64_t{1} << 60)));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("box time does not match"),
            std::string::npos)
      << status.ToString();
}

// Counts a hostile slice declares are checked before anything is built:
// a level-thread count must match the core's levels, and a box count
// must fit in the bytes left.
TEST_F(FeaturePipelineSliceTest, HugeThreadAndBoxCountsAreRejectedUpFront) {
  std::unique_ptr<FeaturePipeline> source = MakePipeline(true, true);
  Feed(source.get(), 40);
  const std::string slice = SaveSlice(*source, 1);
  std::unique_ptr<FeaturePipeline> target = MakePipeline(true, true);
  const auto restore = [&target](const std::string& bytes) {
    Reader reader(bytes);
    return target->RestoreStreamFrom(1, &reader);
  };
  ASSERT_TRUE(restore(slice).ok());
  for (const Stardust* core : {source->pattern_core(), source->corr_core()}) {
    // A summarizer serializes its append count (u64), its raw tail
    // (u64 length + doubles), its level-thread count (u64), then each
    // thread: dims, capacity and stride (u64 each), a first flag (u8),
    // anchor time and next seq (u64 each), and the box count (u64).
    const StreamSummarizer& summarizer = core->summarizer(1);
    Writer writer;
    summarizer.SaveTo(&writer);
    const std::size_t at = slice.find(writer.buffer());
    ASSERT_NE(at, std::string::npos);
    const std::size_t tail = std::min<std::uint64_t>(
        summarizer.now(), core->config().history);
    const std::size_t threads_at = at + 16 + 8 * tail;
    const std::size_t boxes_at = threads_at + 8 + 8 * 3 + 1 + 8 * 2;
    for (const std::uint64_t huge :
         {std::uint64_t{1} << 20, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
      const Status threads = restore(Patched(slice, threads_at, huge));
      ASSERT_FALSE(threads.ok());
      EXPECT_NE(threads.message().find("level count mismatch"),
                std::string::npos)
          << threads.ToString();
      const Status boxes = restore(Patched(slice, boxes_at, huge));
      ASSERT_FALSE(boxes.ok());
      EXPECT_NE(boxes.message().find("box count exceeds the bytes left"),
                std::string::npos)
          << boxes.ToString();
    }
  }
}

// A distinct sketch's HLL register above 65 - precision, the largest rank
// an append can write, marks a corrupt slice.
TEST_F(FeaturePipelineSliceTest, ImpossibleSketchRegisterIsRejected) {
  std::unique_ptr<FeaturePipeline> source = MakePipeline(false, false);
  Feed(source.get(), 40);
  const std::string slice = SaveSlice(*source, 1);
  // The slice carries the measure's own bytes: total, head and fill
  // (u64 each), then each bucket's precision (u64) and registers.
  std::unique_ptr<SketchMeasure> twin = CreateSketchMeasure(SmallDistinct());
  for (std::uint64_t t = 0; t < 40; ++t) twin->Append(ValueAt(1, t));
  Writer writer;
  twin->SaveTo(&writer);
  const std::size_t at = slice.find(writer.buffer());
  ASSERT_NE(at, std::string::npos);
  const std::size_t register5 = at + 3 * 8 + 8 + 5;
  std::unique_ptr<FeaturePipeline> target = MakePipeline(false, false);
  const auto restore = [&target](const std::string& bytes) {
    Reader reader(bytes);
    return target->RestoreStreamFrom(1, &reader);
  };
  const std::uint64_t max_rank = 65 - SmallDistinct().hll_precision;
  EXPECT_TRUE(restore(Patched(slice, register5, max_rank, 1)).ok());
  for (const std::uint64_t rank : {max_rank + 1, std::uint64_t{255}}) {
    const Status status = restore(Patched(slice, register5, rank, 1));
    ASSERT_FALSE(status.ok()) << "rank " << rank;
    EXPECT_NE(status.message().find("HLL register 5"), std::string::npos)
        << status.ToString();
  }
}

// Slices of randomized pattern and correlation core shapes install and
// serialize back to themselves, and a restored pipeline continues
// bit-exactly with the one that took them.
TEST(FeaturePipelineSliceRandomTest, RandomizedCoreConfigsRoundTrip) {
  Rng rng(2026);
  const StardustConfig aggregate = AggregateConfig();
  for (int trial = 0; trial < 8; ++trial) {
    QueryConfig queries;
    queries.enable_patterns = true;
    StardustConfig& pattern = queries.pattern;
    pattern.transform = TransformKind::kDwt;
    pattern.normalization = Normalization::kUnitSphere;
    pattern.base_window = std::size_t{4} << rng.NextUint64(3);
    pattern.coefficients = std::size_t{1} << rng.NextUint64(3);
    pattern.num_levels = 1 + rng.NextUint64(3);
    pattern.history = pattern.LevelWindow(pattern.num_levels - 1) +
                      rng.NextUint64(64);
    pattern.box_capacity = 1 + rng.NextUint64(4);
    pattern.update_period = 1;
    pattern.index_features = true;
    pattern.r_max = 10.0;
    queries.enable_correlation = true;
    StardustConfig& corr = queries.correlation;
    corr.transform = TransformKind::kDwt;
    corr.normalization = Normalization::kZNorm;
    corr.base_window = std::size_t{8} << rng.NextUint64(2);
    corr.coefficients = std::size_t{1} << rng.NextUint64(3);
    corr.num_levels = 1 + rng.NextUint64(3);
    corr.history = corr.LevelWindow(corr.num_levels - 1) + rng.NextUint64(64);
    corr.box_capacity = 1;
    corr.update_period = corr.base_window;
    ASSERT_TRUE(queries.Validate().ok()) << "trial " << trial;

    QueryRegistry registry(aggregate, queries);
    ASSERT_TRUE(registry.Register(QuerySpec::Correlation(0.5, 0)).ok());
    PlanContext ctx;
    ctx.fleet = &aggregate;
    ctx.pattern = &queries.pattern;
    ctx.correlation = &queries.correlation;
    const std::shared_ptr<const EvalPlan> plan =
        CompileEvalPlan(*registry.snapshot(), registry.version(), ctx);
    const auto make = [&]() {
      auto pipeline = std::make_unique<FeaturePipeline>(
          aggregate, MakeCore(pattern), MakeCore(corr), kStreams);
      pipeline->AdoptPlan(*plan);
      return pipeline;
    };
    std::unique_ptr<FeaturePipeline> original = make();
    std::vector<StreamId> touched;
    for (StreamId s = 0; s < kStreams; ++s) touched.push_back(s);
    const auto feed = [&](FeaturePipeline* a, FeaturePipeline* b,
                          std::size_t steps) {
      for (std::size_t t = 0; t < steps; ++t) {
        for (StreamId s = 0; s < kStreams; ++s) {
          const double v = rng.NextDouble(-10.0, 10.0);
          ASSERT_TRUE(a->Append(s, v).ok());
          if (b != nullptr) {
            ASSERT_TRUE(b->Append(s, v).ok());
          }
        }
        a->FinishBatch(touched);
        if (b != nullptr) b->FinishBatch(touched);
      }
    };
    feed(original.get(), nullptr, 20 + rng.NextUint64(300));

    std::unique_ptr<FeaturePipeline> restored = make();
    for (StreamId s = 0; s < kStreams; ++s) {
      const std::string slice = SaveSlice(*original, s);
      Reader reader(slice);
      ASSERT_TRUE(restored->RestoreStreamFrom(s, &reader).ok())
          << "trial " << trial << " stream " << s;
      EXPECT_TRUE(reader.AtEnd());
    }
    for (StreamId s = 0; s < kStreams; ++s) {
      EXPECT_EQ(SaveSlice(*restored, s), SaveSlice(*original, s))
          << "trial " << trial << " stream " << s;
    }
    feed(original.get(), restored.get(), 100);
    for (StreamId s = 0; s < kStreams; ++s) {
      EXPECT_EQ(SaveSlice(*restored, s), SaveSlice(*original, s))
          << "trial " << trial << " stream " << s << " after continuing";
    }
  }
}

// --- Checkpoint shard file ----------------------------------------------

constexpr char kShardFileMagic[4] = {'S', 'D', 'F', 'P'};

/// The frozen fixture's shard file: stream 3 live in slot 0 — a real
/// slice with a SUM tracker over window 4 and a distinct-count measure,
/// taken after six values, followed by its four (empty) edge sections as
/// Shard::SerializeStream emits them — and a tombstone in slot 1.
class FrozenShardFile {
 public:
  FrozenShardFile() {
    config_.transform = TransformKind::kAggregate;
    config_.aggregate = AggregateKind::kSum;
    config_.base_window = 2;
    config_.num_levels = 3;
    config_.history = 16;
    config_.box_capacity = 2;
    config_.update_period = 1;
    QueryRegistry registry(config_, QueryConfig{});
    EXPECT_TRUE(registry.Register(QuerySpec::Aggregate(4, 100.0)).ok());
    EXPECT_TRUE(
        registry.Register(QuerySpec::Sketch(SmallDistinct(), AssessRange{}))
            .ok());
    PlanContext ctx;
    ctx.fleet = &config_;
    plan_ = CompileEvalPlan(*registry.snapshot(), registry.version(), ctx);
  }

  std::unique_ptr<FeaturePipeline> MakePipeline() const {
    auto pipeline =
        std::make_unique<FeaturePipeline>(config_, nullptr, nullptr, 1);
    pipeline->AdoptPlan(*plan_);
    return pipeline;
  }

  CheckpointShardFile Build() const {
    std::unique_ptr<FeaturePipeline> pipeline = MakePipeline();
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
      EXPECT_TRUE(pipeline->Append(0, v).ok());
    }
    CheckpointShardFile file;
    file.aggregate = AggregateKind::kSum;
    file.history = config_.history;
    file.globals = {3, kNoStream};
    file.slices = {SaveSlice(*pipeline, 0) + std::string(32, '\0'), ""};
    return file;
  }

 private:
  StardustConfig config_;
  std::shared_ptr<const EvalPlan> plan_;
};

TEST(ShardFileTest, RejectsCorruptBytes) {
  const std::string bytes = SerializeShardFile(FrozenShardFile().Build());
  ASSERT_TRUE(ParseShardFile(bytes).ok());

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x5a;
  EXPECT_FALSE(ParseShardFile(bad_magic).ok());
  EXPECT_FALSE(ParseShardFile(bytes.substr(0, bytes.size() / 2)).ok());
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;  // payload bit flip: checksum fails
  EXPECT_FALSE(ParseShardFile(flipped).ok());
  EXPECT_FALSE(ParseShardFile(std::string()).ok());

  // Payload layout: aggregate kind (u8 at 0), history (u64 at 1), slot
  // count (u64 at 9), then per slot its stream id (u32) and, for a live
  // slot, the slice length (u64) and bytes. Re-wrapped with a valid
  // checksum, so the payload checks are what trip.
  const std::string payload = bytes.substr(16);
  const auto parses = [](const std::string& body) {
    return ParseShardFile(WrapEnvelope(kShardFileMagic, 5, body)).ok();
  };
  ASSERT_TRUE(parses(payload));
  EXPECT_FALSE(parses(Patched(payload, 0, 9, 1))) << "unknown kind";
  EXPECT_FALSE(parses(Patched(payload, 9, 0))) << "no slots";
  EXPECT_FALSE(parses(Patched(payload, 9, std::uint64_t{1} << 40)))
      << "slot count beyond the bytes left";
  EXPECT_FALSE(parses(Patched(payload, 21, std::uint64_t{1} << 40)))
      << "slice length beyond the bytes left";
  EXPECT_FALSE(parses(payload.substr(0, payload.size() - 1)))
      << "truncated";
  EXPECT_FALSE(parses(payload + '\0')) << "trailing bytes";
}

TEST(ShardFileTest, RejectsRetiredVersions) {
  const std::string bytes = SerializeShardFile(FrozenShardFile().Build());
  // Versions 1-4 are retired layouts (v4 slices carried each sketch
  // measure's evaluation counters); 0 and 6 never existed.
  for (std::uint32_t version : {0u, 1u, 2u, 3u, 4u, 6u}) {
    const Result<CheckpointShardFile> parsed =
        ParseShardFile(WithVersion(bytes, version));
    ASSERT_FALSE(parsed.ok()) << "version " << version;
    EXPECT_NE(parsed.status().message().find(
                  "unsupported checkpoint shard file version " +
                  std::to_string(version) + " (this build reads version 5 "
                  "only)"),
              std::string::npos)
        << parsed.status().ToString();
  }
  EXPECT_TRUE(ParseShardFile(WithVersion(bytes, 5)).ok());
}

// Frozen bytes of FrozenShardFile().Build(), written by SerializeShardFile.
// Any change to the shard file or the stream slice layout fails here
// instead of silently orphaning existing checkpoints.
constexpr const char* kShardFileFixtureHex =
    "5344465005000000ed624079915abd1500100000000000000002000000000000"
    "00030000006e0100000000000010000000000000000600000000000000060000"
    "0000000000000000000000f03f00000000000000400000000000000840000000"
    "0000001040000000000000144000000000000018400000010100000000000000"
    "0400000000000000000100000000000000040000000000000006000000000000"
    "0000000000000032400000000000000000040000000000000000000000000014"
    "4000000000000018400000000000000840000000000000104001000000000000"
    "00000400000000000000010000000000000004000000000000007b14ae47e17a"
    "843f04000000000000009a9999999999a93f2000000000000000000000000000"
    "e03f010600000000000000010000000000000002000000000000000400000000"
    "0000000500000000000002010000000000000004000000000000000000000001"
    "0000000000000000010000080000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000ffffffff";

TEST(ShardFileTest, FrozenShardFileParsesAndReserializesByteEqual) {
  const FrozenShardFile fixture;
  const std::string bytes = FromHex(kShardFileFixtureHex);
  ASSERT_EQ(bytes.size(), 415u);
  const Result<CheckpointShardFile> parsed = ParseShardFile(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const CheckpointShardFile& file = parsed.value();
  EXPECT_EQ(file.aggregate, AggregateKind::kSum);
  EXPECT_EQ(file.history, 16u);
  EXPECT_EQ(file.globals, (std::vector<StreamId>{3, kNoStream}));
  EXPECT_EQ(SerializeShardFile(file), bytes);
  EXPECT_EQ(SerializeShardFile(fixture.Build()), bytes);

  // The live slice installs under the same plan and serializes back to
  // itself, ahead of its four empty edge sections.
  std::unique_ptr<FeaturePipeline> pipeline = fixture.MakePipeline();
  Reader reader(file.slices[0]);
  ASSERT_TRUE(pipeline->RestoreStreamFrom(0, &reader).ok());
  EXPECT_EQ(reader.remaining(), 32u);
  EXPECT_EQ(SaveSlice(*pipeline, 0) + std::string(32, '\0'), file.slices[0]);
  EXPECT_EQ(pipeline->AppendCount(0), 6u);
  ASSERT_TRUE(pipeline->TrackerReady(0, 0));
  EXPECT_EQ(pipeline->TrackerValue(0, 0), 3.0 + 4.0 + 5.0 + 6.0);
  // The window's buckets still cover all six distinct values.
  ASSERT_TRUE(pipeline->SketchReady(0, 0));
  EXPECT_NEAR(pipeline->SketchEstimate(0, 0), 6.0, 0.5);
}

// --- Checkpoint manifest -----------------------------------------------

/// A manifest with every entry a real checkpoint carries: per shard the
/// progress stamps and the shard file, the placement epoch, the queries
/// file and the alert log's net file.
CheckpointManifest BaseManifest() {
  CheckpointManifest manifest;
  manifest.seq = 7;
  manifest.num_streams = 4;
  manifest.num_shards = 2;
  for (std::size_t i = 0; i < 2; ++i) {
    manifest.shards.push_back(
        {10 + i, 100 + i, CheckpointFeaturesFileName(i, 7), 0x9999 + i});
  }
  manifest.placement_epoch = 3;
  manifest.queries_file = CheckpointQueriesFileName(7);
  manifest.queries_checksum = 0x1234;
  manifest.net_file = CheckpointNetFileName(7);
  manifest.net_checksum = 0x5555;
  return manifest;
}

TEST(CheckpointManifestTest, RoundTripCarriesEveryEntry) {
  auto parsed = ParseManifest(SerializeManifest(BaseManifest()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const CheckpointManifest& m = parsed.value();
  EXPECT_EQ(m.seq, 7u);
  EXPECT_EQ(m.num_streams, 4u);
  EXPECT_EQ(m.num_shards, 2u);
  ASSERT_EQ(m.shards.size(), 2u);
  EXPECT_EQ(m.shards[1].epoch, 11u);
  EXPECT_EQ(m.shards[1].appended, 101u);
  EXPECT_EQ(m.shards[0].file, CheckpointFeaturesFileName(0, 7));
  EXPECT_EQ(m.shards[1].checksum, 0x999au);
  EXPECT_EQ(m.placement_epoch, 3u);
  EXPECT_EQ(m.queries_file, CheckpointQueriesFileName(7));
  EXPECT_EQ(m.queries_checksum, 0x1234u);
  EXPECT_EQ(m.net_file, CheckpointNetFileName(7));
  EXPECT_EQ(m.net_checksum, 0x5555u);
}

TEST(CheckpointManifestTest, RejectsAMissingQueriesOrNetFile) {
  CheckpointManifest no_queries = BaseManifest();
  no_queries.queries_file.clear();
  EXPECT_FALSE(ParseManifest(SerializeManifest(no_queries)).ok());
  CheckpointManifest no_net = BaseManifest();
  no_net.net_file.clear();
  const Result<CheckpointManifest> parsed =
      ParseManifest(SerializeManifest(no_net));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("alert log file"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(CheckpointManifestTest, RejectsEntryCountShardMismatch) {
  // A manifest carries exactly one entry per shard; anything else is a
  // torn checkpoint.
  CheckpointManifest fewer = BaseManifest();
  fewer.shards.pop_back();
  EXPECT_FALSE(ParseManifest(SerializeManifest(fewer)).ok());
  CheckpointManifest more = BaseManifest();
  more.shards.push_back(more.shards.back());
  EXPECT_FALSE(ParseManifest(SerializeManifest(more)).ok());
}

TEST(CheckpointManifestTest, RejectsEscapingFileNames) {
  CheckpointManifest manifest = BaseManifest();
  manifest.shards[0].file = "../features-0-ck7.feat";
  EXPECT_FALSE(ParseManifest(SerializeManifest(manifest)).ok());
}

TEST(CheckpointManifestTest, RejectsBadVersionsAndChecksum) {
  const std::string bytes = SerializeManifest(BaseManifest());
  ASSERT_TRUE(ParseManifest(bytes).ok());

  // Versions 1-7 are the retired layouts; 0 and 9+ never existed.
  for (std::uint32_t version : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u}) {
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

// Frozen bytes of BaseManifest(), written by SerializeManifest. Any change to the on-disk manifest layout fails
// here instead of silently orphaning existing checkpoints.
constexpr const char* kManifestFixtureHex =
    "53444d46080000008f300916b7e9b97707000000000000000400000000000000"
    "020000000000000002000000000000000a000000000000006400000000000000"
    "130000000000000066656174757265732d302d636b372e666561749999000000"
    "0000000b00000000000000650000000000000013000000000000006665617475"
    "7265732d312d636b372e666561749a9900000000000003000000000000000f00"
    "000000000000717565726965732d636b372e71727934120000000000000b0000"
    "00000000006e65742d636b372e6e65745555000000000000";

TEST(CheckpointManifestTest, FrozenManifestParsesAndReserializesByteEqual) {
  const std::string bytes = FromHex(kManifestFixtureHex);
  ASSERT_EQ(bytes.size(), 216u);
  const Result<CheckpointManifest> parsed = ParseManifest(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeManifest(parsed.value()), bytes);
  EXPECT_EQ(SerializeManifest(BaseManifest()), bytes);
}

}  // namespace
}  // namespace stardust
