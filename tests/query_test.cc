// Tests for the continuous-query subsystem (src/query + engine wiring):
// registry validation, the frozen registry format, checkpoint round
// trips, and the
// flagship integration property — one IngestEngine serving all three
// query classes of the paper concurrently against live multi-producer
// ingestion, with the hits arriving through the alert log.
#include "query/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "fixture_bytes.h"
#include "query/eval_plan.h"
#include "query/sinks.h"
#include "stream/threshold.h"

namespace stardust {
namespace {

// Fleet (aggregate) configuration: SUM monitoring, base window 10.
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

// Online unit-sphere DWT core for pattern queries (Algorithm 3).
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

// Batch z-normalized DWT core for correlation queries (T == W, c == 1).
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
  config.correlator_period_ms = 5;
  return config;
}

std::filesystem::path TempDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- Registry unit tests ----------------------------------------------

TEST(QueryRegistryTest, RegisterAssignsUniqueMonotonicIds) {
  QueryRegistry registry(AggregateConfig(), FullQueryConfig());
  const std::uint64_t v0 = registry.version();
  auto a = registry.Register(QuerySpec::Aggregate(20, 100.0));
  auto b = registry.Register(QuerySpec::Aggregate(10, 5.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), kInvalidQueryId);
  EXPECT_LT(a.value(), b.value());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_GT(registry.version(), v0);

  ASSERT_TRUE(registry.Unregister(a.value()).ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Unregister(a.value()).code(), StatusCode::kNotFound);

  // Ids are never reused, even after unregistration.
  auto c = registry.Register(QuerySpec::Aggregate(20, 1.0));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c.value(), b.value());
}

TEST(QueryRegistryTest, SnapshotSplitsQueriesByKind) {
  QueryRegistry registry(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(registry.Register(QuerySpec::Aggregate(20, 100.0)).ok());
  ASSERT_TRUE(
      registry.Register(QuerySpec::Pattern(std::vector<double>(8, 1.0), 0.1))
          .ok());
  ASSERT_TRUE(registry.Register(QuerySpec::Correlation(0.5)).ok());
  auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot->aggregate.size(), 1u);
  EXPECT_EQ(snapshot->pattern.size(), 1u);
  EXPECT_EQ(snapshot->correlation.size(), 1u);
  EXPECT_EQ(snapshot->size(), 3u);
}

// The registry compiles one plan per published version, and the plan's
// Holds names exactly the ids it evaluates, of every kind.
TEST(QueryRegistryTest, PlanHoldsEveryRegisteredKind) {
  QueryRegistry registry(AggregateConfig(), FullQueryConfig());
  EXPECT_EQ(registry.plan()->version, 0u);
  EXPECT_FALSE(registry.plan()->Holds(1));
  SketchConfig distinct;
  distinct.kind = SketchKind::kDistinct;
  distinct.window = 4;
  distinct.buckets = 1;
  distinct.hll_precision = 4;
  const QueryId agg =
      registry.Register(QuerySpec::Aggregate(20, 100.0)).value();
  const QueryId pat =
      registry.Register(QuerySpec::Pattern(std::vector<double>(8, 1.0), 0.1))
          .value();
  const QueryId corr = registry.Register(QuerySpec::Correlation(0.5)).value();
  const QueryId sketch =
      registry.Register(QuerySpec::Sketch(distinct, AssessRange{})).value();
  const std::shared_ptr<const EvalPlan> plan = registry.plan();
  EXPECT_EQ(plan->version, registry.version());
  EXPECT_EQ(registry.plan(), plan);
  for (const QueryId id : {agg, pat, corr, sketch}) {
    EXPECT_TRUE(plan->Holds(id)) << "query " << id;
  }
  EXPECT_FALSE(plan->Holds(sketch + 1));
  EXPECT_FALSE(plan->Holds(kInvalidQueryId));

  ASSERT_TRUE(registry.Unregister(pat).ok());
  const std::shared_ptr<const EvalPlan> next = registry.plan();
  EXPECT_NE(next, plan);
  EXPECT_EQ(next->version, registry.version());
  EXPECT_FALSE(next->Holds(pat));
  EXPECT_TRUE(next->Holds(agg));
  EXPECT_TRUE(plan->Holds(pat));  // an adopted plan never changes
}

TEST(QueryRegistryTest, ValidatesAggregateSpecs) {
  QueryRegistry registry(AggregateConfig(), FullQueryConfig());
  // Not a multiple of the base window (10).
  EXPECT_EQ(registry.Register(QuerySpec::Aggregate(15, 1.0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register(QuerySpec::Aggregate(0, 1.0)).status().code(),
            StatusCode::kInvalidArgument);
  // window / W == 16 == 2^num_levels: one past the largest resolution.
  EXPECT_EQ(registry.Register(QuerySpec::Aggregate(160, 1.0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      registry.Register(QuerySpec::Aggregate(20, std::nan(""))).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(registry.Register(QuerySpec::Aggregate(80, 1.0)).ok());
}

TEST(QueryRegistryTest, ValidatesPatternAndCorrelationSpecs) {
  QueryRegistry registry(AggregateConfig(), FullQueryConfig());
  // Pattern core base window is 8.
  EXPECT_EQ(
      registry.Register(QuerySpec::Pattern(std::vector<double>(12, 1.0), 0.1))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register(QuerySpec::Pattern({}, 0.1)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      registry.Register(QuerySpec::Pattern(std::vector<double>(8, 1.0), -1.0))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  // Correlation core has 2 levels.
  EXPECT_EQ(registry.Register(QuerySpec::Correlation(0.5, 2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Register(QuerySpec::Correlation(-0.5)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(registry.Register(QuerySpec::Correlation(0.5, 1)).ok());
}

TEST(QueryRegistryTest, DisabledKindsAreRejectedUpFront) {
  QueryRegistry registry(AggregateConfig(), QueryConfig{});
  EXPECT_EQ(
      registry.Register(QuerySpec::Pattern(std::vector<double>(8, 1.0), 0.1))
          .status()
          .code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Register(QuerySpec::Correlation(0.5)).status().code(),
            StatusCode::kFailedPrecondition);
  // Aggregate queries always work: they run against the fleet monitors.
  EXPECT_TRUE(registry.Register(QuerySpec::Aggregate(20, 1.0)).ok());
}

TEST(QueryRegistryTest, SerializeRestoreRoundTripsIdsAndAllocator) {
  QueryRegistry source(AggregateConfig(), FullQueryConfig());
  const QueryId agg =
      std::move(source.Register(QuerySpec::Aggregate(20, 42.0))).value();
  const QueryId pat =
      std::move(
          source.Register(QuerySpec::Pattern({1, 2, 3, 4, 5, 6, 7, 8}, 0.25)))
          .value();
  const QueryId corr =
      std::move(source.Register(QuerySpec::Correlation(0.5, 0))).value();
  ASSERT_TRUE(source.Unregister(pat).ok());
  const std::string bytes = source.Serialize();

  QueryRegistry restored(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(restored.Restore(bytes).ok());
  EXPECT_EQ(restored.size(), 2u);
  const auto metrics = restored.Metrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].id, agg);
  EXPECT_EQ(metrics[0].kind, QueryKind::kAggregate);
  EXPECT_EQ(metrics[1].id, corr);
  EXPECT_EQ(metrics[1].kind, QueryKind::kCorrelation);
  // The id allocator continues the checkpointed lineage: the next id is
  // strictly above everything ever allocated, including the unregistered
  // pattern query's.
  auto next = restored.Register(QuerySpec::Aggregate(10, 1.0));
  ASSERT_TRUE(next.ok());
  EXPECT_GT(next.value(), corr);

  QueryRegistry nonempty(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(nonempty.Register(QuerySpec::Aggregate(10, 1.0)).ok());
  EXPECT_EQ(nonempty.Restore(bytes).code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryRegistryTest, RestoreRevalidatesAgainstCurrentConfig) {
  QueryRegistry source(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(
      source.Register(QuerySpec::Pattern(std::vector<double>(8, 1.0), 0.1))
          .ok());
  const std::string bytes = source.Serialize();
  // An engine without pattern support cannot adopt this checkpoint.
  QueryRegistry plain(AggregateConfig(), QueryConfig{});
  EXPECT_EQ(plain.Restore(bytes).code(), StatusCode::kFailedPrecondition);
}

TEST(QueryRegistryTest, RestoreRejectsCorruptSnapshots) {
  QueryRegistry source(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(source.Register(QuerySpec::Aggregate(20, 1.0)).ok());
  ASSERT_TRUE(source.Register(QuerySpec::Correlation(0.5)).ok());
  const std::string bytes = source.Serialize();

  QueryRegistry target(AggregateConfig(), FullQueryConfig());
  EXPECT_FALSE(target.Restore("").ok());
  EXPECT_FALSE(target.Restore("garbage").ok());
  std::string truncated = bytes.substr(0, bytes.size() - 3);
  EXPECT_FALSE(target.Restore(truncated).ok());
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(target.Restore(flipped).ok());
  EXPECT_EQ(target.size(), 0u);  // failed restores leave it empty
  ASSERT_TRUE(target.Restore(bytes).ok());
}

// A sketch whose measure would exceed kMaxSketchMeasureBytes never
// registers: epsilon 1e-9 would give each CountMin row 2^32 counters.
TEST(QueryRegistryTest, RejectsOversizedSketchMeasures) {
  SketchConfig huge;
  huge.kind = SketchKind::kHeavyHitters;
  huge.window = 64;
  huge.epsilon = 1e-9;
  const QuerySpec spec = QuerySpec::Sketch(huge, AssessRange{});
  QueryRegistry registry(AggregateConfig(), QueryConfig{});
  EXPECT_EQ(registry.Register(spec).status().code(),
            StatusCode::kInvalidArgument);
  auto engine =
      std::move(IngestEngine::Create(AggregateConfig(), {}, 2, EngineConfig{}))
          .value();
  const Result<QueryId> registered = engine->RegisterQuery(spec);
  ASSERT_FALSE(registered.ok());
  EXPECT_EQ(registered.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->queries().size(), 0u);
  ASSERT_TRUE(engine->Stop().ok());
}

// --- Alert rate limiting (QuerySpec::WithAlertRate) --------------------

TEST(QueryRegistryTest, ValidatesAlertRateFields) {
  QueryRegistry registry(AggregateConfig(), FullQueryConfig());
  // A positive rate needs a burst.
  EXPECT_EQ(registry.Register(QuerySpec::Aggregate(20, 1.0).WithAlertRate(
                                  5.0, 0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(registry
                   .Register(QuerySpec::Aggregate(20, 1.0).WithAlertRate(
                       -1.0, 4))
                   .ok());
  EXPECT_FALSE(registry
                   .Register(QuerySpec::Aggregate(20, 1.0).WithAlertRate(
                       std::numeric_limits<double>::infinity(), 4))
                   .ok());
  // Rate 0 disables the limit; the burst is ignored.
  EXPECT_TRUE(
      registry.Register(QuerySpec::Aggregate(20, 1.0).WithAlertRate(0.0, 0))
          .ok());
  EXPECT_TRUE(
      registry.Register(QuerySpec::Aggregate(20, 1.0).WithAlertRate(2.5, 8))
          .ok());
}

TEST(QueryRegistryTest, TokenBucketSuppressesBeyondBurst) {
  // A near-zero refill rate makes the bucket effectively burst-only, so
  // the admit/suppress sequence is deterministic regardless of timing.
  RegisteredQuery limited(
      1, QuerySpec::Aggregate(20, 1.0).WithAlertRate(1e-9, 2));
  EXPECT_TRUE(limited.AllowAlert());
  EXPECT_TRUE(limited.AllowAlert());
  EXPECT_FALSE(limited.AllowAlert());
  EXPECT_FALSE(limited.AllowAlert());
  EXPECT_EQ(limited.rate_limited.load(), 2u);

  RegisteredQuery unlimited(2, QuerySpec::Aggregate(20, 1.0));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.AllowAlert());
  EXPECT_EQ(unlimited.rate_limited.load(), 0u);
}

TEST(QueryRegistryTest, SerializePreservesRateLimitFields) {
  QueryRegistry source(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(
      source.Register(QuerySpec::Aggregate(20, 1.0).WithAlertRate(2.5, 8))
          .ok());
  QueryRegistry restored(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(restored.Restore(source.Serialize()).ok());
  const auto snapshot = restored.snapshot();
  ASSERT_EQ(snapshot->aggregate.size(), 1u);
  EXPECT_EQ(snapshot->aggregate[0]->spec.alert_rate_per_sec, 2.5);
  EXPECT_EQ(snapshot->aggregate[0]->spec.alert_burst, 8u);
}

TEST(QueryRegistryTest, RestoreRejectsRetiredVersions) {
  QueryRegistry source(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(source.Register(QuerySpec::Aggregate(20, 1.0)).ok());
  const std::string bytes = source.Serialize();
  // Versions 1 and 2 are the retired layouts; 0 and 4 never existed.
  for (std::uint32_t version : {0u, 1u, 2u, 4u}) {
    QueryRegistry target(AggregateConfig(), FullQueryConfig());
    const Status status = target.Restore(WithVersion(bytes, version));
    ASSERT_FALSE(status.ok()) << "version " << version;
    EXPECT_NE(status.message().find("unsupported query registry version " +
                                    std::to_string(version)),
              std::string::npos)
        << status.ToString();
    EXPECT_EQ(target.size(), 0u);
  }
}

// Frozen bytes of a registry (format v3) holding one query of each class,
// written by QueryRegistry::Serialize after registering, in order:
//   1  Aggregate(20, 42.0) rate-limited to 2.5/s, burst 8
//   2  Pattern({1, ..., 8}, 0.25)
//   3  Correlation(0.5, level 0)
//   4  Sketch(quantile q=0.9 over 64 values, assess (0, 3])
// Any change to the on-disk registry layout fails here instead of
// silently orphaning existing checkpoints.
constexpr const char* kRegistryFixtureHex =
    "53445152030000004a2317281f52992b05000000000000000400000000000000"
    "0100000000000000001400000000000000000000000000454000000000000000"
    "000000000000000000ffffffffffffffff000000000000044008000000000000"
    "00000000000000f0ff0000000000004540010000000000000000000400000000"
    "0000000c000000000000007b14ae47e17a843f04000000000000009a99999999"
    "99a93f2000000000000000000000000000e03f02000000000000000100000000"
    "0000000000000000000000000800000000000000000000000000f03f00000000"
    "0000004000000000000008400000000000001040000000000000144000000000"
    "000018400000000000001c400000000000002040000000000000d03fffffffff"
    "ffffffff00000000000000000000000000000000000000000000f0ff00000000"
    "0000f07f0300000000000000000004000000000000000c000000000000007b14"
    "ae47e17a843f04000000000000009a9999999999a93f20000000000000000000"
    "00000000e03f0300000000000000020000000000000000000000000000000000"
    "00000000000000000000000000e03f0000000000000000000000000000000000"
    "00000000000000000000000000f0ff000000000000f07f030000000000000000"
    "0004000000000000000c000000000000007b14ae47e17a843f04000000000000"
    "009a9999999999a93f2000000000000000000000000000e03f04000000000000"
    "0003400000000000000000000000000008400000000000000000000000000000"
    "0000ffffffffffffffff00000000000000000000000000000000000000000000"
    "000000000000000008400202400000000000000004000000000000000c000000"
    "000000007b14ae47e17a843f04000000000000009a9999999999a93f20000000"
    "00000000cdccccccccccec3f";

TEST(QueryRegistryTest, FrozenRegistryRestoresAndReserializesByteEqual) {
  const std::string bytes = FromHex(kRegistryFixtureHex);
  ASSERT_EQ(bytes.size(), 684u);
  QueryRegistry restored(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(restored.Restore(bytes).ok());
  EXPECT_EQ(restored.Serialize(), bytes);

  const auto snapshot = restored.snapshot();
  ASSERT_EQ(snapshot->aggregate.size(), 1u);
  ASSERT_EQ(snapshot->pattern.size(), 1u);
  ASSERT_EQ(snapshot->correlation.size(), 1u);
  ASSERT_EQ(snapshot->sketch.size(), 1u);
  const QuerySpec& agg = snapshot->aggregate[0]->spec;
  EXPECT_EQ(agg.window, 20u);
  EXPECT_EQ(agg.threshold, 42.0);
  EXPECT_EQ(agg.alert_rate_per_sec, 2.5);
  EXPECT_EQ(agg.alert_burst, 8u);
  EXPECT_EQ(snapshot->pattern[0]->spec.pattern.size(), 8u);
  EXPECT_EQ(snapshot->correlation[0]->spec.level, 0u);
  const QuerySpec& sketch = snapshot->sketch[0]->spec;
  EXPECT_EQ(sketch.sketch.kind, SketchKind::kQuantile);
  EXPECT_EQ(sketch.sketch.q, 0.9);
  EXPECT_FALSE(sketch.assess.lo_inclusive);
  EXPECT_EQ(sketch.assess.hi, 3.0);

  // A re-registration of the same specs serializes to the same bytes.
  QueryRegistry fresh(AggregateConfig(), FullQueryConfig());
  ASSERT_TRUE(
      fresh.Register(QuerySpec::Aggregate(20, 42.0).WithAlertRate(2.5, 8))
          .ok());
  ASSERT_TRUE(
      fresh.Register(QuerySpec::Pattern({1, 2, 3, 4, 5, 6, 7, 8}, 0.25))
          .ok());
  ASSERT_TRUE(fresh.Register(QuerySpec::Correlation(0.5, 0)).ok());
  SketchConfig quantile;
  quantile.kind = SketchKind::kQuantile;
  quantile.window = 64;
  quantile.q = 0.9;
  AssessRange assess;
  assess.lo = 0.0;
  assess.hi = 3.0;
  assess.lo_inclusive = false;
  ASSERT_TRUE(fresh.Register(QuerySpec::Sketch(quantile, assess)).ok());
  EXPECT_EQ(fresh.Serialize(), bytes);
}

// Engine integration of the limiter: four streams cross the aggregate
// threshold together, the bucket admits exactly `burst` alerts, and the
// suppressed hits are visible in the per-query counters and metrics JSON.
TEST(QueryEngineTest, RateLimitedQueryCapsPublishedAlerts) {
  EngineConfig econfig;
  econfig.num_shards = 1;
  auto engine = std::move(IngestEngine::Create(AggregateConfig(),
                                               {}, 4, econfig))
                    .value();
  auto ring = std::make_shared<RingSink>();
  engine->alerts().AddSink(ring);
  const QueryId id =
      std::move(engine->RegisterQuery(
                    QuerySpec::Aggregate(10, 100.0).WithAlertRate(1e-9, 1)))
          .value();
  for (int t = 0; t < 10; ++t) {
    for (StreamId s = 0; s < 4; ++s) {
      ASSERT_TRUE(engine->Post(s, 50.0).ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  ASSERT_TRUE(engine->Stop().ok());

  // All four streams alarmed (hits) but the bucket admitted one alert.
  EXPECT_EQ(ring->total(), 1u);
  const auto metrics = engine->queries().Metrics();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].id, id);
  EXPECT_EQ(metrics[0].hits, 4u);
  EXPECT_EQ(metrics[0].rate_limited, 3u);
  EXPECT_NE(engine->MetricsJson().find("\"rate_limited\":3"),
            std::string::npos);
}

// --- Engine integration -----------------------------------------------

// The subsystem's acceptance property: ONE engine concurrently serves an
// aggregate burst query, a pattern query, and a correlation query against
// live multi-producer ingestion, and each class delivers exactly the
// planted hits through the alert log.
//
// Data plan (6 streams, 2 shards, 400 steps):
//  - streams 0 and 1 (different shards) carry an identical sine wave
//    -> the correlation pair {0, 1};
//  - stream 2 holds at 1.0 and bursts to 50.0 on t in [300, 340)
//    -> the aggregate alert (SUM over trailing 20 >= 200);
//  - stream 3 is noise with a distinctive 16-value shape planted at
//    t in [200, 216) -> the pattern match at end_time 215;
//  - streams 4 and 5 are independent noise (must stay silent).
TEST(QueryEngineTest, ServesAllThreeQueryClassesConcurrently) {
  constexpr std::size_t kStreams = 6;
  constexpr std::uint64_t kSteps = 400;
  EngineConfig econfig;
  econfig.num_shards = 2;
  // Small apply batches so query evaluation samples the burst while it is
  // in the trailing window (a single huge batch could step right over an
  // edge-triggered crossing).
  econfig.max_batch = 8;
  econfig.query = FullQueryConfig();
  auto engine =
      std::move(IngestEngine::Create(AggregateConfig(), {},
                                     kStreams, econfig))
          .value();

  auto ring = std::make_shared<RingSink>();
  engine->alerts().AddSink(ring);

  std::vector<double> planted(16);
  for (std::size_t i = 0; i < planted.size(); ++i) {
    planted[i] = 2.0 * std::sin(1.3 * static_cast<double>(i)) +
                 static_cast<double>(i % 3);
  }
  const QueryId agg_id =
      std::move(engine->RegisterQuery(QuerySpec::Aggregate(20, 200.0)))
          .value();
  const QueryId pat_id =
      std::move(engine->RegisterQuery(QuerySpec::Pattern(planted, 0.05)))
          .value();
  const QueryId corr_id =
      std::move(engine->RegisterQuery(QuerySpec::Correlation(0.3)))
          .value();
  ASSERT_NE(agg_id, pat_id);
  ASSERT_NE(pat_id, corr_id);

  const auto value_at = [&planted](StreamId s, std::uint64_t t,
                                   std::mt19937* rng) {
    switch (s) {
      case 0:
      case 1:
        return std::sin(0.07 * static_cast<double>(t));
      case 2:
        return (t >= 300 && t < 340) ? 50.0 : 1.0;
      case 3:
        if (t >= 200 && t < 216) return planted[t - 200];
        [[fallthrough]];
      default: {
        std::uniform_real_distribution<double> noise(-1.0, 1.0);
        return noise(*rng);
      }
    }
  };

  // Two producers with disjoint stream sets; per-stream order preserved.
  const auto produce = [&](std::vector<StreamId> streams,
                           std::uint32_t seed) {
    std::mt19937 rng(seed);
    for (std::uint64_t t = 0; t < kSteps; ++t) {
      for (StreamId s : streams) {
        ASSERT_TRUE(engine->Post(s, value_at(s, t, &rng)).ok());
      }
    }
  };
  std::thread producer_a(produce, std::vector<StreamId>{0, 1, 2}, 1u);
  std::thread producer_b(produce, std::vector<StreamId>{3, 4, 5}, 2u);
  producer_a.join();
  producer_b.join();
  ASSERT_TRUE(engine->Flush().ok());

  // Aggregate and pattern alerts are flushed synchronously with the data.
  bool burst_alert = false;
  bool pattern_alert = false;
  for (const Alert& alert : ring->Snapshot()) {
    if (alert.kind == QueryKind::kAggregate) {
      EXPECT_EQ(alert.query, agg_id);
      EXPECT_EQ(alert.stream, 2u) << "aggregate alert on a quiet stream";
      EXPECT_EQ(alert.window, 20u);
      EXPECT_GE(alert.value, 200.0);
      burst_alert = true;
    } else if (alert.kind == QueryKind::kPattern) {
      EXPECT_EQ(alert.query, pat_id);
      EXPECT_EQ(alert.stream, 3u) << "pattern match on the wrong stream";
      EXPECT_LE(alert.value, 0.05);
      if (alert.end_time == 215) pattern_alert = true;
    }
  }
  EXPECT_TRUE(burst_alert);
  EXPECT_TRUE(pattern_alert);

  // The correlator is time-driven: give it a bounded window to evaluate
  // the final common feature time.
  bool corr_alert = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!corr_alert && std::chrono::steady_clock::now() < deadline) {
    for (const Alert& alert : ring->Snapshot()) {
      if (alert.kind != QueryKind::kCorrelation) continue;
      EXPECT_EQ(alert.query, corr_id);
      const auto pair = std::minmax(alert.stream, alert.stream_b);
      EXPECT_EQ(pair.first, 0u) << "spurious correlated pair";
      EXPECT_EQ(pair.second, 1u) << "spurious correlated pair";
      EXPECT_LE(alert.value, 0.3);
      corr_alert = true;
    }
    if (!corr_alert) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(corr_alert) << "correlator never reported the planted pair";

  // Per-query counters were maintained throughout.
  std::uint64_t hits_total = 0;
  for (const auto& m : engine->queries().Metrics()) {
    EXPECT_GT(m.evals, 0u) << "query " << m.id << " never evaluated";
    EXPECT_EQ(m.errors, 0u);
    hits_total += m.hits;
  }
  EXPECT_GE(hits_total, 3u);
  EXPECT_GT(engine->metrics().alerts_published.load(), 0u);
  EXPECT_GT(engine->metrics().correlator_rounds.load(), 0u);

  ASSERT_TRUE(engine->Stop().ok());
  // Everything published made it out before Stop returned.
  EXPECT_EQ(engine->alerts().published(), engine->alerts().delivered());
}

// One plan per query-set version: every shard runs the registry's plan
// object, and a shard's stage counters count from shard start, so they
// keep counting across a plan swap instead of restarting with each plan.
TEST(QueryEngineTest, ShardsRunTheRegistryPlanOfEachVersion) {
  constexpr std::size_t kStreams = 4;
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_batch = 8;
  econfig.query = FullQueryConfig();
  econfig.query.correlator_period_ms = 60000;  // rounds only on demand
  auto engine = std::move(IngestEngine::Create(AggregateConfig(), {},
                                               kStreams, econfig))
                    .value();
  ASSERT_TRUE(engine->RegisterQuery(QuerySpec::Aggregate(20, 1e9)).ok());
  ASSERT_TRUE(engine->RegisterQuery(QuerySpec::Correlation(0.5)).ok());
  for (int t = 0; t < 200; ++t) {
    for (StreamId s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(engine->Post(s, std::sin(0.1 * t + s)).ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  engine->TriggerCorrelatorRound();

  const std::shared_ptr<const EvalPlan> plan = engine->queries().plan();
  EXPECT_EQ(plan->version, engine->queries().version());
  EXPECT_EQ(engine->queries().plan(), plan);
  std::vector<std::uint64_t> before;
  for (const ShardMetricsSnapshot& shard : engine->ShardMetrics()) {
    EXPECT_EQ(shard.plan_version, engine->queries().version());
    // 400 tuples per shard in batches of at most 8.
    EXPECT_GE(shard.plan_aggregate_evals, 50u);
    before.push_back(shard.plan_aggregate_evals);
  }

  ASSERT_TRUE(engine
                  ->RegisterQuery(QuerySpec::Pattern(
                      std::vector<double>(8, 1.0), 0.1))
                  .ok());
  EXPECT_NE(engine->queries().plan(), plan);
  for (StreamId s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine->Post(s, 1.0).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  const std::vector<ShardMetricsSnapshot> after = engine->ShardMetrics();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].plan_version, engine->queries().version());
    EXPECT_GT(after[i].plan_aggregate_evals, before[i]) << "shard " << i;
  }
  ASSERT_TRUE(engine->Stop().ok());
}

TEST(QueryEngineTest, UnregisteredQueryStopsAlerting) {
  EngineConfig econfig;
  econfig.num_shards = 2;
  auto engine = std::move(IngestEngine::Create(
                              AggregateConfig(), {}, 4,
                              econfig))
                    .value();
  auto ring = std::make_shared<RingSink>();
  engine->alerts().AddSink(ring);
  const QueryId id =
      std::move(engine->RegisterQuery(QuerySpec::Aggregate(10, 100.0)))
          .value();

  for (int t = 0; t < 40; ++t) {
    ASSERT_TRUE(engine->Post(0, 50.0).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  const std::uint64_t before = ring->total();
  EXPECT_GE(before, 1u);  // edge-triggered: the burst fired once

  ASSERT_TRUE(engine->UnregisterQuery(id).ok());
  for (int t = 0; t < 200; ++t) {
    ASSERT_TRUE(engine->Post(0, 50.0).ok());
    ASSERT_TRUE(engine->Post(0, 0.0).ok());  // re-arm any edge state
  }
  ASSERT_TRUE(engine->Flush().ok());
  EXPECT_EQ(ring->total(), before);
  ASSERT_TRUE(engine->Stop().ok());
}

TEST(QueryEngineTest, CheckpointRestoreKeepsRegistryLineage) {
  const std::filesystem::path dir = TempDir("stardust_query_ck_test");
  EngineConfig econfig;
  econfig.num_shards = 2;
  QueryId keep_id = kInvalidQueryId;
  QueryId dropped_id = kInvalidQueryId;
  {
    auto engine = std::move(IngestEngine::Create(
                                AggregateConfig(), {}, 4,
                                econfig))
                      .value();
    dropped_id =
        std::move(engine->RegisterQuery(QuerySpec::Aggregate(10, 5.0)))
            .value();
    keep_id =
        std::move(engine->RegisterQuery(QuerySpec::Aggregate(20, 7.0)))
            .value();
    ASSERT_TRUE(engine->UnregisterQuery(dropped_id).ok());
    for (StreamId s = 0; s < 4; ++s) {
      for (int t = 0; t < 50; ++t) {
        ASSERT_TRUE(engine->Post(s, 1.0).ok());
      }
    }
    ASSERT_TRUE(engine->Flush().ok());
    ASSERT_TRUE(engine->Checkpoint(dir.string()).ok());
    ASSERT_TRUE(engine->Stop().ok());
  }

  auto restored = std::move(IngestEngine::Create(
                                AggregateConfig(), {}, 4,
                                econfig, dir.string()))
                      .value();
  EXPECT_EQ(restored->queries().size(), 1u);
  const auto metrics = restored->queries().Metrics();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].id, keep_id);
  // New registrations continue the pre-crash id lineage: ids are never
  // reused across a restore, even the unregistered one's.
  auto fresh = restored->RegisterQuery(QuerySpec::Aggregate(10, 1.0));
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh.value(), keep_id);
  EXPECT_GT(fresh.value(), dropped_id);
  ASSERT_TRUE(restored->Stop().ok());
  std::filesystem::remove_all(dir);
}

TEST(QueryEngineTest, RestoredEngineStillEvaluatesQueries) {
  const std::filesystem::path dir = TempDir("stardust_query_ck_eval_test");
  EngineConfig econfig;
  econfig.num_shards = 2;
  {
    auto engine = std::move(IngestEngine::Create(
                                AggregateConfig(), {}, 4,
                                econfig))
                      .value();
    ASSERT_TRUE(
        engine->RegisterQuery(QuerySpec::Aggregate(10, 100.0)).ok());
    for (StreamId s = 0; s < 4; ++s) {
      for (int t = 0; t < 30; ++t) {
        ASSERT_TRUE(engine->Post(s, 1.0).ok());
      }
    }
    ASSERT_TRUE(engine->Flush().ok());
    ASSERT_TRUE(engine->Checkpoint(dir.string()).ok());
    ASSERT_TRUE(engine->Stop().ok());
  }

  auto restored = std::move(IngestEngine::Create(
                                AggregateConfig(), {}, 4,
                                econfig, dir.string()))
                      .value();
  auto ring = std::make_shared<RingSink>();
  restored->alerts().AddSink(ring);
  // The restored query alarms as soon as post-restore data crosses it.
  for (int t = 0; t < 20; ++t) {
    ASSERT_TRUE(restored->Post(1, 60.0).ok());
  }
  ASSERT_TRUE(restored->Flush().ok());
  const auto alerts = ring->Snapshot();
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, QueryKind::kAggregate);
  EXPECT_EQ(alerts[0].stream, 1u);
  ASSERT_TRUE(restored->Stop().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stardust
