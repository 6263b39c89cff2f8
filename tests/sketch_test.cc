// Accuracy bounds, windowed semantics, batched-append equivalence, and
// serialization round-trips of the sketch measures (src/sketch).
#include "sketch/measure.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serialize.h"
#include "sketch/countmin.h"
#include "sketch/hll.h"
#include "sketch/quantile.h"

namespace stardust {
namespace {

// --- HyperLogLog --------------------------------------------------------

TEST(HyperLogLogTest, AccuracyWithinTwoPercentAt16kRegisters) {
  // Standard error of HLL is ~1.04/sqrt(m); precision 14 = 16384
  // registers gives ~0.8%, so 2% is a comfortable deterministic bound
  // for these fixed seeds.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    HyperLogLog hll(14);
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
      hll.Add(std::floor(rng.NextDouble(0.0, 100000.0)) + 0.5);
    }
    // ~100000 distinct values were drawn; compute the exact count.
    std::vector<double> values;
    Rng replay(seed);
    for (int i = 0; i < n; ++i) {
      values.push_back(std::floor(replay.NextDouble(0.0, 100000.0)) + 0.5);
    }
    std::sort(values.begin(), values.end());
    const double exact = static_cast<double>(
        std::unique(values.begin(), values.end()) - values.begin());
    EXPECT_NEAR(hll.Estimate(), exact, 0.02 * exact) << "seed " << seed;
  }
}

TEST(HyperLogLogTest, SmallCardinalitiesAreNearExact) {
  HyperLogLog hll(12);
  for (int i = 0; i < 50; ++i) hll.Add(static_cast<double>(i));
  EXPECT_NEAR(hll.Estimate(), 50.0, 1.5);
  // Repeats change nothing.
  for (int i = 0; i < 50; ++i) hll.Add(static_cast<double>(i));
  EXPECT_NEAR(hll.Estimate(), 50.0, 1.5);
}

TEST(HyperLogLogTest, SpanMatchesScalarAppends) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 4097; ++i) {
    values.push_back(std::floor(rng.NextDouble(0.0, 500.0)));
  }
  HyperLogLog scalar(10), batched(10);
  for (double v : values) scalar.Add(v);
  batched.AddSpan(values.data(), values.size());
  EXPECT_DOUBLE_EQ(scalar.Estimate(), batched.Estimate());
}

TEST(HyperLogLogTest, MergeEqualsUnion) {
  HyperLogLog a(12), b(12), both(12);
  for (int i = 0; i < 4000; ++i) {
    a.Add(static_cast<double>(i));
    both.Add(static_cast<double>(i));
  }
  for (int i = 2000; i < 6000; ++i) {
    b.Add(static_cast<double>(i));
    both.Add(static_cast<double>(i));
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), both.Estimate());
  HyperLogLog other(13);
  EXPECT_FALSE(other.Merge(b).ok());
}

TEST(HyperLogLogTest, SerializationRoundTrip) {
  HyperLogLog hll(11);
  for (int i = 0; i < 10000; ++i) hll.Add(static_cast<double>(i % 3000));
  Writer writer;
  hll.SaveTo(&writer);
  Reader reader(writer.buffer());
  HyperLogLog restored(11);
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_DOUBLE_EQ(restored.Estimate(), hll.Estimate());
  // A snapshot for a different precision is rejected, not misread.
  Reader again(writer.buffer());
  HyperLogLog mismatched(12);
  EXPECT_FALSE(mismatched.RestoreFrom(&again).ok());
}

TEST(HyperLogLogTest, ZeroFoldsToPositiveZero) {
  HyperLogLog a(10), b(10);
  a.Add(0.0);
  b.Add(-0.0);
  EXPECT_DOUBLE_EQ(a.Estimate(), b.Estimate());
}

// --- CountMin -----------------------------------------------------------

TEST(CountMinTest, OvercountBoundedByEpsilonN) {
  // Classic guarantee: estimate(v) >= true(v), and with probability
  // 1 - delta the over-count stays below epsilon * N. With depth 4 and
  // fixed seeds this holds deterministically here.
  const double epsilon = 0.01;
  CountMin cm(epsilon, 4, 16);
  Rng rng(11);
  std::vector<std::uint64_t> truth(1000, 0);
  std::uint64_t n = 0;
  for (int i = 0; i < 200000; ++i) {
    // Zipf-ish skew: low ids are hot.
    const auto id = static_cast<std::size_t>(
        1000.0 * rng.NextDouble(0.0, 1.0) * rng.NextDouble(0.0, 1.0));
    const auto key = std::min<std::size_t>(id, 999);
    ++truth[key];
    ++n;
    cm.Add(static_cast<double>(key));
  }
  for (std::size_t key = 0; key < truth.size(); ++key) {
    const std::uint64_t est = cm.EstimateCount(static_cast<double>(key));
    EXPECT_GE(est, truth[key]) << "key " << key;
    EXPECT_LE(est, truth[key] + static_cast<std::uint64_t>(
                                    epsilon * static_cast<double>(n)))
        << "key " << key;
  }
}

TEST(CountMinTest, HeavyHitterCountFindsTheHotValues) {
  CountMin cm(0.005, 4, 32);
  // Two values own 30% each; the rest is a long uniform tail.
  Rng rng(23);
  for (int i = 0; i < 50000; ++i) {
    const double roll = rng.NextDouble(0.0, 1.0);
    double v;
    if (roll < 0.3) {
      v = -1.0;
    } else if (roll < 0.6) {
      v = -2.0;
    } else {
      v = std::floor(rng.NextDouble(0.0, 5000.0));
    }
    cm.Add(v);
  }
  EXPECT_EQ(cm.HeavyHitterCount(0.25), 2u);
  EXPECT_EQ(cm.HeavyHitterCount(0.5), 0u);
}

TEST(CountMinTest, SpanMatchesScalarAppends) {
  Rng rng(5);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) {
    values.push_back(std::floor(rng.NextDouble(0.0, 40.0)));
  }
  CountMin scalar(0.02, 3, 8), batched(0.02, 3, 8);
  for (double v : values) scalar.Add(v);
  batched.AddSpan(values.data(), values.size());
  EXPECT_EQ(scalar.total(), batched.total());
  for (int key = 0; key < 40; ++key) {
    EXPECT_EQ(scalar.EstimateCount(key), batched.EstimateCount(key));
  }
  EXPECT_EQ(scalar.HeavyHitterCount(0.01), batched.HeavyHitterCount(0.01));
}

TEST(CountMinTest, MergeAddsCounts) {
  CountMin a(0.01, 4, 16), b(0.01, 4, 16), both(0.01, 4, 16);
  for (int i = 0; i < 3000; ++i) {
    const double v = std::floor(static_cast<double>(i % 7));
    a.Add(v);
    both.Add(v);
  }
  for (int i = 0; i < 2000; ++i) {
    const double v = std::floor(static_cast<double>(i % 5));
    b.Add(v);
    both.Add(v);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.total(), both.total());
  for (int key = 0; key < 7; ++key) {
    EXPECT_EQ(a.EstimateCount(key), both.EstimateCount(key));
  }
  CountMin other(0.1, 2, 16);
  EXPECT_FALSE(other.Merge(b).ok());
}

TEST(CountMinTest, SerializationRoundTrip) {
  CountMin cm(0.02, 4, 8);
  for (int i = 0; i < 10000; ++i) {
    cm.Add(std::floor(static_cast<double>(i % 11)));
  }
  Writer writer;
  cm.SaveTo(&writer);
  Reader reader(writer.buffer());
  CountMin restored(0.02, 4, 8);
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.total(), cm.total());
  for (int key = 0; key < 11; ++key) {
    EXPECT_EQ(restored.EstimateCount(key), cm.EstimateCount(key));
  }
  // A truncated payload is rejected, not misread.
  std::string trunc(writer.buffer().substr(0, writer.buffer().size() / 2));
  Reader bad(trunc);
  CountMin victim(0.02, 4, 8);
  EXPECT_FALSE(victim.RestoreFrom(&bad).ok());
}

// --- Windowed measures --------------------------------------------------

SketchConfig DistinctConfig(std::uint64_t window) {
  SketchConfig config;
  config.kind = SketchKind::kDistinct;
  config.window = window;
  config.hll_precision = 12;
  return config;
}

TEST(SketchMeasureTest, DistinctWindowForgetsOldValues) {
  SketchConfig config = DistinctConfig(64);
  auto measure = CreateSketchMeasure(config);
  // First 64 appends: 32 distinct values; not ready before the window
  // fills.
  for (int i = 0; i < 63; ++i) {
    measure->Append(static_cast<double>(i % 32));
    EXPECT_FALSE(measure->Ready());
  }
  measure->Append(31.0);
  ASSERT_TRUE(measure->Ready());
  EXPECT_NEAR(measure->Estimate(), 32.0, 1.0);
  // Flood with a single value: once the old buckets rotate out (window
  // + one bucket width), the distinct count falls to 1.
  for (int i = 0; i < 64 + 16; ++i) measure->Append(7.0);
  EXPECT_NEAR(measure->Estimate(), 1.0, 0.1);
}

TEST(SketchMeasureTest, HeavyHitterWindowTracksDominance) {
  SketchConfig config;
  config.kind = SketchKind::kHeavyHitters;
  config.window = 64;
  config.phi = 0.4;
  auto measure = CreateSketchMeasure(config);
  for (int i = 0; i < 64; ++i) measure->Append(1.0);
  ASSERT_TRUE(measure->Ready());
  EXPECT_DOUBLE_EQ(measure->Estimate(), 1.0);  // one dominant value
  // Cycle 10 distinct values: nobody holds 40% once the constant run
  // ages out.
  for (int i = 0; i < 64 + 16; ++i) {
    measure->Append(static_cast<double>(10 + i % 10));
  }
  EXPECT_DOUBLE_EQ(measure->Estimate(), 0.0);
}

TEST(SketchMeasureTest, QuantileWindowTracksRecentDistribution) {
  SketchConfig config;
  config.kind = SketchKind::kQuantile;
  config.window = 64;
  config.q = 0.5;
  auto measure = CreateSketchMeasure(config);
  Rng rng(3);
  for (int i = 0; i < 64; ++i) measure->Append(rng.NextDouble(0.0, 1.0));
  ASSERT_TRUE(measure->Ready());
  EXPECT_NEAR(measure->Estimate(), 0.5, 0.25);
  // Shift the distribution up by 10; the windowed median follows once
  // the staggered estimators cycle through.
  for (int i = 0; i < 5 * 64; ++i) {
    measure->Append(10.0 + rng.NextDouble(0.0, 1.0));
  }
  EXPECT_NEAR(measure->Estimate(), 10.5, 0.3);
}

TEST(SketchMeasureTest, QuantileRankErrorOnUniformStream) {
  SketchConfig config;
  config.kind = SketchKind::kQuantile;
  config.window = 512;
  config.q = 0.9;
  auto measure = CreateSketchMeasure(config);
  Rng rng(41);
  for (int i = 0; i < 4096; ++i) {
    measure->Append(rng.NextDouble(0.0, 1.0));
  }
  // Exact p90 of U(0,1) is 0.9; allow a 5%-of-range rank error for the
  // windowed P^2 estimate.
  EXPECT_NEAR(measure->Estimate(), 0.9, 0.05);
}

TEST(SketchMeasureTest, AppendRunMatchesScalarForEveryKind) {
  for (const SketchKind kind :
       {SketchKind::kDistinct, SketchKind::kHeavyHitters,
        SketchKind::kQuantile}) {
    SketchConfig config;
    config.kind = kind;
    config.window = 48;  // not a multiple of the run lengths below
    config.buckets = 5;
    auto scalar = CreateSketchMeasure(config);
    auto batched = CreateSketchMeasure(config);
    Rng rng(static_cast<std::uint64_t>(kind) + 100);
    std::vector<double> pending;
    for (int i = 0; i < 1000; ++i) {
      pending.push_back(std::floor(rng.NextDouble(0.0, 20.0)));
      if (pending.size() == 7 || i == 999) {
        for (double v : pending) scalar->Append(v);
        batched->AppendRun(pending.data(), pending.size());
        pending.clear();
      }
    }
    EXPECT_EQ(scalar->Ready(), batched->Ready());
    EXPECT_DOUBLE_EQ(scalar->Estimate(), batched->Estimate())
        << "kind " << SketchKindName(kind);
    // State-identical, not just estimate-identical.
    Writer a, b;
    scalar->SaveTo(&a);
    batched->SaveTo(&b);
    EXPECT_EQ(a.buffer(), b.buffer()) << "kind " << SketchKindName(kind);
  }
}

TEST(SketchMeasureTest, SerializationRoundTripForEveryKind) {
  for (const SketchKind kind :
       {SketchKind::kDistinct, SketchKind::kHeavyHitters,
        SketchKind::kQuantile}) {
    SketchConfig config;
    config.kind = kind;
    config.window = 32;
    auto measure = CreateSketchMeasure(config);
    Rng rng(static_cast<std::uint64_t>(kind) + 7);
    for (int i = 0; i < 333; ++i) {
      measure->Append(std::floor(rng.NextDouble(0.0, 12.0)));
    }
    Writer writer;
    measure->SaveTo(&writer);
    auto restored = CreateSketchMeasure(config);
    Reader reader(writer.buffer());
    ASSERT_TRUE(restored->RestoreFrom(&reader).ok())
        << SketchKindName(kind);
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(restored->appends(), measure->appends());
    EXPECT_EQ(restored->Ready(), measure->Ready());
    EXPECT_DOUBLE_EQ(restored->Estimate(), measure->Estimate());
    // Identical continuations after restore.
    for (int i = 0; i < 100; ++i) {
      const double v = std::floor(rng.NextDouble(0.0, 12.0));
      measure->Append(v);
      restored->Append(v);
    }
    EXPECT_DOUBLE_EQ(restored->Estimate(), measure->Estimate());
    // Truncation fails closed.
    std::string trunc(
        writer.buffer().substr(0, writer.buffer().size() - 3));
    Reader bad(trunc);
    auto victim = CreateSketchMeasure(config);
    EXPECT_FALSE(victim->RestoreFrom(&bad).ok());
  }
}

TEST(SketchConfigTest, ValidateRejectsBadKnobs) {
  SketchConfig config = DistinctConfig(16);
  EXPECT_TRUE(config.Validate().ok());
  config.window = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = DistinctConfig(16);
  config.hll_precision = 3;
  EXPECT_FALSE(config.Validate().ok());
  config = DistinctConfig(16);
  config.buckets = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = DistinctConfig(16);
  config.epsilon = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = DistinctConfig(16);
  config.q = 1.0;
  EXPECT_FALSE(config.Validate().ok());
}

// Validate sizes the measure before anything allocates it. At epsilon
// 1e-9 CountMin would ask for 2^32 counters per row; at 1e-300 the row
// width does not fit a size_t at all.
TEST(SketchConfigTest, ValidateBoundsTheMeasureSize) {
  SketchConfig config;
  config.kind = SketchKind::kHeavyHitters;
  config.window = 64;
  for (const double epsilon : {1e-9, 1e-300, 5e-324}) {
    config.epsilon = epsilon;
    const Status status = config.Validate();
    ASSERT_FALSE(status.ok()) << epsilon;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("sketch measure needs"),
              std::string::npos)
        << status.ToString();
  }
  // The cap is the largest distinct measure the field ranges allow.
  SketchConfig widest = DistinctConfig(1 << 20);
  widest.hll_precision = 18;
  widest.buckets = 64;
  EXPECT_TRUE(widest.Validate().ok());
  EXPECT_EQ(widest.MeasureBytes(), kMaxSketchMeasureBytes);
  // A heavy-hitter ring past the cap: 66 sketches of 16 rows of 2^14
  // counters.
  config.epsilon = 2e-4;
  config.depth = 16;
  config.buckets = 64;
  EXPECT_FALSE(config.Validate().ok());
  config.buckets = 4;
  EXPECT_TRUE(config.Validate().ok());
}

// The size Validate checks is the size the measure allocates.
TEST(SketchConfigTest, MeasureBytesMatchesTheBuiltMeasure) {
  SketchConfig heavy;
  heavy.kind = SketchKind::kHeavyHitters;
  heavy.window = 64;
  heavy.epsilon = 0.003;
  heavy.depth = 5;
  heavy.candidates = 40;
  SketchConfig quantile;
  quantile.kind = SketchKind::kQuantile;
  quantile.window = 64;
  quantile.buckets = 7;
  for (const SketchConfig& config :
       {DistinctConfig(32), heavy, quantile}) {
    ASSERT_TRUE(config.Validate().ok());
    EXPECT_EQ(config.MeasureBytes(),
              static_cast<double>(CreateSketchMeasure(config)->MemoryBytes()))
        << SketchKindName(config.kind);
  }
  // CountMin's width is e / epsilon rounded up to a power of two.
  EXPECT_EQ(CountMin(0.01, 4, 8).width(), 512u);
  EXPECT_EQ(CountMin(2.718281828459045 / 256, 1, 1).width(), 256u);
}

TEST(SketchConfigTest, SerializationRoundTrip) {
  SketchConfig config;
  config.kind = SketchKind::kHeavyHitters;
  config.window = 128;
  config.buckets = 8;
  config.epsilon = 0.003;
  config.depth = 5;
  config.phi = 0.2;
  config.candidates = 64;
  Writer writer;
  config.SaveTo(&writer);
  SketchConfig restored;
  Reader reader(writer.buffer());
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored, config);
}

// --- P2 snapshot (promoted from src/transform) --------------------------

TEST(P2QuantileSnapshotTest, RoundTripAndQuantileMismatch) {
  P2Quantile q(0.75);
  Rng rng(19);
  for (int i = 0; i < 5000; ++i) q.Add(rng.NextGaussian());
  Writer writer;
  q.SaveTo(&writer);
  P2Quantile restored(0.75);
  Reader reader(writer.buffer());
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_DOUBLE_EQ(restored.Value(), q.Value());
  P2Quantile wrong(0.5);
  Reader again(writer.buffer());
  EXPECT_FALSE(wrong.RestoreFrom(&again).ok());
}

}  // namespace
}  // namespace stardust
