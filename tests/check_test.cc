// Death tests for the invariant-check macros: programming errors abort
// with a useful message rather than corrupting state silently.
#include "common/check.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "common/ring_buffer.h"
#include "dwt/haar.h"
#include "engine/feature_pipeline.h"
#include "engine/shard.h"
#include "geom/mbr.h"
#include "stream/threshold.h"

namespace stardust {
namespace {

TEST(CheckDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(SD_CHECK(1 == 2), "SD_CHECK failed");
}

TEST(CheckDeathTest, CheckPassesSilently) {
  SD_CHECK(true);
  SUCCEED();
}

#ifndef NDEBUG
TEST(CheckDeathTest, InvertedMbrExtentsAbort) {
  // Per-dimension extent ordering is a debug-only check.
  EXPECT_DEATH(Mbr({2.0}, {1.0}), "SD_CHECK failed");
}
#endif

TEST(CheckDeathTest, NonPowerOfTwoDwtAborts) {
  const std::vector<double> x(6, 1.0);
  EXPECT_DEATH(HaarDwt(x), "SD_CHECK failed");
}

TEST(CheckDeathTest, ZeroCapacityRingBufferAborts) {
  EXPECT_DEATH(RingBuffer<int>(0), "SD_CHECK failed");
}

// Guards behind IngestEngine::ShardOf(): a shard can never be built with
// a shape that would make the engine's modulo/index arithmetic
// undefined.
std::unique_ptr<FeaturePipeline> TestPipeline() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 10;
  config.num_levels = 2;
  config.history = 40;
  return std::make_unique<FeaturePipeline>(config, nullptr, nullptr, 2);
}

TEST(CheckDeathTest, ShardWithNullPipelineAborts) {
  EXPECT_DEATH(Shard(0, 1, 1, 64, OverloadPolicy::kBlock, 16, nullptr,
                     nullptr, nullptr, nullptr),
               "SD_CHECK failed");
}

TEST(CheckDeathTest, ShardWithZeroShardCountAborts) {
  EXPECT_DEATH(Shard(0, 0, 1, 64, OverloadPolicy::kBlock, 16,
                     TestPipeline(), nullptr, nullptr, nullptr),
               "SD_CHECK failed");
}

TEST(CheckDeathTest, ShardWithOutOfRangeIndexAborts) {
  EXPECT_DEATH(Shard(3, 2, 1, 64, OverloadPolicy::kBlock, 16,
                     TestPipeline(), nullptr, nullptr, nullptr),
               "SD_CHECK failed");
}

TEST(CheckDeathTest, ShardWithRegistryButNoBusAborts) {
  QueryRegistry registry(StardustConfig{}, QueryConfig{});
  EXPECT_DEATH(Shard(0, 1, 1, 64, OverloadPolicy::kBlock, 16,
                     TestPipeline(), &registry, nullptr, nullptr),
               "SD_CHECK failed");
}

#ifdef NDEBUG
TEST(CheckDeathTest, DcheckCompiledOutInRelease) {
  // SD_DCHECK is a no-op with NDEBUG: this must not abort.
  SD_DCHECK(1 == 2);
  SUCCEED();
}
#endif

}  // namespace
}  // namespace stardust
