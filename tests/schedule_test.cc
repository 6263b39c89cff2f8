// Tests for the per-level update schedules: the paper's uniform online
// (T = 1) and batch (T = W) algorithms plus the dyadic SWAT schedule
// (T_j = T · 2^j), whose summary space is O(log N).
#include <gtest/gtest.h>

#include "core/summarizer.h"
#include "stream/random_walk.h"

namespace stardust {
namespace {

StardustConfig DyadicConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 8;
  config.num_levels = 5;  // windows 8..128, periods 1..16
  config.history = 256;
  config.box_capacity = 1;
  config.update_period = 1;
  config.update_schedule = UpdateSchedule::kDyadic;
  return config;
}

TEST(ScheduleTest, LevelPeriodScaling) {
  StardustConfig config = DyadicConfig();
  EXPECT_EQ(config.LevelPeriod(0), 1u);
  EXPECT_EQ(config.LevelPeriod(1), 2u);
  EXPECT_EQ(config.LevelPeriod(4), 16u);
  config.update_schedule = UpdateSchedule::kUniform;
  EXPECT_EQ(config.LevelPeriod(4), 1u);
}

TEST(ScheduleTest, DyadicRequiresUnitBoxes) {
  StardustConfig config = DyadicConfig();
  EXPECT_TRUE(config.Validate().ok());
  config.box_capacity = 4;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ScheduleTest, DyadicFeatureTimesAreAligned) {
  StreamSummarizer summarizer(DyadicConfig());
  RandomWalkSource source(1);
  for (int t = 0; t < 300; ++t) {
    summarizer.Append(source.Next(), nullptr, nullptr);
  }
  const StardustConfig& config = summarizer.config();
  for (std::size_t j = 0; j < config.num_levels; ++j) {
    const std::size_t w = config.LevelWindow(j);
    const std::size_t period = config.LevelPeriod(j);
    std::size_t found = 0;
    for (std::uint64_t t = 0; t < 300; ++t) {
      const FeatureBox* box = summarizer.thread(j).Find(t);
      if (box == nullptr) continue;
      ++found;
      EXPECT_EQ((t + 1 - w) % period, 0u) << "level " << j << " t " << t;
    }
    // All aligned feature times still inside the history are retained.
    std::size_t expected = 0;
    const std::uint64_t min_time = 300 - config.history;
    for (std::uint64_t t = w - 1; t < 300; t += period) {
      if (t >= min_time) ++expected;
    }
    EXPECT_EQ(found, expected) << "level " << j;
  }
}

TEST(ScheduleTest, DyadicFeaturesAreExact) {
  StreamSummarizer summarizer(DyadicConfig());
  RandomWalkSource source(2);
  for (int t = 0; t < 300; ++t) {
    summarizer.Append(source.Next(), nullptr, nullptr);
  }
  const StardustConfig& config = summarizer.config();
  for (std::size_t j = 0; j < config.num_levels; ++j) {
    const std::size_t w = config.LevelWindow(j);
    for (std::uint64_t t = 100; t < 300; ++t) {
      const FeatureBox* box = summarizer.thread(j).Find(t);
      if (box == nullptr) continue;
      Result<Point> exact = summarizer.ExactFeature(t, w);
      // Old windows may have partially left the raw buffer.
      if (!exact.ok()) continue;
      EXPECT_NEAR(summarizer.thread(j).Lo(*box)[0], exact.value()[0], 1e-9);
      EXPECT_NEAR(summarizer.thread(j).Hi(*box)[0], exact.value()[0], 1e-9);
    }
  }
}

// SWAT's space claim: with T_j = 2^j the number of retained boxes per
// level is O(history / (W·2^j) ... effectively bounded and the TOTAL
// across levels grows only logarithmically with the history.
TEST(ScheduleTest, DyadicSummarySpaceIsLogarithmic) {
  StardustConfig config = DyadicConfig();
  config.history = 128;
  StreamSummarizer summarizer(config);
  RandomWalkSource source(3);
  for (int t = 0; t < 5000; ++t) {
    summarizer.Append(source.Next(), nullptr, nullptr);
  }
  std::size_t total_boxes = 0;
  for (std::size_t j = 0; j < config.num_levels; ++j) {
    const std::size_t boxes = summarizer.thread(j).box_count();
    // Θ(history / T_j) per level (Theorem 4.3 with the dyadic schedule).
    EXPECT_LE(boxes, config.history / config.LevelPeriod(j) + 2)
        << "level " << j;
    total_boxes += boxes;
  }
  // Uniform T=1 would retain ~num_levels · history boxes; the dyadic
  // schedule stays within 2·history + O(levels).
  EXPECT_LE(total_boxes, 2 * config.history + 2 * config.num_levels);
}

TEST(ScheduleTest, DwtDyadicAlsoSupported) {
  StardustConfig config = DyadicConfig();
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = 2;
  config.r_max = 110.0;
  ASSERT_TRUE(config.Validate().ok());
  StreamSummarizer summarizer(config);
  RandomWalkSource source(4);
  for (int t = 0; t < 300; ++t) {
    summarizer.Append(source.Next(), nullptr, nullptr);
  }
  const FeatureBox* top =
      summarizer.thread(config.num_levels - 1).Find(
          summarizer.thread(config.num_levels - 1).last_time());
  ASSERT_NE(top, nullptr);
  Result<Point> exact = summarizer.ExactFeature(
      summarizer.thread(config.num_levels - 1).last_time(),
      config.LevelWindow(config.num_levels - 1));
  ASSERT_TRUE(exact.ok());
  for (std::size_t d = 0; d < exact.value().size(); ++d) {
    EXPECT_NEAR(summarizer.thread(config.num_levels - 1).Lo(*top)[d],
                exact.value()[d], 1e-9);
  }
}

}  // namespace
}  // namespace stardust
