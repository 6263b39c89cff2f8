#include "core/summarizer.h"

#include <gtest/gtest.h>

#include "stream/random_walk.h"

namespace stardust {
namespace {

StardustConfig DwtOnline(std::size_t c) {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = 2;
  config.r_max = 110.0;
  config.base_window = 8;
  config.num_levels = 4;  // windows 8, 16, 32, 64
  config.history = 256;
  config.box_capacity = c;
  config.update_period = 1;
  return config;
}

StardustConfig AggregateOnline(AggregateKind kind, std::size_t c) {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = kind;
  config.base_window = 10;
  config.num_levels = 4;  // windows 10, 20, 40, 80
  config.history = 400;
  config.box_capacity = c;
  config.update_period = 1;
  return config;
}

// The single-pass incremental computation (Figure 1(b)): with c = 1 every
// level's merged feature is EXACT — it equals the feature computed
// directly from the raw window (Lemmas 4.1 / A.1).
TEST(SummarizerTest, IncrementalDwtFeaturesAreExactWithUnitBoxes) {
  StreamSummarizer summarizer(DwtOnline(1));
  RandomWalkSource source(5);
  for (int t = 0; t < 200; ++t) {
    summarizer.Append(source.Next(), nullptr, nullptr);
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t w = summarizer.config().LevelWindow(j);
      if (summarizer.now() < w) continue;
      const FeatureBox* box = summarizer.thread(j).Find(t);
      ASSERT_NE(box, nullptr) << "level " << j << " t " << t;
      Result<Point> exact = summarizer.ExactFeature(t, w);
      ASSERT_TRUE(exact.ok());
      for (std::size_t d = 0; d < exact.value().size(); ++d) {
        EXPECT_NEAR(summarizer.thread(j).Lo(*box)[d], exact.value()[d], 1e-9);
        EXPECT_NEAR(summarizer.thread(j).Hi(*box)[d], exact.value()[d], 1e-9);
      }
    }
  }
}

TEST(SummarizerTest, IncrementalAggregatesAreExactWithUnitBoxes) {
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin,
        AggregateKind::kSpread}) {
    StreamSummarizer summarizer(AggregateOnline(kind, 1));
    RandomWalkSource source(6);
    for (int t = 0; t < 200; ++t) {
      summarizer.Append(source.Next(), nullptr, nullptr);
      for (std::size_t j = 0; j < 4; ++j) {
        const std::size_t w = summarizer.config().LevelWindow(j);
        if (summarizer.now() < w) continue;
        const FeatureBox* box = summarizer.thread(j).Find(t);
        ASSERT_NE(box, nullptr);
        Result<Point> exact = summarizer.ExactFeature(t, w);
        ASSERT_TRUE(exact.ok());
        for (std::size_t d = 0; d < exact.value().size(); ++d) {
          EXPECT_NEAR(summarizer.thread(j).Lo(*box)[d], exact.value()[d],
                      1e-9);
        }
      }
    }
  }
}

// The central approximation guarantee (Lemmas 4.2 / A.2): with boxes of
// any capacity, the extent at every level CONTAINS the exact feature for
// every window it summarizes.
class SummarizerContainment : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(SummarizerContainment, DwtExtentsContainExactFeatures) {
  StreamSummarizer summarizer(DwtOnline(GetParam()));
  RandomWalkSource source(7);
  for (int t = 0; t < 300; ++t) {
    summarizer.Append(source.Next(), nullptr, nullptr);
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t w = summarizer.config().LevelWindow(j);
      if (summarizer.now() < w) continue;
      const FeatureBox* box = summarizer.thread(j).Find(t);
      ASSERT_NE(box, nullptr);
      Result<Point> exact = summarizer.ExactFeature(t, w);
      ASSERT_TRUE(exact.ok());
      for (std::size_t d = 0; d < exact.value().size(); ++d) {
        EXPECT_GE(exact.value()[d], summarizer.thread(j).Lo(*box)[d] - 1e-9)
            << "level " << j << " t " << t << " c " << GetParam();
        EXPECT_LE(exact.value()[d], summarizer.thread(j).Hi(*box)[d] + 1e-9);
      }
    }
  }
}

TEST_P(SummarizerContainment, AggregateExtentsContainExactFeatures) {
  StreamSummarizer summarizer(
      AggregateOnline(AggregateKind::kSpread, GetParam()));
  RandomWalkSource source(8);
  for (int t = 0; t < 300; ++t) {
    summarizer.Append(source.Next(), nullptr, nullptr);
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t w = summarizer.config().LevelWindow(j);
      if (summarizer.now() < w) continue;
      const FeatureBox* box = summarizer.thread(j).Find(t);
      ASSERT_NE(box, nullptr);
      Result<Point> exact = summarizer.ExactFeature(t, w);
      ASSERT_TRUE(exact.ok());
      for (std::size_t d = 0; d < exact.value().size(); ++d) {
        EXPECT_GE(exact.value()[d], summarizer.thread(j).Lo(*box)[d] - 1e-9);
        EXPECT_LE(exact.value()[d], summarizer.thread(j).Hi(*box)[d] + 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BoxCapacities, SummarizerContainment,
                         ::testing::Values(1, 2, 5, 16));

TEST(SummarizerTest, BatchModeComputesExactFeaturesEveryWArrivals) {
  StardustConfig config = DwtOnline(1);
  config.update_period = config.base_window;  // batch
  StreamSummarizer summarizer(config);
  RandomWalkSource source(9);
  for (int t = 0; t < 200; ++t) {
    summarizer.Append(source.Next(), nullptr, nullptr);
  }
  for (std::size_t j = 0; j < 4; ++j) {
    const std::size_t w = config.LevelWindow(j);
    std::size_t found = 0;
    for (std::uint64_t t = 0; t < 200; ++t) {
      const FeatureBox* box = summarizer.thread(j).Find(t);
      if (box == nullptr) continue;
      ++found;
      // Feature times are aligned: (t + 1 - w) % W == 0.
      EXPECT_EQ((t + 1 - w) % config.base_window, 0u);
      Result<Point> exact = summarizer.ExactFeature(t, w);
      ASSERT_TRUE(exact.ok());
      for (std::size_t d = 0; d < exact.value().size(); ++d) {
        EXPECT_NEAR(summarizer.thread(j).Lo(*box)[d], exact.value()[d], 1e-9);
      }
    }
    EXPECT_EQ(found, (200 - w) / config.base_window + 1);
  }
}

TEST(SummarizerTest, ExactLevelsModeMatchesIncrementalWithUnitBoxes) {
  StardustConfig incremental = DwtOnline(1);
  StardustConfig exact = DwtOnline(1);
  exact.exact_levels = true;
  StreamSummarizer a(incremental), b(exact);
  RandomWalkSource source(10);
  for (int t = 0; t < 150; ++t) {
    const double v = source.Next();
    a.Append(v, nullptr, nullptr);
    b.Append(v, nullptr, nullptr);
  }
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::uint64_t t = 100; t < 150; ++t) {
      const FeatureBox* ba = a.thread(j).Find(t);
      const FeatureBox* bb = b.thread(j).Find(t);
      ASSERT_EQ(ba == nullptr, bb == nullptr);
      if (ba == nullptr) continue;
      for (std::size_t d = 0; d < a.thread(j).dims(); ++d) {
        EXPECT_NEAR(a.thread(j).Lo(*ba)[d], b.thread(j).Lo(*bb)[d], 1e-9);
        EXPECT_NEAR(a.thread(j).Hi(*ba)[d], b.thread(j).Hi(*bb)[d], 1e-9);
      }
    }
  }
}

TEST(SummarizerTest, SealedAndExpiredBoxesAreReported) {
  StardustConfig config = DwtOnline(4);
  config.history = 64;  // equal to the top window: aggressive expiry
  StreamSummarizer summarizer(config);
  RandomWalkSource source(11);
  std::vector<BoxRef> sealed, expired;
  for (int t = 0; t < 500; ++t) {
    summarizer.Append(source.Next(), &sealed, &expired);
  }
  EXPECT_GT(sealed.size(), 0u);
  EXPECT_GT(expired.size(), 0u);
  // Every expired box was sealed earlier.
  EXPECT_LE(expired.size(), sealed.size());
  // Retained state is bounded by the history (space property of
  // Theorem 4.3: Θ(w_j / c) boxes per level).
  for (std::size_t j = 0; j < config.num_levels; ++j) {
    EXPECT_LE(summarizer.thread(j).box_count(),
              config.history / config.box_capacity + 2);
  }
}

TEST(SummarizerTest, GetWindowErrors) {
  StreamSummarizer summarizer(DwtOnline(1));
  RandomWalkSource source(12);
  for (int t = 0; t < 50; ++t) summarizer.Append(source.Next(), nullptr,
                                                 nullptr);
  std::vector<double> out;
  EXPECT_FALSE(summarizer.GetWindow(100, 8, &out).ok());  // future
  EXPECT_FALSE(summarizer.GetWindow(3, 8, &out).ok());    // before start
  EXPECT_FALSE(summarizer.GetWindow(49, 0, &out).ok());   // empty
  EXPECT_TRUE(summarizer.GetWindow(49, 50, &out).ok());
  EXPECT_EQ(out.size(), 50u);
}

}  // namespace
}  // namespace stardust
