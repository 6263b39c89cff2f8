#include "core/pattern_query.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "baselines/linear_scan.h"
#include "common/rng.h"
#include "stream/dataset.h"

namespace stardust {
namespace {

StardustConfig PatternConfig(std::size_t c, std::size_t period,
                             double r_max) {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = 4;
  config.r_max = r_max;
  config.base_window = 16;
  config.num_levels = 4;  // windows 16, 32, 64, 128
  config.history = 1024;
  config.box_capacity = c;
  config.update_period = period;
  config.index_features = true;
  return config;
}

std::unique_ptr<Stardust> FeedDataset(const StardustConfig& config,
                                      const Dataset& dataset) {
  auto core = std::move(Stardust::Create(config)).value();
  for (std::size_t i = 0; i < dataset.num_streams(); ++i) {
    const StreamId id = core->AddStream();
    for (double v : dataset.streams[i]) {
      EXPECT_TRUE(core->Append(id, v).ok());
    }
  }
  return core;
}

std::set<std::pair<StreamId, std::uint64_t>> MatchSet(
    const std::vector<PatternMatch>& matches) {
  std::set<std::pair<StreamId, std::uint64_t>> out;
  for (const auto& m : matches) out.emplace(m.stream, m.end_time);
  return out;
}

class PatternQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeRandomWalkDataset(4, 512, 1234);
  }
  Dataset dataset_;
};

TEST_F(PatternQueryTest, OnlineConfigValidation) {
  auto core = FeedDataset(PatternConfig(4, 1, dataset_.r_max), dataset_);
  PatternQueryEngine engine(*core);
  std::vector<double> query(48, 1.0);
  EXPECT_FALSE(engine.QueryOnline(query, -1.0).ok());
  EXPECT_FALSE(engine.QueryOnline(std::vector<double>(50, 1.0), 0.1).ok());
  EXPECT_FALSE(
      engine.QueryOnline(std::vector<double>(16 * 16, 1.0), 0.1).ok());
  EXPECT_TRUE(engine.QueryOnline(query, 0.1).ok());
  // A batch query against an online index is a config error.
  EXPECT_FALSE(engine.QueryBatch(query, 0.1).ok());
}

TEST_F(PatternQueryTest, PlantedSubsequenceIsFoundOnline) {
  auto core = FeedDataset(PatternConfig(4, 1, dataset_.r_max), dataset_);
  PatternQueryEngine engine(*core);
  // The query IS a window of stream 2: distance 0, must be found.
  const std::size_t len = 16 * 5;  // b = 5 = 101b: two pieces
  const std::size_t start = 200;
  std::vector<double> query(dataset_.streams[2].begin() + start,
                            dataset_.streams[2].begin() + start + len);
  Result<PatternResult> result = engine.QueryOnline(query, 1e-9);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto matches = MatchSet(result.value().matches);
  EXPECT_TRUE(matches.count({2, start + len - 1}) == 1)
      << "planted match missing";
}

TEST_F(PatternQueryTest, PlantedSubsequenceIsFoundBatch) {
  auto core = FeedDataset(PatternConfig(1, 16, dataset_.r_max), dataset_);
  PatternQueryEngine engine(*core);
  const std::size_t len = 16 * 7;
  const std::size_t start = 128;
  std::vector<double> query(dataset_.streams[1].begin() + start,
                            dataset_.streams[1].begin() + start + len);
  Result<PatternResult> result = engine.QueryBatch(query, 1e-9);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto matches = MatchSet(result.value().matches);
  EXPECT_TRUE(matches.count({1, start + len - 1}) == 1);
}

struct RadiusCase {
  double radius;
  std::size_t query_len;
};

class PatternCompleteness : public ::testing::TestWithParam<RadiusCase> {};

// Completeness against the linear-scan oracle: with the history covering
// the whole stream, both algorithms report exactly the true match set
// (the filters are sound — no false dismissals — and verification removes
// every false alarm).
TEST_P(PatternCompleteness, OnlineEqualsLinearScan) {
  const RadiusCase c = GetParam();
  const Dataset dataset = MakeRandomWalkDataset(4, 512, 99);
  auto core = FeedDataset(PatternConfig(4, 1, dataset.r_max), dataset);
  PatternQueryEngine engine(*core);
  const auto queries = MakeQueryWorkload(5, {c.query_len}, 7);
  for (const auto& query : queries) {
    Result<PatternResult> result = engine.QueryOnline(query, c.radius);
    ASSERT_TRUE(result.ok());
    const auto expected = MatchSet(ScanPatternMatches(
        dataset, query, c.radius, Normalization::kUnitSphere,
        dataset.r_max));
    EXPECT_EQ(MatchSet(result.value().matches), expected);
    EXPECT_GE(result.value().candidates, result.value().matches.size());
  }
}

TEST_P(PatternCompleteness, BatchEqualsLinearScan) {
  const RadiusCase c = GetParam();
  const Dataset dataset = MakeRandomWalkDataset(4, 512, 99);
  auto core = FeedDataset(PatternConfig(1, 16, dataset.r_max), dataset);
  PatternQueryEngine engine(*core);
  const auto queries = MakeQueryWorkload(5, {c.query_len}, 8);
  for (const auto& query : queries) {
    Result<PatternResult> result = engine.QueryBatch(query, c.radius);
    ASSERT_TRUE(result.ok());
    const auto expected = MatchSet(ScanPatternMatches(
        dataset, query, c.radius, Normalization::kUnitSphere,
        dataset.r_max));
    EXPECT_EQ(MatchSet(result.value().matches), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RadiiAndLengths, PatternCompleteness,
    ::testing::Values(RadiusCase{0.002, 48}, RadiusCase{0.01, 80},
                      RadiusCase{0.05, 112}, RadiusCase{0.02, 240}));

// Self-match sanity: querying with a full window of each stream at radius
// slightly above 0 returns at least that window, online and batch.
TEST_F(PatternQueryTest, EveryStreamFindsItself) {
  auto online = FeedDataset(PatternConfig(8, 1, dataset_.r_max), dataset_);
  auto batch = FeedDataset(PatternConfig(1, 16, dataset_.r_max), dataset_);
  PatternQueryEngine online_engine(*online);
  PatternQueryEngine batch_engine(*batch);
  for (StreamId s = 0; s < dataset_.num_streams(); ++s) {
    const std::size_t len = 96;
    const std::size_t start = 300;
    std::vector<double> query(dataset_.streams[s].begin() + start,
                              dataset_.streams[s].begin() + start + len);
    const auto r1 = online_engine.QueryOnline(query, 1e-6);
    const auto r2 = batch_engine.QueryBatch(query, 1e-6);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(MatchSet(r1.value().matches).count({s, start + len - 1}), 1u);
    EXPECT_EQ(MatchSet(r2.value().matches).count({s, start + len - 1}), 1u);
  }
}

// Larger box capacity cannot lose matches (the extent filter only gets
// looser), and candidate counts grow.
TEST_F(PatternQueryTest, BoxCapacityTradesPrecisionNotRecall) {
  const std::size_t len = 112;
  const auto queries = MakeQueryWorkload(3, {len}, 17);
  std::vector<std::set<std::pair<StreamId, std::uint64_t>>> match_sets;
  std::vector<std::uint64_t> candidate_counts;
  for (std::size_t c : {1u, 8u, 64u}) {
    auto core = FeedDataset(PatternConfig(c, 1, dataset_.r_max), dataset_);
    PatternQueryEngine engine(*core);
    std::set<std::pair<StreamId, std::uint64_t>> all;
    std::uint64_t candidates = 0;
    for (const auto& query : queries) {
      const auto result = engine.QueryOnline(query, 0.02);
      ASSERT_TRUE(result.ok());
      for (const auto& m : result.value().matches) {
        all.emplace(m.stream, m.end_time);
      }
      candidates += result.value().candidates;
    }
    match_sets.push_back(all);
    candidate_counts.push_back(candidates);
  }
  EXPECT_EQ(match_sets[0], match_sets[1]);
  EXPECT_EQ(match_sets[0], match_sets[2]);
  EXPECT_LE(candidate_counts[0], candidate_counts[1]);
  EXPECT_LE(candidate_counts[1], candidate_counts[2]);
}

// Oracle test for the standing-query walk: streams fed in runs of random
// length, QueryCompiledIncremental after every run, and the union of its
// matches must equal the linear scan of the whole input — same stream,
// end time and distance bits, each match reported exactly once, every
// position decided by the end. The history covers the whole input, so
// every candidate stays verifiable.
TEST(PatternIncrementalOracleTest, RunFedWalkEqualsLinearScan) {
  const Dataset dataset = MakeRandomWalkDataset(4, 512, 4242);
  for (const std::size_t c : {1u, 2u, 4u}) {
    const StardustConfig config = PatternConfig(c, 1, dataset.r_max);
    const std::size_t w = config.base_window;
    for (const std::size_t length : {w, 2 * w, 3 * w}) {
      SCOPED_TRACE("c " + std::to_string(c) + " length " +
                   std::to_string(length));
      Rng rng(c * 1000 + length);
      // A query cut from the data (it matches itself at distance 0) and
      // two random-walk queries at a wider radius.
      const std::size_t planted_stream = rng.NextUint64(4);
      const std::size_t planted_start = 50 + rng.NextUint64(300);
      std::vector<std::pair<std::vector<double>, double>> queries;
      queries.emplace_back(
          std::vector<double>(
              dataset.streams[planted_stream].begin() + planted_start,
              dataset.streams[planted_stream].begin() + planted_start +
                  length),
          0.03);
      for (const auto& q : MakeQueryWorkload(2, {length}, c + length)) {
        queries.emplace_back(q, 0.06);
      }
      std::vector<CompiledPatternQuery> compiled;
      for (const auto& [query, radius] : queries) {
        Result<CompiledPatternQuery> q =
            CompilePatternQuery(config, query, radius);
        ASSERT_TRUE(q.ok()) << q.status().ToString();
        compiled.push_back(std::move(q).value());
      }
      if (length == 3 * w) {
        ASSERT_EQ(compiled[0].pieces.size(), 2u);
      }

      auto core = std::move(Stardust::Create(config)).value();
      for (std::size_t s = 0; s < dataset.num_streams(); ++s) {
        core->AddStream();
      }
      const PatternQueryEngine engine(*core);
      std::vector<std::vector<std::uint64_t>> floors(
          compiled.size(), std::vector<std::uint64_t>(dataset.num_streams()));
      // Per query: (stream, end) -> distance bits, inserted once.
      std::vector<std::map<std::pair<StreamId, std::uint64_t>, std::uint64_t>>
          found(compiled.size());
      std::vector<std::size_t> fed(dataset.num_streams(), 0);
      for (bool more = true; more;) {
        more = false;
        for (StreamId s = 0; s < dataset.num_streams(); ++s) {
          const std::vector<double>& values = dataset.streams[s];
          if (fed[s] == values.size()) continue;
          more = true;
          const std::size_t n = std::min<std::size_t>(
              1 + rng.NextUint64(70), values.size() - fed[s]);
          ASSERT_TRUE(core->AppendRun(s, values.data() + fed[s], n).ok());
          fed[s] += n;
          for (std::size_t qi = 0; qi < compiled.size(); ++qi) {
            Result<PatternResult> result = engine.QueryCompiledIncremental(
                compiled[qi], floors[qi].data());
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            EXPECT_EQ(result.value().unverifiable, 0u);
            for (const PatternMatch& m : result.value().matches) {
              std::uint64_t bits = 0;
              std::memcpy(&bits, &m.distance, sizeof(bits));
              EXPECT_TRUE(found[qi].emplace(std::pair(m.stream, m.end_time),
                                            bits)
                              .second)
                  << "reported twice: stream " << m.stream << " end "
                  << m.end_time;
            }
          }
        }
      }
      for (std::size_t qi = 0; qi < compiled.size(); ++qi) {
        std::map<std::pair<StreamId, std::uint64_t>, std::uint64_t> expected;
        for (const PatternMatch& m : ScanPatternMatches(
                 dataset, queries[qi].first, queries[qi].second,
                 config.normalization, config.r_max)) {
          std::uint64_t bits = 0;
          std::memcpy(&bits, &m.distance, sizeof(bits));
          expected.emplace(std::pair(m.stream, m.end_time), bits);
        }
        EXPECT_EQ(found[qi], expected) << "query " << qi;
        for (StreamId s = 0; s < dataset.num_streams(); ++s) {
          EXPECT_EQ(floors[qi][s], dataset.streams[s].size())
              << "query " << qi << " stream " << s;
        }
      }
      EXPECT_EQ(found[0].count({static_cast<StreamId>(planted_stream),
                                planted_start + length - 1}),
                1u);
    }
  }
}

}  // namespace
}  // namespace stardust
