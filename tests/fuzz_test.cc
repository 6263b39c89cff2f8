// Randomized stress tests: long interleaved operation sequences checked
// against reference models and structural invariants at every step group.
#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stardust.h"
#include "rtree/rtree.h"
#include "stream/random_walk.h"
#include "transform/sliding_tracker.h"

namespace stardust {
namespace {

// ---------------------------------------------------------------------------
// R*-tree: random interleavings of insert / delete / queries vs a flat
// reference model.
// ---------------------------------------------------------------------------

struct FuzzParam {
  std::uint64_t seed;
  std::size_t dims;
  std::size_t max_entries;
  double delete_probability;
};

class RTreeFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(RTreeFuzz, MixedWorkloadStaysExact) {
  const FuzzParam param = GetParam();
  Rng rng(param.seed);
  RTree tree(param.dims, RTreeOptions{.max_entries = param.max_entries});
  std::map<RecordId, Mbr> model;
  RecordId next_id = 0;
  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < param.delete_probability && !model.empty()) {
      // Delete a pseudo-random live record.
      auto it = model.begin();
      std::advance(it, rng.NextUint64(model.size()));
      ASSERT_TRUE(tree.Delete(it->second, it->first).ok());
      model.erase(it);
    } else {
      Point lo(param.dims), hi(param.dims);
      for (std::size_t d = 0; d < param.dims; ++d) {
        lo[d] = rng.NextDouble(-100, 100);
        hi[d] = lo[d] + rng.NextDouble(0, 10);
      }
      Mbr box(lo, hi);
      ASSERT_TRUE(tree.Insert(box, next_id).ok());
      model.emplace(next_id, std::move(box));
      ++next_id;
    }
    if (step % 200 == 199) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << tree.CheckInvariants().ToString() << " at step " << step;
      ASSERT_EQ(tree.size(), model.size());
      // One random range query vs the model.
      Point q(param.dims);
      for (std::size_t d = 0; d < param.dims; ++d) {
        q[d] = rng.NextDouble(-100, 100);
      }
      const double radius = rng.NextDouble(0, 50);
      std::vector<RTreeEntry> out;
      tree.SearchWithin(q, radius, &out);
      std::vector<RecordId> got;
      for (const auto& e : out) got.push_back(e.id);
      std::sort(got.begin(), got.end());
      std::vector<RecordId> expected;
      for (const auto& [id, box] : model) {
        if (box.MinDist2(q) <= radius * radius) expected.push_back(id);
      }
      ASSERT_EQ(got, expected) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RTreeFuzz,
    ::testing::Values(FuzzParam{1, 2, 8, 0.3}, FuzzParam{2, 2, 8, 0.5},
                      FuzzParam{3, 3, 16, 0.45}, FuzzParam{4, 2, 4, 0.5},
                      FuzzParam{5, 5, 32, 0.4}));

// ---------------------------------------------------------------------------
// Summarizer: random configurations keep the containment invariant and
// the aggregate interval bracket over long streams with expiry churn.
// ---------------------------------------------------------------------------

class SummarizerConfigFuzz : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SummarizerConfigFuzz, RandomConfigKeepsBrackets) {
  Rng rng(GetParam());
  // Random but valid aggregate configuration.
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = static_cast<AggregateKind>(rng.NextUint64(4));
  config.base_window = 1 + rng.NextUint64(24);
  config.num_levels = 2 + rng.NextUint64(4);
  config.box_capacity = 1 + rng.NextUint64(20);
  config.update_period = 1;
  const std::size_t top = config.LevelWindow(config.num_levels - 1);
  config.history = top + rng.NextUint64(3 * top);
  ASSERT_TRUE(config.Validate().ok());

  auto core = std::move(Stardust::Create(config)).value();
  const StreamId s = core->AddStream();
  // Monitor a handful of decomposable windows.
  std::vector<std::size_t> windows;
  const std::size_t max_b =
      std::min<std::size_t>((std::size_t{1} << config.num_levels) - 1,
                            config.history / config.base_window);
  for (int i = 0; i < 4; ++i) {
    windows.push_back((1 + rng.NextUint64(max_b)) * config.base_window);
  }
  SlidingAggregateTracker oracle(config.aggregate, windows);
  RandomWalkSource source(GetParam() * 7 + 1);
  const std::size_t run = 3 * config.history + 100;
  for (std::size_t t = 0; t < run; ++t) {
    const double v = source.Next();
    ASSERT_TRUE(core->Append(s, v).ok());
    oracle.Push(v);
    if (t % 7 != 0) continue;  // sample checks to keep runtime bounded
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (!oracle.Ready(i)) continue;
      Result<ScalarInterval> interval =
          core->AggregateInterval(s, windows[i]);
      ASSERT_TRUE(interval.ok())
          << interval.status().ToString() << " w=" << windows[i];
      const double exact = oracle.Current(i);
      ASSERT_GE(exact, interval.value().lo - 1e-6)
          << "w=" << windows[i] << " t=" << t << " c="
          << config.box_capacity;
      ASSERT_LE(exact, interval.value().hi + 1e-6);
    }
  }
  // Space stays bounded by the history (expiry works at any config).
  EXPECT_LE(core->summarizer(s).TotalBoxCount(),
            config.num_levels * (config.history / config.box_capacity + 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummarizerConfigFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Indexed DWT mode: long run with aggressive expiry keeps index and
// threads consistent.
// ---------------------------------------------------------------------------

TEST(IndexChurnFuzz, LongRunWithTightHistory) {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = 2;
  config.r_max = 110.0;
  config.base_window = 8;
  config.num_levels = 3;
  config.history = 32;  // == top window: maximal churn
  config.box_capacity = 3;
  config.update_period = 1;
  config.index_features = true;
  auto core = std::move(Stardust::Create(config)).value();
  const StreamId a = core->AddStream();
  const StreamId b = core->AddStream();
  RandomWalkSource sa(1), sb(2);
  for (int t = 0; t < 20000; ++t) {
    ASSERT_TRUE(core->Append(a, sa.Next()).ok());
    ASSERT_TRUE(core->Append(b, sb.Next()).ok());
    if (t % 1000 == 999) {
      for (std::size_t j = 0; j < config.num_levels; ++j) {
        ASSERT_TRUE(core->index(j).CheckInvariants().ok());
        // Every indexed box is still reachable through its thread.
        core->index(j).ForEach([&](const RTreeEntry& entry) {
          const StreamId stream = RecordStream(entry.id);
          const LevelThread& thread = core->summarizer(stream).thread(j);
          const FeatureBox* box = thread.FindBySeq(RecordSeq(entry.id));
          ASSERT_NE(box, nullptr);
          ASSERT_TRUE(thread.Extent(*box).ToMbr() == entry.box);
        });
      }
    }
  }
  // Index sizes bounded by history.
  for (std::size_t j = 0; j < config.num_levels; ++j) {
    EXPECT_LE(core->index(j).size(),
              2 * (config.history / config.box_capacity + 2));
  }
}

TEST(InputValidationTest, NonFiniteValuesRejected) {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 4;
  config.num_levels = 2;
  config.history = 8;
  auto core = std::move(Stardust::Create(config)).value();
  const StreamId s = core->AddStream();
  EXPECT_FALSE(core->Append(s, std::nan("")).ok());
  EXPECT_FALSE(core->Append(s, INFINITY).ok());
  EXPECT_FALSE(core->Append(s, -INFINITY).ok());
  EXPECT_TRUE(core->Append(s, 1.0).ok());
}

}  // namespace
}  // namespace stardust
