// Tests for the correlator's persistent candidate grid
// (src/query/correlation_index): the superset contract against an exact
// scan, upsert change detection, erase/reuse, and the grid's clamping and
// neighbor-enumeration fallback paths.
#include "query/correlation_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "geom/mbr.h"

namespace stardust {
namespace {

Point RandomPoint(std::mt19937* rng, std::size_t dims, double span) {
  std::uniform_real_distribution<double> coord(-span, span);
  Point p(dims);
  for (double& x : p) x = coord(*rng);
  return p;
}

// The true neighbor set: every point within `radius` of `q`.
std::set<std::size_t> ExactNeighbors(const std::vector<Point>& points,
                                     const Point& q, double radius) {
  std::set<std::size_t> out;
  for (std::size_t slot = 0; slot < points.size(); ++slot) {
    if (Dist2(points[slot], q) <= radius * radius) out.insert(slot);
  }
  return out;
}

// The grid's candidates filtered by exact distance, as the correlator
// verifies them. The superset contract makes this the exact neighbor set.
std::set<std::size_t> VerifiedNeighbors(const CorrelationIndex& index,
                                        const std::vector<Point>& points,
                                        const Point& q, double radius) {
  std::vector<std::size_t> candidates;
  index.Candidates(q, radius, &candidates);
  // The superset contract also forbids duplicates.
  std::vector<std::size_t> sorted = candidates;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "duplicate candidate";
  std::set<std::size_t> verified;
  for (const std::size_t slot : candidates) {
    if (Dist2(points[slot], q) <= radius * radius) verified.insert(slot);
  }
  return verified;
}

TEST(CorrelationIndexTest, CandidatesCoverTheExactNeighbors) {
  constexpr std::size_t kDims = 4;
  constexpr std::size_t kPoints = 200;
  std::mt19937 rng(7);
  std::vector<Point> points;
  points.reserve(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) {
    points.push_back(RandomPoint(&rng, kDims, 4.0));
  }
  // The correlator's cell is the probe radius; a cell other than the
  // radius must stay exact too (a plan's queries share one cell).
  for (const double cell : {1.5, 0.4, 5.0}) {
    CorrelationIndex index(kDims, cell);
    EXPECT_EQ(index.dims(), kDims);
    for (std::size_t i = 0; i < kPoints; ++i) {
      EXPECT_TRUE(index.Upsert(i, points[i]));
    }
    EXPECT_EQ(index.size(), kPoints);
    for (std::size_t trial = 0; trial < 50; ++trial) {
      const Point q = RandomPoint(&rng, kDims, 4.0);
      for (const double radius : {0.3, 1.5, 3.0}) {
        EXPECT_EQ(VerifiedNeighbors(index, points, q, radius),
                  ExactNeighbors(points, q, radius))
            << "cell " << cell << " radius " << radius << " trial " << trial;
      }
    }
  }
}

TEST(CorrelationIndexTest, UpsertDetectsUnchangedPoints) {
  CorrelationIndex index(2, 0.5);
  const Point a{1.0, 2.0};
  const Point b{1.0, 2.5};
  EXPECT_TRUE(index.Upsert(3, a));
  // Identical re-put: no change, the cheap path for periodic data.
  EXPECT_FALSE(index.Upsert(3, a));
  EXPECT_TRUE(index.Upsert(3, b));
  EXPECT_EQ(index.size(), 1u);
  // The index serves the slot at its new position, not the old one.
  std::vector<std::size_t> candidates;
  index.Candidates(b, 0.1, &candidates);
  EXPECT_EQ(candidates, std::vector<std::size_t>{3});
  candidates.clear();
  index.Candidates(a, 0.1, &candidates);
  for (const std::size_t slot : candidates) {
    EXPECT_GT(Dist2(b, a), 0.0);  // superset may still include it...
    EXPECT_EQ(slot, 3u);          // ...but never anything else
  }
}

TEST(CorrelationIndexTest, EraseFreesSlotsAndIgnoresDeadOnes) {
  CorrelationIndex index(2, 1.0);
  const Point a{0.0, 0.0};
  const Point b{0.25, 0.25};
  ASSERT_TRUE(index.Upsert(0, a));
  ASSERT_TRUE(index.Upsert(1, b));
  index.Erase(0);
  EXPECT_EQ(index.size(), 1u);
  std::vector<std::size_t> candidates;
  index.Candidates(a, 10.0, &candidates);
  EXPECT_EQ(candidates, std::vector<std::size_t>{1});
  index.Erase(0);  // already dead: no-op
  index.Erase(7);  // never lived: no-op
  EXPECT_EQ(index.size(), 1u);
  // A freed slot id can be reused.
  EXPECT_TRUE(index.Upsert(0, b));
  candidates.clear();
  index.Candidates(b, 0.01, &candidates);
  std::sort(candidates.begin(), candidates.end());
  EXPECT_EQ(candidates, (std::vector<std::size_t>{0, 1}));
}

// A radius spanning vastly more cells than are occupied must take the
// occupied-cell sweep instead of enumerating the neighbor block — and
// still return everything.
TEST(CorrelationIndexTest, GridWideRadiusSweepsOccupiedCells) {
  constexpr std::size_t kDims = 4;
  CorrelationIndex index(kDims, /*cell=*/0.125);
  std::mt19937 rng(11);
  std::vector<Point> points;
  for (std::size_t i = 0; i < 64; ++i) {
    points.push_back(RandomPoint(&rng, kDims, 100.0));
    ASSERT_TRUE(index.Upsert(i, points.back()));
  }
  std::vector<std::size_t> candidates;
  index.Candidates(Point(kDims, 0.0), /*radius=*/1000.0, &candidates);
  EXPECT_EQ(candidates.size(), points.size());
}

// Coordinates beyond the quantized range clamp to the boundary cell;
// clamping is monotone, so far-out points and far-out queries land in
// the same cells and the superset contract survives.
TEST(CorrelationIndexTest, GridClampsExtremeCoordinatesSoundly) {
  CorrelationIndex index(2, /*cell=*/1.0);
  const Point far_out{1e12, -1e12};
  const Point near_origin{0.0, 0.0};
  ASSERT_TRUE(index.Upsert(0, far_out));
  ASSERT_TRUE(index.Upsert(1, near_origin));
  std::vector<std::size_t> candidates;
  index.Candidates(Point{9e11, -9e11}, /*radius=*/2.0, &candidates);
  // Exact verification happens downstream; here the far-out point MUST
  // appear (both clamp to the boundary cell) even though the true
  // distance exceeds the radius.
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0u),
            candidates.end());
}

}  // namespace
}  // namespace stardust
