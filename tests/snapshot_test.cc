#include "core/snapshot.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "core/pattern_query.h"
#include "fixture_bytes.h"
#include "stream/random_walk.h"

namespace stardust {
namespace {

StardustConfig IndexedDwtConfig() {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = 4;
  config.r_max = 110.0;
  config.base_window = 16;
  config.num_levels = 4;
  config.history = 256;
  config.box_capacity = 4;
  config.update_period = 1;
  config.index_features = true;
  return config;
}

StardustConfig AggregateConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSpread;
  config.base_window = 10;
  config.num_levels = 4;
  config.history = 160;
  config.box_capacity = 3;
  config.update_period = 1;
  return config;
}

std::unique_ptr<Stardust> BuildAndFeed(const StardustConfig& config,
                                       std::size_t streams,
                                       std::size_t length,
                                       std::uint64_t seed) {
  auto core = std::move(Stardust::Create(config)).value();
  for (std::size_t i = 0; i < streams; ++i) {
    const StreamId id = core->AddStream();
    RandomWalkSource source(seed + i);
    for (std::size_t t = 0; t < length; ++t) {
      EXPECT_TRUE(core->Append(id, source.Next()).ok());
    }
  }
  return core;
}

void ExpectSameState(const Stardust& a, const Stardust& b) {
  ASSERT_EQ(a.num_streams(), b.num_streams());
  for (StreamId s = 0; s < a.num_streams(); ++s) {
    const StreamSummarizer& sa = a.summarizer(s);
    const StreamSummarizer& sb = b.summarizer(s);
    ASSERT_EQ(sa.now(), sb.now());
    ASSERT_EQ(sa.TotalBoxCount(), sb.TotalBoxCount());
    for (std::size_t j = 0; j < a.config().num_levels; ++j) {
      std::vector<FeatureBox> boxes_a, boxes_b;
      sa.thread(j).ForEachBox(
          [&](const FeatureBox& box) { boxes_a.push_back(box); });
      sb.thread(j).ForEachBox(
          [&](const FeatureBox& box) { boxes_b.push_back(box); });
      ASSERT_EQ(boxes_a.size(), boxes_b.size());
      for (std::size_t i = 0; i < boxes_a.size(); ++i) {
        EXPECT_TRUE(boxes_a[i].extent == boxes_b[i].extent);
        EXPECT_EQ(boxes_a[i].first_time, boxes_b[i].first_time);
        EXPECT_EQ(boxes_a[i].count, boxes_b[i].count);
        EXPECT_EQ(boxes_a[i].seq, boxes_b[i].seq);
        EXPECT_EQ(boxes_a[i].sealed, boxes_b[i].sealed);
      }
    }
  }
  if (a.config().index_features) {
    for (std::size_t j = 0; j < a.config().num_levels; ++j) {
      EXPECT_EQ(a.index(j).size(), b.index(j).size());
      EXPECT_TRUE(b.index(j).CheckInvariants().ok());
    }
  }
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  auto original = BuildAndFeed(IndexedDwtConfig(), 3, 500, 1);
  const std::string bytes = SerializeSnapshot(*original);
  Result<std::unique_ptr<Stardust>> restored = DeserializeSnapshot(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameState(*original, *restored.value());
}

TEST(SnapshotTest, AggregateRoundTrip) {
  auto original = BuildAndFeed(AggregateConfig(), 2, 300, 2);
  Result<std::unique_ptr<Stardust>> restored =
      DeserializeSnapshot(SerializeSnapshot(*original));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameState(*original, *restored.value());
  // Intervals answered identically.
  for (std::size_t w : {10u, 30u, 70u}) {
    const auto ia = original->AggregateInterval(0, w);
    const auto ib = restored.value()->AggregateInterval(0, w);
    ASSERT_TRUE(ia.ok());
    ASSERT_TRUE(ib.ok());
    EXPECT_EQ(ia.value().lo, ib.value().lo);
    EXPECT_EQ(ia.value().hi, ib.value().hi);
  }
}

// The strongest property: a restored instance, fed the same continuation,
// stays bit-identical to the uninterrupted original — queries included.
TEST(SnapshotTest, ContinuationIsBitExact) {
  const StardustConfig config = IndexedDwtConfig();
  auto original = BuildAndFeed(config, 2, 300, 3);
  Result<std::unique_ptr<Stardust>> restored =
      DeserializeSnapshot(SerializeSnapshot(*original));
  ASSERT_TRUE(restored.ok());
  // Continue both with the same 250 further values per stream.
  std::vector<RandomWalkSource> sources{RandomWalkSource(91),
                                        RandomWalkSource(92)};
  for (int t = 0; t < 250; ++t) {
    for (StreamId s = 0; s < 2; ++s) {
      const double v = sources[s].Next();
      ASSERT_TRUE(original->Append(s, v).ok());
      ASSERT_TRUE(restored.value()->Append(s, v).ok());
    }
  }
  ExpectSameState(*original, *restored.value());
  // Identical pattern answers.
  PatternQueryEngine engine_a(*original);
  PatternQueryEngine engine_b(*restored.value());
  RandomWalkSource query_source(99);
  const std::vector<double> query = query_source.Take(48);
  const auto ra = engine_a.QueryOnline(query, 0.05);
  const auto rb = engine_b.QueryOnline(query, 0.05);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value().candidates, rb.value().candidates);
  ASSERT_EQ(ra.value().matches.size(), rb.value().matches.size());
  for (std::size_t i = 0; i < ra.value().matches.size(); ++i) {
    EXPECT_EQ(ra.value().matches[i].stream, rb.value().matches[i].stream);
    EXPECT_EQ(ra.value().matches[i].end_time,
              rb.value().matches[i].end_time);
    EXPECT_EQ(ra.value().matches[i].distance,
              rb.value().matches[i].distance);
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  auto original = BuildAndFeed(AggregateConfig(), 1, 200, 4);
  const std::string path =
      ::testing::TempDir() + "/stardust_snapshot_test.bin";
  ASSERT_TRUE(SaveSnapshot(*original, path).ok());
  Result<std::unique_ptr<Stardust>> restored = LoadSnapshot(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameState(*original, *restored.value());
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeSnapshot("").ok());
  EXPECT_FALSE(DeserializeSnapshot("not a snapshot at all").ok());
  EXPECT_FALSE(LoadSnapshot("/no/such/snapshot.bin").ok());
}

TEST(SnapshotTest, RejectsTruncation) {
  auto original = BuildAndFeed(AggregateConfig(), 1, 150, 5);
  const std::string bytes = SerializeSnapshot(*original);
  for (std::size_t keep :
       {bytes.size() / 4, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(DeserializeSnapshot(bytes.substr(0, keep)).ok())
        << "kept " << keep << " of " << bytes.size();
  }
}

TEST(SnapshotTest, RejectsBitFlips) {
  auto original = BuildAndFeed(AggregateConfig(), 1, 150, 6);
  const std::string bytes = SerializeSnapshot(*original);
  // Flip a byte in the payload region (past magic+version+checksum).
  for (std::size_t pos : {std::size_t{20}, bytes.size() / 2, bytes.size() - 3}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    EXPECT_FALSE(DeserializeSnapshot(corrupt).ok()) << "pos " << pos;
  }
}

TEST(SnapshotTest, RejectsTrailingBytes) {
  auto original = BuildAndFeed(AggregateConfig(), 1, 150, 7);
  std::string bytes = SerializeSnapshot(*original);
  bytes += '\0';
  EXPECT_FALSE(DeserializeSnapshot(bytes).ok());
}

// Regression: the header's declared stream count used to be trusted up to
// 2^32 before any payload-size check, so 8 corrupt bytes could drive a
// multi-gigabyte restore loop. The count is now bounded by the remaining
// payload bytes.
TEST(SnapshotTest, RejectsHugeDeclaredStreamCount) {
  // An empty instance: num_streams is the final 8 payload bytes.
  auto core = std::move(Stardust::Create(AggregateConfig())).value();
  const std::string bytes = SerializeSnapshot(*core);
  ASSERT_TRUE(DeserializeSnapshot(bytes).ok());
  const std::string payload = bytes.substr(16);  // magic+version+checksum
  for (const std::uint64_t huge :
       {std::uint64_t{1} << 33, std::uint64_t{1000000},
        std::uint64_t{1} << 20}) {
    std::string patched = payload;
    for (int i = 0; i < 8; ++i) {
      patched[patched.size() - 8 + static_cast<std::size_t>(i)] =
          static_cast<char>(huge >> (8 * i));
    }
    // Rebuild a checksum-valid envelope so only the count bound can
    // reject it.
    Writer envelope;
    envelope.Bytes("SDSN", 4);
    envelope.U32(1);
    envelope.U64(Fnv1a(patched));
    envelope.Bytes(patched.data(), patched.size());
    Result<std::unique_ptr<Stardust>> restored =
        DeserializeSnapshot(envelope.buffer());
    ASSERT_FALSE(restored.ok()) << "count " << huge;
    EXPECT_NE(restored.status().message().find("stream count"),
              std::string::npos)
        << restored.status().ToString();
  }
}

// ---------------------------------------------------------------------
// v2 fleet snapshots
// ---------------------------------------------------------------------

std::vector<WindowThreshold> FleetThresholds() {
  return {{10, 4.0}, {20, 6.0}, {40, 9.0}};
}

std::unique_ptr<FleetAggregateMonitor> BuildFleet(std::size_t streams,
                                                  std::size_t length,
                                                  std::uint64_t seed) {
  auto fleet = std::move(FleetAggregateMonitor::Create(
                             AggregateConfig(), FleetThresholds(), streams))
                   .value();
  std::vector<RandomWalkSource> sources;
  for (std::size_t s = 0; s < streams; ++s) {
    sources.emplace_back(seed + s);
  }
  for (std::size_t t = 0; t < length; ++t) {
    for (StreamId s = 0; s < streams; ++s) {
      EXPECT_TRUE(fleet->Append(s, sources[s].Next()).ok());
    }
  }
  return fleet;
}

void ExpectSameFleet(const FleetAggregateMonitor& a,
                     const FleetAggregateMonitor& b) {
  ASSERT_EQ(a.num_streams(), b.num_streams());
  ASSERT_EQ(a.num_windows(), b.num_windows());
  for (StreamId s = 0; s < a.num_streams(); ++s) {
    EXPECT_EQ(b.AppendCount(s), a.AppendCount(s)) << "stream " << s;
    for (std::size_t w = 0; w < a.num_windows(); ++w) {
      const AlarmStats& want = a.stats(s, w);
      const AlarmStats& got = b.stats(s, w);
      EXPECT_EQ(got.candidates, want.candidates) << s << "/" << w;
      EXPECT_EQ(got.true_alarms, want.true_alarms) << s << "/" << w;
      EXPECT_EQ(got.checks, want.checks) << s << "/" << w;
    }
  }
  for (std::size_t w = 0; w < a.num_windows(); ++w) {
    auto want = a.CurrentlyAlarming(w);
    auto got = b.CurrentlyAlarming(w);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), want.value()) << "window " << w;
  }
}

TEST(FleetSnapshotTest, RoundTripPreservesMonitoringState) {
  auto original = BuildFleet(3, 400, 10);
  Result<std::unique_ptr<FleetAggregateMonitor>> restored =
      DeserializeFleetSnapshot(SerializeFleetSnapshot(*original));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameFleet(*original, *restored.value());
}

// Restore + identical continuation == uninterrupted run, including the
// alarm counters and currently-alarming sets along the way.
TEST(FleetSnapshotTest, ContinuationIsBitExact) {
  auto original = BuildFleet(3, 350, 20);
  Result<std::unique_ptr<FleetAggregateMonitor>> restored =
      DeserializeFleetSnapshot(SerializeFleetSnapshot(*original));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::vector<RandomWalkSource> sources{RandomWalkSource(71),
                                        RandomWalkSource(72),
                                        RandomWalkSource(73)};
  for (int t = 0; t < 300; ++t) {
    for (StreamId s = 0; s < 3; ++s) {
      const double v = sources[s].Next();
      ASSERT_TRUE(original->Append(s, v).ok());
      ASSERT_TRUE(restored.value()->Append(s, v).ok());
    }
    if (t % 50 == 0) {
      ExpectSameFleet(*original, *restored.value());
    }
  }
  ExpectSameFleet(*original, *restored.value());
}

// Randomized shapes and histories: every configuration must round-trip
// and continue exactly.
TEST(FleetSnapshotTest, RandomizedConfigsRoundTrip) {
  Rng rng(2026);
  const std::vector<std::size_t> window_pool{10, 20, 40, 80};
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t streams = 1 + rng.NextUint64(4);
    std::vector<WindowThreshold> thresholds;
    for (std::size_t w : window_pool) {
      if (thresholds.empty() || rng.NextUint64(2) == 0) {
        thresholds.push_back(
            {w, rng.NextDouble(2.0, 12.0)});
      }
    }
    auto fleet = std::move(FleetAggregateMonitor::Create(
                               AggregateConfig(), thresholds, streams))
                     .value();
    const std::size_t length = 50 + rng.NextUint64(350);
    for (std::size_t t = 0; t < length; ++t) {
      for (StreamId s = 0; s < streams; ++s) {
        ASSERT_TRUE(fleet->Append(s, rng.NextDouble(-10.0, 10.0)).ok());
      }
    }
    Result<std::unique_ptr<FleetAggregateMonitor>> restored =
        DeserializeFleetSnapshot(SerializeFleetSnapshot(*fleet));
    ASSERT_TRUE(restored.ok())
        << "trial " << trial << ": " << restored.status().ToString();
    ExpectSameFleet(*fleet, *restored.value());
    for (int t = 0; t < 100; ++t) {
      for (StreamId s = 0; s < streams; ++s) {
        const double v = rng.NextDouble(-10.0, 10.0);
        ASSERT_TRUE(fleet->Append(s, v).ok());
        ASSERT_TRUE(restored.value()->Append(s, v).ok());
      }
    }
    ExpectSameFleet(*fleet, *restored.value());
  }
}

TEST(FleetSnapshotTest, RejectsCorruption) {
  auto original = BuildFleet(2, 200, 30);
  const std::string bytes = SerializeFleetSnapshot(*original);
  EXPECT_FALSE(DeserializeFleetSnapshot("").ok());
  EXPECT_FALSE(
      DeserializeFleetSnapshot(bytes.substr(0, bytes.size() / 2)).ok());
  std::string trailing = bytes;
  trailing += '\0';
  EXPECT_FALSE(DeserializeFleetSnapshot(trailing).ok());
  for (std::size_t pos :
       {std::size_t{20}, bytes.size() / 2, bytes.size() - 3}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    EXPECT_FALSE(DeserializeFleetSnapshot(corrupt).ok()) << "pos " << pos;
  }
}

// Loading the wrong version through the wrong entry point fails with a
// message that names the right one.
TEST(FleetSnapshotTest, CrossVersionLoadsGivePointedErrors) {
  auto stardust = BuildAndFeed(AggregateConfig(), 1, 100, 40);
  auto fleet = BuildFleet(2, 100, 41);
  const std::string v1 = SerializeSnapshot(*stardust);
  const std::string v2 = SerializeFleetSnapshot(*fleet);

  Result<std::unique_ptr<FleetAggregateMonitor>> v1_as_fleet =
      DeserializeFleetSnapshot(v1);
  ASSERT_FALSE(v1_as_fleet.ok());
  EXPECT_NE(v1_as_fleet.status().message().find("LoadSnapshot"),
            std::string::npos)
      << v1_as_fleet.status().ToString();

  Result<std::unique_ptr<Stardust>> v2_as_stardust = DeserializeSnapshot(v2);
  ASSERT_FALSE(v2_as_stardust.ok());
  EXPECT_NE(v2_as_stardust.status().message().find("LoadFleetSnapshot"),
            std::string::npos)
      << v2_as_stardust.status().ToString();
}

TEST(FleetSnapshotTest, FileRoundTripAndCrashKeepsOldFile) {
  const std::string path =
      ::testing::TempDir() + "/stardust_fleet_snapshot_test.bin";
  std::remove(path.c_str());
  auto state_a = BuildFleet(2, 250, 50);
  ASSERT_TRUE(SaveFleetSnapshot(*state_a, path).ok());

  // A crash during a later save must leave the first snapshot loadable.
  auto state_b = BuildFleet(2, 500, 51);
  SetAtomicFileHookForTest([](AtomicWritePhase phase, const std::string&) {
    return phase != AtomicWritePhase::kBeforeRename;
  });
  EXPECT_FALSE(SaveFleetSnapshot(*state_b, path).ok());
  SetAtomicFileHookForTest(nullptr);

  Result<std::unique_ptr<FleetAggregateMonitor>> loaded =
      LoadFleetSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameFleet(*state_a, *loaded.value());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------
// Frozen format
// ---------------------------------------------------------------------

// Frozen bytes of a v1 snapshot, the current format of the bare-Stardust
// snapshot kind ("v2" tags the fleet kind): AggregateConfig(), one stream,
// thirty values of (t % 7) * 1.5 - 3.0. Generated once from the serializer
// and embedded so that any accidental change to the on-disk format (or to
// the restore path) breaks this test rather than silently orphaning
// users' existing snapshot files.
constexpr const char* kV1FixtureHex =
    "5344534e0100000059019322f5b732e600030102000000000000000000000000"
    "00f03f0a000000000000000400000000000000a0000000000000000300000000"
    "000000010000000000000000000001000000000000001e000000000000001e00"
    "00000000000000000000000008c0000000000000f8bf00000000000000000000"
    "00000000f83f0000000000000840000000000000124000000000000018400000"
    "0000000008c0000000000000f8bf0000000000000000000000000000f83f0000"
    "0000000008400000000000001240000000000000184000000000000008c00000"
    "00000000f8bf0000000000000000000000000000f83f00000000000008400000"
    "000000001240000000000000184000000000000008c0000000000000f8bf0000"
    "000000000000000000000000f83f000000000000084000000000000012400000"
    "00000000184000000000000008c0000000000000f8bf04000000000000000200"
    "0000000000000300000000000000010000000000000001090000000000000007"
    "0000000000000007000000000000000200000000000000000000000000184000"
    "000000000008c00200000000000000000000000000184000000000000008c009"
    "0000000000000003000000000000000000000001020000000000000000000000"
    "0000184000000000000008c00200000000000000000000000000184000000000"
    "000008c00c000000000000000300000001000000000000000102000000000000"
    "00000000000000184000000000000008c0020000000000000000000000000018"
    "4000000000000008c00f00000000000000030000000200000000000000010200"
    "000000000000000000000000184000000000000008c002000000000000000000"
    "00000000184000000000000008c0120000000000000003000000030000000000"
    "0000010200000000000000000000000000184000000000000008c00200000000"
    "000000000000000000184000000000000008c015000000000000000300000004"
    "00000000000000010200000000000000000000000000184000000000000008c0"
    "0200000000000000000000000000184000000000000008c01800000000000000"
    "0300000005000000000000000102000000000000000000000000001840000000"
    "00000008c00200000000000000000000000000184000000000000008c01b0000"
    "0000000000030000000600000000000000010200000000000000030000000000"
    "0000010000000000000001130000000000000004000000000000000400000000"
    "0000000200000000000000000000000000184000000000000008c00200000000"
    "000000000000000000184000000000000008c013000000000000000300000000"
    "00000000000000010200000000000000000000000000184000000000000008c0"
    "0200000000000000000000000000184000000000000008c01600000000000000"
    "0300000001000000000000000102000000000000000000000000001840000000"
    "00000008c00200000000000000000000000000184000000000000008c0190000"
    "0000000000030000000200000000000000010200000000000000000000000000"
    "184000000000000008c002000000000000000000000000001840000000000000"
    "08c01c0000000000000002000000030000000000000000020000000000000003"
    "0000000000000001000000000000000000000000000000000000000000000000"
    "0000000000000000020000000000000003000000000000000100000000000000"
    "00000000000000000000000000000000000000000000000000";

TEST(SnapshotTest, V1FixtureStaysLoadable) {
  const std::string bytes = FromHex(kV1FixtureHex);
  ASSERT_EQ(bytes.size(), 1305u);
  Result<std::unique_ptr<Stardust>> restored = DeserializeSnapshot(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // Rebuild the fixture state live; the restored instance must match it
  // exactly — and keep matching through a continuation.
  auto expected = std::move(Stardust::Create(AggregateConfig())).value();
  const StreamId id = expected->AddStream();
  for (int t = 0; t < 30; ++t) {
    ASSERT_TRUE(expected->Append(id, (t % 7) * 1.5 - 3.0).ok());
  }
  ExpectSameState(*expected, *restored.value());
  for (int t = 30; t < 120; ++t) {
    const double v = (t % 7) * 1.5 - 3.0;
    ASSERT_TRUE(expected->Append(id, v).ok());
    ASSERT_TRUE(restored.value()->Append(id, v).ok());
  }
  ExpectSameState(*expected, *restored.value());
}

}  // namespace
}  // namespace stardust
