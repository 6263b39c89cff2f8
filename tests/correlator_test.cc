// Correlator regression + equivalence suite (src/engine correlator over
// src/query/correlation_index):
//  - golden equivalence: at every shard count the correlator emits
//    exactly the alerts of an independent all-pairs reference, which
//    scans the workload's own values (ScanCorrelatedPairs) on a
//    deterministic workload with rising-edge churn;
//  - alert conservation under query register/unregister churn across
//    1/2/4 shards;
//  - fault-injection: a failed level group is retried (alerts delayed,
//    never dropped), later groups still evaluate, correlator_errors
//    counts it;
//  - expire-then-recorrelate: a pair whose features expire re-alerts
//    when it correlates again (the active set is not left stale);
//  - round accounting: correlator_rounds counts once per round however
//    many levels evaluate, per-level counts in correlator_level_evals.
//
// All tests drive rounds synchronously with TriggerCorrelatorRound and
// an effectively-infinite correlator_period_ms, so every engine sees the
// same round boundaries and the alert sets are exactly comparable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/linear_scan.h"
#include "engine/engine.h"
#include "geom/mbr.h"
#include "query/sinks.h"
#include "stream/dataset.h"
#include "stream/threshold.h"
#include "transform/feature.h"

namespace stardust {
namespace {

// Fleet (aggregate) configuration; thresholds far out of reach so only
// the registered queries alert.
StardustConfig FleetConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 10;
  config.num_levels = 2;
  config.history = 200;
  config.box_capacity = 2;
  config.update_period = 1;
  return config;
}

// Batch z-normalized DWT correlation core (T == W, c == 1): levels 0 and
// 1 monitor windows 8 and 16 at aligned times every 8 values.
StardustConfig CorrelationCore(std::size_t history) {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kZNorm;
  config.coefficients = 4;
  config.base_window = 8;
  config.num_levels = 2;
  config.history = history;
  config.box_capacity = 1;
  config.update_period = 8;
  return config;
}

EngineConfig CorrelatorEngineConfig(std::size_t shards) {
  EngineConfig econfig;
  econfig.num_shards = shards;
  econfig.query.enable_correlation = true;
  econfig.query.correlation = CorrelationCore(1024);
  // The background thread must never race a triggered round.
  econfig.query.correlator_period_ms = 3600000;
  return econfig;
}

// Deterministic per-(stream, time) workload, identical for every engine:
//  - streams 0 and 1 share a sine wave, except stream 1 deviates hard on
//    t in [64, 128) -> the pair alerts, drops out, and re-alerts;
//  - streams 2 and 3 share a slower wave throughout -> one alert;
//  - streams 4..7 are deterministic pseudo-noise at distinct frequencies;
//  - streams 8..15 (a sawtooth) and 16..23 (a triangle wave) are two
//    clusters of noisy copies. Their pairs correlate without sharing a
//    feature point, so they spread over neighbouring grid cells, and
//    some drift in and out of the radius between rounds.
double WorkloadValue(StreamId s, std::uint64_t t) {
  const double x = static_cast<double>(t);
  switch (s) {
    case 0:
      return std::sin(0.37 * x);
    case 1:
      return std::sin(0.37 * x) +
             ((t >= 64 && t < 128) ? 5.0 * std::sin(3.1 * x) : 0.0);
    case 2:
    case 3:
      return std::sin(0.11 * x + 1.0);
    default:
      if (s >= 8) {
        const double k = static_cast<double>(s % 8);
        const double base =
            s < 16 ? static_cast<double>(t % 11) / 5.0 - 1.0
                   : std::abs(static_cast<double>(t % 13) - 6.5) / 3.25 - 1.0;
        return base + 0.12 * std::sin((1.3 + 0.4 * k) * x + k);
      }
      return std::sin((0.53 + 0.17 * static_cast<double>(s)) * x) +
             0.3 * std::sin(1.9 * x + static_cast<double>(s));
  }
}

// Canonical, order-independent view of a correlation alert. `value` is
// the exact verified window distance — identical across shard counts
// because every engine computes it from the same z-normed windows.
using AlertKey = std::tuple<QueryId, StreamId, StreamId, std::size_t,
                            std::uint64_t, std::uint64_t, std::int64_t>;

std::multiset<AlertKey> CorrelationAlertSet(const std::vector<Alert>& alerts) {
  std::multiset<AlertKey> out;
  for (const Alert& alert : alerts) {
    if (alert.kind != QueryKind::kCorrelation) continue;
    out.insert({alert.query, alert.stream, alert.stream_b, alert.window,
                alert.end_time, alert.epoch,
                static_cast<std::int64_t>(std::llround(alert.value * 1e9))});
  }
  return out;
}

// The golden workload: 24 streams, 6 phases of 32 values per stream, one
// synchronous correlator round after each phase.
constexpr std::size_t kGoldenStreams = 24;
constexpr std::size_t kGoldenPhases = 6;
constexpr std::uint64_t kStepsPerPhase = 32;

// A correlation query of the golden workload: its radius, its level (as
// registered), and the phases whose rounds evaluate it, [from, until).
struct GoldenQuery {
  double radius = 0.0;
  std::size_t level = kTopLevel;
  std::size_t from = 0;
  std::size_t until = kGoldenPhases;
};

// The main query at the top level for the whole run, and a decoy at
// level 0 registered after phase 2's round and unregistered after phase
// 4's, so the plan changes mid-run and a level group comes and goes.
const std::vector<GoldenQuery>& GoldenQueries() {
  static const std::vector<GoldenQuery> queries = {
      {0.3, kTopLevel, 0, kGoldenPhases}, {0.6, 0, 3, 5}};
  return queries;
}

// One correlation alert, with the exact part of its key apart from the
// distance (compared within 1e-9).
struct CorrelationHit {
  std::tuple<QueryId, StreamId, StreamId, std::size_t, std::uint64_t,
             std::uint64_t>
      key;
  double value = 0.0;

  bool operator<(const CorrelationHit& other) const { return key < other.key; }
};

std::vector<CorrelationHit> SortedHits(const std::vector<Alert>& alerts) {
  std::vector<CorrelationHit> out;
  for (const Alert& alert : alerts) {
    if (alert.kind != QueryKind::kCorrelation) continue;
    out.push_back({{alert.query, alert.stream, alert.stream_b, alert.window,
                    alert.end_time, alert.epoch},
                   alert.value});
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Runs the golden workload on an engine with `shards` shards and returns
// its correlation alerts, sorted, plus the ids GoldenQueries() got.
std::vector<CorrelationHit> RunGoldenWorkload(std::size_t shards,
                                              std::vector<QueryId>* ids) {
  auto engine = std::move(IngestEngine::Create(FleetConfig(), {},
                                               kGoldenStreams,
                                               CorrelatorEngineConfig(shards)))
                    .value();
  auto ring = std::make_shared<RingSink>();
  engine->alerts().AddSink(ring);
  const std::vector<GoldenQuery>& queries = GoldenQueries();
  ids->assign(queries.size(), kInvalidQueryId);
  std::uint64_t t = 0;
  for (std::size_t phase = 0; phase < kGoldenPhases; ++phase) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].from == phase) {
        (*ids)[i] = std::move(engine->RegisterQuery(QuerySpec::Correlation(
                                  queries[i].radius, queries[i].level)))
                        .value();
      }
    }
    for (std::uint64_t step = 0; step < kStepsPerPhase; ++step, ++t) {
      for (StreamId s = 0; s < kGoldenStreams; ++s) {
        EXPECT_TRUE(engine->Post(s, WorkloadValue(s, t)).ok());
      }
    }
    EXPECT_TRUE(engine->Flush().ok());
    engine->TriggerCorrelatorRound();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].until == phase + 1) {
        EXPECT_TRUE(engine->UnregisterQuery((*ids)[i]).ok());
      }
    }
  }
  EXPECT_TRUE(engine->Stop().ok());
  // Stop drains the alert log: everything published reached the sink.
  EXPECT_EQ(engine->alerts().published(), engine->alerts().delivered());
  return SortedHits(ring->Snapshot());
}

// The all-pairs reference, independent of the engine's gather, alignment
// and feature store: it reads the workload's values directly. Every
// phase ends on a multiple of both level windows, so each round evaluates
// every live query at the phase's last position t, and the round counter
// (alert epoch) counts phases from 1. Per query it scans the z-normalized
// windows ending at t (ScanCorrelatedPairs) and alerts on rising edges
// against that query's previous round.
std::vector<CorrelationHit> ReferenceHits(const std::vector<QueryId>& ids) {
  const StardustConfig core = CorrelationCore(1024);
  const std::vector<GoldenQuery>& queries = GoldenQueries();
  std::vector<std::set<std::pair<std::uint32_t, std::uint32_t>>> previous(
      queries.size());
  std::vector<CorrelationHit> out;
  for (std::size_t phase = 0; phase < kGoldenPhases; ++phase) {
    const std::uint64_t t = (phase + 1) * kStepsPerPhase - 1;
    const std::uint64_t epoch = phase + 1;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const GoldenQuery& query = queries[i];
      if (phase < query.from || phase >= query.until) continue;
      const std::size_t window = core.LevelWindow(
          query.level == kTopLevel ? core.num_levels - 1 : query.level);
      Dataset windows;
      for (StreamId s = 0; s < kGoldenStreams; ++s) {
        std::vector<double> values;
        for (std::uint64_t x = t + 1 - window; x <= t; ++x) {
          values.push_back(WorkloadValue(s, x));
        }
        windows.streams.push_back(std::move(values));
      }
      std::set<std::pair<std::uint32_t, std::uint32_t>> current;
      for (const auto& pair :
           ScanCorrelatedPairs(windows, window, query.radius)) {
        current.insert(pair);
        if (previous[i].count(pair) != 0) continue;  // still correlated
        const double value =
            std::sqrt(Dist2(ZNormalize(windows.streams[pair.first]),
                            ZNormalize(windows.streams[pair.second])));
        out.push_back(
            {{ids[i], pair.first, pair.second, window, t, epoch}, value});
      }
      previous[i] = std::move(current);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameHits(const std::vector<CorrelationHit>& got,
                    const std::vector<CorrelationHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "alert " << i;
    EXPECT_NEAR(got[i].value, want[i].value, 1e-9) << "alert " << i;
  }
}

// The correlator emits exactly the reference's alerts at every shard
// count, under plan churn.
TEST(CorrelatorEquivalenceTest, GoldenAlertSetsMatchAllPairsEverywhere) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    std::vector<QueryId> ids;
    const std::vector<CorrelationHit> engine_hits =
        RunGoldenWorkload(shards, &ids);
    const std::vector<CorrelationHit> reference = ReferenceHits(ids);
    // The workload's rising-edge plan: pair (0,1) alerts, deviates out of
    // the radius, and re-alerts; pair (2,3) alerts once; pairs alert only
    // inside a cluster.
    std::multiset<std::pair<StreamId, StreamId>> pairs;
    for (const CorrelationHit& hit : reference) {
      pairs.emplace(std::get<1>(hit.key), std::get<2>(hit.key));
    }
    EXPECT_GE(pairs.count({0, 1}), 2u) << "pair (0,1) never re-alerted";
    EXPECT_GE(pairs.count({2, 3}), 1u);
    EXPECT_GE(pairs.count({8, 9}), 1u);
    EXPECT_GE(pairs.count({16, 17}), 1u);
    for (const auto& pair : pairs) {
      const bool planted = (pair.first == 0 && pair.second == 1) ||
                           (pair.first == 2 && pair.second == 3) ||
                           (pair.first >= 8 && pair.second < 16) ||
                           pair.first >= 16;
      EXPECT_TRUE(planted) << "spurious pair (" << pair.first << ", "
                           << pair.second << ")";
    }
    ExpectSameHits(engine_hits, reference);
  }
}

// Alert conservation under heavier registry churn: re-registering and
// dropping decoy queries every phase must never lose or duplicate the
// planted pairs' alerts, at any shard count, on the indexed path.
TEST(CorrelatorStressTest, ChurnConservesAlertsAcrossShardCounts) {
  constexpr std::size_t kStreams = 8;
  constexpr std::uint64_t kStepsPerPhase = 32;
  constexpr std::size_t kPhases = 6;
  std::multiset<AlertKey> reference;
  bool have_reference = false;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    auto engine = std::move(IngestEngine::Create(
                                FleetConfig(), {}, kStreams,
                                CorrelatorEngineConfig(shards)))
                      .value();
    auto ring = std::make_shared<RingSink>();
    engine->alerts().AddSink(ring);
    const QueryId main_id =
        std::move(engine->RegisterQuery(QuerySpec::Correlation(0.3))).value();
    QueryId decoy = kInvalidQueryId;
    std::uint64_t t = 0;
    for (std::size_t phase = 0; phase < kPhases; ++phase) {
      // Register/unregister churn on every phase boundary: a correlation
      // decoy (forces plan + index-cell changes) and an aggregate decoy.
      if (decoy != kInvalidQueryId) {
        ASSERT_TRUE(engine->UnregisterQuery(decoy).ok());
      }
      decoy = std::move(engine->RegisterQuery(QuerySpec::Correlation(
                            0.4 + 0.05 * static_cast<double>(phase), 0)))
                  .value();
      const QueryId agg =
          std::move(engine->RegisterQuery(QuerySpec::Aggregate(10, 1e12)))
              .value();
      for (std::uint64_t step = 0; step < kStepsPerPhase; ++step, ++t) {
        for (StreamId s = 0; s < kStreams; ++s) {
          ASSERT_TRUE(engine->Post(s, WorkloadValue(s, t)).ok());
        }
      }
      ASSERT_TRUE(engine->Flush().ok());
      engine->TriggerCorrelatorRound();
      ASSERT_TRUE(engine->UnregisterQuery(agg).ok());
    }
    ASSERT_TRUE(engine->Stop().ok());
    // Only the stable main query is comparable across shard counts.
    std::vector<Alert> main_alerts;
    for (const Alert& alert : ring->Snapshot()) {
      if (alert.query == main_id) main_alerts.push_back(alert);
    }
    for (const Alert& alert : main_alerts) {
      const auto pair = std::minmax(alert.stream, alert.stream_b);
      const bool planted = (pair.first == 0 && pair.second == 1) ||
                           (pair.first == 2 && pair.second == 3);
      EXPECT_TRUE(planted) << "spurious pair at " << shards << " shards";
    }
    const std::multiset<AlertKey> alerts = CorrelationAlertSet(main_alerts);
    EXPECT_FALSE(alerts.empty());
    if (!have_reference) {
      reference = alerts;
      have_reference = true;
    } else {
      EXPECT_EQ(alerts, reference) << shards << " shards";
    }
  }
}

// Waits until the ring holds `count` correlation alerts for `query` (the
// log delivers asynchronously even for synchronous rounds).
std::vector<Alert> AwaitCorrelationAlerts(const RingSink& ring, QueryId query,
                                          std::size_t count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::vector<Alert> hits;
  for (;;) {
    hits.clear();
    for (const Alert& alert : ring.Snapshot()) {
      if (alert.kind == QueryKind::kCorrelation && alert.query == query) {
        hits.push_back(alert);
      }
    }
    if (hits.size() >= count || std::chrono::steady_clock::now() >= deadline) {
      return hits;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Satellite regression: a transient gather failure on one level group
// must not stamp the round time (the round retries and its alerts arrive
// late instead of never), must not abort the remaining groups, and is
// counted in correlator_errors.
TEST(CorrelatorFaultTest, FailedLevelGroupRetriesWithoutLosingAlerts) {
  constexpr std::size_t kStreams = 2;
  EngineConfig econfig = CorrelatorEngineConfig(1);
  std::atomic<bool> fail_level0{false};
  econfig.correlator_fault_hook = [&fail_level0](std::size_t level) {
    return level == 0 && fail_level0.load();
  };
  auto engine = std::move(IngestEngine::Create(FleetConfig(),
                                               {}, kStreams,
                                               econfig))
                    .value();
  auto ring = std::make_shared<RingSink>();
  engine->alerts().AddSink(ring);
  const QueryId low_id =
      std::move(engine->RegisterQuery(QuerySpec::Correlation(0.3, 0))).value();
  const QueryId top_id =
      std::move(engine->RegisterQuery(QuerySpec::Correlation(0.3, 1))).value();

  for (std::uint64_t t = 0; t < 32; ++t) {
    for (StreamId s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(engine->Post(s, std::sin(0.37 * static_cast<double>(t)))
                      .ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());

  // Round 1: level 0 fails, level 1 evaluates and alerts.
  fail_level0.store(true);
  engine->TriggerCorrelatorRound();
  const EngineMetrics& metrics = engine->metrics();
  EXPECT_EQ(metrics.correlator_errors.load(), 1u);
  EXPECT_EQ(metrics.correlator_rounds.load(), 1u);
  ASSERT_EQ(metrics.correlator_num_levels, 2u);
  EXPECT_EQ(metrics.correlator_level_evals[0].load(), 0u);
  EXPECT_EQ(metrics.correlator_level_evals[1].load(), 1u);
  ASSERT_TRUE(engine->Flush().ok());
  const std::vector<Alert> top_hits = AwaitCorrelationAlerts(*ring, top_id, 1);
  ASSERT_EQ(top_hits.size(), 1u) << "healthy level blocked by failed one";
  EXPECT_TRUE(AwaitCorrelationAlerts(*ring, low_id, 0).empty());

  // Round 2, no new data: the failed level retries the SAME round time
  // and its alert arrives; the healthy level does not re-evaluate.
  fail_level0.store(false);
  engine->TriggerCorrelatorRound();
  const std::vector<Alert> low_hits = AwaitCorrelationAlerts(*ring, low_id, 1);
  ASSERT_EQ(low_hits.size(), 1u) << "failed level's alerts were dropped";
  const auto pair = std::minmax(low_hits[0].stream, low_hits[0].stream_b);
  EXPECT_EQ(pair.first, 0u);
  EXPECT_EQ(pair.second, 1u);
  EXPECT_EQ(metrics.correlator_errors.load(), 1u);
  EXPECT_EQ(metrics.correlator_level_evals[0].load(), 1u);
  EXPECT_EQ(metrics.correlator_level_evals[1].load(), 1u);

  const std::string json = engine->MetricsJson();
  EXPECT_NE(json.find("\"correlator_errors\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"correlator_level_evals\":[1,1]"), std::string::npos)
      << json;
  ASSERT_TRUE(engine->Stop().ok());
}

// Satellite regression: a pair that alerted, then became un-gatherable
// (one stream's features expired at the round time), must re-alert when
// it correlates again — the round with fewer than two features still
// replaces (clears) the active pair sets.
TEST(CorrelatorExpireTest, ExpiredPairReAlertsWhenItRecorrelates) {
  constexpr std::size_t kStreams = 2;
  EngineConfig econfig = CorrelatorEngineConfig(1);
  econfig.query.correlation = CorrelationCore(/*history=*/32);
  // Keep only the latest aligned feature per stream in the store, so a
  // stream that raced ahead cannot serve old round times from cache.
  econfig.store_capacity = 1;
  auto engine = std::move(IngestEngine::Create(FleetConfig(),
                                               {}, kStreams,
                                               econfig))
                    .value();
  auto ring = std::make_shared<RingSink>();
  engine->alerts().AddSink(ring);
  const QueryId id =
      std::move(engine->RegisterQuery(QuerySpec::Correlation(0.3))).value();
  const auto wave = [](std::uint64_t t) {
    return std::sin(0.37 * static_cast<double>(t));
  };

  // Phase 1: both streams in lockstep -> the pair alerts.
  for (std::uint64_t t = 0; t < 32; ++t) {
    ASSERT_TRUE(engine->Post(0, wave(t)).ok());
    ASSERT_TRUE(engine->Post(1, wave(t)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  engine->TriggerCorrelatorRound();
  ASSERT_EQ(AwaitCorrelationAlerts(*ring, id, 1).size(), 1u);

  // Phase 2: stream 1 races 64 values ahead while stream 0 advances one
  // update period. The round time tracks the slower stream 0, where
  // stream 1's history has already expired: the round evaluates with a
  // single feature and must CLEAR the active pair set.
  for (std::uint64_t t = 32; t < 40; ++t) {
    ASSERT_TRUE(engine->Post(0, wave(t)).ok());
  }
  for (std::uint64_t t = 32; t < 96; ++t) {
    ASSERT_TRUE(engine->Post(1, wave(t)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  engine->TriggerCorrelatorRound();

  // Phase 3: stream 0 catches up; both serve the same round time again
  // and the pair re-alerts. (The pre-index correlator skipped the active
  // set replacement on the one-feature round, so the pair stayed
  // "active" forever and this second alert never fired.)
  for (std::uint64_t t = 40; t < 96; ++t) {
    ASSERT_TRUE(engine->Post(0, wave(t)).ok());
  }
  ASSERT_TRUE(engine->Flush().ok());
  engine->TriggerCorrelatorRound();
  const std::vector<Alert> hits = AwaitCorrelationAlerts(*ring, id, 2);
  ASSERT_EQ(hits.size(), 2u) << "expired pair never re-alerted";
  EXPECT_NE(hits[0].end_time, hits[1].end_time);
  ASSERT_TRUE(engine->Stop().ok());
}

// Satellite regression: rounds are counted once per invocation even when
// several level groups evaluate, the per-level breakdown lives in
// correlator_level_evals, and the alert epoch carries the round number.
TEST(CorrelatorMetricsTest, RoundsCountOncePerInvocationAcrossLevels) {
  constexpr std::size_t kStreams = 2;
  auto engine =
      std::move(IngestEngine::Create(
                    FleetConfig(), {}, kStreams,
                    CorrelatorEngineConfig(1)))
          .value();
  auto ring = std::make_shared<RingSink>();
  engine->alerts().AddSink(ring);
  const QueryId low_id =
      std::move(engine->RegisterQuery(QuerySpec::Correlation(0.3, 0))).value();
  const QueryId top_id =
      std::move(engine->RegisterQuery(QuerySpec::Correlation(0.3, 1))).value();
  for (std::uint64_t t = 0; t < 32; ++t) {
    for (StreamId s = 0; s < kStreams; ++s) {
      ASSERT_TRUE(engine->Post(s, std::sin(0.37 * static_cast<double>(t)))
                      .ok());
    }
  }
  ASSERT_TRUE(engine->Flush().ok());
  engine->TriggerCorrelatorRound();

  // Both levels evaluated in ONE round (the pre-index correlator counted
  // one round per level group, and the skew leaked into alert.epoch).
  const EngineMetrics& metrics = engine->metrics();
  EXPECT_EQ(metrics.correlator_rounds.load(), 1u);
  ASSERT_EQ(metrics.correlator_num_levels, 2u);
  EXPECT_EQ(metrics.correlator_level_evals[0].load(), 1u);
  EXPECT_EQ(metrics.correlator_level_evals[1].load(), 1u);
  const std::vector<Alert> low = AwaitCorrelationAlerts(*ring, low_id, 1);
  const std::vector<Alert> top = AwaitCorrelationAlerts(*ring, top_id, 1);
  ASSERT_EQ(low.size(), 1u);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(low[0].epoch, 1u);
  EXPECT_EQ(top[0].epoch, 1u);

  // An idle trigger (no new data) evaluates nothing and counts nothing.
  engine->TriggerCorrelatorRound();
  EXPECT_EQ(metrics.correlator_rounds.load(), 1u);
  EXPECT_EQ(metrics.correlator_errors.load(), 0u);
  ASSERT_TRUE(engine->Stop().ok());
}

}  // namespace
}  // namespace stardust
