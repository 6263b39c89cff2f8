// Golden-replay equivalence of the compiled-plan evaluation path.
//
// The engine used to evaluate queries directly against its cores (the
// "seed" path: per-batch Algorithm-2 filter+verify over the fleet, the
// uncompiled Algorithm-3 pattern query, per-round z-normalization in the
// correlator). The feature-pipeline refactor replaced that with compiled
// EvalPlans over a shared FeatureStore. These tests re-implement the seed
// semantics verbatim as reference evaluators — plain rolling sums for
// Algorithm 2, an independently-fed Stardust core driving QueryOnline for
// Algorithm 3, an independently-fed correlation core with brute-force
// pair verification for Section 5.3 — replay identical data through both,
// and require the alert sequences to match exactly per query class.
//
// Data is integer-valued so every aggregate and distance both sides
// compute is exact in double precision: any divergence is a semantic
// difference, never rounding noise. Batch boundaries are pinned with
// Pause/post/Resume/Flush cycles (one batch per step), and correlator
// rounds run only through TriggerCorrelatorRound against an effectively
// disabled background period.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "core/fleet_monitor.h"
#include "core/level_state.h"
#include "core/pattern_query.h"
#include "core/stardust.h"
#include "core/summarizer.h"
#include "engine/engine.h"
#include "geom/mbr.h"
#include "query/sinks.h"
#include "stream/threshold.h"
#include "transform/feature.h"

namespace stardust {
namespace {

constexpr std::size_t kStreams = 4;
constexpr int kSteps = 400;

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

QueryConfig GoldenQueryConfig() {
  QueryConfig config;
  config.enable_patterns = true;
  config.pattern = PatternCoreConfig();
  config.enable_correlation = true;
  config.correlation = CorrelationCoreConfig();
  // Rounds fire only through TriggerCorrelatorRound.
  config.correlator_period_ms = 3600 * 1000;
  return config;
}

// The planted 16-step shape for the pattern query.
std::vector<double> PatternShape() {
  return {1, 5, 2, 8, 3, 7, 4, 6, 1, 5, 2, 8, 3, 7, 4, 6};
}

// Deterministic integer-valued data (see file comment):
//  - streams 0 and 1 share a 5-periodic wave, except stream 1 diverges
//    on t in [150, 250) — the correlation pair forms, breaks, re-forms;
//  - stream 2 holds at 1 and bursts to 50 on [100, 140) and [300, 340)
//    — two rising edges for the aggregate query;
//  - stream 3 is hash noise with the pattern shape planted at [200, 216).
double ValueAt(StreamId stream, int t) {
  switch (stream) {
    case 0:
      return static_cast<double>(t % 5 + 1);
    case 1:
      if (t >= 150 && t < 250) {
        return static_cast<double>((t * 13 + 7) % 9 + 1);
      }
      return static_cast<double>(t % 5 + 1);
    case 2:
      return ((t >= 100 && t < 140) || (t >= 300 && t < 340)) ? 50.0 : 1.0;
    default: {
      if (t >= 200 && t < 216) return PatternShape()[t - 200];
      return static_cast<double>((t * 31 + 11) % 10);
    }
  }
}

// One expected or observed alert, stripped to the fields both paths must
// agree on (epoch numbering differs by construction and is not compared).
struct GoldenAlert {
  QueryId query = 0;
  StreamId a = 0;
  StreamId b = 0;
  std::size_t window = 0;
  std::uint64_t end_time = 0;
  double value = 0.0;
  double threshold = 0.0;

  bool operator<(const GoldenAlert& o) const {
    return std::tie(end_time, query, a, b) <
           std::tie(o.end_time, o.query, o.a, o.b);
  }
};

std::vector<GoldenAlert> OfKind(const std::vector<Alert>& alerts,
                                QueryKind kind) {
  std::vector<GoldenAlert> out;
  for (const Alert& alert : alerts) {
    if (alert.kind != kind) continue;
    out.push_back({alert.query, alert.stream, alert.stream_b, alert.window,
                   alert.end_time, alert.value, alert.threshold});
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameSequence(const std::vector<GoldenAlert>& seed,
                        const std::vector<GoldenAlert>& plan,
                        const char* what) {
  ASSERT_EQ(seed.size(), plan.size()) << what << " alert count diverged";
  for (std::size_t i = 0; i < seed.size(); ++i) {
    EXPECT_EQ(seed[i].query, plan[i].query) << what << " alert " << i;
    EXPECT_EQ(seed[i].a, plan[i].a) << what << " alert " << i;
    EXPECT_EQ(seed[i].b, plan[i].b) << what << " alert " << i;
    EXPECT_EQ(seed[i].window, plan[i].window) << what << " alert " << i;
    EXPECT_EQ(seed[i].end_time, plan[i].end_time) << what << " alert " << i;
    EXPECT_DOUBLE_EQ(seed[i].value, plan[i].value) << what << " alert " << i;
    EXPECT_DOUBLE_EQ(seed[i].threshold, plan[i].threshold)
        << what << " alert " << i;
  }
}

// Seed-path Algorithm 2: per batch, per stream, exact rolling aggregate
// with a rising-edge latch. Integer data keeps the sums exact.
class SeedAggregate {
 public:
  SeedAggregate(QueryId id, std::size_t window, double threshold)
      : id_(id), window_(window), threshold_(threshold),
        tails_(kStreams), sums_(kStreams, 0.0), edge_(kStreams, 0) {}

  void OnBatch(const std::vector<double>& values, std::uint64_t appended,
               std::vector<GoldenAlert>* out) {
    for (StreamId s = 0; s < kStreams; ++s) {
      tails_[s].push_back(values[s]);
      sums_[s] += values[s];
      if (tails_[s].size() > window_) {
        sums_[s] -= tails_[s].front();
        tails_[s].pop_front();
      }
      if (tails_[s].size() < window_) continue;  // not ready
      const bool alarm = sums_[s] >= threshold_;
      if (alarm && edge_[s] == 0) {
        out->push_back(
            {id_, s, 0, window_, appended - 1, sums_[s], threshold_});
      }
      edge_[s] = alarm ? 1 : 0;
    }
  }

 private:
  const QueryId id_;
  const std::size_t window_;
  const double threshold_;
  std::vector<std::deque<double>> tails_;
  std::vector<double> sums_;
  std::vector<char> edge_;
};

TEST(GoldenReplayTest, PlanPathMatchesSeedPathForEveryQueryClass) {
  EngineConfig econfig;
  econfig.num_shards = 1;
  econfig.start_paused = true;
  econfig.query = GoldenQueryConfig();
  auto engine = std::move(IngestEngine::Create(AggregateConfig(), {},
                                               kStreams, econfig))
                    .value();
  auto ring = std::make_shared<RingSink>(1 << 16);
  engine->alerts().AddSink(ring);

  // Reference cores, fed the identical tuple sequence.
  auto ref_pattern = std::move(Stardust::Create(PatternCoreConfig())).value();
  auto ref_corr = std::move(Stardust::Create(CorrelationCoreConfig())).value();
  for (std::size_t s = 0; s < kStreams; ++s) {
    ref_pattern->AddStream();
    ref_corr->AddStream();
  }

  // Pattern and correlation queries from the start; the aggregate query
  // registers mid-stream (step 50) to exercise the tracker backfill
  // against the seed path's "window inside retained history" semantics.
  const double kPatternRadius = 0.05;
  const QueryId pattern_id =
      std::move(engine->RegisterQuery(
                    QuerySpec::Pattern(PatternShape(), kPatternRadius)))
          .value();
  const double kCorrRadius = 0.5;
  const QueryId corr_id =
      std::move(engine->RegisterQuery(QuerySpec::Correlation(kCorrRadius, 0)))
          .value();
  const std::size_t kAggWindow = 20;
  const double kAggThreshold = 200.0;
  QueryId agg_id = 0;
  std::unique_ptr<SeedAggregate> seed_agg;

  std::vector<GoldenAlert> seed_aggregate_alerts;
  std::vector<GoldenAlert> seed_pattern_alerts;
  std::vector<GoldenAlert> seed_corr_alerts;
  std::vector<std::uint64_t> pattern_watermark(kStreams, 0);
  std::set<std::pair<StreamId, StreamId>> corr_active;
  bool corr_has_last = false;
  std::uint64_t corr_last_time = 0;

  const std::size_t corr_level = 0;
  const std::size_t corr_window =
      CorrelationCoreConfig().LevelWindow(corr_level);
  std::vector<double> values(kStreams, 0.0);
  std::vector<double> raw_window;
  std::vector<std::vector<double>> znormed(kStreams);
  std::vector<char> present(kStreams, 0);

  for (int t = 0; t < kSteps; ++t) {
    if (t == 50) {
      agg_id = std::move(engine->RegisterQuery(
                             QuerySpec::Aggregate(kAggWindow, kAggThreshold)))
                   .value();
      seed_agg = std::make_unique<SeedAggregate>(agg_id, kAggWindow,
                                                 kAggThreshold);
    }

    // One pinned batch: post one tuple per stream while paused, then let
    // the worker apply them all at once.
    for (StreamId s = 0; s < kStreams; ++s) {
      values[s] = ValueAt(s, t);
      ASSERT_TRUE(engine->Post(s, values[s]).ok());
      ASSERT_TRUE(ref_pattern->Append(s, values[s]).ok());
      ASSERT_TRUE(ref_corr->Append(s, values[s]).ok());
    }
    engine->Resume();
    ASSERT_TRUE(engine->Flush().ok());
    engine->Pause();
    const std::uint64_t appended = static_cast<std::uint64_t>(t) + 1;

    // Seed Algorithm 2.
    if (seed_agg != nullptr) {
      seed_agg->OnBatch(values, appended, &seed_aggregate_alerts);
    }

    // Seed Algorithm 3: the uncompiled online pattern query over the
    // reference core, deduplicated by the per-stream delivery watermark.
    const PatternQueryEngine pattern_engine(*ref_pattern);
    const Result<PatternResult> result =
        pattern_engine.QueryOnline(PatternShape(), kPatternRadius);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const PatternMatch& match : result.value().matches) {
      if (match.end_time + 1 <= pattern_watermark[match.stream]) continue;
      pattern_watermark[match.stream] = match.end_time + 1;
      seed_pattern_alerts.push_back({pattern_id, match.stream, 0,
                                     PatternShape().size(), match.end_time,
                                     match.distance, kPatternRadius});
    }

    // Seed correlator round (Section 5.3): align every stream on the
    // slowest latest feature time, z-normalize the exact windows, verify
    // all pairs brute-force, rising-edge the pair set.
    engine->TriggerCorrelatorRound();
    std::uint64_t t_round = 0;
    bool any = false;
    for (StreamId s = 0; s < kStreams; ++s) {
      const LevelThread& thread = ref_corr->summarizer(s).thread(corr_level);
      if (thread.empty()) continue;
      t_round = any ? std::min(t_round, thread.last_time())
                    : thread.last_time();
      any = true;
    }
    if (any && (!corr_has_last || t_round != corr_last_time)) {
      corr_has_last = true;
      corr_last_time = t_round;
      for (StreamId s = 0; s < kStreams; ++s) {
        present[s] = 0;
        const StreamSummarizer& summarizer = ref_corr->summarizer(s);
        if (summarizer.thread(corr_level).Find(t_round) == nullptr) continue;
        if (!summarizer.GetWindow(t_round, corr_window, &raw_window).ok()) {
          continue;
        }
        znormed[s].resize(corr_window);
        double mean = 0.0;
        double norm2 = 0.0;
        ZNormalizeTo(raw_window.data(), corr_window, znormed[s].data(),
                     &mean, &norm2);
        present[s] = 1;
      }
      std::set<std::pair<StreamId, StreamId>> current;
      for (StreamId i = 0; i < kStreams; ++i) {
        if (present[i] == 0) continue;
        for (StreamId j = i + 1; j < kStreams; ++j) {
          if (present[j] == 0) continue;
          const double d2 = Dist2(znormed[i], znormed[j]);
          if (d2 > kCorrRadius * kCorrRadius) continue;
          current.emplace(i, j);
          if (corr_active.count({i, j}) != 0) continue;
          seed_corr_alerts.push_back({corr_id, i, j, corr_window, t_round,
                                      std::sqrt(d2), kCorrRadius});
        }
      }
      corr_active.swap(current);
    }
  }
  ASSERT_TRUE(engine->Stop().ok());

  const std::vector<Alert> observed = ring->Snapshot();
  std::sort(seed_aggregate_alerts.begin(), seed_aggregate_alerts.end());
  std::sort(seed_pattern_alerts.begin(), seed_pattern_alerts.end());
  std::sort(seed_corr_alerts.begin(), seed_corr_alerts.end());

  // The data plants at least one event per class, so an accidentally
  // silent class cannot vacuously pass.
  EXPECT_GE(seed_aggregate_alerts.size(), 2u);  // two bursts
  EXPECT_GE(seed_pattern_alerts.size(), 1u);
  EXPECT_GE(seed_corr_alerts.size(), 2u);  // pair forms, breaks, re-forms

  ExpectSameSequence(seed_aggregate_alerts,
                     OfKind(observed, QueryKind::kAggregate), "aggregate");
  ExpectSameSequence(seed_pattern_alerts,
                     OfKind(observed, QueryKind::kPattern), "pattern");
  ExpectSameSequence(seed_corr_alerts,
                     OfKind(observed, QueryKind::kCorrelation), "correlation");
}

// ---------------------------------------------------------------------------
// Batched columnar maintenance equivalence: the AppendRun path must leave
// every byte of summary state identical to per-value Append, at any run
// length. Serialized snapshots are the comparison medium — they cover
// raw history, level threads, box extents, alarm statistics, and tracker
// state, so "checksummed summary state" here is byte equality plus an
// FNV-1a digest for compact failure messages.

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Run-length schedules the batched paths are replayed under (cycled over
// the input): the scalar boundary case, small runs, an odd length that
// never aligns with windows or box capacities, a full engine batch, and
// a mixed interleaving.
const std::vector<std::vector<std::size_t>>& RunSchedules() {
  static const std::vector<std::vector<std::size_t>> kSchedules = {
      {1}, {2}, {7}, {64}, {1, 2, 7, 64, 3, 5}};
  return kSchedules;
}

std::string SerializeSummarizers(const Stardust& core) {
  Writer writer;
  for (StreamId s = 0; s < core.num_streams(); ++s) {
    core.summarizer(s).SaveTo(&writer);
  }
  return writer.TakeBuffer();
}

struct BatchedCoreConfig {
  std::string name;
  StardustConfig config;
  bool flat;  // takes the level-major flat pass (FlatRunEligible)
};

// Core configurations spanning every summarizer code path the batched
// kernels replaced: incremental aggregate with box merging (c > 1),
// indexed online unit-sphere DWT (half-merge, Lemma A.1) at c = 1, 2, 3
// and W — the flat pass's as-of right input and post-pass left input,
// with boxes shared across arrivals — an unnormalized DWT at c = 4, a DWT
// with c > W (left inputs may still be filling, so the per-arrival loop),
// batch z-normalized DWT (T == W), and the exact-levels ablation. When c
// divides W, every level-j box covers whole level-(j-1) boxes and the
// half-merge is monotone, so the union over a box is the same with final
// right inputs; c = 3 straddles those boxes, so only the as-of extent
// gives the arrival-major bytes.
std::vector<BatchedCoreConfig> BatchedCoreConfigs() {
  std::vector<BatchedCoreConfig> configs;
  configs.push_back({"aggregate_c2", AggregateConfig(), true});
  configs.push_back({"unit_sphere_indexed", PatternCoreConfig(), true});
  StardustConfig unit_c2 = PatternCoreConfig();
  unit_c2.box_capacity = 2;
  configs.push_back({"unit_sphere_c2", unit_c2, true});
  StardustConfig unit_c3 = PatternCoreConfig();
  unit_c3.box_capacity = 3;
  configs.push_back({"unit_sphere_c3", unit_c3, true});
  StardustConfig unit_cw = PatternCoreConfig();
  unit_cw.box_capacity = unit_cw.base_window;
  configs.push_back({"unit_sphere_cW", unit_cw, true});
  StardustConfig plain_c4 = PatternCoreConfig();
  plain_c4.normalization = Normalization::kNone;
  plain_c4.box_capacity = 4;
  configs.push_back({"unnormalized_c4", plain_c4, true});
  StardustConfig unit_wide = PatternCoreConfig();
  unit_wide.box_capacity = 2 * unit_wide.base_window;
  configs.push_back({"unit_sphere_c2W", unit_wide, false});
  configs.push_back({"znorm_batch", CorrelationCoreConfig(), false});
  StardustConfig exact = PatternCoreConfig();
  exact.exact_levels = true;
  exact.index_features = false;
  configs.push_back({"exact_levels", exact, false});
  // An indexed core whose history (23) is shorter than the {64}
  // schedule's runs: one run seals boxes and expires them again, and
  // those boxes must never reach the level index.
  StardustConfig short_history = PatternCoreConfig();
  short_history.normalization = Normalization::kNone;
  short_history.coefficients = 2;
  short_history.box_capacity = 2;
  short_history.history = 23;
  configs.push_back({"indexed_short_history", short_history, true});
  return configs;
}

// Every level index's records, as (level, record id, lower bounds, upper
// bounds), sorted.
std::vector<std::tuple<std::size_t, RecordId, Point, Point>> IndexRecords(
    const Stardust& core) {
  std::vector<std::tuple<std::size_t, RecordId, Point, Point>> records;
  if (!core.config().index_features) return records;
  for (std::size_t level = 0; level < core.config().num_levels; ++level) {
    core.index(level).ForEach([&](const RTreeEntry& entry) {
      records.emplace_back(level, entry.id, entry.box.lo(), entry.box.hi());
    });
  }
  std::sort(records.begin(), records.end());
  return records;
}

TEST(BatchedMaintenanceTest, StardustAppendRunMatchesAppendBitExactly) {
  constexpr std::size_t kCoreStreams = 3;
  constexpr int kCoreSteps = 400;
  for (const auto& [name, config, flat] : BatchedCoreConfigs()) {
    for (const std::vector<std::size_t>& schedule : RunSchedules()) {
      auto scalar = std::move(Stardust::Create(config)).value();
      auto batched = std::move(Stardust::Create(config)).value();
      for (std::size_t s = 0; s < kCoreStreams; ++s) {
        scalar->AddStream();
        batched->AddStream();
      }
      EXPECT_EQ(batched->summarizer(0).FlatRunEligible(), flat) << name;
      std::vector<std::vector<double>> values(
          kCoreStreams, std::vector<double>(kCoreSteps));
      for (StreamId s = 0; s < kCoreStreams; ++s) {
        for (int t = 0; t < kCoreSteps; ++t) {
          values[s][t] = ValueAt(s % kStreams, t);
          ASSERT_TRUE(scalar->Append(s, values[s][t]).ok());
        }
      }
      // Streams take turns run by run, so consecutive runs of the core
      // share its staging buffer and as-of rings across streams.
      std::vector<std::size_t> offset(kCoreStreams, 0);
      std::size_t turn = 0;
      for (bool more = true; more;) {
        more = false;
        for (StreamId s = 0; s < kCoreStreams; ++s) {
          if (offset[s] == values[s].size()) continue;
          more = true;
          const std::size_t len =
              std::min(schedule[turn++ % schedule.size()],
                       values[s].size() - offset[s]);
          ASSERT_TRUE(
              batched->AppendRun(s, values[s].data() + offset[s], len).ok());
          offset[s] += len;
        }
      }
      const std::string scalar_state = SerializeSummarizers(*scalar);
      const std::string batched_state = SerializeSummarizers(*batched);
      EXPECT_EQ(Fnv1a(scalar_state), Fnv1a(batched_state))
          << name << " schedule[0]=" << schedule[0]
          << ": state checksum diverged";
      ASSERT_EQ(scalar_state, batched_state)
          << name << " schedule[0]=" << schedule[0];
      EXPECT_EQ(IndexRecords(*scalar), IndexRecords(*batched))
          << name << " schedule[0]=" << schedule[0]
          << ": level index records diverged";
    }
  }
}

// Everything a fleet monitor keeps per stream must match: the summary
// (each monitor's core holds its one stream), the exact tracker, and the
// alarm counters of every window.
void ExpectSameFleetState(const FleetAggregateMonitor& a,
                          const FleetAggregateMonitor& b) {
  ASSERT_EQ(a.num_streams(), b.num_streams());
  ASSERT_EQ(a.num_windows(), b.num_windows());
  for (StreamId s = 0; s < a.num_streams(); ++s) {
    Writer summary_a;
    Writer summary_b;
    a.monitor(s).stardust().summarizer(0).SaveTo(&summary_a);
    b.monitor(s).stardust().summarizer(0).SaveTo(&summary_b);
    EXPECT_EQ(summary_a.buffer(), summary_b.buffer()) << "stream " << s;
    Writer tracker_a;
    Writer tracker_b;
    a.monitor(s).tracker().SaveTo(&tracker_a);
    b.monitor(s).tracker().SaveTo(&tracker_b);
    EXPECT_EQ(tracker_a.buffer(), tracker_b.buffer()) << "stream " << s;
    for (std::size_t w = 0; w < a.num_windows(); ++w) {
      EXPECT_EQ(a.stats(s, w).candidates, b.stats(s, w).candidates)
          << "stream " << s << " window " << w;
      EXPECT_EQ(a.stats(s, w).true_alarms, b.stats(s, w).true_alarms)
          << "stream " << s << " window " << w;
      EXPECT_EQ(a.stats(s, w).checks, b.stats(s, w).checks)
          << "stream " << s << " window " << w;
    }
  }
}

TEST(BatchedMaintenanceTest, FleetAppendRunMatchesAppendAlarmsAndState) {
  constexpr std::size_t kFleetStreams = 3;
  constexpr int kFleetSteps = 400;
  // Thresholds the golden data actually crosses, so alarm statistics are
  // non-trivially exercised (window-10 sums of the periodic wave reach
  // 30; window-20 sums of the burst stream reach 1000).
  const std::vector<WindowThreshold> thresholds = {{10, 25.0}, {20, 120.0}};
  for (const std::vector<std::size_t>& schedule : RunSchedules()) {
    auto scalar = std::move(FleetAggregateMonitor::Create(
                                AggregateConfig(), thresholds, kFleetStreams))
                      .value();
    auto batched = std::move(FleetAggregateMonitor::Create(
                                 AggregateConfig(), thresholds, kFleetStreams))
                       .value();
    std::vector<double> values(kFleetSteps);
    for (StreamId s = 0; s < kFleetStreams; ++s) {
      for (int t = 0; t < kFleetSteps; ++t) {
        values[t] = ValueAt(s % kStreams, t);
        ASSERT_TRUE(scalar->Append(s, values[t]).ok());
      }
      std::size_t offset = 0;
      std::size_t turn = 0;
      while (offset < values.size()) {
        const std::size_t len = std::min(schedule[turn++ % schedule.size()],
                                         values.size() - offset);
        ASSERT_TRUE(batched->AppendRun(s, values.data() + offset, len).ok());
        offset += len;
      }
    }
    const AlarmStats scalar_stats = scalar->FleetTotal();
    const AlarmStats batched_stats = batched->FleetTotal();
    EXPECT_EQ(scalar_stats.checks, batched_stats.checks);
    EXPECT_EQ(scalar_stats.candidates, batched_stats.candidates);
    EXPECT_EQ(scalar_stats.true_alarms, batched_stats.true_alarms);
    EXPECT_GT(scalar_stats.true_alarms, 0u);  // not vacuous
    SCOPED_TRACE("schedule[0]=" + std::to_string(schedule[0]));
    ExpectSameFleetState(*scalar, *batched);
  }
}

TEST(BatchedMaintenanceTest, AppendRunRejectsNonFiniteLikeAppend) {
  // A run containing a non-finite value must reject exactly the tuples
  // the scalar path rejects and leave identical state behind.
  const std::vector<WindowThreshold> thresholds = {{10, 25.0}};
  auto scalar = std::move(FleetAggregateMonitor::Create(AggregateConfig(),
                                                        thresholds, 1))
                    .value();
  auto batched = std::move(FleetAggregateMonitor::Create(AggregateConfig(),
                                                         thresholds, 1))
                     .value();
  std::vector<double> values;
  for (int t = 0; t < 40; ++t) values.push_back(ValueAt(0, t));
  values[17] = std::nan("");
  for (double v : values) {
    const Status status = scalar->Append(0, v);
    EXPECT_EQ(status.ok(), std::isfinite(v));
  }
  const Status run_status = batched->AppendRun(0, values.data(),
                                               values.size());
  EXPECT_FALSE(run_status.ok());
  // Replay the remainder the way the shard does: split around the bad
  // value and run the finite pieces.
  auto batched2 = std::move(FleetAggregateMonitor::Create(AggregateConfig(),
                                                          thresholds, 1))
                      .value();
  ASSERT_TRUE(batched2->AppendRun(0, values.data(), 17).ok());
  EXPECT_FALSE(batched2->Append(0, values[17]).ok());
  ASSERT_TRUE(
      batched2->AppendRun(0, values.data() + 18, values.size() - 18).ok());
  ExpectSameFleetState(*scalar, *batched2);
}

// Engine-level golden replay at batched run lengths: each pinned batch
// carries `group` consecutive steps (so every stream's run has length
// `group` in one ApplyBatch), and the seed-path references check alarms
// once per batch — the same cadence the engine evaluates its plan at.
// `stream_major` posts all of one stream's values before the next
// stream's (instead of round-robin by step), exercising GroupRuns'
// stable scatter under a different interleaving of the same tuples.
void RunBatchedGoldenReplay(int group, bool stream_major) {
  EngineConfig econfig;
  econfig.num_shards = 1;
  econfig.start_paused = true;
  econfig.query = GoldenQueryConfig();
  auto engine = std::move(IngestEngine::Create(AggregateConfig(), {},
                                               kStreams, econfig))
                    .value();
  auto ring = std::make_shared<RingSink>(1 << 16);
  engine->alerts().AddSink(ring);
  // Per-tuple reference engine: max_batch 1 applies (and evaluates) every
  // tuple on its own, and it registers the same queries at the same
  // tuple positions, so its per-stream state is what the batched engine
  // must reproduce byte for byte.
  EngineConfig ref_config = econfig;
  ref_config.start_paused = false;
  ref_config.max_batch = 1;
  auto reference = std::move(IngestEngine::Create(AggregateConfig(), {},
                                                  kStreams, ref_config))
                       .value();

  auto ref_pattern = std::move(Stardust::Create(PatternCoreConfig())).value();
  for (std::size_t s = 0; s < kStreams; ++s) ref_pattern->AddStream();

  const double kPatternRadius = 0.05;
  const QueryId pattern_id =
      std::move(engine->RegisterQuery(
                    QuerySpec::Pattern(PatternShape(), kPatternRadius)))
          .value();
  ASSERT_EQ(std::move(reference->RegisterQuery(
                          QuerySpec::Pattern(PatternShape(), kPatternRadius)))
                .value(),
            pattern_id);
  const std::size_t kAggWindow = 20;
  const double kAggThreshold = 200.0;
  QueryId agg_id = 0;

  // Seed Algorithm 2 with per-batch alarm checks: exact rolling sums per
  // value, rising-edge latch evaluated once per applied batch.
  std::vector<std::deque<double>> tails(kStreams);
  std::vector<double> sums(kStreams, 0.0);
  std::vector<char> edge(kStreams, 0);
  std::vector<GoldenAlert> seed_aggregate_alerts;
  std::vector<GoldenAlert> seed_pattern_alerts;
  std::vector<std::uint64_t> pattern_watermark(kStreams, 0);

  for (int t0 = 0; t0 < kSteps; t0 += group) {
    const int steps = std::min(group, kSteps - t0);
    if (t0 <= 50 && 50 < t0 + steps && agg_id == 0) {
      agg_id = std::move(engine->RegisterQuery(
                             QuerySpec::Aggregate(kAggWindow, kAggThreshold)))
                   .value();
      ASSERT_TRUE(reference->Flush().ok());
      ASSERT_EQ(std::move(reference->RegisterQuery(QuerySpec::Aggregate(
                              kAggWindow, kAggThreshold)))
                    .value(),
                agg_id);
    }
    // Post the whole group while paused; references see the identical
    // per-stream value sequences regardless of the posting interleaving.
    const auto post = [&](StreamId s, int t) {
      const double v = ValueAt(s, t);
      ASSERT_TRUE(engine->Post(s, v).ok());
      ASSERT_TRUE(ref_pattern->Append(s, v).ok());
      ASSERT_TRUE(reference->Post(s, v).ok());
      tails[s].push_back(v);
      sums[s] += v;
      if (tails[s].size() > kAggWindow) {
        sums[s] -= tails[s].front();
        tails[s].pop_front();
      }
    };
    if (stream_major) {
      for (StreamId s = 0; s < kStreams; ++s) {
        for (int k = 0; k < steps; ++k) post(s, t0 + k);
      }
    } else {
      for (int k = 0; k < steps; ++k) {
        for (StreamId s = 0; s < kStreams; ++s) post(s, t0 + k);
      }
    }
    engine->Resume();
    ASSERT_TRUE(engine->Flush().ok());
    engine->Pause();
    const std::uint64_t appended = static_cast<std::uint64_t>(t0 + steps);

    if (agg_id != 0) {
      for (StreamId s = 0; s < kStreams; ++s) {
        if (tails[s].size() < kAggWindow) continue;
        const bool alarm = sums[s] >= kAggThreshold;
        if (alarm && edge[s] == 0) {
          seed_aggregate_alerts.push_back({agg_id, s, 0, kAggWindow,
                                           appended - 1, sums[s],
                                           kAggThreshold});
        }
        edge[s] = alarm ? 1 : 0;
      }
    }
    const PatternQueryEngine pattern_engine(*ref_pattern);
    const Result<PatternResult> result =
        pattern_engine.QueryOnline(PatternShape(), kPatternRadius);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const PatternMatch& match : result.value().matches) {
      if (match.end_time + 1 <= pattern_watermark[match.stream]) continue;
      pattern_watermark[match.stream] = match.end_time + 1;
      seed_pattern_alerts.push_back({pattern_id, match.stream, 0,
                                     PatternShape().size(), match.end_time,
                                     match.distance, kPatternRadius});
    }
  }

  // State equivalence: every stream's serialized slice (raw tail, cores,
  // tracker, store rows, edge state) equals the per-tuple reference's.
  ASSERT_TRUE(reference->Flush().ok());
  for (StreamId s = 0; s < kStreams; ++s) {
    std::string engine_state;
    std::string ref_state;
    ASSERT_TRUE(engine->DebugStreamState(s, &engine_state).ok());
    ASSERT_TRUE(reference->DebugStreamState(s, &ref_state).ok());
    EXPECT_EQ(Fnv1a(engine_state), Fnv1a(ref_state));
    ASSERT_EQ(engine_state, ref_state)
        << "group=" << group << " stream " << s
        << " state diverged from per-tuple replay";
  }
  ASSERT_TRUE(reference->Stop().ok());

  ASSERT_TRUE(engine->Stop().ok());
  const std::vector<Alert> observed = ring->Snapshot();
  std::sort(seed_aggregate_alerts.begin(), seed_aggregate_alerts.end());
  std::sort(seed_pattern_alerts.begin(), seed_pattern_alerts.end());
  EXPECT_GE(seed_aggregate_alerts.size(), 1u);
  EXPECT_GE(seed_pattern_alerts.size(), 1u);
  ExpectSameSequence(seed_aggregate_alerts,
                     OfKind(observed, QueryKind::kAggregate), "aggregate");
  ExpectSameSequence(seed_pattern_alerts,
                     OfKind(observed, QueryKind::kPattern), "pattern");
}

TEST(BatchedGoldenReplayTest, RunLength2) { RunBatchedGoldenReplay(2, false); }
TEST(BatchedGoldenReplayTest, RunLength7StreamMajor) {
  RunBatchedGoldenReplay(7, true);
}
TEST(BatchedGoldenReplayTest, RunLength64) {
  RunBatchedGoldenReplay(64, false);
}

}  // namespace
}  // namespace stardust
