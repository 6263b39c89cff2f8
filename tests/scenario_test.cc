// Scenario harness end-to-end (src/dsl/scenario.h), sketch state across
// engine checkpoint/restore, and query-registry version compatibility.
#include "dsl/scenario.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "query/sinks.h"

namespace stardust {
namespace {

using dsl::ParseScenario;
using dsl::RunScenario;
using dsl::ScenarioDef;
using dsl::ScenarioReport;

// A compact scenario: one stream bursts through eight distinct codes, so
// the sum monitor and the distinct monitor each alarm exactly once.
constexpr char kScenario[] = R"(scenario: unit
streams: 2
base_window: 4
shards: 2
monitors:
  - name: burst
    measure: sum
    window: 8
    assess: "[0, 10]"
  - name: variety
    measure: distinct
    window: 16
    assess: "<5"
expect:
  min_alerts: 2
  monitors:
    - name: burst
      min: 1
      max: 4
    - name: variety
      min: 1
      max: 4
tuples: |
)";

std::string BuildScenarioText() {
  std::string text = kScenario;
  char row[64];
  for (int t = 0; t < 96; ++t) {
    double s0 = 0.0;
    if (t >= 40 && t < 72) s0 = static_cast<double>(3 + t % 8);
    std::snprintf(row, sizeof(row), "  %g, 1\n", s0);
    text += row;
  }
  return text;
}

TEST(ScenarioTest, ParsesAndRunsEndToEnd) {
  Result<ScenarioDef> def = ParseScenario(BuildScenarioText(), "unit.yaml");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  EXPECT_EQ(def.value().name, "unit");
  EXPECT_EQ(def.value().streams, 2u);
  EXPECT_EQ(def.value().rows.size(), 96u);
  ASSERT_EQ(def.value().monitors.size(), 2u);

  std::vector<Alert> alerts;
  std::mutex mu;
  Result<ScenarioReport> report =
      RunScenario(def.value(), [&](const Alert& alert) {
        std::lock_guard<std::mutex> lock(mu);
        alerts.push_back(alert);
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().monitors.size(), 2u);
  EXPECT_GE(report.value().monitors[0].alerts, 1u);  // burst
  EXPECT_GE(report.value().monitors[1].alerts, 1u);  // variety
  EXPECT_EQ(report.value().total_alerts,
            report.value().monitors[0].alerts +
                report.value().monitors[1].alerts);
  // Every alert came from the bursting stream.
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(alerts.size(), report.value().total_alerts);
  for (const Alert& alert : alerts) EXPECT_EQ(alert.stream, 0u);
}

TEST(ScenarioTest, ViolatedExpectationFailsWithEveryBound) {
  std::string text = BuildScenarioText();
  // Demand an impossible alert count from the healthy monitor bounds.
  const std::string from = "min_alerts: 2";
  text.replace(text.find(from), from.size(), "min_alerts: 1000");
  Result<ScenarioDef> def = ParseScenario(text, "unit.yaml");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  Result<ScenarioReport> report = RunScenario(def.value());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("total alerts"),
            std::string::npos)
      << report.status().ToString();
}

TEST(ScenarioTest, ParserDiagnosesBadTupleRows) {
  std::string text = BuildScenarioText();
  text += "  3, oops\n";  // malformed CSV cell on the last row
  Result<ScenarioDef> def = ParseScenario(text, "unit.yaml");
  ASSERT_FALSE(def.ok());
  // The diagnostic names the file and the absolute row line.
  EXPECT_NE(def.status().message().find("unit.yaml:"), std::string::npos);
  EXPECT_NE(def.status().message().find("not a number"), std::string::npos)
      << def.status().ToString();

  std::string wide = BuildScenarioText();
  wide += "  1, 2, 3\n";  // wrong column count
  def = ParseScenario(wide, "unit.yaml");
  ASSERT_FALSE(def.ok());
  EXPECT_NE(def.status().message().find("3 column(s)"), std::string::npos)
      << def.status().ToString();
}

// --- Sketch state across checkpoint/restore -----------------------------

class SketchCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stardust_sketch_ck_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(SketchCheckpointTest, MeasuresSurviveRestore) {
  StardustConfig fleet;
  fleet.transform = TransformKind::kAggregate;
  fleet.aggregate = AggregateKind::kSum;
  fleet.base_window = 4;
  fleet.num_levels = 1;
  fleet.history = 64;
  fleet.box_capacity = 4;
  fleet.update_period = 1;
  EngineConfig econfig;
  econfig.num_shards = 2;
  econfig.max_batch = 4;

  SketchConfig config;
  config.kind = SketchKind::kDistinct;
  config.window = 16;
  AssessRange assess;
  assess.hi = 5.0;
  assess.hi_inclusive = false;  // conform while distinct < 5

  std::uint64_t appends_before = 0;
  {
    Result<std::unique_ptr<IngestEngine>> engine =
        IngestEngine::Create(fleet, {}, 2, econfig);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(
        engine.value()->RegisterQuery(QuerySpec::Sketch(config, assess))
            .ok());
    // High-variety feed: the distinct window fills and alarms.
    for (int t = 0; t < 32; ++t) {
      ASSERT_TRUE(engine.value()->Post(0, static_cast<double>(t % 8)).ok());
      ASSERT_TRUE(engine.value()->Post(1, 1.0).ok());
    }
    ASSERT_TRUE(engine.value()->Flush().ok());
    ASSERT_TRUE(engine.value()->Checkpoint(dir_.string()).ok());
    for (const ShardMetricsSnapshot& m : engine.value()->ShardMetrics()) {
      appends_before += m.sketch_appends;
      EXPECT_EQ(m.sketch_slots, 1u);
    }
    EXPECT_EQ(appends_before, 64u);
    ASSERT_TRUE(engine.value()->Stop().ok());
  }

  // Restore: the sketch slots come back warm — measures are Ready with
  // their append counters intact — and the rising-edge state comes back
  // too (manifest v6), so the alarm that was already announced before
  // the checkpoint is not re-announced.
  Result<std::unique_ptr<IngestEngine>> engine = IngestEngine::Create(
      fleet, {}, 2, econfig, dir_.string());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::uint64_t appends_after = 0;
  for (const ShardMetricsSnapshot& m : engine.value()->ShardMetrics()) {
    appends_after += m.sketch_appends;
    EXPECT_EQ(m.sketch_slots, 1u);
  }
  EXPECT_EQ(appends_after, appends_before);

  // The registry came back with the sketch query already registered —
  // no re-registration needed.
  EXPECT_EQ(engine.value()->queries().snapshot()->sketch.size(), 1u);
  auto ring = std::make_shared<RingSink>();
  engine.value()->alerts().AddSink(ring);
  // Constant feed: the distinct window collapses to one value, the
  // condition conforms, and the restored edge state resets. The alarm
  // was announced before the checkpoint, so nothing fires here.
  for (int t = 0; t < 20; ++t) {
    ASSERT_TRUE(engine.value()->Post(0, 0.0).ok());
    ASSERT_TRUE(engine.value()->Post(1, 1.0).ok());
  }
  ASSERT_TRUE(engine.value()->Flush().ok());
  EXPECT_TRUE(ring->Snapshot().empty())
      << "restored edge state should suppress the already-announced alarm";
  // High-variety feed: the distinct count crosses the bound again and
  // the fresh rising edge alerts — without re-warming a full window,
  // because the measure state survived the restore.
  for (int t = 0; t < 16; ++t) {
    ASSERT_TRUE(engine.value()->Post(0, static_cast<double>(t % 8)).ok());
    ASSERT_TRUE(engine.value()->Post(1, 1.0).ok());
  }
  ASSERT_TRUE(engine.value()->Flush().ok());
  ASSERT_TRUE(engine.value()->Stop().ok());
  const std::vector<Alert> alerts = ring->Snapshot();
  ASSERT_FALSE(alerts.empty())
      << "a fresh rising edge after restore should alarm";
  EXPECT_EQ(alerts[0].kind, QueryKind::kSketch);
  EXPECT_EQ(alerts[0].stream, 0u);
  EXPECT_GE(alerts[0].value, 5.0);
}

// --- QuerySpec serialization ---------------------------------------------

TEST(QuerySpecSerializationTest, RoundTripsAssessAndSketch) {
  SketchConfig config;
  config.kind = SketchKind::kQuantile;
  config.window = 64;
  config.q = 0.95;
  AssessRange assess;
  assess.lo = 0.0;
  assess.hi = 3.0;
  assess.lo_inclusive = false;
  QuerySpec spec = QuerySpec::Sketch(config, assess);
  Writer writer;
  spec.SaveTo(&writer);
  QuerySpec restored;
  Reader reader(writer.buffer());
  ASSERT_TRUE(restored.RestoreFrom(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.kind, QueryKind::kSketch);
  EXPECT_EQ(restored.sketch, config);
  EXPECT_EQ(restored.assess, assess);
  EXPECT_EQ(restored.window, 64u);
}

}  // namespace
}  // namespace stardust
