// Scenario documents: a whole monitoring deployment — engine shape,
// monitor set, input tuples, expected alert counts — in one DSL file,
// replayed end to end by RunScenario (docs/DSL.md). This is the workload
// harness behind `stardust_cli run scenario.yaml` and the example ctest:
// it builds a live IngestEngine, compiles and registers every monitor,
// replays the tuple section tick by tick, and asserts the `expect` block
// against the alerts the compiled plans actually produced.
#ifndef STARDUST_DSL_SCENARIO_H_
#define STARDUST_DSL_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "dsl/monitor.h"
#include "query/alert.h"

namespace stardust::dsl {

/// Expected alert-count bounds for one monitor.
struct MonitorExpect {
  std::string name;
  std::uint64_t min = 0;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

/// The scenario's `expect:` block; all bounds inclusive.
struct ScenarioExpect {
  std::uint64_t min_alerts = 0;
  std::uint64_t max_alerts = std::numeric_limits<std::uint64_t>::max();
  std::vector<MonitorExpect> monitors;
};

/// One parsed scenario document.
struct ScenarioDef {
  /// Source name (file path) the document came from, for diagnostics.
  std::string source;
  std::string name;
  std::size_t streams = 0;
  std::size_t base_window = 0;
  /// 0 = derive from the largest exact-monitor window.
  std::size_t num_levels = 0;
  /// 0 = derive (covers the replay and the largest indexed window).
  std::size_t history = 0;
  std::size_t shards = 2;
  /// 0 = one base window per stream (paced replay; see RunScenario).
  std::size_t max_batch = 0;
  /// Exact aggregate the engine's aggregate path maintains: "sum"
  /// (default), "max", "min", or "spread".
  std::string aggregate = "sum";
  std::vector<MonitorDef> monitors;
  ScenarioExpect expect;
  /// The `tuples: |` block: one row per tick, one column per stream.
  std::vector<std::vector<double>> rows;
};

/// Parses and validates a scenario document. All diagnostics carry
/// "<source>:<line>:<col>:" positions; the tuple section additionally
/// diagnoses per CSV row via stream/io.h ParseCsvRow.
Result<ScenarioDef> ParseScenario(const std::string& text,
                                  const std::string& source);

/// Reads `path` and parses it (diagnostics name the file).
Result<ScenarioDef> LoadScenarioFile(const std::string& path);

/// Alert tally of one monitor after a replay.
struct MonitorAlertCount {
  std::string name;
  std::uint64_t alerts = 0;
};

/// What a replay produced.
struct ScenarioReport {
  std::uint64_t total_alerts = 0;
  std::vector<MonitorAlertCount> monitors;  // scenario order
};

/// Replays the scenario against a fresh engine and checks the `expect`
/// block. Returns the report on success; an expectation violation (or
/// any engine error) returns a status naming every failed bound.
/// `on_alert`, when set, sees every alert on the alert log's delivery thread
/// (the CLI's --verbose stream; tests inspect alert payloads with it).
Result<ScenarioReport> RunScenario(
    const ScenarioDef& def,
    const std::function<void(const Alert&)>& on_alert = {});

}  // namespace stardust::dsl

#endif  // STARDUST_DSL_SCENARIO_H_
