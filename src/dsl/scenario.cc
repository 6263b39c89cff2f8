#include "dsl/scenario.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "engine/engine.h"
#include "query/sinks.h"
#include "stream/io.h"

namespace stardust::dsl {

namespace {

Result<MonitorExpect> ExpectFromNode(const TextNode& node,
                                     const std::string& source) {
  if (node.kind != TextNode::Kind::kMap) {
    return TextError(source, node.line, node.col,
                     "expect monitor must be a map");
  }
  MonitorExpect expect;
  for (const auto& [key, value] : node.entries) {
    if (key == "name") {
      Result<std::string> v = ScalarString(value, source);
      if (!v.ok()) return v.status();
      expect.name = v.value();
    } else if (key == "min") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      expect.min = v.value();
    } else if (key == "max") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      expect.max = v.value();
    } else {
      return TextError(source, value.line, value.col,
                       "unknown expect key '" + key + "'");
    }
  }
  if (expect.name.empty()) {
    return TextError(source, node.line, node.col,
                     "expect monitor needs a 'name'");
  }
  return expect;
}

Status ParseExpect(const TextNode& node, const std::string& source,
                   ScenarioExpect* out) {
  if (node.kind != TextNode::Kind::kMap) {
    return TextError(source, node.line, node.col,
                     "'expect' must be a map");
  }
  for (const auto& [key, value] : node.entries) {
    if (key == "min_alerts") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      out->min_alerts = v.value();
    } else if (key == "max_alerts") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      out->max_alerts = v.value();
    } else if (key == "monitors") {
      if (value.kind != TextNode::Kind::kList) {
        return TextError(source, value.line, value.col,
                         "'expect.monitors' must be a list");
      }
      for (const TextNode& item : value.items) {
        Result<MonitorExpect> expect = ExpectFromNode(item, source);
        if (!expect.ok()) return expect.status();
        out->monitors.push_back(std::move(expect.value()));
      }
    } else {
      return TextError(source, value.line, value.col,
                       "unknown expect key '" + key + "'");
    }
  }
  return Status::OK();
}

/// Parses the `tuples: |` block: one CSV row per line, exactly
/// `streams` columns. Diagnostics carry the absolute source line of the
/// offending row (the node remembers where the block started).
Status ParseTuples(const TextNode& node, const std::string& source,
                   std::size_t streams,
                   std::vector<std::vector<double>>* out) {
  if (node.kind != TextNode::Kind::kScalar || !node.literal_block) {
    return TextError(source, node.line, node.col,
                     "'tuples' must be a '|' literal block of CSV rows");
  }
  std::istringstream in(node.scalar);
  std::string line;
  std::size_t offset = 0;
  while (std::getline(in, line)) {
    const std::size_t line_no = node.line + offset;
    ++offset;
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    std::vector<double> row;
    const Status parsed = ParseCsvRow(line, &row);
    if (!parsed.ok()) {
      return TextError(source, line_no, node.col, parsed.message());
    }
    if (row.size() != streams) {
      char msg[96];
      std::snprintf(msg, sizeof(msg),
                    "row has %zu column(s), scenario declares %zu "
                    "stream(s)",
                    row.size(), streams);
      return TextError(source, line_no, node.col, msg);
    }
    out->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace

Result<ScenarioDef> ParseScenario(const std::string& text,
                                  const std::string& source) {
  Result<TextNode> doc = ParseTextDocument(text, source);
  if (!doc.ok()) return doc.status();
  const TextNode& root = doc.value();

  ScenarioDef def;
  def.source = source;
  const TextNode* tuples = nullptr;
  for (const auto& [key, value] : root.entries) {
    if (key == "scenario") {
      Result<std::string> v = ScalarString(value, source);
      if (!v.ok()) return v.status();
      def.name = v.value();
    } else if (key == "streams") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      def.streams = v.value();
    } else if (key == "base_window") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      def.base_window = v.value();
    } else if (key == "num_levels") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      def.num_levels = v.value();
    } else if (key == "history") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      def.history = v.value();
    } else if (key == "shards") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      def.shards = v.value();
    } else if (key == "max_batch") {
      Result<std::size_t> v = ScalarSize(value, source);
      if (!v.ok()) return v.status();
      def.max_batch = v.value();
    } else if (key == "aggregate") {
      Result<std::string> v = ScalarString(value, source);
      if (!v.ok()) return v.status();
      def.aggregate = v.value();
      if (IsSketchMeasure(def.aggregate) ||
          (def.aggregate != "sum" && def.aggregate != "max" &&
           def.aggregate != "min" && def.aggregate != "spread")) {
        return TextError(source, value.line, value.col,
                         "'aggregate' must be sum, max, min, or spread");
      }
    } else if (key == "monitors") {
      if (value.kind != TextNode::Kind::kList) {
        return TextError(source, value.line, value.col,
                         "'monitors' must be a list");
      }
      for (const TextNode& item : value.items) {
        Result<MonitorDef> monitor = MonitorFromNode(item, source);
        if (!monitor.ok()) return monitor.status();
        for (const MonitorDef& existing : def.monitors) {
          if (existing.name == monitor.value().name) {
            return TextError(source, item.line, item.col,
                             "duplicate monitor name '" +
                                 monitor.value().name + "'");
          }
        }
        def.monitors.push_back(std::move(monitor.value()));
      }
    } else if (key == "expect") {
      SD_RETURN_NOT_OK(ParseExpect(value, source, &def.expect));
    } else if (key == "tuples") {
      tuples = &value;
    } else {
      return TextError(source, value.line, value.col,
                       "unknown scenario key '" + key + "'");
    }
  }

  if (def.name.empty()) {
    return TextError(source, root.line, root.col,
                     "scenario needs a 'scenario: <name>' entry");
  }
  if (def.streams == 0) {
    return TextError(source, root.line, root.col,
                     "scenario needs 'streams' >= 1");
  }
  if (def.base_window == 0) {
    return TextError(source, root.line, root.col,
                     "scenario needs 'base_window' >= 1");
  }
  if (def.monitors.empty()) {
    return TextError(source, root.line, root.col,
                     "scenario needs at least one monitor");
  }
  if (tuples == nullptr) {
    return TextError(source, root.line, root.col,
                     "scenario needs a 'tuples: |' block");
  }
  SD_RETURN_NOT_OK(ParseTuples(*tuples, source, def.streams, &def.rows));
  if (def.rows.empty()) {
    return TextError(source, tuples->line, tuples->col,
                     "tuple block holds no rows");
  }
  for (const MonitorExpect& expect : def.expect.monitors) {
    const bool known =
        std::any_of(def.monitors.begin(), def.monitors.end(),
                    [&expect](const MonitorDef& m) {
                      return m.name == expect.name;
                    });
    if (!known) {
      return Status::InvalidArgument(
          source + ": expect references unknown monitor '" + expect.name +
          "'");
    }
  }
  return def;
}

Result<ScenarioDef> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open scenario file: " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseScenario(text.str(), path);
}

Result<ScenarioReport> RunScenario(
    const ScenarioDef& def,
    const std::function<void(const Alert&)>& on_alert) {
  AggregateKind engine_kind = AggregateKind::kSum;
  if (def.aggregate == "max") {
    engine_kind = AggregateKind::kMax;
  } else if (def.aggregate == "min") {
    engine_kind = AggregateKind::kMin;
  } else if (def.aggregate == "spread") {
    engine_kind = AggregateKind::kSpread;
  }

  // Compile every monitor first: a bad definition must fail before the
  // engine spins up.
  std::vector<QuerySpec> specs;
  specs.reserve(def.monitors.size());
  for (const MonitorDef& monitor : def.monitors) {
    Result<QuerySpec> spec = CompileMonitor(monitor, engine_kind);
    if (!spec.ok()) return spec.status();
    specs.push_back(std::move(spec.value()));
  }

  // Size the aggregate path so every exact-monitor window is an indexed
  // resolution (the same derivation stardust_cli's subscribe path uses).
  const std::size_t base = def.base_window;
  std::size_t levels = std::max<std::size_t>(def.num_levels, 1);
  for (const MonitorDef& monitor : def.monitors) {
    if (IsSketchMeasure(monitor.measure)) continue;
    while ((monitor.window / base) >> levels != 0) ++levels;
  }
  StardustConfig fleet;
  fleet.transform = TransformKind::kAggregate;
  fleet.aggregate = engine_kind;
  fleet.base_window = base;
  fleet.num_levels = levels;
  fleet.history = def.history != 0
                      ? def.history
                      : std::max(def.rows.size(), base << (levels - 1));
  fleet.box_capacity = 4;
  fleet.update_period = 1;

  EngineConfig econfig;
  econfig.num_shards = std::max<std::size_t>(def.shards, 1);
  // Replays outrun live feeds; bounding the batch at one base window per
  // stream keeps short-lived crossings visible to the per-batch
  // evaluation, mimicking a paced feed.
  econfig.max_batch = def.max_batch != 0 ? def.max_batch : base;

  Result<std::unique_ptr<IngestEngine>> engine =
      IngestEngine::Create(fleet, {}, def.streams, econfig);
  if (!engine.ok()) return engine.status();

  std::vector<QueryId> ids;
  ids.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Result<QueryId> id = engine.value()->RegisterQuery(specs[i]);
    if (!id.ok()) {
      return Status::InvalidArgument("monitor '" + def.monitors[i].name +
                                     "': " + id.status().message());
    }
    ids.push_back(id.value());
  }

  // Tally alerts per monitor on the bus dispatcher thread.
  struct Tally {
    std::mutex mu;
    std::unordered_map<QueryId, std::uint64_t> by_query;
  };
  auto tally = std::make_shared<Tally>();
  engine.value()->alerts().AddSink(
      std::make_shared<CallbackSink>([tally, on_alert](const Alert& alert) {
        {
          std::lock_guard<std::mutex> lock(tally->mu);
          ++tally->by_query[alert.query];
        }
        if (on_alert) on_alert(alert);
      }));

  for (const std::vector<double>& row : def.rows) {
    for (std::size_t s = 0; s < row.size(); ++s) {
      const Status posted =
          engine.value()->Post(static_cast<StreamId>(s), row[s]);
      if (!posted.ok()) return posted;
    }
  }
  SD_RETURN_NOT_OK(engine.value()->Flush());
  SD_RETURN_NOT_OK(engine.value()->Stop());

  ScenarioReport report;
  {
    std::lock_guard<std::mutex> lock(tally->mu);
    for (std::size_t i = 0; i < def.monitors.size(); ++i) {
      const auto it = tally->by_query.find(ids[i]);
      const std::uint64_t count =
          it == tally->by_query.end() ? 0 : it->second;
      report.monitors.push_back({def.monitors[i].name, count});
      report.total_alerts += count;
    }
  }

  // Check the expect block; collect every violation, not just the first.
  std::string violations;
  const auto violate = [&violations](const std::string& line) {
    if (!violations.empty()) violations += "; ";
    violations += line;
  };
  char msg[160];
  if (report.total_alerts < def.expect.min_alerts ||
      report.total_alerts > def.expect.max_alerts) {
    std::snprintf(msg, sizeof(msg),
                  "total alerts %llu outside expected [%llu, %llu]",
                  static_cast<unsigned long long>(report.total_alerts),
                  static_cast<unsigned long long>(def.expect.min_alerts),
                  static_cast<unsigned long long>(def.expect.max_alerts));
    violate(msg);
  }
  for (const MonitorExpect& expect : def.expect.monitors) {
    for (const MonitorAlertCount& count : report.monitors) {
      if (count.name != expect.name) continue;
      if (count.alerts < expect.min || count.alerts > expect.max) {
        std::snprintf(
            msg, sizeof(msg),
            "monitor '%s' raised %llu alert(s), expected [%llu, %llu]",
            expect.name.c_str(),
            static_cast<unsigned long long>(count.alerts),
            static_cast<unsigned long long>(expect.min),
            static_cast<unsigned long long>(expect.max));
        violate(msg);
      }
    }
  }
  if (!violations.empty()) {
    return Status::FailedPrecondition("scenario '" + def.name +
                                      "': " + violations);
  }
  return report;
}

}  // namespace stardust::dsl
