// stardust_cli — run the framework on your own CSV traces.
//
//   stardust_cli monitor   <data.csv> [--base K] [--windows m]
//                          [--lambda L] [--capacity c] [--training n]
//   stardust_cli patterns  <data.csv> <query.csv> [--radius r] [--base W]
//                          [--levels J] [--capacity c] [--coefficients f]
//   stardust_cli correlate <data.csv> [--radius r] [--window N]
//                          [--basic W] [--coefficients f]
//   stardust_cli advise    <data.csv> [--base W] [--levels J] [--lambda L]
//   stardust_cli surprise  <data.csv> [--threshold d] [--base W]
//                          [--levels J] [--coefficients f]
//   stardust_cli subscribe <data.csv> [--shards n] [--base K]
//                          [--agg-window W --agg-threshold T]
//                          [--pattern query.csv] [--radius r]
//                          [--pattern-base W] [--corr-radius r]
//                          [--corr-base W] [--corr-window N]
//                          [--coefficients f] [--max-batch n]
//   stardust_cli subscribe --tcp host:port [--id name] [--resume seq]
//                          [--count n] [--idle-timeout ms]
//   stardust_cli ingest    <data.csv|-> --port p [--host h] [--batch n]
//   stardust_cli placement --port p [--host h]
//   stardust_cli migrate   <stream> <shard> --port p [--host h]
//   stardust_cli run       <scenario.yaml> [--verbose 1]
//
// `run` replays a declarative scenario (docs/DSL.md): the file describes
// the engine shape, the monitors (exact aggregates and sketch measures
// with their assess ranges), the input tuples, and the expected alert
// counts. Exit status 0 means every expectation held; a violated bound
// prints the failing monitors and exits 1. --verbose 1 additionally
// streams each alert as a JSON line on stdout.
//
// `ingest` streams CSV rows (column c -> stream c) to a running
// stardust_server over the binary frame protocol (docs/NETWORK.md).
// Malformed lines are reported on stderr with the input name and line
// number and skipped — the run keeps going instead of aborting. `-`
// reads stdin.
//
// `placement` dumps a running server's stream→shard placement table as
// JSON. `migrate` live-migrates one stream to a target shard and prints
// the migration summary — or the engine's refusal — without stopping the
// feed (docs/ENGINE.md, "Elastic sharding").
//
// `subscribe --tcp` attaches to a running stardust_server as a durable
// subscriber: every alert arrives as one JSON line on stdout and is
// acknowledged, so a restarted `subscribe --tcp --id NAME` resumes where
// the last one stopped. --resume fast-forwards the cursor, --count exits
// after n alerts, --idle-timeout exits after ms without one.
//
// `subscribe` (with a CSV) replays it through the sharded ingestion engine
// (src/engine) with continuous queries registered up front, and streams
// every alert as one JSON line on stdout while a run summary goes to
// stderr — the offline stand-in for subscribing to a live feed
// (docs/QUERIES.md). Each flag group registers one query: --agg-threshold
// an aggregate threshold query, --pattern a pattern query, --corr-radius
// a correlation query.
//
// Preprocessing flags accepted by every command, applied in this order:
//   --fill-gaps 1        linearly interpolate NaN/Inf gaps
//   --resample k         average non-overlapping blocks of k rows
//   --detrend 1          remove each stream's linear trend
//
// Data format: one row per time step, one column per stream; an optional
// header row is skipped (see src/stream/io.h). The query file for
// `patterns` uses its first column.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <chrono>
#include <memory>
#include <thread>

#include "core/aggregate_monitor.h"
#include "dsl/scenario.h"
#include "core/correlation_monitor.h"
#include "core/pattern_query.h"
#include "core/surprise_monitor.h"
#include "core/window_advisor.h"
#include "engine/engine.h"
#include "net/client.h"
#include "query/sinks.h"
#include "stream/io.h"
#include "stream/preprocess.h"
#include "stream/threshold.h"
#include "dwt/haar.h"
#include "transform/feature.h"

namespace {

using namespace stardust;

/// --flag value option map; positional arguments in order.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  double GetDouble(const std::string& key, double fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::atof(it->second.c_str());
  }
  std::size_t GetSize(const std::string& key, std::size_t fallback) const {
    auto it = options.find(key);
    return it == options.end()
               ? fallback
               : static_cast<std::size_t>(
                     std::strtoull(it->second.c_str(), nullptr, 10));
  }
  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      args.options[arg.substr(2)] = argv[++i];
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Loads a dataset and applies the shared preprocessing flags.
Result<Dataset> LoadAndPreprocess(const Args& args,
                                  const std::string& path) {
  Result<Dataset> data = LoadDatasetCsv(path);
  if (!data.ok()) return data;
  if (args.GetSize("fill-gaps", 0) != 0) {
    data = FillGaps(data.value());
    if (!data.ok()) return data;
  }
  const std::size_t factor = args.GetSize("resample", 1);
  if (factor > 1) {
    data = Resample(data.value(), factor);
    if (!data.ok()) return data;
  }
  if (args.GetSize("detrend", 0) != 0) {
    data = Detrend(data.value());
    if (!data.ok()) return data;
  }
  return data;
}

int RunSurprise(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "surprise: missing <data.csv>\n");
    return 2;
  }
  Result<Dataset> data = LoadAndPreprocess(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status());
  const double threshold = args.GetDouble("threshold", 0.05);
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = args.GetSize("coefficients", 8);
  config.r_max = data.value().r_max;
  config.base_window = args.GetSize("base", 16);
  config.num_levels = args.GetSize("levels", 3);
  config.history = data.value().length();
  config.box_capacity = 1;
  config.update_period = 1;
  config.index_features = true;
  Result<std::unique_ptr<SurpriseMonitor>> monitor =
      SurpriseMonitor::Create(config, data.value().num_streams(),
                              threshold);
  if (!monitor.ok()) return Fail(monitor.status());
  std::vector<SurpriseEvent> events;
  for (std::size_t t = 0; t < data.value().length(); ++t) {
    for (std::size_t s = 0; s < data.value().num_streams(); ++s) {
      const Status st =
          monitor.value()->Append(static_cast<StreamId>(s),
                                  data.value().streams[s][t], &events);
      if (!st.ok()) return Fail(st);
    }
  }
  std::printf("threshold %.4f: %zu novelty event(s)\n", threshold,
              events.size());
  for (const auto& event : events) {
    std::printf("  stream %u, rows %llu..%llu (window %zu), novelty "
                "%.4f\n",
                event.stream,
                static_cast<unsigned long long>(event.end_time + 1 -
                                                event.window),
                static_cast<unsigned long long>(event.end_time),
                event.window, event.novelty);
  }
  return 0;
}

int RunMonitor(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "monitor: missing <data.csv>\n");
    return 2;
  }
  Result<Dataset> data = LoadAndPreprocess(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status());
  const std::size_t base = args.GetSize("base", 10);
  const std::size_t m = args.GetSize("windows", 16);
  const double lambda = args.GetDouble("lambda", 3.0);
  const std::size_t capacity = args.GetSize("capacity", 4);
  const std::size_t training_len =
      args.GetSize("training", data.value().length() / 4);

  std::size_t levels = 1;
  while ((std::size_t{1} << levels) <= m) ++levels;
  std::vector<std::size_t> windows;
  for (std::size_t i = 1; i <= m; ++i) windows.push_back(i * base);

  std::printf("%zu stream(s), %zu values each; windows %zu..%zu, "
              "lambda %.2f, c=%zu\n",
              data.value().num_streams(), data.value().length(), base,
              m * base, lambda, capacity);
  for (std::size_t s = 0; s < data.value().num_streams(); ++s) {
    const std::vector<double>& stream = data.value().streams[s];
    if (stream.size() <= training_len) continue;
    const std::vector<double> training(stream.begin(),
                                       stream.begin() + training_len);
    const auto thresholds =
        TrainThresholds(AggregateKind::kSum, training, windows, lambda);
    if (thresholds.empty()) continue;
    StardustConfig config;
    config.transform = TransformKind::kAggregate;
    config.aggregate = AggregateKind::kSum;
    config.base_window = base;
    config.num_levels = levels;
    config.history =
        std::max(m * base, base << (levels - 1));
    config.box_capacity = capacity;
    config.update_period = 1;
    Result<std::unique_ptr<AggregateMonitor>> monitor =
        AggregateMonitor::Create(config, thresholds);
    if (!monitor.ok()) return Fail(monitor.status());
    for (double v : stream) {
      const Status st = monitor.value()->Append(v);
      if (!st.ok()) return Fail(st);
    }
    const AlarmStats total = monitor.value()->TotalStats();
    std::printf("stream %zu: %llu alarms raised, %llu true, "
                "precision %.3f\n",
                s, static_cast<unsigned long long>(total.candidates),
                static_cast<unsigned long long>(total.true_alarms),
                total.Precision());
  }
  return 0;
}

int RunPatterns(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "patterns: need <data.csv> <query.csv>\n");
    return 2;
  }
  Result<Dataset> data = LoadAndPreprocess(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status());
  Result<Dataset> query_data = LoadDatasetCsv(args.positional[1]);
  if (!query_data.ok()) return Fail(query_data.status());
  const std::vector<double>& query = query_data.value().streams[0];
  const double radius = args.GetDouble("radius", 0.05);
  const std::size_t base = args.GetSize("base", 16);
  const std::size_t levels = args.GetSize("levels", 4);
  const std::size_t capacity = args.GetSize("capacity", 8);
  const std::size_t f = args.GetSize("coefficients", 4);

  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = f;
  config.r_max = data.value().r_max;
  config.base_window = base;
  config.num_levels = levels;
  config.history = data.value().length();
  config.box_capacity = capacity;
  config.update_period = 1;
  config.index_features = true;
  Result<std::unique_ptr<Stardust>> core = Stardust::Create(config);
  if (!core.ok()) return Fail(core.status());
  for (const auto& stream : data.value().streams) {
    const StreamId id = core.value()->AddStream();
    for (double v : stream) {
      const Status st = core.value()->Append(id, v);
      if (!st.ok()) return Fail(st);
    }
  }
  PatternQueryEngine engine(*core.value());
  Result<PatternResult> result = engine.QueryOnline(query, radius);
  if (!result.ok()) return Fail(result.status());
  std::printf("query length %zu, radius %.4f: %zu match(es), "
              "%llu candidates checked\n",
              query.size(), radius, result.value().matches.size(),
              static_cast<unsigned long long>(result.value().candidates));
  for (const auto& match : result.value().matches) {
    std::printf("  stream %u, rows %llu..%llu, distance %.6f\n",
                match.stream,
                static_cast<unsigned long long>(match.end_time + 1 -
                                                query.size()),
                static_cast<unsigned long long>(match.end_time),
                match.distance);
  }
  return 0;
}

int RunCorrelate(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "correlate: missing <data.csv>\n");
    return 2;
  }
  Result<Dataset> data = LoadAndPreprocess(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status());
  const std::size_t basic = args.GetSize("basic", 16);
  std::size_t n = args.GetSize("window", 256);
  const std::size_t f = args.GetSize("coefficients", 4);
  const double radius = args.GetDouble("radius", 0.5);
  std::size_t levels = 1;
  while ((basic << (levels - 1)) < n) ++levels;
  n = basic << (levels - 1);

  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kZNorm;
  config.coefficients = f;
  config.base_window = basic;
  config.num_levels = levels;
  config.history = n;
  config.box_capacity = 1;
  config.update_period = basic;
  Result<std::unique_ptr<CorrelationMonitor>> monitor =
      CorrelationMonitor::Create(config, data.value().num_streams(),
                                 radius);
  if (!monitor.ok()) return Fail(monitor.status());
  std::vector<double> values(data.value().num_streams());
  for (std::size_t t = 0; t < data.value().length(); ++t) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = data.value().streams[i][t];
    }
    const Status st = monitor.value()->AppendAll(values);
    if (!st.ok()) return Fail(st);
  }
  std::printf("window %zu, distance radius %.3f (corr >= %.3f): "
              "%llu candidates, %llu verified over the run\n",
              n, radius, CorrelationFromDist2(radius * radius),
              static_cast<unsigned long long>(
                  monitor.value()->stats().candidates),
              static_cast<unsigned long long>(
                  monitor.value()->stats().true_pairs));
  std::printf("final round:\n");
  for (const auto& pair : monitor.value()->last_round()) {
    if (!pair.verified) continue;
    std::printf("  streams (%u, %u): corr %.4f\n", pair.a, pair.b,
                CorrelationFromDist2(pair.distance * pair.distance));
  }
  return 0;
}

int RunAdvise(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "advise: missing <data.csv>\n");
    return 2;
  }
  Result<Dataset> data = LoadAndPreprocess(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status());
  const std::size_t base = args.GetSize("base", 8);
  const std::size_t levels = args.GetSize("levels", 8);
  const double lambda = args.GetDouble("lambda", 4.0);
  for (std::size_t s = 0; s < data.value().num_streams(); ++s) {
    Result<std::unique_ptr<WindowAdvisor>> advisor =
        WindowAdvisor::Create(AggregateKind::kSum, base, levels);
    if (!advisor.ok()) return Fail(advisor.status());
    for (double v : data.value().streams[s]) advisor.value()->Append(v);
    std::printf("stream %zu:\n", s);
    std::printf("  %8s %10s %14s %12s\n", "window", "score", "threshold",
                "alarm rate");
    for (const auto& advice : advisor.value()->Advise(lambda)) {
      std::printf("  %8zu %10.2f %14.2f %12.5f\n", advice.window,
                  advice.score, advice.threshold, advice.alarm_rate);
    }
  }
  // DWT coefficient suggestion for pattern/correlation monitoring
  // (Section 4's energy-concentration premise, measured on this data).
  const std::size_t w = args.GetSize("window", 64);
  if (IsPowerOfTwo(w) && data.value().length() >= w) {
    std::vector<std::vector<double>> samples;
    const std::size_t stride =
        std::max<std::size_t>(1, (data.value().length() - w) / 50 + 1);
    for (const auto& stream : data.value().streams) {
      for (std::size_t start = 0; start + w <= stream.size();
           start += stride) {
        samples.emplace_back(stream.begin() + start,
                             stream.begin() + start + w);
        if (samples.size() >= 200) break;
      }
      if (samples.size() >= 200) break;
    }
    std::printf("\nDWT coefficients for %zu-step windows: f = %zu keeps "
                ">=95%% of the energy, f = %zu keeps >=99%%\n",
                w, SuggestCoefficientCount(samples, 0.95),
                SuggestCoefficientCount(samples, 0.99));
  }
  return 0;
}

/// TCP producer: CSV rows in, Batch frames out (docs/NETWORK.md).
/// Malformed lines are diagnosed with their line number and skipped.
/// Workload harness: replay a declarative scenario and assert its
/// expected alerts (src/dsl, docs/DSL.md).
int RunScenarioFile(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "run: missing <scenario.yaml>\n");
    return 2;
  }
  Result<dsl::ScenarioDef> scenario =
      dsl::LoadScenarioFile(args.positional[0]);
  if (!scenario.ok()) return Fail(scenario.status());
  std::function<void(const Alert&)> on_alert;
  if (args.GetSize("verbose", 0) != 0) {
    on_alert = [](const Alert& alert) {
      std::printf("%s\n", AlertToJson(alert).c_str());
      std::fflush(stdout);
    };
  }
  Result<dsl::ScenarioReport> report =
      dsl::RunScenario(scenario.value(), on_alert);
  if (!report.ok()) return Fail(report.status());
  std::fprintf(stderr, "scenario '%s': %zu stream(s), %zu row(s), "
               "%zu monitor(s)\n",
               scenario.value().name.c_str(), scenario.value().streams,
               scenario.value().rows.size(),
               scenario.value().monitors.size());
  for (const dsl::MonitorAlertCount& count : report.value().monitors) {
    std::fprintf(stderr, "  monitor %s: %llu alert(s)\n",
                 count.name.c_str(),
                 static_cast<unsigned long long>(count.alerts));
  }
  std::fprintf(stderr, "  %llu alert(s) total, expectations met\n",
               static_cast<unsigned long long>(
                   report.value().total_alerts));
  return 0;
}

int RunIngest(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "ingest: missing <data.csv|->\n");
    return 2;
  }
  if (args.options.count("port") == 0) {
    std::fprintf(stderr, "ingest: missing --port\n");
    return 2;
  }
  const std::string host = args.GetString("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.GetSize("port", 0));
  const std::size_t batch_rows =
      std::max<std::size_t>(1, args.GetSize("batch", 64));

  std::ifstream file;
  std::istream* in = &std::cin;
  if (args.positional[0] != "-") {
    file.open(args.positional[0], std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "ingest: cannot open %s\n",
                   args.positional[0].c_str());
      return 1;
    }
    in = &file;
  }

  Result<std::unique_ptr<net::ProducerClient>> client =
      net::ProducerClient::Connect(host, port);
  if (!client.ok()) return Fail(client.status());

  net::BatchMessage batch;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rows = 0;
  std::uint64_t malformed = 0;
  std::size_t pending_rows = 0;

  auto flush = [&]() -> Status {
    if (batch.runs.empty()) return Status::OK();
    Result<net::BatchAckMessage> ack = client.value()->Send(batch);
    if (!ack.ok()) return ack.status();
    accepted += ack.value().accepted;
    dropped += ack.value().dropped;
    batch.runs.clear();
    pending_rows = 0;
    return Status::OK();
  };

  // Name the input in diagnostics so interleaved feeds stay attributable.
  const std::string input_name =
      args.positional[0] == "-" ? "stdin" : args.positional[0];
  std::string line;
  std::vector<double> row;
  std::size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const Status parsed = ParseCsvRow(line, &row);
    if (!parsed.ok()) {
      // Diagnose and keep going — one bad line must not kill a feed.
      ++malformed;
      std::fprintf(stderr, "ingest: %s:%zu: %s (skipped)\n",
                   input_name.c_str(), line_no, parsed.message().c_str());
      continue;
    }
    for (std::size_t s = 0; s < row.size(); ++s) {
      if (batch.runs.size() <= s) {
        batch.runs.push_back({static_cast<std::uint32_t>(s), {}});
      }
      batch.runs[s].values.push_back(row[s]);
    }
    ++rows;
    if (++pending_rows >= batch_rows) {
      const Status st = flush();
      if (!st.ok()) return Fail(st);
    }
  }
  Status st = flush();
  if (!st.ok()) return Fail(st);
  client.value()->Close();

  std::fprintf(stderr,
               "ingest: %llu row(s) sent, %llu value(s) accepted, "
               "%llu dropped, %llu malformed line(s) skipped\n",
               static_cast<unsigned long long>(rows),
               static_cast<unsigned long long>(accepted),
               static_cast<unsigned long long>(dropped),
               static_cast<unsigned long long>(malformed));
  return 0;
}

/// Operator plane: connects to a running server and dumps its placement
/// table (epoch + stream→shard map) as one JSON document on stdout.
int RunPlacement(const Args& args) {
  if (args.options.count("port") == 0) {
    std::fprintf(stderr, "placement: missing --port\n");
    return 2;
  }
  const std::string host = args.GetString("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.GetSize("port", 0));
  Result<std::unique_ptr<net::AdminClient>> client =
      net::AdminClient::Connect(host, port);
  if (!client.ok()) return Fail(client.status());
  Result<net::AdminResultMessage> result = client.value()->PlacementDump();
  if (!result.ok()) return Fail(result.status());
  if (!result.value().ok) {
    std::fprintf(stderr, "placement: %s\n", result.value().message.c_str());
    return 1;
  }
  std::printf("%s\n", result.value().json.c_str());
  return 0;
}

/// Operator plane: live-migrates one stream to a target shard on a
/// running server. Prints the migration summary (stream, shard, new
/// placement epoch) on success; the engine's refusal goes to stderr.
int RunMigrate(const Args& args) {
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "migrate: need <stream> <shard>\n");
    return 2;
  }
  if (args.options.count("port") == 0) {
    std::fprintf(stderr, "migrate: missing --port\n");
    return 2;
  }
  const std::string host = args.GetString("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.GetSize("port", 0));
  const std::uint64_t stream =
      std::strtoull(args.positional[0].c_str(), nullptr, 10);
  const std::uint64_t shard =
      std::strtoull(args.positional[1].c_str(), nullptr, 10);
  Result<std::unique_ptr<net::AdminClient>> client =
      net::AdminClient::Connect(host, port);
  if (!client.ok()) return Fail(client.status());
  Result<net::AdminResultMessage> result =
      client.value()->Migrate(stream, shard);
  if (!result.ok()) return Fail(result.status());
  if (!result.value().ok) {
    std::fprintf(stderr, "migrate: %s\n", result.value().message.c_str());
    return 1;
  }
  std::printf("%s\n", result.value().json.c_str());
  return 0;
}

/// Live TCP subscriber: alerts as JSON lines on stdout, each
/// acknowledged so the server-side cursor survives reconnects.
int RunSubscribeTcp(const Args& args) {
  const std::string target = args.options.at("tcp");
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "subscribe: --tcp wants host:port\n");
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const auto port = static_cast<std::uint16_t>(
      std::strtoull(target.c_str() + colon + 1, nullptr, 10));
  const std::string id = args.GetString("id", "stardust-cli");
  const std::uint64_t resume = args.GetSize("resume", 0);
  const std::size_t count = args.GetSize("count", 0);
  const int idle_timeout =
      static_cast<int>(args.GetSize("idle-timeout", 0));

  Result<std::unique_ptr<net::SubscriberClient>> client =
      net::SubscriberClient::Connect(host, port, id, resume);
  if (!client.ok()) return Fail(client.status());
  std::fprintf(stderr, "subscribed as '%s', resuming after seq %llu\n",
               id.c_str(),
               static_cast<unsigned long long>(
                   client.value()->resume_from()));

  std::size_t received = 0;
  for (;;) {
    const int wait_ms = idle_timeout > 0 ? idle_timeout : 1000;
    Result<net::AlertFrameMessage> alert = client.value()->Next(wait_ms);
    if (!alert.ok()) {
      if (alert.status().code() == StatusCode::kNotFound) {
        if (idle_timeout > 0) break;  // idle long enough; done
        continue;
      }
      return Fail(alert.status());
    }
    std::printf("%s\n", alert.value().json.c_str());
    std::fflush(stdout);
    const Status st = client.value()->Ack(alert.value().seq);
    if (!st.ok()) return Fail(st);
    ++received;
    if (count > 0 && received >= count) break;
  }
  std::fprintf(stderr, "%zu alert(s) received\n", received);
  return 0;
}

int RunSubscribe(const Args& args) {
  if (args.options.count("tcp") != 0) return RunSubscribeTcp(args);
  if (args.positional.empty()) {
    std::fprintf(stderr, "subscribe: missing <data.csv>\n");
    return 2;
  }
  Result<Dataset> data = LoadAndPreprocess(args, args.positional[0]);
  if (!data.ok()) return Fail(data.status());
  const std::size_t num_streams = data.value().num_streams();
  const std::size_t length = data.value().length();
  const std::size_t base = args.GetSize("base", 10);
  const std::size_t agg_window = args.GetSize("agg-window", 2 * base);
  const std::size_t f = args.GetSize("coefficients", 4);

  // Aggregate-path configuration: sized so the requested query window is
  // an indexed resolution. Alerts come from the registered queries.
  StardustConfig fleet;
  fleet.transform = TransformKind::kAggregate;
  fleet.aggregate = AggregateKind::kSum;
  fleet.base_window = base;
  fleet.num_levels = 1;
  while ((agg_window / std::max<std::size_t>(base, 1)) >>
         fleet.num_levels) {
    ++fleet.num_levels;
  }
  fleet.history = std::max(length, base << (fleet.num_levels - 1));
  fleet.box_capacity = args.GetSize("capacity", 4);
  fleet.update_period = 1;

  EngineConfig econfig;
  econfig.num_shards = args.GetSize("shards", 2);
  // Queries are evaluated once per applied batch. An offline replay can
  // outrun the workers and land in giant batches that step over
  // short-lived threshold crossings, so bound the batch at one base
  // window per stream to mimic a paced live feed.
  econfig.max_batch =
      args.GetSize("max-batch", std::max<std::size_t>(base, 1));

  Result<Dataset> pattern_query = Status::NotFound("no pattern");
  if (args.options.count("pattern") != 0) {
    pattern_query = LoadDatasetCsv(args.options.at("pattern"));
    if (!pattern_query.ok()) return Fail(pattern_query.status());
    const std::size_t len = pattern_query.value().streams[0].size();
    StardustConfig& pat = econfig.query.pattern;
    pat.transform = TransformKind::kDwt;
    pat.normalization = Normalization::kUnitSphere;
    pat.coefficients = f;
    pat.r_max = data.value().r_max;
    pat.base_window = args.GetSize("pattern-base", 16);
    pat.num_levels = 1;
    while ((len / std::max<std::size_t>(pat.base_window, 1)) >>
           pat.num_levels) {
      ++pat.num_levels;
    }
    pat.history = length;
    pat.box_capacity = 1;
    pat.update_period = 1;
    pat.index_features = true;
    econfig.query.enable_patterns = true;
  }
  if (args.options.count("corr-radius") != 0) {
    StardustConfig& corr = econfig.query.correlation;
    corr.transform = TransformKind::kDwt;
    corr.normalization = Normalization::kZNorm;
    corr.coefficients = f;
    corr.base_window = args.GetSize("corr-base", 16);
    std::size_t n = args.GetSize("corr-window", 64);
    corr.num_levels = 1;
    while ((corr.base_window << (corr.num_levels - 1)) < n) {
      ++corr.num_levels;
    }
    corr.history = corr.base_window << (corr.num_levels - 1);
    corr.box_capacity = 1;
    corr.update_period = corr.base_window;
    econfig.query.enable_correlation = true;
  }

  Result<std::unique_ptr<IngestEngine>> engine =
      IngestEngine::Create(fleet, {}, num_streams, econfig);
  if (!engine.ok()) return Fail(engine.status());

  // JSONL subscriber: one line per alert on stdout, delivered on the
  // alert log's delivery thread while ingestion runs.
  engine.value()->alerts().AddSink(
      std::make_shared<CallbackSink>([](const Alert& alert) {
        std::printf("%s\n", AlertToJson(alert).c_str());
      }));

  std::vector<QueryId> registered;
  if (args.options.count("agg-threshold") != 0) {
    Result<QueryId> id = engine.value()->RegisterQuery(QuerySpec::Aggregate(
        agg_window, args.GetDouble("agg-threshold", 0.0)));
    if (!id.ok()) return Fail(id.status());
    registered.push_back(id.value());
  }
  if (pattern_query.ok()) {
    Result<QueryId> id = engine.value()->RegisterQuery(QuerySpec::Pattern(
        pattern_query.value().streams[0], args.GetDouble("radius", 0.05)));
    if (!id.ok()) return Fail(id.status());
    registered.push_back(id.value());
  }
  if (args.options.count("corr-radius") != 0) {
    Result<QueryId> id = engine.value()->RegisterQuery(
        QuerySpec::Correlation(args.GetDouble("corr-radius", 0.5)));
    if (!id.ok()) return Fail(id.status());
    registered.push_back(id.value());
  }
  if (registered.empty()) {
    std::fprintf(stderr,
                 "subscribe: no queries registered — pass --agg-threshold, "
                 "--pattern, and/or --corr-radius\n");
    return 2;
  }

  for (std::size_t t = 0; t < length; ++t) {
    for (std::size_t s = 0; s < num_streams; ++s) {
      const Status st = engine.value()->Post(static_cast<StreamId>(s),
                                             data.value().streams[s][t]);
      if (!st.ok()) return Fail(st);
    }
  }
  Status st = engine.value()->Flush();
  if (!st.ok()) return Fail(st);
  if (econfig.query.enable_correlation) {
    // Give the correlator a couple of periods to evaluate the final
    // common feature time before tearing down.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        4 * econfig.query.correlator_period_ms));
  }
  st = engine.value()->Stop();
  if (!st.ok()) return Fail(st);

  std::fprintf(stderr, "%zu stream(s), %zu values, %zu shard(s), "
               "%zu query(ies)\n",
               num_streams, length, engine.value()->num_shards(),
               registered.size());
  for (const auto& m : engine.value()->queries().Metrics()) {
    std::fprintf(stderr,
                 "  query %llu (%s): %llu evals, %llu hits, %llu errors\n",
                 static_cast<unsigned long long>(m.id),
                 QueryKindName(m.kind),
                 static_cast<unsigned long long>(m.evals),
                 static_cast<unsigned long long>(m.hits),
                 static_cast<unsigned long long>(m.errors));
  }
  const AlertLog& log = engine.value()->alerts();
  std::fprintf(stderr,
               "  alerts: %llu published, %llu delivered, %llu dropped\n",
               static_cast<unsigned long long>(log.published()),
               static_cast<unsigned long long>(log.delivered()),
               static_cast<unsigned long long>(log.dropped_newest() +
                                               log.dropped_oldest()));
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: stardust_cli "
      "<monitor|patterns|correlate|advise|surprise|subscribe|ingest"
      "|placement|migrate|run> ...\n"
      "see the header of examples/stardust_cli.cpp for options\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args = ParseArgs(argc, argv);
  if (command == "monitor") return RunMonitor(args);
  if (command == "patterns") return RunPatterns(args);
  if (command == "correlate") return RunCorrelate(args);
  if (command == "advise") return RunAdvise(args);
  if (command == "surprise") return RunSurprise(args);
  if (command == "subscribe") return RunSubscribe(args);
  if (command == "ingest") return RunIngest(args);
  if (command == "placement") return RunPlacement(args);
  if (command == "migrate") return RunMigrate(args);
  if (command == "run") return RunScenarioFile(args);
  return Usage();
}
