#include "workloads.h"

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "query/eval_plan.h"
#include "query/sinks.h"
#include "sketch/measure.h"
#include "stream/bursty_source.h"

namespace perfbench {

using namespace stardust;

namespace {

constexpr double kParked = 1e18;  // fleet thresholds that never fire
constexpr double kSigmas = 3.0;   // thresholds at mu + 3 sigma
constexpr std::size_t kWarmChunk = 4096;

// --- Tape construction -------------------------------------------------------

/// Per-stream series of a workload: `warm` values then `timed` values.
using Series = std::vector<std::vector<double>>;

Series BurstySeries(std::uint64_t seed, std::size_t streams,
                    std::size_t length) {
  Series series(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    BurstySource source(seed * 0x9E3779B97F4A7C15ULL + s + 1);
    series[s] = source.Take(length);
  }
  return series;
}

/// Interleaves the series into the tape: positions [0, warm) of every
/// stream form the warm-up, the rest the timed phase. Streams take turns
/// in blocks of `run_length` values (run_length 1 is plain round-robin);
/// the timed tuples are then cut into posting units of `post_size` tuples
/// (0: one unit per block of one stream).
Tape Interleave(const Series& series, std::size_t warm,
                std::size_t run_length, std::size_t post_size) {
  Tape tape;
  tape.num_streams = series.size();
  tape.run_length = run_length;
  const std::size_t length = series[0].size();
  for (std::size_t t = 0; t < length; t += run_length) {
    auto& out = t < warm ? tape.warm : tape.timed;
    for (std::size_t s = 0; s < series.size(); ++s) {
      const std::size_t begin = out.size();
      for (std::size_t i = t; i < t + run_length; ++i) {
        out.push_back({static_cast<StreamId>(s), series[s][i]});
      }
      if (&out == &tape.timed && post_size == 0) {
        tape.runs.emplace_back(begin, out.size());
      }
    }
  }
  if (post_size != 0) {
    for (std::size_t b = 0; b < tape.timed.size(); b += post_size) {
      tape.runs.emplace_back(b, std::min(b + post_size, tape.timed.size()));
    }
  }
  return tape;
}

/// mu + 3 sigma of a series (the paper's threshold rule).
double MeanPlusSigmas(const std::vector<double>& values) {
  double sum = 0.0;
  double sq = 0.0;
  for (double v : values) {
    sum += v;
    sq += v * v;
  }
  const double n = static_cast<double>(values.size());
  const double mean = sum / n;
  return mean + kSigmas * std::sqrt(std::max(0.0, sq / n - mean * mean));
}

/// Trains a sketch threshold on `training` by running the measure itself
/// and sampling its estimate every 16 values once it is ready.
double TrainSketchThreshold(const SketchConfig& config,
                            const std::vector<double>& training) {
  std::unique_ptr<SketchMeasure> measure = CreateSketchMeasure(config);
  std::vector<double> estimates;
  for (std::size_t i = 0; i < training.size(); ++i) {
    measure->Append(training[i]);
    if (measure->Ready() && i % 16 == 0) estimates.push_back(measure->Estimate());
  }
  return MeanPlusSigmas(estimates);
}

AssessRange Below(double threshold) {
  AssessRange range;
  range.hi = threshold;
  range.hi_inclusive = false;
  return range;
}

StardustConfig SumFleet(std::size_t base, std::size_t levels,
                        std::size_t history) {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = base;
  config.num_levels = levels;
  config.history = history;
  config.box_capacity = 4;
  config.update_period = 1;
  return config;
}

EngineConfig TwoShardEngine() {
  EngineConfig config;
  config.num_shards = 2;
  config.overload = OverloadPolicy::kBlock;
  config.query.alert_capacity = 4096;
  config.query.alert_overflow = OverloadPolicy::kBlock;
  return config;
}

/// Aggregate SUM queries at windows 16, 64 and 256 with thresholds
/// trained at mu + 3 sigma on a BurstySource, as in the paper's burst
/// experiments.
std::vector<QuerySpec> BurstQueries(const std::vector<double>& training) {
  std::vector<QuerySpec> specs;
  for (const WindowThreshold& wt :
       TrainThresholds(AggregateKind::kSum, training, {16, 64, 256}, kSigmas)) {
    specs.push_back(QuerySpec::Aggregate(wt.window, wt.threshold));
  }
  return specs;
}

/// The series every query is trained on or cut from. It does not depend
/// on the workload seed: every seed runs the same queries over different
/// data. Pattern queries cut from each seed's own tape matched 58 to 6798
/// times per mixed_runs repetition across eight seeds, which moved the
/// work of a run with the seed rather than with the program.
std::vector<double> Training() {
  BurstySource source(0xA5A5A5A55A5A5A5AULL);
  return source.Take(1 << 15);
}

Workload AggFanout(std::uint64_t seed) {
  constexpr std::size_t kStreams = 1024;
  constexpr std::size_t kHistory = 256;
  constexpr std::size_t kTimed = 256;  // values per stream
  Workload w;
  w.name = "agg_fanout";
  w.fleet = SumFleet(16, 5, kHistory);  // windows 16..256
  w.fleet_thresholds = {{16, kParked}};
  w.engine = TwoShardEngine();
  w.queries = BurstQueries(Training());
  w.tape = Interleave(BurstySeries(seed, kStreams, kHistory + kTimed),
                      kHistory, /*run_length=*/1, /*post_size=*/512);
  for (StreamId s = 3; s < kStreams; s += 32) w.sampled.push_back(s);
  return w;
}


Workload MixedRuns(std::uint64_t seed) {
  constexpr std::size_t kStreams = 64;
  constexpr std::size_t kRun = 64;
  constexpr std::size_t kHistory = 256;
  constexpr std::size_t kTimed = 8192;  // closed-loop values per stream
  constexpr std::size_t kPaced = 8 * kRun;  // paced values per stream
  Workload w;
  w.name = "mixed_runs";
  w.fleet = SumFleet(16, 5, kHistory);
  w.fleet_thresholds = {{16, kParked}};
  w.engine = TwoShardEngine();
  w.engine.query.enable_patterns = true;
  w.engine.query.pattern = PatternCoreConfig();
  w.engine.query.enable_correlation = true;
  w.engine.query.correlation = CorrelationCoreConfig();
  // Rounds are triggered by the generator at fixed tuple marks; the
  // background correlator thread stays quiet.
  w.engine.query.correlator_period_ms = 3600 * 1000;
  w.round_every = 32768;
  // Alert latency is measured on a paced tail at about a quarter of the
  // one-CPU closed-loop rate, so it is the engine's own delay and not
  // queueing behind a full ring.
  w.paced_runs = kPaced / kRun * kStreams;
  w.rate_aps = 100000.0;

  // Pairs of streams: an even BurstySource stream and its odd partner,
  // the same counts plus seeded integer noise in [-2, 2], so correlation
  // queries have pairs to find.
  Series series = BurstySeries(seed, kStreams, kHistory + kTimed + kPaced);
  Rng noise(seed ^ 0x5EEDF00DULL);
  for (std::size_t s = 1; s < kStreams; s += 2) {
    for (std::size_t t = 0; t < series[s].size(); ++t) {
      series[s][t] = series[s - 1][t] + static_cast<double>(noise.Next() % 5) - 2.0;
    }
  }

  const std::vector<double> training = Training();
  w.queries = BurstQueries(training);
  const SketchConfig distinct = DistinctSketchConfig();
  w.queries.push_back(QuerySpec::Sketch(
      distinct, Below(TrainSketchThreshold(distinct, training))));
  const SketchConfig quantile = QuantileSketchConfig();
  w.queries.push_back(QuerySpec::Sketch(
      quantile, Below(TrainSketchThreshold(quantile, training))));
  // Two 16-value patterns cut from the training series.
  for (std::size_t offset : {1000, 5000}) {
    w.queries.push_back(QuerySpec::Pattern(
        std::vector<double>(training.begin() + offset,
                            training.begin() + offset + 16),
        0.037));
  }
  w.queries.push_back(QuerySpec::Correlation(0.5));

  w.tape = Interleave(series, kHistory, kRun, /*post_size=*/0);
  w.sampled = {5, 22, 39, 56};
  return w;
}

Workload NetAlerts(std::uint64_t seed) {
  constexpr std::size_t kStreams = 256;
  constexpr std::size_t kRun = 64;
  constexpr std::size_t kHistory = 128;
  constexpr std::size_t kBlocks = 24;  // timed runs per stream
  constexpr std::size_t kSpikeEvery = 4;
  constexpr double kSpike = 1000.0;
  Workload w;
  w.name = "net_alerts";
  w.fleet = SumFleet(16, 3, kHistory);  // windows 16..64
  w.fleet_thresholds = {{16, kParked}};
  w.engine = TwoShardEngine();
  w.engine.max_batch = 16;  // stardust_server's default: the base window
  w.closed_loop = false;
  w.rate_aps = 200000.0;
  // Baseline values in [0, 1) keep a 64-value SUM near 32; a spike run
  // adds 1000 at one seeded position, so the SUM crosses 500 exactly once
  // and falls back below when the spike leaves the window during the
  // stream's next (spike-free) run.
  w.queries = {QuerySpec::Aggregate(kRun, 500.0)};

  Rng rng(seed * 0x2545F4914F6CDD1DULL + 7);
  Series series(kStreams, std::vector<double>(kHistory + kBlocks * kRun));
  for (auto& values : series) {
    for (double& v : values) v = rng.NextDouble();
  }
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      const bool spike = (b + s) % kSpikeEvery == 0;
      w.spike.push_back(spike ? 1 : 0);
      if (spike) series[s][kHistory + b * kRun + rng.Next() % kRun] += kSpike;
    }
  }
  w.tape = Interleave(series, kHistory, kRun, /*post_size=*/0);
  w.sampled = {3, 100, 201};
  return w;
}

// --- Running ---------------------------------------------------------------

/// Counts and timestamps every alert the engine's bus delivers.
class RecordingSink : public AlertSink {
 public:
  void OnAlert(const Alert& alert) override {
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    alerts_.push_back({alert, now});
  }
  std::vector<std::pair<Alert, std::int64_t>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(alerts_);
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<Alert, std::int64_t>> alerts_;
};

/// What one repetition measured and checked.
struct Rep {
  bool traced = false;
  std::string setup_error;
  double setup_s = 0.0;
  double create_ms = 0.0;
  double register_ms = 0.0;
  double compile_plan_us = 0.0;
  double warmup_ms = 0.0;
  double timed_s = 0.0;
  double flush_ms = 0.0;
  double steal_frac = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t timed_tuples = 0;
  // Engine counters over the whole repetition.
  std::uint64_t posted = 0;
  std::uint64_t appended = 0;
  std::uint64_t dropped = 0;
  std::uint64_t append_errors = 0;
  std::uint64_t block_waits = 0;
  std::uint64_t bus_published = 0;
  std::uint64_t bus_delivered = 0;
  double bus_delivery_mean_ns = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t maintain_ns = 0;
  double apply_batch_ns_total = 0.0;
  std::uint64_t apply_batch_count = 0;
  std::uint64_t shard_min = 0;
  std::uint64_t shard_max = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_lookups = 0;
  std::map<QueryKind, std::pair<std::uint64_t, std::uint64_t>> eval;  // ns, evals
  std::uint64_t rounds_triggered = 0;
  std::uint64_t correlator_rounds = 0;
  std::vector<double> round_ms;
  std::string backend;
  // Outputs.
  std::vector<std::pair<Alert, std::int64_t>> alerts;  // as the sink saw them
  std::vector<std::string> sampled_states;
  std::vector<double> latency_us;
  // Open loop only.
  std::vector<double> late_us;
  std::vector<double> send_rtt_us;
  std::uint64_t net_backpressure = 0;
  std::uint64_t net_alerts_sent = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t unexpected = 0;
  bool seq_gapless = true;
};

std::string BackendOf(const std::string& metrics_json) {
  const std::string key = "\"backend\":\"";
  const std::size_t at = metrics_json.find(key);
  if (at == std::string::npos) return "none";
  const std::size_t begin = at + key.size();
  return metrics_json.substr(begin, metrics_json.find('"', begin) - begin);
}

/// Reads the engine's public counters once, after the final Flush.
void ReadCounters(IngestEngine& engine, Rep* rep) {
  const EngineMetrics& m = engine.metrics();
  rep->posted = m.posted.load();
  rep->appended = m.appended.load();
  rep->dropped = m.dropped_newest.load() + m.dropped_oldest.load();
  rep->append_errors = m.append_errors.load();
  rep->block_waits = m.block_waits.load();
  rep->correlator_rounds = m.correlator_rounds.load();
  rep->bus_published = engine.alerts().published();
  rep->bus_delivered = engine.alerts().delivered();
  rep->bus_delivery_mean_ns = engine.alerts().delivery_latency().MeanNanos();
  rep->shard_min = ~std::uint64_t{0};
  for (const ShardMetricsSnapshot& s : engine.ShardMetrics()) {
    rep->batches += s.batches;
    rep->maintain_ns += s.maintain_ns;
    rep->apply_batch_ns_total +=
        s.apply_batch_mean_ns * static_cast<double>(s.apply_batch_count);
    rep->apply_batch_count += s.apply_batch_count;
    rep->shard_min = std::min(rep->shard_min, s.appended);
    rep->shard_max = std::max(rep->shard_max, s.appended);
    rep->store_hits += s.store_hits;
    rep->store_lookups += s.store_hits + s.store_misses;
  }
  for (const QueryMetricsSnapshot& q : engine.queries().Metrics()) {
    rep->eval[q.kind].first += q.eval_nanos;
    rep->eval[q.kind].second += q.evals;
  }
  rep->backend = BackendOf(engine.MetricsJson());
}

/// Create + sink + queries (+ the benchmark's own plan compile when
/// tracing). Returns null and sets rep->setup_error on failure.
std::unique_ptr<IngestEngine> SetUpEngine(
    const Workload& w, const EngineConfig& config,
    const std::shared_ptr<AlertSink>& sink, bool skip_correlation,
    Tracer& tracer, Rep* rep) {
  std::int64_t t0 = NowNs();
  Result<std::unique_ptr<IngestEngine>> created = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "IngestEngine::Create");
    created = IngestEngine::Create(w.fleet, w.fleet_thresholds,
                                   w.tape.num_streams, config);
  }
  if (!created.ok()) {
    rep->setup_error = "Create: " + created.status().ToString();
    return nullptr;
  }
  std::unique_ptr<IngestEngine> engine = std::move(created).value();
  rep->create_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  engine->alerts().AddSink(sink);
  t0 = NowNs();
  for (const QuerySpec& spec : w.queries) {
    if (skip_correlation && spec.kind == QueryKind::kCorrelation) continue;
    ScopedSpan span(tracer, "IngestEngine::RegisterQuery");
    Result<QueryId> id = engine->RegisterQuery(spec);
    if (!id.ok()) {
      rep->setup_error = "RegisterQuery: " + id.status().ToString();
      return nullptr;
    }
  }
  rep->register_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  if (tracer.enabled()) {
    // The engine compiles its plan internally; this times the same call
    // on the same snapshot from outside.
    PlanContext ctx;
    ctx.fleet = &w.fleet;
    ctx.pattern = config.query.enable_patterns ? &config.query.pattern : nullptr;
    ctx.correlation =
        config.query.enable_correlation ? &config.query.correlation : nullptr;
    const std::uint64_t version = engine->queries().version();
    std::shared_ptr<const QueryRegistry::Snapshot> snapshot =
        engine->queries().snapshot();
    t0 = NowNs();
    ScopedSpan span(tracer, "CompileEvalPlan");
    std::shared_ptr<const EvalPlan> plan =
        CompileEvalPlan(*snapshot, version, ctx);
    rep->compile_plan_us = static_cast<double>(NowNs() - t0) * 1e-3;
  }
  return engine;
}

Status PostAll(IngestEngine& engine, const std::vector<StreamValue>& tuples,
               Tracer& tracer) {
  for (std::size_t b = 0; b < tuples.size(); b += kWarmChunk) {
    const std::size_t n = std::min(kWarmChunk, tuples.size() - b);
    ScopedSpan span(tracer, "IngestEngine::PostBatch");
    SD_RETURN_NOT_OK(engine.PostBatch(
        std::span<const StreamValue>(tuples.data() + b, n)));
  }
  ScopedSpan span(tracer, "IngestEngine::Flush");
  return engine.Flush();
}

void CollectStates(const Workload& w, IngestEngine& engine, Rep* rep) {
  for (StreamId s : w.sampled) {
    std::string blob;
    if (!engine.DebugStreamState(s, &blob).ok()) blob = "<error>";
    rep->sampled_states.push_back(std::move(blob));
  }
}

/// Latency of every non-correlation alert raised by runs [first_run, end),
/// from when its run was posted (closed loop) or due (paced) to when the
/// benchmark received it.
void AlertLatencies(const Workload& w, const std::vector<std::int64_t>& due_ns,
                    std::size_t first_run,
                    const std::vector<std::pair<Alert, std::int64_t>>& alerts,
                    std::vector<double>* out) {
  for (const auto& [alert, recv_ns] : alerts) {
    if (alert.kind == QueryKind::kCorrelation) continue;
    const std::uint32_t run = RunOfAlert(w, alert.stream, alert.end_time);
    if (run == kWarmRun || run < first_run) continue;
    out->push_back(static_cast<double>(recv_ns - due_ns[run]) * 1e-3);
  }
}

/// Sleeps until `due_ns` and returns how late the caller woke, in us.
double SleepUntil(std::int64_t due_ns) {
  std::int64_t now = NowNs();
  if (now < due_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
    now = NowNs();
  }
  return static_cast<double>(now - due_ns) * 1e-3;
}

Rep RunClosedLoopRep(const Workload& w, Tracer& tracer) {
  Rep rep;
  rep.traced = tracer.enabled();
  auto sink = std::make_shared<RecordingSink>();
  const std::int64_t t0 = NowNs();
  std::unique_ptr<IngestEngine> engine =
      SetUpEngine(w, w.engine, sink, false, tracer, &rep);
  if (engine == nullptr) return rep;
  const std::int64_t warm0 = NowNs();
  {
    ScopedSpan span(tracer, "warmup");
    Status st = PostAll(*engine, w.tape.warm, tracer);
    if (!st.ok()) {
      rep.setup_error = "warm-up: " + st.ToString();
      return rep;
    }
  }
  const std::int64_t ready = NowNs();
  rep.warmup_ms = static_cast<double>(ready - warm0) * 1e-6;
  rep.setup_s = static_cast<double>(ready - t0) * 1e-9;

  const std::size_t closed_runs = w.tape.runs.size() - w.paced_runs;
  const std::size_t closed_end =
      closed_runs == 0 ? 0 : w.tape.runs[closed_runs - 1].second;
  auto post_run = [&](std::size_t r) {
    const auto [begin, end] = w.tape.runs[r];
    ScopedSpan span(tracer, "IngestEngine::PostBatch");
    return engine->PostBatch(std::span<const StreamValue>(
        w.tape.timed.data() + begin, end - begin));
  };
  std::vector<std::int64_t> post_ns(w.tape.runs.size());
  const CpuTimes cpu0 = CpuTimes::Read();
  const std::int64_t start = NowNs();
  std::size_t next_round = w.round_every;
  Status st;
  for (std::size_t r = 0; r < closed_runs && st.ok(); ++r) {
    const std::size_t end = w.tape.runs[r].second;
    post_ns[r] = NowNs();
    st = post_run(r);
    if (w.round_every != 0 && end >= next_round && end < closed_end) {
      // A round at a fixed tuple mark sees exactly the tuples before the
      // mark: flush first, so the round count and its inputs do not
      // depend on speed.
      next_round += w.round_every;
      {
        ScopedSpan span(tracer, "IngestEngine::Flush");
        if (st.ok()) st = engine->Flush();
      }
      const std::int64_t r0 = NowNs();
      {
        ScopedSpan span(tracer, "IngestEngine::TriggerCorrelatorRound");
        engine->TriggerCorrelatorRound();
      }
      rep.round_ms.push_back(static_cast<double>(NowNs() - r0) * 1e-6);
      ++rep.rounds_triggered;
    }
  }
  const std::int64_t flush0 = NowNs();
  {
    ScopedSpan span(tracer, "IngestEngine::Flush");
    if (st.ok()) st = engine->Flush();
  }
  const std::int64_t done = NowNs();
  rep.flush_ms = static_cast<double>(done - flush0) * 1e-6;
  rep.timed_s = static_cast<double>(done - start) * 1e-9;
  rep.timed_tuples = closed_end;

  if (w.paced_runs != 0) {
    // Paced tail: each run is timed from when it was due, so a stall also
    // counts against the runs queued behind it.
    const double interval_ns =
        1e9 * static_cast<double>(w.tape.run_length) / w.rate_aps;
    const std::int64_t paced_start = NowNs() + 1000000;  // first run in 1 ms
    for (std::size_t r = closed_runs; r < w.tape.runs.size() && st.ok(); ++r) {
      post_ns[r] = DueNs(paced_start, interval_ns, r - closed_runs);
      rep.late_us.push_back(SleepUntil(post_ns[r]));
      st = post_run(r);
    }
    ScopedSpan span(tracer, "IngestEngine::Flush");
    if (st.ok()) st = engine->Flush();
  }
  rep.steal_frac = StealFrac(cpu0, CpuTimes::Read());
  if (!st.ok()) rep.setup_error = "timed phase: " + st.ToString();

  ReadCounters(*engine, &rep);
  CollectStates(w, *engine, &rep);
  engine->Stop();
  rep.alerts = sink->Take();
  AlertLatencies(w, post_ns, w.paced_runs == 0 ? 0 : closed_runs, rep.alerts,
                 &rep.latency_us);
  return rep;
}

/// Pulls "key":<unsigned> out of one alert JSON line.
std::uint64_t JsonField(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return ~std::uint64_t{0};
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

struct Received {
  std::uint64_t seq = 0;
  StreamId stream = 0;
  std::uint64_t end_time = 0;
  std::int64_t recv_ns = 0;
};

Rep RunOpenLoopRep(const Workload& w, Tracer& tracer, Tracer& sub_tracer) {
  Rep rep;
  rep.traced = tracer.enabled();
  auto sink = std::make_shared<RecordingSink>();
  const std::int64_t t0 = NowNs();
  std::unique_ptr<IngestEngine> engine =
      SetUpEngine(w, w.engine, sink, false, tracer, &rep);
  if (engine == nullptr) return rep;
  Result<std::unique_ptr<net::NetServer>> server = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "NetServer::Start");
    server = net::NetServer::Start(engine.get());
  }
  if (!server.ok()) {
    rep.setup_error = "NetServer::Start: " + server.status().ToString();
    return rep;
  }
  const std::uint16_t port = server.value()->port();
  auto producer = net::ProducerClient::Connect("127.0.0.1", port);
  auto subscriber =
      net::SubscriberClient::Connect("127.0.0.1", port, "perfbench");
  if (!producer.ok() || !subscriber.ok()) {
    rep.setup_error = "connect: " + (producer.ok() ? subscriber.status()
                                                   : producer.status())
                                        .ToString();
    server.value()->Stop();
    return rep;
  }

  std::vector<Received> received;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    net::SubscriberClient& sub = *subscriber.value();
    while (true) {
      Result<net::AlertFrameMessage> frame = Status::Internal("unset");
      {
        ScopedSpan span(sub_tracer, "SubscriberClient::Next");
        frame = sub.Next(/*timeout_ms=*/20);
      }
      if (frame.ok()) {
        const std::int64_t now = NowNs();
        const std::string& json = frame.value().json;
        received.push_back({frame.value().seq,
                            static_cast<StreamId>(JsonField(json, "stream")),
                            JsonField(json, "end_time"), now});
        if (received.size() % 256 == 0) sub.Ack(frame.value().seq);
        continue;
      }
      if (stop.load(std::memory_order_acquire)) break;
      if (frame.status().code() != StatusCode::kNotFound) break;  // closed
    }
  });

  // Warm-up through the real path: one frame per 64-value run.
  const std::int64_t warm0 = NowNs();
  Status st;
  {
    ScopedSpan span(tracer, "warmup");
    for (std::size_t b = 0; b < w.tape.warm.size() && st.ok();
         b += w.tape.run_length) {
      ScopedSpan send(tracer, "ProducerClient::Send");
      Result<net::BatchAckMessage> ack = producer.value()->Send(
          FrameOf(w.tape.warm, b, b + w.tape.run_length));
      if (!ack.ok()) st = ack.status();
    }
    ScopedSpan flush(tracer, "IngestEngine::Flush");
    if (st.ok()) st = engine->Flush();
  }
  const std::int64_t ready = NowNs();
  rep.warmup_ms = static_cast<double>(ready - warm0) * 1e-6;
  rep.setup_s = static_cast<double>(ready - t0) * 1e-9;

  // Frames are assembled before the timed phase; encoding them is part of
  // Send and so of the latency window.
  std::vector<net::BatchMessage> frames;
  frames.reserve(w.tape.runs.size());
  for (const auto& [begin, end] : w.tape.runs) {
    frames.push_back(FrameOf(w.tape.timed, begin, end));
  }
  const double interval_ns =
      1e9 * static_cast<double>(w.tape.run_length) / w.rate_aps;
  std::vector<std::int64_t> due_ns(frames.size());
  const CpuTimes cpu0 = CpuTimes::Read();
  const std::int64_t start = NowNs() + 1000000;  // first frame due in 1 ms
  for (std::size_t f = 0; f < frames.size() && st.ok(); ++f) {
    due_ns[f] = DueNs(start, interval_ns, f);
    rep.late_us.push_back(SleepUntil(due_ns[f]));
    const std::int64_t now = NowNs();
    {
      ScopedSpan span(tracer, "ProducerClient::Send");
      Result<net::BatchAckMessage> ack = producer.value()->Send(frames[f]);
      if (!ack.ok()) st = ack.status();
    }
    rep.send_rtt_us.push_back(static_cast<double>(NowNs() - now) * 1e-3);
  }
  const std::int64_t flush0 = NowNs();
  {
    ScopedSpan span(tracer, "IngestEngine::Flush");
    if (st.ok()) st = engine->Flush();
  }
  const std::int64_t done = NowNs();
  rep.steal_frac = StealFrac(cpu0, CpuTimes::Read());
  rep.flush_ms = static_cast<double>(done - flush0) * 1e-6;
  rep.timed_s = static_cast<double>(done - start) * 1e-9;
  rep.timed_tuples = w.tape.timed.size();

  // Every alert the bus delivered has reached the hub; wait (bounded) for
  // the subscriber to read them all off the socket.
  const std::int64_t deadline = NowNs() + 5'000'000'000LL;
  while (NowNs() < deadline) {
    if (server.value()->Metrics().alerts_sent >= engine->alerts().delivered()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  reader.join();
  const net::NetMetricsSnapshot net_metrics = server.value()->Metrics();
  rep.net_backpressure = net_metrics.backpressure_episodes;
  rep.net_alerts_sent = net_metrics.alerts_sent;
  producer.value()->Close();
  subscriber.value()->Close();
  server.value()->Stop();
  if (!st.ok()) rep.setup_error = "timed phase: " + st.ToString();

  ReadCounters(*engine, &rep);
  CollectStates(w, *engine, &rep);
  engine->Stop();
  rep.alerts = sink->Take();

  // Exactly one alert per spike run, gapless sequence numbers.
  std::vector<int> hits(w.tape.runs.size(), 0);
  for (std::size_t i = 0; i < received.size(); ++i) {
    const Received& r = received[i];
    if (r.seq != i + 1) rep.seq_gapless = false;
    const std::uint32_t run = RunOfAlert(w, r.stream, r.end_time);
    if (run == kWarmRun || !w.spike[run]) {
      ++rep.unexpected;
      continue;
    }
    if (++hits[run] == 1) {
      rep.latency_us.push_back(static_cast<double>(r.recv_ns - due_ns[run]) *
                               1e-3);
    }
  }
  for (std::size_t run = 0; run < hits.size(); ++run) {
    if (w.spike[run] && hits[run] == 0) ++rep.missing;
    if (hits[run] > 1) rep.duplicate += hits[run] - 1;
  }
  return rep;
}

// --- Reference check ---------------------------------------------------------

struct Reference {
  std::string error;
  std::vector<AlertKey> alerts;
  std::vector<std::string> states;
};

/// Replays the sampled streams' sub-tape through a separate engine with
/// one shard and max_batch 1, so every query is evaluated after every
/// tuple: the per-tuple reference.
Reference RunReference(const Workload& w) {
  Reference ref;
  EngineConfig config = w.engine;
  config.num_shards = 1;
  config.max_batch = 1;
  config.query.enable_correlation = false;
  auto sink = std::make_shared<RecordingSink>();
  Tracer off(false);
  Rep scratch;
  std::unique_ptr<IngestEngine> engine =
      SetUpEngine(w, config, sink, /*skip_correlation=*/true, off, &scratch);
  if (engine == nullptr) {
    ref.error = scratch.setup_error;
    return ref;
  }
  Status st = PostAll(*engine, w.tape.SubTape(w.sampled), off);
  if (!st.ok()) ref.error = st.ToString();
  for (StreamId s : w.sampled) {
    std::string blob;
    if (!engine->DebugStreamState(s, &blob).ok()) blob = "<error>";
    ref.states.push_back(std::move(blob));
  }
  engine->Stop();
  for (const auto& [alert, recv] : sink->Take()) {
    ref.alerts.push_back(KeyOf(alert));
  }
  return ref;
}

/// Alerts of `kind` on the sampled streams.
std::vector<AlertKey> OfKind(const std::vector<AlertKey>& keys,
                             QueryKind kind,
                             const std::vector<StreamId>& sampled) {
  std::vector<AlertKey> out;
  for (const AlertKey& k : keys) {
    if (k.kind != static_cast<std::uint8_t>(kind)) continue;
    if (std::find(sampled.begin(), sampled.end(), k.stream) == sampled.end()) {
      continue;
    }
    out.push_back(k);
  }
  return out;
}

/// Size of the symmetric difference of two multisets.
std::size_t Divergence(std::vector<AlertKey> a, std::vector<AlertKey> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<AlertKey> diff;
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(diff));
  return diff.size();
}

}  // namespace

StardustConfig PatternCoreConfig() {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kUnitSphere;
  config.coefficients = 4;
  config.r_max = 64.0;
  config.base_window = 8;
  config.num_levels = 2;
  config.history = 256;
  config.box_capacity = 1;
  config.update_period = 1;
  config.index_features = true;
  return config;
}

StardustConfig CorrelationCoreConfig() {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kZNorm;
  config.coefficients = 4;
  config.base_window = 16;
  config.num_levels = 2;
  config.history = 32;
  config.box_capacity = 1;
  config.update_period = 16;  // batch algorithm, T == W
  return config;
}

SketchConfig DistinctSketchConfig() {
  SketchConfig config;
  config.kind = SketchKind::kDistinct;
  config.window = 64;
  config.hll_precision = 10;
  return config;
}

SketchConfig QuantileSketchConfig() {
  SketchConfig config;
  config.kind = SketchKind::kQuantile;
  config.window = 256;
  config.q = 0.9;
  return config;
}

net::BatchMessage FrameOf(const std::vector<StreamValue>& tuples,
                          std::size_t begin, std::size_t end) {
  net::BatchMessage batch;
  for (std::size_t i = begin; i < end; ++i) {
    if (batch.runs.empty() || batch.runs.back().stream != tuples[i].stream) {
      batch.runs.push_back({tuples[i].stream, {}});
    }
    batch.runs.back().values.push_back(tuples[i].value);
  }
  return batch;
}

std::vector<std::vector<std::uint32_t>> BuildRunIndex(const Tape& tape) {
  std::vector<std::vector<std::uint32_t>> run_of(tape.num_streams);
  for (const StreamValue& tuple : tape.warm) {
    run_of[tuple.stream].push_back(kWarmRun);
  }
  for (std::size_t r = 0; r < tape.runs.size(); ++r) {
    for (std::size_t i = tape.runs[r].first; i < tape.runs[r].second; ++i) {
      run_of[tape.timed[i].stream].push_back(static_cast<std::uint32_t>(r));
    }
  }
  return run_of;
}

std::uint32_t RunOfAlert(const Workload& w, StreamId stream,
                         std::uint64_t end_time) {
  if (stream >= w.run_of.size()) return kWarmRun;
  const auto& runs = w.run_of[stream];
  return end_time < runs.size() ? runs[end_time] : kWarmRun;
}

std::int64_t DueNs(std::int64_t start_ns, double interval_ns, std::size_t run) {
  return start_ns + static_cast<std::int64_t>(interval_ns * static_cast<double>(run));
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"agg_fanout", "mixed_runs",
                                                 "net_alerts"};
  return names;
}

Result<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "agg_fanout") {
    w = AggFanout(seed);
  } else if (name == "mixed_runs") {
    w = MixedRuns(seed);
  } else if (name == "net_alerts") {
    w = NetAlerts(seed);
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  w.run_of = BuildRunIndex(w.tape);
  return w;
}

Report RunWorkload(const Workload& w, const RunOptions& options) {
  Report report;
  Tracer tracer(false);
  Tracer sub_tracer(false);
  // The whole process runs on one CPU: every thread created from here on
  // (shards, bus dispatcher, server loop, probe pool) inherits the mask.
  // On a shared VM, runs spread over four vCPUs were throttled by the
  // host in busy phases (steal 10-28%, closed-loop throughput 26-32% apart
  // between two sets of runs, alert p50 1-13 ms); one-CPU runs kept steal
  // at 1-3% (perfbench/README.md, perfbench/STEADINESS.md).
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
      break;
    }
  }
  if (w.rate_aps > 0.0) {
    // Timer slack of 1 ns: the generator's sleeps end at the due time,
    // not up to 50 us after it.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }

  // Repetitions of the fixed tape until `seconds` have passed. A traced
  // invocation alternates untraced and traced repetitions; the ratio of
  // the two is the tracing overhead.
  const std::size_t min_reps = options.trace ? 4 : 3;
  std::vector<Rep> reps;
  const std::int64_t begin = NowNs();
  while (true) {
    const bool traced = options.trace && reps.size() % 2 == 1;
    tracer.set_enabled(traced);
    sub_tracer.set_enabled(traced);
    reps.push_back(w.closed_loop ? RunClosedLoopRep(w, tracer)
                                 : RunOpenLoopRep(w, tracer, sub_tracer));
    reps.back().peak_rss_mb = PeakRssMiB();
    if (!reps.back().setup_error.empty()) break;
    const double elapsed = static_cast<double>(NowNs() - begin) * 1e-9;
    if (elapsed >= options.seconds && reps.size() >= min_reps) break;
  }
  tracer.set_enabled(false);
  sub_tracer.set_enabled(false);

  // --- Gates over every repetition -------------------------------------
  const std::uint64_t first_digest = [&] {
    std::vector<AlertKey> keys;
    for (const auto& [alert, recv] : reps[0].alerts) keys.push_back(KeyOf(alert));
    return MultisetDigest(keys);
  }();
  bool digests_agree = true;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& rep = reps[i];
    report.Gate(rep.setup_error.empty(), "rep " + std::to_string(i) + ": " +
                                              rep.setup_error);
    std::vector<AlertKey> keys;
    for (const auto& [alert, recv] : rep.alerts) keys.push_back(KeyOf(alert));
    const std::uint64_t digest = MultisetDigest(keys);
    digests_agree = digests_agree && digest == first_digest;
    const std::optional<double> rep_p50 = Percentile(rep.latency_us, 0.5);
    Note("rep %zu%s: setup %.4f s, timed %.4f s (%.0f appends/s), alert p50 "
         "%.1f us, alerts %zu, digest %s, steal %.3f, peak rss %.1f MiB",
         i, rep.traced ? " (traced)" : "", rep.setup_s, rep.timed_s,
         rep.timed_s > 0 ? static_cast<double>(rep.timed_tuples) / rep.timed_s
                         : 0.0,
         rep_p50.value_or(0.0), rep.alerts.size(), Hex64(digest).c_str(),
         rep.steal_frac, rep.peak_rss_mb);
    if (!rep.setup_error.empty()) continue;
    report.attempted += w.tape.timed.size();
    report.failed += rep.dropped + rep.append_errors + rep.missing +
                     rep.duplicate + rep.unexpected;
    report.Gate(rep.posted == rep.appended,
                "posted " + std::to_string(rep.posted) + " != appended " +
                    std::to_string(rep.appended));
    report.Gate(rep.dropped == 0, "dropped " + std::to_string(rep.dropped));
    report.Gate(rep.append_errors == 0,
                "append errors " + std::to_string(rep.append_errors));
    report.Gate(rep.bus_published == rep.bus_delivered &&
                    rep.bus_delivered == rep.alerts.size(),
                "bus published " + std::to_string(rep.bus_published) +
                    " / delivered " + std::to_string(rep.bus_delivered) +
                    " / sink " + std::to_string(rep.alerts.size()));
    if (!w.closed_loop) {
      report.Gate(rep.missing == 0 && rep.duplicate == 0 && rep.unexpected == 0,
                  "net alerts: missing " + std::to_string(rep.missing) +
                      ", duplicate " + std::to_string(rep.duplicate) +
                      ", unexpected " + std::to_string(rep.unexpected));
      report.Gate(rep.seq_gapless, "net alert seqs have gaps");
    }
  }
  if (!report.correct) {
    for (const std::string& f : report.failures) Note("GATE FAILED: %s", f.c_str());
    return report;
  }
  Note("alert multiset digest %s (%s across %zu reps)",
       Hex64(first_digest).c_str(), digests_agree ? "equal" : "differs",
       reps.size());
  std::map<QueryKind, std::size_t> by_kind;
  for (const auto& [alert, recv] : reps[0].alerts) ++by_kind[alert.kind];
  for (const auto& [kind, count] : by_kind) {
    Note("alerts per repetition, %s: %zu", QueryKindName(kind), count);
  }
  if (w.name == "agg_fanout") {
    // Run length 1: every batch evaluates each stream right after its one
    // tuple, so the alert multiset cannot depend on batch boundaries.
    report.Gate(digests_agree, "alert multiset differs between repetitions");
  }

  // --- Per-tuple reference on the sampled streams ------------------------
  const Reference ref = RunReference(w);
  report.Gate(ref.error.empty(), "reference: " + ref.error);
  std::vector<AlertKey> engine_keys;
  for (const auto& [alert, recv] : reps[0].alerts) {
    engine_keys.push_back(KeyOf(alert));
  }
  std::map<QueryKind, std::size_t> divergence;
  for (QueryKind kind :
       {QueryKind::kAggregate, QueryKind::kSketch, QueryKind::kPattern}) {
    const auto mine = OfKind(engine_keys, kind, w.sampled);
    const auto theirs = OfKind(ref.alerts, kind, w.sampled);
    divergence[kind] = Divergence(mine, theirs);
    Note("reference %s alerts on %zu sampled streams: engine %zu (digest %s), "
         "per-tuple %zu (digest %s), divergence %zu",
         QueryKindName(kind), w.sampled.size(), mine.size(),
         Hex64(MultisetDigest(mine)).c_str(), theirs.size(),
         Hex64(MultisetDigest(theirs)).c_str(), divergence[kind]);
    const bool gated = (w.name == "agg_fanout" && kind == QueryKind::kAggregate) ||
                       (w.name == "mixed_runs" && kind == QueryKind::kPattern);
    if (gated) {
      report.Gate(SameMultiset(mine, theirs),
                  std::string(QueryKindName(kind)) +
                      " alert multiset differs from the per-tuple reference");
    }
  }
  if (w.name == "agg_fanout") {
    for (std::size_t i = 0; i < reps.size(); ++i) {
      report.Gate(reps[i].sampled_states == ref.states,
                  "DebugStreamState of a sampled stream differs from the "
                  "per-tuple reference (rep " + std::to_string(i) + ")");
    }
  }

  // --- Host record ---------------------------------------------------------
  std::vector<double> steal;
  for (const Rep& rep : reps) steal.push_back(rep.steal_frac);
  const double steal_frac = Median(steal);
  Note("host: nproc %u, kernels.backend %s, steal_frac %.4f, tape digest %s",
       std::thread::hardware_concurrency(), reps[0].backend.c_str(), steal_frac,
       Hex64(w.tape.Digest()).c_str());

  // --- Metrics -------------------------------------------------------------
  std::vector<const Rep*> measured;  // untraced reps give the e2e numbers
  std::vector<const Rep*> traced;
  for (const Rep& rep : reps) (rep.traced ? traced : measured).push_back(&rep);
  auto median_of = [](const std::vector<const Rep*>& set, auto field) {
    std::vector<double> values;
    for (const Rep* rep : set) values.push_back(field(*rep));
    return Median(values);
  };
  auto pooled = [](const std::vector<const Rep*>& set, auto member) {
    std::vector<double> all;
    for (const Rep* rep : set) {
      all.insert(all.end(), (rep->*member).begin(), (rep->*member).end());
    }
    return all;
  };
  auto throughput = [](const Rep& r) {
    return static_cast<double>(r.timed_tuples) / r.timed_s;
  };
  const std::vector<double> latency = pooled(measured, &Rep::latency_us);
  const std::optional<double> p50 = Percentile(latency, 0.50);
  const auto fmt = [](std::optional<double> v) {
    return v ? std::to_string(*v) : std::string("n/a (too few samples)");
  };
  Note("alert latency (due -> received): %zu samples, p50 %s us, p90 %s us, "
       "p99 %s us",
       latency.size(), fmt(p50).c_str(), fmt(Percentile(latency, 0.90)).c_str(),
       fmt(Percentile(latency, 0.99)).c_str());
  if (w.rate_aps > 0.0) {
    const std::vector<double> late = pooled(measured, &Rep::late_us);
    Note("generator lateness at %.0f appends/s: p50 %s us, p99 %s us", w.rate_aps,
         fmt(Percentile(late, 0.50)).c_str(), fmt(Percentile(late, 0.99)).c_str());
  }
  for (QueryKind kind : {QueryKind::kAggregate, QueryKind::kSketch}) {
    Note("query.alert_divergence.%s = %zu (printed, not gated)", QueryKindName(kind),
         divergence[kind]);
  }

  if (!options.trace) {
    report.Set("throughput_aps", median_of(measured, throughput), "appends/s");
    report.Gate(p50.has_value(), "too few alert samples for a p50");
    report.Set("alert_p50_us", p50.value_or(0.0), "us");
    report.Set("setup_s", median_of(measured, [](const Rep& r) { return r.setup_s; }), "s");
    // The first repetition of a fresh process is what one start of the
    // engine costs; later repetitions inherit the allocator's retained
    // memory and the growing sample vectors.
    report.Set("peak_rss_mb", reps[0].peak_rss_mb, "MiB");
    return report;
  }

  // --- Traced run: per-layer metrics ------------------------------------
  const Rep& last = *traced.back();
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report.Set("engine.batch_tuples_mean",
             per(static_cast<double>(last.appended), static_cast<double>(last.batches)),
             "tuples");
  report.Set("engine.maintain_ns_per_append",
             per(static_cast<double>(last.maintain_ns), static_cast<double>(last.appended)),
             "ns");
  report.Set("engine.apply_batch_mean_us",
             per(last.apply_batch_ns_total, static_cast<double>(last.apply_batch_count)) * 1e-3,
             "us");
  report.Set("engine.shard_skew",
             per(static_cast<double>(last.shard_max), static_cast<double>(last.shard_min)),
             "ratio");
  report.Set("engine.block_waits", static_cast<double>(last.block_waits), "count");
  report.Set("engine.flush_ms", median_of(traced, [](const Rep& r) { return r.flush_ms; }), "ms");
  report.Set("engine.create_ms", median_of(traced, [](const Rep& r) { return r.create_ms; }), "ms");
  report.Set("engine.warmup_ms", median_of(traced, [](const Rep& r) { return r.warmup_ms; }), "ms");
  report.Set("query.register_ms", median_of(traced, [](const Rep& r) { return r.register_ms; }), "ms");
  report.Set("query.compile_plan_us",
             median_of(traced, [](const Rep& r) { return r.compile_plan_us; }), "us");
  const auto agg = last.eval.count(QueryKind::kAggregate) ? last.eval.at(QueryKind::kAggregate)
                                                         : std::pair<std::uint64_t, std::uint64_t>{};
  report.Set("query.eval_ns_per_batch.aggregate",
             per(static_cast<double>(agg.first), static_cast<double>(agg.second)), "ns");
  report.Set("query.alerts", static_cast<double>(last.alerts.size()), "count");
  report.Set("query.alert_divergence.aggregate",
             static_cast<double>(divergence[QueryKind::kAggregate]), "count");
  report.Set("query.bus_delivery_mean_us", last.bus_delivery_mean_ns * 1e-3, "us");
  report.Set("host.steal_frac", steal_frac, "ratio");
  const double untraced_s = median_of(measured, [](const Rep& r) { return r.timed_s; });
  const double traced_s = median_of(traced, [](const Rep& r) { return r.timed_s; });
  double overhead = per(traced_s, untraced_s) - 1.0;
  if (!w.closed_loop) {
    // The open loop's wall time is fixed by its schedule; compare the
    // latency it produced instead.
    const auto lat_traced = Percentile(pooled(traced, &Rep::latency_us), 0.5);
    overhead = p50 && lat_traced ? *lat_traced / *p50 - 1.0 : 0.0;
  }
  report.Set("trace.overhead_frac", overhead, "ratio");

  // Workload-specific layer numbers: printed, not part of the metric set
  // every workload reports.
  if (!last.round_ms.empty()) {
    std::vector<double> rounds = pooled(traced, &Rep::round_ms);
    Note("layer engine.correlator_round_ms.p50 = %.4f ms, .max = %.4f ms (%zu rounds)",
         Median(rounds), *std::max_element(rounds.begin(), rounds.end()),
         rounds.size());
    Note("layer engine.correlator_skip_ratio = %.4f (%llu triggered, %llu counted)",
         1.0 - per(static_cast<double>(last.correlator_rounds),
                   static_cast<double>(last.rounds_triggered)),
         static_cast<unsigned long long>(last.rounds_triggered),
         static_cast<unsigned long long>(last.correlator_rounds));
  }
  if (last.store_lookups > 0) {
    Note("layer engine.store_hit_ratio = %.4f",
         per(static_cast<double>(last.store_hits), static_cast<double>(last.store_lookups)));
  }
  for (QueryKind kind : {QueryKind::kSketch, QueryKind::kPattern}) {
    if (!last.eval.count(kind)) continue;
    const auto [ns, evals] = last.eval.at(kind);
    Note("layer query.eval_ns_per_batch.%s = %.1f ns", QueryKindName(kind),
         per(static_cast<double>(ns), static_cast<double>(evals)));
  }
  if (!w.closed_loop) {
    const auto rtt = Percentile(pooled(traced, &Rep::send_rtt_us), 0.5);
    const auto tail = pooled(traced, &Rep::latency_us);
    Note("layer net.send_rtt_p50_us = %s", fmt(rtt).c_str());
    Note("layer net.backpressure_episodes = %llu, net.alerts_sent = %llu",
         static_cast<unsigned long long>(last.net_backpressure),
         static_cast<unsigned long long>(last.net_alerts_sent));
    Note("layer net.alert_p90_us = %s, net.alert_p99_us = %s, net.alert_samples = %zu",
         fmt(Percentile(tail, 0.90)).c_str(), fmt(Percentile(tail, 0.99)).c_str(),
         tail.size());
  }
  if (w.rate_aps > 0.0) {
    const auto late = pooled(traced, &Rep::late_us);
    Note("layer gen.late_p50_us = %s, gen.late_p99_us = %s",
         fmt(Percentile(late, 0.50)).c_str(), fmt(Percentile(late, 0.99)).c_str());
  }

  ReplayLayers(w, tracer, &report);
  if (!options.trace_path.empty()) {
    if (!tracer.WriteJsonl(options.trace_path, "main") ||
        !sub_tracer.WriteJsonl(options.trace_path, "subscriber")) {
      Note("could not write spans to %s", options.trace_path.c_str());
    } else {
      Note("spans written to %s", options.trace_path.c_str());
    }
  }
  return report;
}

}  // namespace perfbench
