// Layer replay of a traced run: the workload's timed tape, single-
// threaded, through the objects each shard layer is built from. Calls are
// grouped as a shard groups them (per-stream runs within batches of 256
// tuples, one FinishBatch per batch) and each batch of calls into a layer
// is one span, so a layer's self time per tuple reads straight off the
// spans without a clock pair per tuple.
#include <algorithm>
#include <memory>
#include <vector>

#include "core/fleet_monitor.h"
#include "core/stardust.h"
#include "engine/feature_pipeline.h"
#include "query/eval_plan.h"
#include "query/registry.h"
#include "sketch/measure.h"
#include "workloads.h"

namespace perfbench {

using namespace stardust;

namespace {

constexpr std::size_t kBatch = 256;

struct Run {
  StreamId stream;
  const double* values;
  std::size_t n;
};

/// The tuples of `tuples` cut into batches of kBatch, each batch into
/// maximal same-stream runs (the engine's run grouping).
std::vector<std::vector<Run>> Batches(const std::vector<StreamValue>& tuples,
                                      std::vector<double>* values) {
  values->resize(tuples.size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    (*values)[i] = tuples[i].value;
  }
  std::vector<std::vector<Run>> batches;
  for (std::size_t b = 0; b < tuples.size(); b += kBatch) {
    std::vector<Run>& runs = batches.emplace_back();
    const std::size_t end = std::min(b + kBatch, tuples.size());
    for (std::size_t i = b; i < end; ++i) {
      if (runs.empty() || runs.back().stream != tuples[i].stream) {
        runs.push_back({tuples[i].stream, values->data() + i, 0});
      }
      ++runs.back().n;
    }
  }
  return batches;
}

std::unique_ptr<Stardust> Core(const StardustConfig& config,
                               std::size_t streams) {
  Result<std::unique_ptr<Stardust>> core = Stardust::Create(config);
  if (!core.ok()) return nullptr;
  for (std::size_t s = 0; s < streams; ++s) core.value()->AddStream();
  return std::move(core).value();
}

double NsPer(const Tracer& tracer, const char* name, double per) {
  return per > 0 ? tracer.SelfNs(name) / per : 0.0;
}

}  // namespace

void ReplayLayers(const Workload& w, Tracer& tracer, Report* report) {
  const std::size_t n = w.tape.num_streams;
  std::vector<double> warm_values;
  std::vector<double> timed_values;
  const auto warm = Batches(w.tape.warm, &warm_values);
  const auto timed = Batches(w.tape.timed, &timed_values);
  const double tuples = static_cast<double>(w.tape.timed.size());
  bool ok = true;

  // Fleet + feature pipeline: the shard's maintenance job, configured
  // like the workload's shards (same cores, same compiled plan).
  {
    auto fleet = FleetAggregateMonitor::Create(w.fleet, w.fleet_thresholds, n);
    const QueryConfig& qc = w.engine.query;
    FeaturePipeline pipeline(
        qc.enable_patterns ? Core(qc.pattern, n) : nullptr,
        qc.enable_correlation ? Core(qc.correlation, n) : nullptr, n);
    QueryRegistry registry(w.fleet, qc);
    for (const QuerySpec& spec : w.queries) ok = ok && registry.Register(spec).ok();
    PlanContext ctx;
    ctx.fleet = &w.fleet;
    ctx.pattern = qc.enable_patterns ? &qc.pattern : nullptr;
    ctx.correlation = qc.enable_correlation ? &qc.correlation : nullptr;
    std::shared_ptr<const EvalPlan> plan =
        CompileEvalPlan(*registry.snapshot(), registry.version(), ctx);
    ok = ok && fleet.ok();
    if (ok) {
      pipeline.AdoptPlan(*plan, *fleet.value());
      std::vector<StreamId> touched;
      auto apply = [&](const std::vector<Run>& runs, bool timed_batch) {
        tracer.set_enabled(timed_batch);
        {
          ScopedSpan span(tracer, "FleetAggregateMonitor::AppendRun");
          for (const Run& r : runs) {
            ok = fleet.value()->AppendRun(r.stream, r.values, r.n).ok() && ok;
          }
        }
        {
          ScopedSpan span(tracer, "FeaturePipeline::AppendRun");
          for (const Run& r : runs) {
            ok = pipeline.AppendRun(r.stream, r.values, r.n).ok() && ok;
          }
        }
        touched.clear();
        for (const Run& r : runs) touched.push_back(r.stream);
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
        ScopedSpan span(tracer, "FeaturePipeline::FinishBatch");
        pipeline.FinishBatch(touched);
      };
      for (const auto& runs : warm) apply(runs, false);
      for (const auto& runs : timed) apply(runs, true);
    }
  }
  const double fleet_ns = tracer.SelfNs("FleetAggregateMonitor::AppendRun");
  const double pipe_ns = tracer.SelfNs("FeaturePipeline::AppendRun");
  const double finish_ns = tracer.SelfNs("FeaturePipeline::FinishBatch");
  report->Set("core.fleet_ns_per_append", fleet_ns / tuples, "ns");
  report->Set("engine.pipeline_ns_per_append", pipe_ns / tuples, "ns");
  report->Set("engine.finish_batch_ns",
              NsPer(tracer, "FeaturePipeline::FinishBatch",
                    static_cast<double>(timed.size())),
              "ns");
  report->Set("core.direct_aps", tuples / ((fleet_ns + pipe_ns + finish_ns) * 1e-9),
              "appends/s");

  // The pattern and correlation cores on their own, at this tape's run
  // length (1 on agg_fanout: the batched kernels are bypassed there).
  for (const auto& [name, config] :
       {std::pair{"Stardust::AppendRun(pattern)", PatternCoreConfig()},
        std::pair{"Stardust::AppendRun(correlation)", CorrelationCoreConfig()}}) {
    std::unique_ptr<Stardust> core = Core(config, n);
    ok = ok && core != nullptr;
    if (core == nullptr) continue;
    if (config.index_features) {
      // As the feature pipeline runs it: standing pattern queries match
      // against the box threads, so no level index is maintained.
      ok = core->SetIndexedLevels(std::vector<bool>(config.num_levels, false)).ok() && ok;
    }
    for (const auto* batches : {&warm, &timed}) {
      tracer.set_enabled(batches == &timed);
      for (const auto& runs : *batches) {
        ScopedSpan span(tracer, name);
        for (const Run& r : runs) {
          ok = core->AppendRun(r.stream, r.values, r.n).ok() && ok;
        }
      }
    }
  }
  report->Set("core.pattern_ns_per_append",
              NsPer(tracer, "Stardust::AppendRun(pattern)", tuples), "ns");
  report->Set("core.corr_ns_per_append",
              NsPer(tracer, "Stardust::AppendRun(correlation)", tuples), "ns");

  for (const auto& [name, config] :
       {std::pair{"SketchMeasure::AppendRun(distinct)", DistinctSketchConfig()},
        std::pair{"SketchMeasure::AppendRun(quantile)", QuantileSketchConfig()}}) {
    std::vector<std::unique_ptr<SketchMeasure>> measures;
    for (std::size_t s = 0; s < n; ++s) measures.push_back(CreateSketchMeasure(config));
    for (const auto* batches : {&warm, &timed}) {
      tracer.set_enabled(batches == &timed);
      for (const auto& runs : *batches) {
        ScopedSpan span(tracer, name);
        for (const Run& r : runs) measures[r.stream]->AppendRun(r.values, r.n);
      }
    }
  }
  report->Set("sketch.ns_per_append.distinct",
              NsPer(tracer, "SketchMeasure::AppendRun(distinct)", tuples), "ns");
  report->Set("sketch.ns_per_append.quantile",
              NsPer(tracer, "SketchMeasure::AppendRun(quantile)", tuples), "ns");

  // Wire codec over the workload's posting units (one frame per
  // PostBatch chunk or network frame).
  tracer.set_enabled(true);
  for (const auto& [begin, end] : w.tape.runs) {
    const net::BatchMessage batch = FrameOf(w.tape.timed, begin, end);
    std::string payload;
    {
      ScopedSpan span(tracer, "net::EncodeBatch");
      payload = net::EncodeBatch(batch);
    }
    net::BatchMessage decoded;
    {
      ScopedSpan span(tracer, "net::DecodeBatch");
      ok = net::DecodeBatch(payload, &decoded).ok() && ok;
    }
    ok = ok && decoded.total_values() == batch.total_values();
  }
  tracer.set_enabled(false);
  const double frames = static_cast<double>(w.tape.runs.size());
  report->Set("net.encode_batch_ns", NsPer(tracer, "net::EncodeBatch", frames), "ns");
  report->Set("net.decode_batch_ns", NsPer(tracer, "net::DecodeBatch", frames), "ns");
  report->Gate(ok, "layer replay: a layer call failed");
}

}  // namespace perfbench
