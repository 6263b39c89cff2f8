// Compute-once feature pipeline vs per-consumer recompute.
//
// Measures the per-batch evaluation cost of the mixed query workload
// (three aggregate windows + one correlation query) in two modes over
// identical data and shard partitions:
//
//   shared     The refactored path: one FeaturePipeline per shard keeps
//              sliding trackers for the plan's aggregate window set and
//              caches z-normalized DWT features in the FeatureStore, so
//              each batch evaluation is O(1) tracker reads and each
//              correlator round is store hits.
//   recompute  The pre-refactor path: every aggregate query re-sums its
//              raw window from the ring per batch, and every correlator
//              round re-extracts and re-z-normalizes the raw window per
//              stream.
//
// Both modes run single-threaded (shards are partitions, evaluated
// round-robin) so the numbers isolate the per-batch work rather than
// thread scheduling. One JSON line per (mode, shards) on stdout plus a
// speedup line per shard count (prose goes to stderr):
//
//   $ ./build/bench/bench_feature > BENCH_FEATURE.json
//
// STARDUST_FULL=1 scales the step count up 8x.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/serialize.h"
#include "core/feature_store.h"
#include "core/fleet_monitor.h"
#include "core/stardust.h"
#include "engine/feature_pipeline.h"
#include "query/eval_plan.h"
#include "query/registry.h"
#include "stream/threshold.h"
#include "transform/feature.h"

namespace {

using namespace stardust;

constexpr std::size_t kStreams = 64;
constexpr std::size_t kBurstPeriod = 256;
constexpr std::size_t kBurstLen = 64;
constexpr double kLow = 1.0;
constexpr double kHigh = 9.0;
constexpr std::size_t kCorrPeriod = 16;  // correlation core update period

// Same phase-shifted square wave as bench_query: realistic aggregate
// motion and genuinely correlated neighbor streams.
double ValueAt(std::size_t stream, std::size_t t) {
  const std::size_t phase = (t + 16 * stream) % kBurstPeriod;
  return phase < kBurstLen ? kHigh : kLow;
}

StardustConfig FleetConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 16;
  config.num_levels = 5;  // windows 16..256
  config.history = 256;
  config.box_capacity = 4;
  config.update_period = 1;
  return config;
}

StardustConfig CorrelationCoreConfig() {
  StardustConfig config;
  config.transform = TransformKind::kDwt;
  config.normalization = Normalization::kZNorm;
  config.coefficients = 4;
  config.base_window = kCorrPeriod;
  config.num_levels = 2;
  config.history = 32;
  config.box_capacity = 1;
  config.update_period = kCorrPeriod;  // batch algorithm, T == W
  return config;
}

/// The engine's standing-pattern core as the mixed_runs benchmark
/// configures it: online unit-sphere DWT, T = 1, c = 1.
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

const std::vector<std::size_t>& AggregateWindows() {
  static const std::vector<std::size_t> windows{16, 64, 256};
  return windows;
}

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One shard's partition: `count` streams starting at global id `begin`
/// (contiguous partition, like the engine's stream->shard map).
struct Partition {
  std::size_t begin = 0;
  std::size_t count = 0;
};

std::vector<Partition> MakePartitions(std::size_t shards) {
  std::vector<Partition> parts(shards);
  const std::size_t base = kStreams / shards;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    parts[i].begin = begin;
    parts[i].count = base + (i < kStreams % shards ? 1 : 0);
    begin += parts[i].count;
  }
  return parts;
}

struct RunResult {
  std::uint64_t appends = 0;
  std::uint64_t maintain_ns = 0;
  std::uint64_t eval_ns = 0;
  std::uint64_t agg_evals = 0;
  std::uint64_t corr_rounds = 0;
  std::uint64_t features_served = 0;
  std::uint64_t znorm_computes = 0;
  std::uint64_t store_hits = 0;
  double checksum = 0.0;  // defeats dead-code elimination
};

/// Shared-store mode: FeaturePipeline per shard, plan-driven trackers,
/// correlator rounds served from the FeatureStore.
RunResult RunShared(std::size_t shards, std::size_t steps) {
  const std::vector<Partition> parts = MakePartitions(shards);
  const StardustConfig fleet_config = FleetConfig();
  const StardustConfig corr_config = CorrelationCoreConfig();

  QueryConfig qconfig;
  qconfig.enable_correlation = true;
  qconfig.correlation = corr_config;
  QueryRegistry registry(fleet_config, qconfig);
  for (std::size_t window : AggregateWindows()) {
    if (!registry.Register(QuerySpec::Aggregate(window, 1e18)).ok()) {
      std::abort();
    }
  }
  if (!registry.Register(QuerySpec::Correlation(0.5, 0)).ok()) std::abort();
  PlanContext ctx;
  ctx.fleet = &fleet_config;
  ctx.correlation = &corr_config;
  std::shared_ptr<const EvalPlan> plan =
      CompileEvalPlan(*registry.snapshot(), registry.version(), ctx);

  std::vector<std::unique_ptr<FeaturePipeline>> pipelines;
  std::vector<std::vector<StreamId>> touched(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto corr = Stardust::Create(corr_config);
    if (!corr.ok()) std::abort();
    for (std::size_t s = 0; s < parts[i].count; ++s) {
      corr.value()->AddStream();
      touched[i].push_back(static_cast<StreamId>(s));
    }
    pipelines.push_back(std::make_unique<FeaturePipeline>(
        fleet_config, nullptr, std::move(corr.value()), parts[i].count));
    pipelines.back()->AdoptPlan(*plan);
  }

  RunResult result;
  const std::size_t num_slots = plan->aggregate_windows.size();
  FeatureStore::View view;
  for (std::size_t t = 0; t < steps; ++t) {
    std::uint64_t t0 = NowNanos();
    for (std::size_t i = 0; i < shards; ++i) {
      for (std::size_t s = 0; s < parts[i].count; ++s) {
        const double value = ValueAt(parts[i].begin + s, t);
        if (!pipelines[i]->Append(static_cast<StreamId>(s), value).ok()) {
          std::abort();
        }
        ++result.appends;
      }
      pipelines[i]->FinishBatch(touched[i]);
    }
    std::uint64_t t1 = NowNanos();
    result.maintain_ns += t1 - t0;

    // Per-batch aggregate evaluation: O(1) tracker reads.
    for (std::size_t i = 0; i < shards; ++i) {
      for (std::size_t s = 0; s < parts[i].count; ++s) {
        for (std::size_t slot = 0; slot < num_slots; ++slot) {
          if (pipelines[i]->TrackerReady(static_cast<StreamId>(s), slot)) {
            result.checksum +=
                pipelines[i]->TrackerValue(static_cast<StreamId>(s), slot);
          }
          ++result.agg_evals;
        }
      }
    }
    // Correlator round at every aligned feature time: store hits.
    if (t % kCorrPeriod == kCorrPeriod - 1) {
      ++result.corr_rounds;
      for (std::size_t i = 0; i < shards; ++i) {
        for (std::size_t s = 0; s < parts[i].count; ++s) {
          if (pipelines[i]->CorrelationFeature(0, static_cast<StreamId>(s),
                                               t, &view)) {
            result.checksum += view.znormed[0] + view.feature[0];
            ++result.features_served;
          }
        }
      }
    }
    result.eval_ns += NowNanos() - t1;
  }
  for (std::size_t i = 0; i < shards; ++i) {
    const FeaturePipeline::Counters c = pipelines[i]->counters();
    result.znorm_computes += c.znorm_computes;
    result.store_hits += c.store_hits;
  }
  return result;
}

/// Per-consumer recompute mode: the same cores and data, but every
/// aggregate query re-sums its raw window per batch and every correlator
/// round re-z-normalizes from raw history (the pre-refactor cost model).
RunResult RunRecompute(std::size_t shards, std::size_t steps) {
  const std::vector<Partition> parts = MakePartitions(shards);
  const StardustConfig fleet_config = FleetConfig();
  const StardustConfig corr_config = CorrelationCoreConfig();

  std::vector<std::unique_ptr<FleetAggregateMonitor>> fleets;
  std::vector<std::unique_ptr<Stardust>> corr_cores;
  for (std::size_t i = 0; i < shards; ++i) {
    auto fleet = FleetAggregateMonitor::Create(
        fleet_config, {{16, 1e18}}, parts[i].count);
    if (!fleet.ok()) std::abort();
    fleets.push_back(std::move(fleet.value()));
    auto corr = Stardust::Create(corr_config);
    if (!corr.ok()) std::abort();
    for (std::size_t s = 0; s < parts[i].count; ++s) {
      corr.value()->AddStream();
    }
    corr_cores.push_back(std::move(corr.value()));
  }

  RunResult result;
  std::vector<double> window_scratch;
  std::vector<double> znorm_scratch;
  for (std::size_t t = 0; t < steps; ++t) {
    std::uint64_t t0 = NowNanos();
    for (std::size_t i = 0; i < shards; ++i) {
      for (std::size_t s = 0; s < parts[i].count; ++s) {
        const double value = ValueAt(parts[i].begin + s, t);
        if (!fleets[i]->Append(static_cast<StreamId>(s), value).ok()) {
          std::abort();
        }
        if (!corr_cores[i]->Append(static_cast<StreamId>(s), value).ok()) {
          std::abort();
        }
        ++result.appends;
      }
    }
    std::uint64_t t1 = NowNanos();
    result.maintain_ns += t1 - t0;

    // Per-batch aggregate evaluation: O(window) raw re-sum per query.
    for (std::size_t i = 0; i < shards; ++i) {
      for (std::size_t s = 0; s < parts[i].count; ++s) {
        const StreamSummarizer& summarizer =
            fleets[i]->monitor(static_cast<StreamId>(s)).stardust()
                .summarizer(0);
        for (std::size_t window : AggregateWindows()) {
          if (t + 1 >= window &&
              summarizer.GetWindow(t, window, &window_scratch).ok()) {
            double sum = 0.0;
            for (double v : window_scratch) sum += v;
            result.checksum += sum;
          }
          ++result.agg_evals;
        }
      }
    }
    // Correlator round: re-extract and re-z-normalize per stream.
    if (t % kCorrPeriod == kCorrPeriod - 1) {
      ++result.corr_rounds;
      for (std::size_t i = 0; i < shards; ++i) {
        for (std::size_t s = 0; s < parts[i].count; ++s) {
          const StreamSummarizer& summarizer =
              corr_cores[i]->summarizer(static_cast<StreamId>(s));
          const LevelThread& thread = summarizer.thread(0);
          const FeatureBox* box = thread.Find(t);
          if (box == nullptr) continue;
          const std::size_t window = corr_config.LevelWindow(0);
          if (!summarizer.GetWindow(t, window, &window_scratch).ok()) {
            continue;
          }
          znorm_scratch.resize(window);
          double mean = 0.0;
          double norm2 = 0.0;
          ZNormalizeTo(window_scratch.data(), window, znorm_scratch.data(),
                       &mean, &norm2);
          ++result.znorm_computes;
          result.checksum += znorm_scratch[0] + thread.Lo(*box)[0];
          ++result.features_served;
        }
      }
    }
    result.eval_ns += NowNanos() - t1;
  }
  return result;
}

/// Batched-vs-scalar maintenance at one shard of kStreams streams — the
/// shard's whole maintenance job, the feature pipeline with its raw
/// tails: the same per-stream value sequences and the same batch cadence
/// (one FinishBatch per `run_len` steps — the engine's ApplyBatch shape),
/// with state updated either per value (Append) or via the columnar
/// AppendRun kernels. Returns the maintain time plus an FNV-1a digest of
/// every stream's serialized slice (raw tail, correlation core, trackers,
/// store rows) so the two modes can be asserted bit-identical.
struct MaintainResult {
  std::uint64_t appends = 0;
  std::uint64_t maintain_ns = 0;
  std::uint64_t state_digest = 0;
};

MaintainResult RunMaintain(bool batched, std::size_t run_len,
                           std::size_t steps) {
  const StardustConfig fleet_config = FleetConfig();
  const StardustConfig corr_config = CorrelationCoreConfig();

  QueryConfig qconfig;
  qconfig.enable_correlation = true;
  qconfig.correlation = corr_config;
  QueryRegistry registry(fleet_config, qconfig);
  for (std::size_t window : AggregateWindows()) {
    if (!registry.Register(QuerySpec::Aggregate(window, 1e18)).ok()) {
      std::abort();
    }
  }
  if (!registry.Register(QuerySpec::Correlation(0.5, 0)).ok()) std::abort();
  PlanContext ctx;
  ctx.fleet = &fleet_config;
  ctx.correlation = &corr_config;
  std::shared_ptr<const EvalPlan> plan =
      CompileEvalPlan(*registry.snapshot(), registry.version(), ctx);

  auto corr = Stardust::Create(corr_config);
  if (!corr.ok()) std::abort();
  std::vector<StreamId> touched;
  for (std::size_t s = 0; s < kStreams; ++s) {
    corr.value()->AddStream();
    touched.push_back(static_cast<StreamId>(s));
  }
  FeaturePipeline pipeline(fleet_config, nullptr, std::move(corr.value()),
                           kStreams);
  pipeline.AdoptPlan(*plan);

  MaintainResult result;
  std::vector<double> run(run_len);
  for (std::size_t t = 0; t < steps; t += run_len) {
    const std::size_t len = std::min(run_len, steps - t);
    const std::uint64_t t0 = NowNanos();
    for (std::size_t s = 0; s < kStreams; ++s) {
      for (std::size_t k = 0; k < len; ++k) run[k] = ValueAt(s, t + k);
      const StreamId stream = static_cast<StreamId>(s);
      if (batched) {
        if (!pipeline.AppendRun(stream, run.data(), len).ok()) std::abort();
      } else {
        for (std::size_t k = 0; k < len; ++k) {
          if (!pipeline.Append(stream, run[k]).ok()) std::abort();
        }
      }
      result.appends += len;
    }
    pipeline.FinishBatch(touched);
    result.maintain_ns += NowNanos() - t0;
  }
  Writer state;
  for (std::size_t s = 0; s < kStreams; ++s) {
    if (!pipeline.SaveStreamTo(static_cast<StreamId>(s), &state).ok()) {
      std::abort();
    }
  }
  result.state_digest = Fnv1a(state.buffer());
  return result;
}

/// The same scalar-vs-batched comparison for the pattern core alone, as
/// the feature pipeline runs it (no level index: standing pattern queries
/// walk the box threads). The square wave plus a deterministic ripple
/// keeps every DWT coefficient moving. The digest covers every stream's
/// summarizer bytes (raw tail and both level threads).
MaintainResult RunPatternMaintain(bool batched, std::size_t run_len,
                                  std::size_t steps) {
  const StardustConfig config = PatternCoreConfig();
  auto created = Stardust::Create(config);
  if (!created.ok()) std::abort();
  std::unique_ptr<Stardust> core = std::move(created).value();
  for (std::size_t s = 0; s < kStreams; ++s) core->AddStream();
  if (!core->SetIndexedLevels(std::vector<bool>(config.num_levels, false))
           .ok()) {
    std::abort();
  }
  MaintainResult result;
  std::vector<double> run(run_len);
  for (std::size_t t = 0; t < steps; t += run_len) {
    const std::size_t len = std::min(run_len, steps - t);
    const std::uint64_t t0 = NowNanos();
    for (std::size_t s = 0; s < kStreams; ++s) {
      for (std::size_t k = 0; k < len; ++k) {
        const std::size_t step = t + k;
        run[k] = ValueAt(s, step) +
                 static_cast<double>((step * 2654435761u + s * 97u) % 1000) /
                     500.0;
      }
      const StreamId stream = static_cast<StreamId>(s);
      if (batched) {
        if (!core->AppendRun(stream, run.data(), len).ok()) std::abort();
      } else {
        for (std::size_t k = 0; k < len; ++k) {
          if (!core->Append(stream, run[k]).ok()) std::abort();
        }
      }
      result.appends += len;
    }
    result.maintain_ns += NowNanos() - t0;
  }
  Writer state;
  for (std::size_t s = 0; s < kStreams; ++s) {
    core->summarizer(static_cast<StreamId>(s)).SaveTo(&state);
  }
  result.state_digest = Fnv1a(state.buffer());
  return result;
}

void EmitLine(const char* mode, std::size_t shards, std::size_t steps,
              const RunResult& r) {
  const double seconds =
      static_cast<double>(r.maintain_ns + r.eval_ns) * 1e-9;
  const double features_per_sec =
      r.eval_ns > 0 ? static_cast<double>(r.features_served) /
                          (static_cast<double>(r.eval_ns) * 1e-9)
                    : 0.0;
  std::printf(
      "{\"bench\":\"feature\",\"mode\":\"%s\",\"shards\":%zu,"
      "\"streams\":%zu,\"steps\":%zu,\"appends\":%" PRIu64
      ",\"seconds\":%.4f,\"maintain_ns_per_append\":%.1f,"
      "\"eval_ns_per_batch\":%.0f,\"agg_evals\":%" PRIu64
      ",\"corr_rounds\":%" PRIu64 ",\"features_served\":%" PRIu64
      ",\"features_per_sec\":%.0f,\"znorm_computes\":%" PRIu64
      ",\"store_hits\":%" PRIu64 ",\"checksum\":%.3f}\n",
      mode, shards, kStreams, steps, r.appends, seconds,
      static_cast<double>(r.maintain_ns) /
          static_cast<double>(r.appends > 0 ? r.appends : 1),
      static_cast<double>(r.eval_ns) /
          static_cast<double>(steps > 0 ? steps : 1),
      r.agg_evals, r.corr_rounds, r.features_served, features_per_sec,
      r.znorm_computes, r.store_hits, r.checksum);
}

}  // namespace

int main() {
  bench::PrintHeaderStderr(
      "bench_feature: shared FeatureStore vs per-consumer recompute",
      "unified framework claim — compute features once, serve every "
      "query class (Sec. 2, docs/FEATURES.md)");

  const std::size_t steps = bench::FullScale() ? 32768 : 4096;

  // Batched columnar maintenance vs the scalar seed path, one shard of
  // kStreams streams, same batch cadence. State digests must agree: the
  // batched kernels are an optimization, not an approximation. Each mode
  // keeps the fastest of 5 runs so scheduler noise on loaded hosts
  // does not masquerade as a kernel-speed difference.
  constexpr int kReps = 5;
  using MaintainFn = MaintainResult (*)(bool, std::size_t, std::size_t);
  const auto best_of = [steps](MaintainFn maintain, bool batched_mode,
                               std::size_t run_len) {
    MaintainResult best = maintain(batched_mode, run_len, steps);
    for (int rep = 1; rep < kReps; ++rep) {
      MaintainResult r = maintain(batched_mode, run_len, steps);
      if (r.state_digest != best.state_digest) {
        std::fprintf(stderr, "FATAL: digest unstable across reps\n");
        std::exit(1);
      }
      if (r.maintain_ns < best.maintain_ns) best = r;
    }
    return best;
  };
  // One JSON line per (maintained state, run length); exits nonzero when
  // the batched digest differs from the scalar one.
  const auto compare = [&](const char* bench_name, MaintainFn maintain,
                           std::size_t run_len) {
    const MaintainResult scalar = best_of(maintain, false, run_len);
    const MaintainResult batched = best_of(maintain, true, run_len);
    if (scalar.state_digest != batched.state_digest) {
      std::fprintf(stderr, "FATAL: %s batched state digest diverged at "
                   "run=%zu\n", bench_name, run_len);
      std::exit(1);
    }
    const auto per_append = [](const MaintainResult& r) {
      return static_cast<double>(r.maintain_ns) /
             static_cast<double>(r.appends > 0 ? r.appends : 1);
    };
    const double speedup = per_append(batched) > 0.0
                               ? per_append(scalar) / per_append(batched)
                               : 0.0;
    std::printf(
        "{\"bench\":\"%s\",\"run\":%zu,\"streams\":%zu,"
        "\"steps\":%zu,\"scalar_maintain_ns_per_append\":%.1f,"
        "\"batched_maintain_ns_per_append\":%.1f,"
        "\"maintain_speedup\":%.2f,\"state_digest\":%" PRIu64 "}\n",
        bench_name, run_len, kStreams, steps, per_append(scalar),
        per_append(batched), speedup, batched.state_digest);
    std::fprintf(stderr, "%s run=%zu maintain %.1f -> %.1f ns/append "
                 "(%.2fx)\n", bench_name, run_len, per_append(scalar),
                 per_append(batched), speedup);
  };
  for (std::size_t run_len : {std::size_t{1}, std::size_t{8},
                              std::size_t{64}, std::size_t{256}}) {
    compare("feature_maintain", RunMaintain, run_len);
  }
  // The pattern core at mixed_runs' run length: its own bench name, so
  // readers keyed on feature_maintain's run lengths are unaffected.
  compare("pattern_maintain", RunPatternMaintain, 64);

  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    const RunResult shared = RunShared(shards, steps);
    const RunResult recompute = RunRecompute(shards, steps);
    EmitLine("shared", shards, steps, shared);
    EmitLine("recompute", shards, steps, recompute);
    const double speedup =
        shared.eval_ns > 0
            ? static_cast<double>(recompute.eval_ns) /
                  static_cast<double>(shared.eval_ns)
            : 0.0;
    std::printf(
        "{\"bench\":\"feature_speedup\",\"shards\":%zu,"
        "\"eval_speedup\":%.2f}\n",
        shards, speedup);
    std::fprintf(stderr, "shards=%zu eval speedup %.2fx\n", shards, speedup);
  }
  return 0;
}
