// Runtime counters of the ingestion engine, exported as JSON for benches,
// examples, and operational scraping. Everything is an atomic updated with
// relaxed ordering: metrics tolerate racy reads, correctness does not
// depend on them.
#ifndef STARDUST_ENGINE_METRICS_H_
#define STARDUST_ENGINE_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/latency_histogram.h"
#include "core/config.h"
#include "query/registry.h"

namespace stardust {

/// Engine-wide counters. Producers bump the posting/drop side; shard
/// workers bump `appended` and the latency histogram.
struct EngineMetrics {
  /// Tuples accepted by Post/PostBatch (including ones later dropped by
  /// kDropOldest; excluding kDropNewest rejections).
  std::atomic<std::uint64_t> posted{0};
  /// Tuples applied to a shard's monitors.
  std::atomic<std::uint64_t> appended{0};
  /// Tuples rejected on arrival (kDropNewest) / reclaimed from a full
  /// queue to make room (kDropOldest).
  std::atomic<std::uint64_t> dropped_newest{0};
  std::atomic<std::uint64_t> dropped_oldest{0};
  /// Full-queue episodes a producer waited out under kBlock.
  std::atomic<std::uint64_t> block_waits{0};
  /// Monitor appends that returned a non-OK status inside a worker.
  std::atomic<std::uint64_t> append_errors{0};
  /// Checkpoints fully written (manifest durable) / attempts that failed
  /// before the manifest rename (engine/checkpoint.h).
  std::atomic<std::uint64_t> checkpoints{0};
  std::atomic<std::uint64_t> checkpoint_failures{0};
  /// Alerts shard workers and the correlator appended to the alert log,
  /// counted per append call that returned OK (the log's own counters
  /// break this down by drop and delivery).
  std::atomic<std::uint64_t> alerts_published{0};
  /// Correlator rounds that evaluated at least one level group (counted
  /// once per round even when several levels evaluate; a round where no
  /// level's common feature time advanced is not counted).
  std::atomic<std::uint64_t> correlator_rounds{0};
  /// Level groups a correlator round failed to evaluate (feature gather
  /// error): the round commits nothing for that level and retries it at
  /// the next firing, so transient failures delay alerts instead of
  /// dropping them.
  std::atomic<std::uint64_t> correlator_errors{0};
  /// Per-resolution-level evaluation counts of the correlator (how many
  /// rounds actually evaluated each level of the correlation core).
  /// Sized by the engine before any thread starts; empty when the
  /// correlation path is disabled.
  std::unique_ptr<std::atomic<std::uint64_t>[]> correlator_level_evals;
  std::size_t correlator_num_levels = 0;
  /// Shard workers whose requested core pin failed (warn-once per shard;
  /// the worker keeps running unpinned).
  std::atomic<std::uint64_t> pin_failures{0};
  /// Completed live stream migrations (IngestEngine::MigrateStream) and
  /// the serialized per-stream state bytes they moved between shards.
  std::atomic<std::uint64_t> migrations{0};
  std::atomic<std::uint64_t> migrated_bytes{0};
  /// Wall-clock nanoseconds per monitor append, measured by the workers.
  LatencyHistogram append_latency;
  /// Wall-clock nanoseconds per completed migration (placement flip to
  /// park drain).
  LatencyHistogram migration_latency;
};

/// Point-in-time view of one shard, stamped with the epoch (number of
/// applied batches) at which it was taken.
struct ShardMetricsSnapshot {
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
  std::uint64_t appended = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;
  std::size_t queue_high_water = 0;
  std::size_t num_streams = 0;
  /// Per-resident-stream append counts, keyed by global stream id and
  /// sorted ascending — the rebalancer's load signal. The counts are the
  /// pipeline's raw-tail sizes read at scrape time, so maintaining them
  /// adds nothing to the hot append path.
  std::vector<std::pair<StreamId, std::uint64_t>> stream_appends;

  // Feature pipeline accounting (docs/FEATURES.md): the exactly-once
  // invariant is pipeline_batches == epoch and pipeline_appends ==
  // appended minus append errors.
  std::uint64_t pipeline_batches = 0;
  std::uint64_t pipeline_appends = 0;
  std::uint64_t znorm_computes = 0;
  std::uint64_t tracker_rebuilds = 0;
  std::uint64_t store_puts = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;

  // Sketch-measure maintenance (FeaturePipeline::Counters: values the
  // live measures absorbed, estimates and their bucket merges, and the
  // sketch bytes written into stream slices).
  std::uint64_t sketch_appends = 0;
  std::uint64_t sketch_merges = 0;
  std::uint64_t sketch_estimates = 0;
  std::uint64_t sketch_serialized_bytes = 0;
  std::size_t sketch_slots = 0;

  // Compiled-plan stage counters: batches (or correlator rounds) that
  // executed each stage of the shard's current EvalPlan.
  std::uint64_t plan_version = 0;
  std::uint64_t plan_aggregate_evals = 0;
  std::uint64_t plan_pattern_evals = 0;
  std::uint64_t plan_correlation_evals = 0;
  std::uint64_t plan_sketch_evals = 0;

  // Batched-maintenance accounting: whether the worker is pinned to its
  // requested core, nanoseconds spent in state maintenance (pipeline
  // appends and batch close), and the per-ApplyBatch wall-time
  // histogram summary.
  bool pinned = false;
  std::uint64_t maintain_ns = 0;
  std::uint64_t apply_batch_count = 0;
  double apply_batch_mean_ns = 0.0;
  std::uint64_t apply_batch_p50_ns = 0;
  std::uint64_t apply_batch_p99_ns = 0;

  /// Maintenance nanoseconds per applied tuple — the headline number the
  /// batched columnar path optimizes (bench/bench_feature.cc reports the
  /// same ratio measured standalone).
  double MaintainNsPerAppend() const {
    return appended == 0 ? 0.0
                         : static_cast<double>(maintain_ns) /
                               static_cast<double>(appended);
  }

  double AvgBatch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(appended) /
                              static_cast<double>(batches);
  }
};

/// One-line JSON document over the engine counters and per-shard
/// snapshots (schema in docs/ENGINE.md).
std::string EngineMetricsJson(const EngineMetrics& metrics,
                              const std::vector<ShardMetricsSnapshot>& shards);

/// Overload additionally emitting a "queries" array with the per-query
/// counters (evals, hits, errors, rate_limited, eval_nanos) from
/// QueryRegistry::Metrics().
std::string EngineMetricsJson(const EngineMetrics& metrics,
                              const std::vector<ShardMetricsSnapshot>& shards,
                              const std::vector<QueryMetricsSnapshot>& queries);

/// Inserts `"name":{body}` as a top-level member of an EngineMetricsJson
/// document (before the closing brace). `body` must be the member list of
/// a JSON object, without the surrounding braces. Lets layers above the
/// engine (the network server) extend the document without the engine
/// knowing their schema. Returns `json` unchanged if it is not a
/// `{...}`-shaped document.
std::string MergeMetricsSection(const std::string& json,
                                const std::string& name,
                                const std::string& body);

}  // namespace stardust

#endif  // STARDUST_ENGINE_METRICS_H_
