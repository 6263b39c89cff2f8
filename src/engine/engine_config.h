// Configuration of the sharded ingestion engine (src/engine).
#ifndef STARDUST_ENGINE_ENGINE_CONFIG_H_
#define STARDUST_ENGINE_ENGINE_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/overload_policy.h"
#include "common/status.h"
#include "query/query_config.h"

namespace stardust {

/// Tunables of the ingestion runtime. Stream state parameters (windows,
/// thresholds, history) stay in StardustConfig; this struct only shapes
/// the threading/queueing layer around it.
struct EngineConfig {
  /// Worker shards. Streams are placed by stream id modulo the effective
  /// shard count (capped at the number of streams).
  std::size_t num_shards = 4;
  /// Capacity of each producer->shard SPSC ring, rounded up to a power of
  /// two. Total queued capacity is num_shards * max_producers * this.
  std::size_t queue_capacity = 1024;
  /// Maximum number of distinct producer threads that may ever call
  /// Post/PostBatch on one engine. Each gets a private SPSC ring per
  /// shard; registration is automatic on first Post.
  std::size_t max_producers = 8;
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Upper bound on tuples a worker applies per state-lock acquisition;
  /// bounds reader (snapshot) latency under sustained load.
  std::size_t max_batch = 256;
  /// Start with the workers paused (queues fill until Resume). Gives
  /// deterministic overload behavior for tests and lets deployments
  /// pre-fill before the first drain.
  bool start_paused = false;
  /// Pin each shard worker to a core (shard s -> core s modulo the
  /// hardware concurrency). Best-effort: a failed affinity call is
  /// counted once per shard in EngineMetrics::pin_failures and the
  /// worker runs unpinned — it never aborts ingestion. Linux only; other
  /// platforms always count as failed.
  bool pin_shards = false;
  /// Test hook replacing the affinity syscall (receives the target core,
  /// returns success). Leave null for the real pthread_setaffinity_np.
  std::function<bool(std::size_t core)> pin_hook;
  /// Test hook injecting correlator gather failures: consulted once per
  /// level group per round; returning true makes that level's evaluation
  /// fail as if the feature gather errored (counted in
  /// correlator_errors; the level retries next round). Leave null in
  /// production.
  std::function<bool(std::size_t level)> correlator_fault_hook;
  /// Aligned feature times retained per (level, stream) in each shard's
  /// FeatureStore ring. 0 (the default) derives a capacity from the
  /// probed L2 data-cache size so a shard's hot store set fits in roughly
  /// half of it, falling back to the fixed default capacity when the
  /// platform does not expose the cache size (core/feature_store.h,
  /// DeriveStoreCapacity).
  std::size_t store_capacity = 0;
  /// Period of the background checkpoint thread in milliseconds; 0 (the
  /// default) disables it. When enabled the engine checkpoints itself
  /// into `checkpoint_dir` every period without stopping ingestion
  /// (docs/ENGINE.md, "Checkpoint / restore").
  std::size_t checkpoint_period_ms = 0;
  /// Directory the background checkpoint thread writes into. Required
  /// when checkpoint_period_ms > 0; created on first use.
  std::string checkpoint_dir;
  /// Period of the background rebalancer thread in milliseconds; 0 (the
  /// default) disables it. When enabled the engine samples per-shard and
  /// per-stream append deltas every period and migrates the hottest
  /// stream off the hottest shard when the load skew exceeds the
  /// hysteresis bounds below (docs/ENGINE.md, "Elastic sharding").
  std::size_t rebalance_period_ms = 0;
  /// A rebalance tick acts only when the hottest shard's append delta
  /// exceeds the coldest's by this factor. Must be > 1 (hysteresis: a
  /// balanced fleet must never oscillate streams back and forth).
  double rebalance_hysteresis = 1.5;
  /// Minimum per-tick append delta of the hottest shard before the
  /// rebalancer considers acting; keeps idle and trickle workloads from
  /// migrating on noise.
  std::uint64_t rebalance_min_delta = 4096;
  /// Continuous-query subsystem layered on the shards: pattern /
  /// correlation core configurations, correlator cadence, and the alert
  /// bus shape (src/query, docs/QUERIES.md).
  QueryConfig query;

  Status Validate() const {
    SD_RETURN_NOT_OK(query.Validate());
    if (num_shards == 0) {
      return Status::InvalidArgument("num_shards must be positive");
    }
    if (queue_capacity == 0) {
      return Status::InvalidArgument("queue_capacity must be positive");
    }
    if (max_producers == 0) {
      return Status::InvalidArgument("max_producers must be positive");
    }
    if (max_batch == 0) {
      return Status::InvalidArgument("max_batch must be positive");
    }
    if (checkpoint_period_ms > 0 && checkpoint_dir.empty()) {
      return Status::InvalidArgument(
          "checkpoint_period_ms requires a checkpoint_dir");
    }
    if (rebalance_period_ms > 0 && rebalance_hysteresis <= 1.0) {
      return Status::InvalidArgument(
          "rebalance_hysteresis must exceed 1.0");
    }
    return Status::OK();
  }
};

}  // namespace stardust

#endif  // STARDUST_ENGINE_ENGINE_CONFIG_H_
