// One worker shard of the ingestion engine: private per-stream state (its
// own feature pipeline, untouched by any other thread) fed by one bounded
// SPSC ring per registered producer. The worker thread drains the
// rings in batches and applies them under the shard's state mutex; reader
// snapshots take the same mutex and are stamped with the shard epoch
// (number of applied batches) so cross-shard reads can report exactly how
// fresh each shard's contribution was.
//
// Stream ownership is elastic: the shard holds a local slot table
// (global_of_/local_of_) seeded with the engine's modulo-hash layout and
// mutated by live migrations (ExtractStream/InstallStream). Rings carry
// GLOBAL stream ids end to end; the worker translates to local slots when
// it groups a batch, so re-routing a stream never needs a ring flush.
// Tuples racing ahead of an in-flight migration are parked
// (PrepareReceive) and applied in arrival order once the stream's state
// is installed — no tuple is lost and no alert fires twice. A stream's
// state travels in one encoding, its slice (SerializeStream): migrations
// move it, and a checkpoint persists the slot table with one slice per
// live slot (SerializeState) that Restore installs through the
// InstallStream path.
//
// Every piece of per-stream state the shard maintains lives in its
// FeaturePipeline (engine/feature_pipeline.h), the shard's one
// maintenance writer: the raw tail and append count, the online
// unit-sphere DWT core (pattern queries, Algorithm 3), the batch
// z-normalized DWT core plus FeatureStore (feature source for the
// cross-shard correlator), the per-window sliding trackers serving
// aggregate queries, and the sketch measures. The worker feeds the
// pipeline exactly once per applied tuple and batch, then executes the
// registry's compiled EvalPlan (query/eval_plan.h; one plan per query-set
// version, shared with every other shard and the correlator) against the
// shared state and appends hits to the alert log (docs/QUERIES.md,
// docs/FEATURES.md).
#ifndef STARDUST_ENGINE_SHARD_H_
#define STARDUST_ENGINE_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/latency_histogram.h"
#include "common/ring_buffer.h"
#include "common/status.h"
#include "core/stardust.h"
#include "engine/checkpoint.h"
#include "engine/engine_config.h"
#include "engine/feature_pipeline.h"
#include "engine/metrics.h"
#include "engine/placement.h"
#include "query/alert_log.h"
#include "query/eval_plan.h"
#include "query/registry.h"

namespace stardust {

/// One (stream, value) arrival. `stream` is the GLOBAL stream id both at
/// the engine API boundary and inside the shard queues; the worker
/// translates to the shard-local slot when it groups a batch.
struct StreamValue {
  StreamId stream = 0;
  double value = 0.0;
};

/// Outcome of one post (Shard::Push; IngestEngine::TryPost returns it).
/// The network front door posts without waiting, so a full ring under
/// kBlock surfaces as kWouldBlock — backpressure the caller can map onto
/// its transport (pause reads, retry later) — rather than stalling the
/// server's event loop.
enum class PostOutcome : std::uint8_t {
  /// The tuple is in the ring (under kDropOldest possibly at the cost of
  /// an evicted older tuple, accounted in dropped_oldest).
  kEnqueued = 0,
  /// Ring full under kDropNewest: the tuple was discarded and accounted.
  kDroppedNewest = 1,
  /// Ring full under kBlock: nothing was enqueued or accounted; retry
  /// after the worker drains.
  kWouldBlock = 2,
};

/// Epoch stamp attached to data read from one shard: `epoch` counts the
/// batches the shard had applied when the read happened, `appended` the
/// tuples. Two reads with equal stamps observed identical shard state.
struct ShardStamp {
  std::size_t shard = 0;
  std::uint64_t epoch = 0;
  std::uint64_t appended = 0;
};

/// Worker-thread placement options for one shard.
struct ShardOptions {
  /// Pin the worker thread to `pin_core` when it starts. Pinning is
  /// best-effort: a failed affinity call is counted once in
  /// EngineMetrics::pin_failures and the worker runs unpinned.
  bool pin = false;
  std::size_t pin_core = 0;
  /// Test hook replacing the real affinity syscall; returns whether the
  /// pin succeeded. Null means pthread_setaffinity_np on Linux and an
  /// always-failing no-op elsewhere.
  std::function<bool(std::size_t core)> pin_hook;
};

/// A shard owns its stream state exclusively; all mutation happens on its
/// worker thread. Producers only touch the rings and atomic counters.
class Shard {
 public:
  /// `num_shards` is the engine's effective shard count (for the default
  /// modulo local -> global stream id mapping). `pipeline` must be
  /// non-null and sized for the shard's local streams; its cores may be
  /// absent (query kind disabled). `registry` and `alerts` may be null
  /// only together (no query evaluation); a pattern core requires a
  /// registry.
  Shard(std::size_t index, std::size_t num_shards,
        std::size_t num_producers, std::size_t queue_capacity,
        OverloadPolicy policy, std::size_t max_batch,
        std::unique_ptr<FeaturePipeline> pipeline, QueryRegistry* registry,
        AlertLog* alerts, EngineMetrics* metrics,
        ShardOptions options = {});
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void Start();
  /// Tells the worker to drain every ring and exit. Producers must have
  /// stopped pushing to this shard before the call.
  void RequestStop();
  void Join();
  /// Worker stops draining while paused (queues fill; drop policies
  /// apply). Used to quiesce for maintenance and to test overload.
  void set_paused(bool paused);
  bool paused() const { return paused_.load(std::memory_order_acquire); }

  /// Enqueues one tuple (`stream` is the global id) from producer slot
  /// `producer`, applying the shard's overload policy when the ring is
  /// full. Under kBlock a `wait`ing push spins (counted in block_waits;
  /// Aborted once the shard stops); otherwise it returns kWouldBlock with
  /// nothing enqueued or counted. One thread per producer slot (SPSC).
  Result<PostOutcome> Push(std::size_t producer, StreamId stream,
                           double value, bool wait = true);

  /// Tuples applied by the worker.
  std::uint64_t applied() const {
    return applied_.load(std::memory_order_acquire);
  }
  /// Snapshot of every ring's enqueue cursor, one entry per producer
  /// slot, for RingsDrainedPast.
  std::vector<std::uint64_t> RingEnqueueCursors() const;
  /// True once every ring's retire cursor has reached `targets` (a
  /// prior RingEnqueueCursors snapshot): each tuple the snapshot counts
  /// has been applied, parked, or reclaimed. The check is per ring
  /// because a shard-wide count could be met by post-snapshot traffic
  /// from *other* rings while an older tuple still sits queued, which is
  /// exactly what a migration's drain barrier must rule out.
  bool RingsDrainedPast(const std::vector<std::uint64_t>& targets) const;
  /// Applied-tuple watermark whose batch alerts have all been appended to
  /// the alert log; trails applied() by at most one in-flight batch.
  /// Flush uses it to wait out the append, which happens after the
  /// state lock is released.
  std::uint64_t alert_progress() const {
    return alert_progress_.load(std::memory_order_acquire);
  }

  std::size_t index() const { return index_; }

  // --- Snapshot reads (mutex-coherent against the worker) --------------
  /// Resident streams (GLOBAL ids, ascending) whose edge state for query
  /// `id` is alarming: the exact aggregate (or sketch estimate) left the
  /// query's assess range at the stream's latest evaluation. `id` must
  /// name an aggregate or sketch query; a query no batch has evaluated
  /// yet has no alarming stream.
  std::vector<StreamId> CurrentlyAlarming(QueryId id,
                                          ShardStamp* stamp) const;
  /// Values ever applied to one resident stream; false when the stream is
  /// not resident here.
  bool FindStreamAppendCount(StreamId global_stream,
                             std::uint64_t* out) const;
  /// Append count of every resident stream, keyed by global id and
  /// sorted ascending. One mutex hold; feeds the rebalancer and the
  /// per-stream metrics surface (the counters themselves are the raw
  /// tails' sizes, maintained on the append path, so scraping adds no
  /// hot-loop work).
  std::vector<std::pair<StreamId, std::uint64_t>> StreamAppendCounts()
      const;
  /// Checkpoint capture (engine/checkpoint.h), under one state-mutex
  /// hold so `file` describes the point in the apply sequence `stamp`
  /// (epoch and applied count) names: the pipeline's aggregate kind and
  /// history, the local -> global slot table (kNoStream tombstones
  /// included) and, per live slot, the stream's slice — the
  /// SerializeStream bytes, rising-edge state included, so a restore
  /// continues the alert stream without re-announcing conditions that
  /// were already alarming. Ingestion continues around the call; only
  /// this shard's worker waits for the serialization.
  Status SerializeState(ShardStamp* stamp, CheckpointShardFile* file) const;
  /// Restores a checkpointed shard. Only valid before Start(), on a
  /// shard whose pipeline has one slot per entry of `file.globals`, and
  /// with a slot table naming each stream at most once (IngestEngine::
  /// Create checks the placement across shards). Adopts the registry's
  /// plan before installing any slot, so every slice meets the plan it
  /// was taken under: trackers restore bit-exactly, sketch measures are
  /// claimed by config and store rows land in the plan's levels. Then
  /// installs each live slot through the InstallStream path, prunes edge
  /// state of queries the plan does not hold, and seeds the progress
  /// counters with `epoch` and `appended` so stamps and metrics continue
  /// the pre-crash lineage.
  Status Restore(const CheckpointShardFile& file, std::uint64_t epoch,
                 std::uint64_t appended);
  /// First non-OK status any append produced on the worker, if any.
  Status worker_status() const;

  ShardMetricsSnapshot MetricsSnapshot() const;

  // --- Live migration (engine MigrateStream; see docs/ENGINE.md) -------
  /// Marks `global_stream` as in-flight to this shard: tuples for it are
  /// parked (in arrival order) instead of applied until InstallStream
  /// lands its state. Fails when another migration is already parked
  /// here or the stream is already resident.
  Status PrepareReceive(StreamId global_stream);
  /// Serializes every piece of per-stream state (raw tail, summarizers,
  /// tracker, sketch measures, store rows, alert edge state) into
  /// `blob`, then tombstones the local slot. The caller must have
  /// drained this shard's rings of the stream first (placement flip +
  /// producer quiescence + ring drain barrier).
  Status ExtractStream(StreamId global_stream, std::string* blob);
  /// Installs an ExtractStream blob under `global_stream`, reusing a
  /// tombstoned slot when one is free (growing the pipeline otherwise), and
  /// releases the parked tuples to the worker. Requires a matching
  /// PrepareReceive.
  Status InstallStream(StreamId global_stream, const std::string& blob);
  /// Non-destructive ExtractStream: the same byte string without the
  /// tombstoning — the migration-equivalence oracle (two engines that
  /// processed the same tuples must serialize identical stream slices,
  /// migrated or not).
  Status SerializeStream(StreamId global_stream, std::string* blob) const;
  /// True once no migration is parked here and every parked tuple has
  /// been applied.
  bool ParkDrained() const;

  // --- Correlator support (requires a correlation core) ----------------
  /// Phase 1 of a correlator round: the minimum latest aligned feature
  /// time at `level` of the correlation core over this shard's started
  /// streams (a stream starts once its first window filled) into `t`.
  /// False, `t` untouched, when no stream has started. One state-mutex
  /// hold.
  bool CorrelationClockMin(std::size_t level, std::uint64_t* t) const;
  /// Phase 2: for every local stream that still has its feature and raw
  /// window at aligned time `t`, the feature point and the exact
  /// z-normalized window. Streams whose data already expired (or never
  /// reached `t`) are skipped — the correlator's rounds are best-effort
  /// over whatever every shard can still serve coherently. One flat
  /// buffer per column, reusable across rounds so the steady state
  /// allocates nothing. Stream k of the gather owns features[k*dims .. )
  /// and znormed[k*window .. ). Global stream ids are ascending within
  /// one shard's gather (the scan walks the slot table in global order,
  /// so the invariant survives migrations reshuffling local slots).
  struct CorrelationGather {
    std::vector<StreamId> streams;  // global ids
    std::vector<double> features;   // streams.size() × dims
    std::vector<double> znormed;    // streams.size() × window
    std::size_t dims = 0;
    std::size_t window = 0;
  };
  /// Clears and refills `out` with every local stream that still serves
  /// aligned time `t` at `level`. One state-mutex hold.
  Status CorrelationGatherAt(std::size_t level, std::uint64_t t,
                             CorrelationGather* out) const;
  bool has_correlation_core() const {
    return pipeline_->corr_core() != nullptr;
  }

  /// Whether the worker thread is currently pinned to options_.pin_core.
  /// False until Start() (and forever when pinning is off or failed).
  bool pinned() const { return pinned_.load(std::memory_order_acquire); }

 private:
  void WorkerLoop();
  void ApplyBatch(const std::vector<StreamValue>& batch);
  ShardStamp StampLocked() const;

  /// Adopts the registry's plan when its version moved, pruning edge
  /// state and re-pointing the pipeline. Called with state_mu_ held (the
  /// registry mutex is taken inside it, never the other way round).
  void AdoptPlanLocked();
  /// Prunes evaluation state of queries plan_ does not hold so the edge
  /// maps cannot grow without bound under register/unregister churn.
  /// Called with state_mu_ held (migrations read the maps under it).
  void PruneQueryStateLocked();
  /// Groups the batch into one contiguous per-stream run each (stable:
  /// per-stream value order is batch order), translating global ids to
  /// local slots and filling touched_list_, run_begin_/run_count_ and
  /// the packed run_values_ buffer in two allocation-free passes.
  /// Tuples of the parked in-flight stream are diverted to park_;
  /// tuples naming an unknown global are diverted to invalid_ with an
  /// out-of-range local id so the pipeline rejects them as append
  /// errors. Called with state_mu_ held.
  void GroupRuns(const std::vector<StreamValue>& batch);
  /// Applies one stream's run through the pipeline's run path, splitting
  /// at non-finite values so each rejected tuple counts as one append
  /// error, exactly as if the tuples had been applied one by one. Called
  /// with state_mu_ held.
  void ApplyRunLocked(StreamId stream, const double* values,
                      std::size_t count);
  /// Runs the plan's aggregate, sketch and pattern stages against the
  /// pipeline state; called with state_mu_ held after FinishBatch.
  /// Alerts are collected into `out` and published by the caller after
  /// the lock is released.
  void EvaluateQueriesLocked(std::vector<Alert>* out);

  /// Local slot of a global id; kNoStream when not resident. Called with
  /// state_mu_ held.
  StreamId LocalOfLocked(StreamId global_stream) const {
    return global_stream < local_of_.size() ? local_of_[global_stream]
                                            : kNoStream;
  }
  /// Rebuilds the global-ascending slot scan order after any slot-table
  /// mutation. Called with state_mu_ held.
  void RebuildSortedLocalsLocked();
  /// One stream's full serialized slice (pipeline + edge state); shared
  /// by ExtractStream, SerializeStream and SerializeState so migrations,
  /// the oracle and checkpoints emit identical bytes. Called with
  /// state_mu_ held.
  Status SaveStreamLocked(StreamId local, Writer* writer) const;
  /// Installs a SaveStreamLocked slice into local slot `local` (pipeline
  /// state, then edge state), rejecting trailing bytes. Leaves the slot
  /// tables untouched. Called with state_mu_ held.
  Status LoadStreamLocked(StreamId local, const std::string& blob);

  const std::size_t index_;
  const std::size_t num_shards_;
  const OverloadPolicy policy_;
  const std::size_t max_batch_;
  EngineMetrics* const metrics_;
  QueryRegistry* const registry_;
  AlertLog* const alerts_;
  const ShardOptions options_;

  std::atomic<bool> pinned_{false};

  std::vector<std::unique_ptr<SpscRing<StreamValue>>> rings_;
  /// Per-ring drain cursors. ring_enqueued_[p] counts tuples producer p
  /// ever pushed into its ring; ring_retired_[p] counts tuples that
  /// left it with their batch fully applied (or parked / reclaimed by
  /// kDropOldest). FIFO per ring makes each pair exact regardless of
  /// concurrent traffic on the other rings — the property the
  /// migration and Flush drain barriers are built on.
  std::unique_ptr<std::atomic<std::uint64_t>[]> ring_enqueued_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> ring_retired_;

  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> alert_progress_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batch_max_{0};
  std::atomic<std::size_t> queue_high_water_{0};

  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  /// Fast worker-visible flag: an installed migration left parked tuples
  /// behind; the next batch (or idle sweep) must drain them.
  std::atomic<bool> park_pending_{false};

  /// Guards the feature pipeline, the adopted plan_, the slot tables,
  /// the park, the query edge maps, and worker_status_: held by
  /// the worker while applying a batch (and evaluating queries), by
  /// readers while snapshotting, and by migrations while extracting or
  /// installing stream state.
  mutable std::mutex state_mu_;
  std::unique_ptr<FeaturePipeline> pipeline_;
  /// The registry plan driving evaluation; null until first adopted.
  std::shared_ptr<const EvalPlan> plan_;
  Status worker_status_;

  // --- Elastic slot tables (guarded by state_mu_) ----------------------
  /// local slot -> global id; kNoStream marks a tombstoned slot.
  std::vector<StreamId> global_of_;
  /// global id -> local slot (dense; kNoStream = not resident). Sized
  /// lazily to the largest global ever resident here.
  std::vector<StreamId> local_of_;
  /// Tombstoned local slots available for reuse by InstallStream.
  std::vector<StreamId> free_slots_;
  /// Live local slots in ascending-global order (the scan order of
  /// correlator gathers and metrics).
  std::vector<StreamId> sorted_locals_;
  /// Global id currently in flight to this shard; kNoStream when none.
  StreamId parked_stream_ = kNoStream;
  /// Tuples of parked_stream_ in arrival order.
  std::vector<StreamValue> park_;

  // --- Query evaluation state (state_mu_; written by the worker) -------
  /// Batches that ran the plan's aggregate, pattern and sketch stages
  /// since the shard started, across plan swaps.
  std::uint64_t aggregate_evals_ = 0;
  std::uint64_t pattern_evals_ = 0;
  std::uint64_t sketch_evals_ = 0;
  /// Aggregate edge state: last alarm outcome per (query, local stream),
  /// so alerts fire on the false -> true transition only.
  std::unordered_map<QueryId, std::vector<char>> agg_alarming_;
  /// Same edge state for sketch queries (alarm == estimate left the
  /// query's assess range).
  std::unordered_map<QueryId, std::vector<char>> sketch_alarming_;
  /// Pattern delivery watermark per (query, local stream): matches with
  /// end_time + 1 <= watermark were already delivered.
  std::unordered_map<QueryId, std::vector<std::uint64_t>>
      pattern_watermark_;
  /// Incremental-evaluation cursor per (query, local stream): first match
  /// end position not yet finally decided by QueryCompiledIncremental.
  std::unordered_map<QueryId, std::vector<std::uint64_t>>
      pattern_eval_floor_;
  /// Scratch: local streams touched by the current batch.
  std::vector<char> touched_;
  std::vector<StreamId> touched_list_;
  // --- Batched-maintenance scratch (worker thread, state_mu_ held) -----
  /// Tuples of the current batch per stream (indexed by local stream,
  /// reset through touched_list_, so reset cost is O(touched)).
  std::vector<std::uint32_t> run_count_;
  /// Next write offset into run_values_ per stream (scatter cursors).
  std::vector<std::uint32_t> run_cursor_;
  /// Start offset of each touched stream's run in run_values_, parallel
  /// to touched_list_.
  std::vector<std::size_t> run_begin_;
  /// The batch's values regrouped into per-stream contiguous runs.
  std::vector<double> run_values_;
  /// Per-tuple local translation of the current batch (kNoStream =
  /// parked or unknown, already diverted in pass 1).
  std::vector<StreamId> local_scratch_;
  /// Tuples naming an unknown global (cannot be grouped); each is
  /// applied as a run of one so the pipeline rejects and accounts it.
  std::vector<StreamValue> invalid_;
  /// Tuples of the current batch diverted to park_ by GroupRuns.
  std::size_t newly_parked_ = 0;
  /// Merged (park + batch) scratch for the drain-after-install batch.
  std::vector<StreamValue> merged_;
  /// Nanoseconds spent in batched maintenance (pipeline appends and batch
  /// close), guarded by state_mu_; feeds
  /// maintain_ns_per_append in metrics.
  std::uint64_t maintain_ns_ = 0;
  /// Wall time of whole ApplyBatch calls (drain to alert handoff).
  LatencyHistogram apply_batch_latency_;
  /// Scratch: per-query edge vectors of the aggregate group being run.
  std::vector<std::vector<char>*> edge_scratch_;

  std::thread worker_;
};

}  // namespace stardust

#endif  // STARDUST_ENGINE_SHARD_H_
