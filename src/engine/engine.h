// IngestEngine: sharded multi-threaded ingestion for the fleet deployment
// of Section 2.1 ("a system that has M input streams"). The M streams are
// partitioned across N worker shards by an epoch-versioned placement
// table (engine/placement.h; the default layout is the historical stream
// id modulo the shard count); each shard owns its streams' state in one
// private feature pipeline and drains bounded lock-free SPSC rings filled
// by producer threads via Post/PostBatch. Placement is elastic:
// MigrateStream moves one stream's full state between shards while
// ingestion continues (no tuple loss, no duplicate or missing alerts),
// and an optional background rebalancer drives migrations off the
// per-shard load signal. Overload behavior is an explicit policy (block /
// drop-newest / drop-oldest, with drop counters), and cross-shard reads
// return coherent per-shard snapshots stamped with sequence epochs. See
// docs/ENGINE.md.
//
// Layered on top is the continuous-query subsystem (src/query,
// docs/QUERIES.md): queries registered at runtime through queries() are
// evaluated while ingestion is live — aggregate, sketch and pattern
// queries inline by the shard workers, correlation queries by a dedicated
// correlator thread aligning per-shard feature snapshots — and every hit
// is appended to the engine's alert log (alerts()), which delivers it to
// registered sinks and serves it to TCP subscribers.
#ifndef STARDUST_ENGINE_ENGINE_H_
#define STARDUST_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "core/config.h"
#include "engine/checkpoint.h"
#include "engine/engine_config.h"
#include "engine/metrics.h"
#include "engine/placement.h"
#include "engine/shard.h"
#include "query/alert_log.h"
#include "query/correlation_index.h"
#include "query/eval_plan.h"
#include "query/probe_pool.h"
#include "query/registry.h"
#include "stream/threshold.h"

namespace stardust {

/// Thread-safe ingestion facade over a sharded set of monitored streams.
/// Producer threads call Post/PostBatch concurrently (each distinct thread
/// is auto-registered, up to EngineConfig::max_producers); reads may come
/// from any thread at any time.
class IngestEngine {
 public:
  /// Builds the engine and starts its worker threads. `config` is the
  /// aggregate-path configuration: it must meet AggregateMonitor::
  /// Validate, its aggregate kind drives aggregate queries and its
  /// `history` bounds every stream's retained raw tail. On a fresh
  /// engine each `{window, threshold}` of `thresholds` is registered, in
  /// order, as QuerySpec::Aggregate(window, threshold) (ids 1, 2, ...);
  /// the list may be empty. The effective shard count is
  /// min(engine_config.num_shards, num_streams).
  ///
  /// A non-empty `restore_dir` resumes from the newest complete
  /// checkpoint in that directory (see Checkpoint): the query registry,
  /// the alert log (allocator, subscriber cursors, retained entries;
  /// restored before any shard starts, its delivery cursor at the
  /// restored head), the placement, every shard's epoch stamps and every
  /// stream's state —
  /// alert edge state included, byte-equal to the checkpointed slice —
  /// continue the pre-crash lineage. The queries come from the
  /// checkpoint, so `thresholds` must be empty (InvalidArgument
  /// otherwise). The requested shape (stream count, shard count,
  /// aggregate kind, `history`) must match the checkpointed one; the
  /// feature-store capacity need not (streams re-warm their store rows).
  /// NotFound when the directory holds no complete checkpoint.
  static Result<std::unique_ptr<IngestEngine>> Create(
      const StardustConfig& config, std::vector<WindowThreshold> thresholds,
      std::size_t num_streams, const EngineConfig& engine_config = {},
      const std::string& restore_dir = {});

  /// Stops and joins the workers (as Stop()).
  ~IngestEngine();

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  std::size_t num_streams() const { return num_streams_; }
  std::size_t num_shards() const { return shards_.size(); }
  const EngineConfig& engine_config() const { return config_; }

  /// Shard that owns a stream per the live placement table (a fresh
  /// engine routes stream id modulo shard count; migrations re-map).
  std::size_t ShardOf(StreamId stream) const {
    SD_DCHECK(!shards_.empty());
    return placement_->ShardOf(stream);
  }
  /// The routing table itself (epoch, full stream→shard map); every
  /// placement decision in the engine goes through it.
  const PlacementTable& placement() const { return *placement_; }

  // --- Producer side ----------------------------------------------------
  /// Enqueues one value. Under kBlock this waits for queue space; under
  /// the drop policies it returns OK and accounts the loss in metrics().
  Status Post(StreamId stream, double value);
  /// Enqueues many (stream, value) tuples with one producer-slot lookup.
  Status PostBatch(std::span<const StreamValue> tuples);
  /// Non-blocking Post for event-loop producers (the network front door,
  /// src/net): a full queue under kBlock returns kWouldBlock instead of
  /// spinning, so the caller can pause its transport and retry. Status
  /// errors are the same precondition/argument failures as Post.
  Result<PostOutcome> TryPost(StreamId stream, double value);

  /// Blocks until everything posted before the call has been applied (or
  /// reclaimed by kDropOldest) and every alert those applies appended
  /// has been handed to the sinks: the log's delivery cursor reaches the
  /// head read once the shards' alert watermarks caught up, so alerts
  /// appended later never extend the wait. Returns the first worker
  /// error, if any.
  Status Flush();
  /// Stops accepting posts, drains every queue, joins the workers, and
  /// stops the alert log (delivers its tail and flushes the sinks).
  /// Returns the first worker error, else the first sink flush error.
  /// Idempotent: a later call returns OK. Producers must be quiescent
  /// when this is called.
  Status Stop();
  /// Quiesce/resume the workers without tearing anything down. While
  /// paused, queues fill and overload policies engage.
  void Pause();
  void Resume();

  // --- Continuous queries (src/query, docs/QUERIES.md) -------------------
  /// The engine's query registry: register/unregister continuous queries
  /// from any thread while ingestion is live.
  QueryRegistry& queries() { return *registry_; }
  const QueryRegistry& queries() const { return *registry_; }
  /// The alert log numbering query hits: add sinks here; the net server
  /// reads subscriber cursors from it.
  AlertLog& alerts() { return *alert_log_; }
  const AlertLog& alerts() const { return *alert_log_; }
  /// Convenience forwarders.
  Result<QueryId> RegisterQuery(QuerySpec spec) {
    return registry_->Register(std::move(spec));
  }
  Status UnregisterQuery(QueryId id) { return registry_->Unregister(id); }

  // --- Cross-shard reads ------------------------------------------------
  /// Streams (global ids, ascending) currently alarming on query `id`:
  /// the exact aggregate (or sketch estimate) left the query's assess
  /// range at the stream's latest evaluation — the rising-edge state the
  /// shards keep for alerts. `stamps` (optional) receives one
  /// sequence-stamped epoch per shard identifying the exact state each
  /// shard contributed. InvalidArgument when `id` names no registered
  /// aggregate or sketch query.
  Result<std::vector<StreamId>> CurrentlyAlarming(
      QueryId id, std::vector<ShardStamp>* stamps = nullptr) const;
  /// Values ever applied to one stream.
  std::uint64_t StreamAppendCount(StreamId stream) const;

  const EngineMetrics& metrics() const { return *metrics_; }
  std::vector<ShardMetricsSnapshot> ShardMetrics() const;
  /// One-line JSON over metrics() + ShardMetrics() (docs/ENGINE.md).
  std::string MetricsJson() const;

  // --- Checkpoint / restore ---------------------------------------------
  /// Writes an epoch-stamped checkpoint of every shard, the query
  /// registry and the alert log (`net-ck<seq>.net`) into `dir` (created
  /// if missing) without stopping ingestion: each shard is serialized
  /// under its own state mutex, so producers keep posting and other
  /// shards keep draining throughout. All files
  /// are written atomically (tmp + fsync + rename) with the manifest last
  /// as the commit point; a crash mid-checkpoint leaves the previous
  /// checkpoint intact. On success the directory is garbage-collected
  /// down to the current and previous checkpoints. Serialized against
  /// itself, the background checkpoint thread and migrations. Each shard
  /// is checkpointed as one `features-<i>-ck<seq>.feat`: its slot table
  /// and every resident stream's slice (the DebugStreamState bytes: raw
  /// tail, query cores, trackers, sketch measures, store rows, edge
  /// state), taken under one mutex hold so they describe one point in
  /// the apply sequence (docs/FEATURES.md, "Checkpointing"). The layout
  /// is described in engine/checkpoint.h; only the current format
  /// restores.
  Status Checkpoint(const std::string& dir);
  /// Sequence number of the last successful Checkpoint; 0 if none yet.
  std::uint64_t last_checkpoint_seq() const {
    return last_checkpoint_seq_.load(std::memory_order_acquire);
  }

  /// Runs one correlator round synchronously on the caller's thread —
  /// deterministic-replay and test support (pair with a large
  /// QueryConfig::correlator_period_ms so the background thread stays
  /// quiet). Serialized against the background correlator.
  void TriggerCorrelatorRound();

  // --- Elastic placement (docs/ENGINE.md, "Elastic sharding") -----------
  /// Moves `stream`'s entire per-stream state (raw tail, summarizers,
  /// sliding trackers, sketch slots, feature-store rows, alert edge
  /// state) from shard `from` to shard `to` while ingestion continues.
  /// The protocol: the target starts parking the stream's tuples, the
  /// placement epoch flips so producers route to the target, the source
  /// drains everything routed to it under the old epoch, the state moves
  /// under both the source's state mutex and the correlator round lock,
  /// and the parked tuples apply in arrival order — no tuple is lost, no
  /// alert fires twice or goes missing. Serialized against itself, the
  /// rebalancer, and Checkpoint. FailedPrecondition when `from` no
  /// longer owns the stream, either shard is paused, or the engine is
  /// stopped.
  Status MigrateStream(StreamId stream, std::size_t from, std::size_t to);
  /// Convenience overload sourcing from the stream's current owner.
  Status MigrateStream(StreamId stream, std::size_t to) {
    return MigrateStream(stream, placement_->ShardOf(stream), to);
  }
  /// Serialized slice of one stream's live state (the ExtractStream
  /// bytes without the extraction) — the migration-equivalence oracle:
  /// two engines that applied the same tuples must produce identical
  /// slices for every stream, however their placements diverged.
  Status DebugStreamState(StreamId stream, std::string* blob) const;

 private:
  IngestEngine(const EngineConfig& config, std::size_t num_streams);

  /// Body of the background checkpoint thread (EngineConfig::
  /// checkpoint_period_ms).
  void CheckpointLoop();
  void StartCheckpointThread();
  void StopCheckpointThread();

  /// Body of the correlator thread: every correlator_period_ms, align all
  /// shards on a common feature time and run the registered correlation
  /// queries over the combined feature set (docs/QUERIES.md).
  void CorrelatorLoop();
  void RunCorrelatorRound();
  void StartCorrelatorThread();
  void StopCorrelatorThread();

  /// Persistent per-level correlator state (see RunCorrelatorRound): the
  /// incremental candidate index over the level's feature points, the
  /// global-stream -> slot mapping behind it, per-round scratch, and the
  /// cached per-shard clock summaries the dirty-epoch skip path reuses.
  struct CorrLevelState {
    std::unique_ptr<CorrelationIndex> index;
    /// Grid cell the index was created with; a plan change that moves
    /// the group's largest radius rebuilds the index.
    double cell = 0.0;
    // Slot table: one dense slot per global stream ever seen live at
    // this level. Erased slots return to the free list.
    std::unordered_map<StreamId, std::size_t> slot_of;
    std::vector<StreamId> stream_of;        // slot -> global id
    std::vector<char> live;                 // slot currently indexed
    std::vector<std::uint64_t> seen_round;  // round serial last present
    std::vector<std::size_t> free_slots;
    std::uint64_t round_serial = 0;
    // Slot-indexed columns of the current round (features is slot × dims,
    // znormed slot × window).
    std::vector<double> features;
    std::vector<double> znormed;
    std::vector<std::size_t> present;  // this round's slots, by global id
    // Per-shard gather state: cached clock summaries (refreshed only
    // when the shard's store saw a put since `clock_epochs[i]`) and the
    // reusable flat gather buffers.
    std::vector<std::uint64_t> clock_epochs;
    std::vector<Shard::ClockSummary> clocks;
    std::vector<Shard::CorrelationGather> gathers;
  };
  /// Evaluates one level group of the compiled plan; returns false on a
  /// gather failure (the caller counts it and moves to the next group
  /// without committing this level's round time). `round_counted` makes
  /// correlator_rounds count once per RunCorrelatorRound invocation.
  bool RunCorrelatorGroup(const EvalPlan::CorrelationGroup& group,
                          bool* round_counted, std::uint64_t* round);

  /// Producer slot of the calling thread, registering it on first use.
  Result<std::size_t> ProducerSlot();

  /// Blocks until no producer is inside a routing window it entered
  /// before the call — after a placement flip this guarantees every
  /// producer's next push routes by the new epoch (see producer_seq_).
  void WaitProducersQuiescent() const;

  /// Body of the background rebalancer thread (EngineConfig::
  /// rebalance_period_ms): samples per-shard and per-stream append
  /// deltas each period and migrates the hottest stream off the hottest
  /// shard onto the coldest when the skew clears the hysteresis bounds.
  void RebalanceLoop();
  void StartRebalanceThread();
  void StopRebalanceThread();

  const std::uint64_t engine_id_;
  const EngineConfig config_;
  const std::size_t num_streams_;
  /// Aggregate-path configuration (plan compilation context for the
  /// correlator); set once in Create.
  StardustConfig core_config_;
  std::unique_ptr<EngineMetrics> metrics_;
  std::unique_ptr<QueryRegistry> registry_;
  std::unique_ptr<AlertLog> alert_log_;
  /// The stream→shard routing table; set in Create before any thread
  /// starts, republished (copy-on-write) by migrations.
  std::unique_ptr<PlacementTable> placement_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint32_t> next_producer_{0};
  /// Per-producer routing windows (sized max_producers): a producer
  /// bumps its counter to odd, loads the placement snapshot, pushes,
  /// then bumps back to even — all seq_cst. A migration that flipped
  /// the placement spins until every counter is even or has moved, so
  /// no push routed by the superseded epoch can land after the source
  /// drain barrier is read.
  std::unique_ptr<std::atomic<std::uint64_t>[]> producer_seq_;

  /// Serializes migrations (manual calls, the rebalancer) against each
  /// other and against Checkpoint's placement capture. Always acquired
  /// after checkpoint_mu_ when both are held.
  mutable std::mutex migration_mu_;

  std::mutex rebalance_cv_mu_;
  std::condition_variable rebalance_cv_;
  bool rebalance_stop_ = false;
  std::thread rebalance_thread_;

  /// Serializes Checkpoint() calls (manual and background) and guards the
  /// sequence counter below.
  std::mutex checkpoint_mu_;
  std::uint64_t next_checkpoint_seq_ = 1;
  std::atomic<std::uint64_t> last_checkpoint_seq_{0};

  std::mutex checkpoint_cv_mu_;
  std::condition_variable checkpoint_cv_;
  bool checkpoint_stop_ = false;
  std::thread checkpoint_thread_;

  // --- Correlator state (guarded by correlator_round_mu_) ---------------
  std::mutex correlator_cv_mu_;
  std::condition_variable correlator_cv_;
  bool correlator_stop_ = false;
  std::thread correlator_thread_;
  /// Serializes correlator rounds (the background thread against
  /// TriggerCorrelatorRound) and guards the round state below.
  std::mutex correlator_round_mu_;
  /// Compiled plan of the registry snapshot the correlator last saw;
  /// recompiled only when the registry version moves.
  std::shared_ptr<const EvalPlan> corr_plan_;
  std::uint64_t corr_plan_version_ = 0;
  /// Last evaluated common feature time per monitored level; rounds where
  /// it did not advance are skipped. Committed only after a level group
  /// evaluated successfully, so a failed gather retries the same round.
  std::unordered_map<std::size_t, std::uint64_t> corr_last_time_;
  /// Persistent per-level indexes and scratch; pruned when a plan change
  /// drops a level.
  std::unordered_map<std::size_t, CorrLevelState> corr_levels_;
  /// Probe-phase worker pool (created only when correlation is enabled;
  /// zero workers on single-core hosts — Run degrades to inline).
  std::unique_ptr<ProbePool> probe_pool_;
  /// Rising-edge state: pairs (global a < global b) currently within each
  /// query's radius; alerts fire when a pair enters the set.
  std::unordered_map<QueryId, std::set<std::pair<StreamId, StreamId>>>
      corr_active_pairs_;
  /// The round's alerts, appended to the log in one call when it ends.
  std::vector<Alert> corr_alerts_;
};

}  // namespace stardust

#endif  // STARDUST_ENGINE_ENGINE_H_
