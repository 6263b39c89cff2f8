#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/serialize.h"
#include "core/aggregate_monitor.h"

namespace stardust {

namespace {

std::atomic<std::uint64_t> g_next_engine_id{1};

/// Producer registration cache: which slot this thread holds on which
/// engine (keyed by a process-unique engine id, so a recycled engine
/// address can never alias a stale entry). A thread rarely talks to more
/// than a couple of engines, so a flat vector beats a hash map.
struct TlsProducerEntry {
  std::uint64_t engine_id = 0;
  std::uint32_t slot = 0;
};
thread_local std::vector<TlsProducerEntry> tls_producer_slots;

}  // namespace

Result<std::unique_ptr<IngestEngine>> IngestEngine::Create(
    const StardustConfig& config, std::vector<WindowThreshold> thresholds,
    std::size_t num_streams, const EngineConfig& engine_config,
    const std::string& restore_dir) {
  SD_RETURN_NOT_OK(engine_config.Validate());
  SD_RETURN_NOT_OK(AggregateMonitor::Validate(config, thresholds));
  if (num_streams == 0) {
    return Status::InvalidArgument("need at least one stream");
  }
  const std::size_t num_shards =
      std::min(engine_config.num_shards, num_streams);

  CheckpointManifest manifest;
  const bool restoring = !restore_dir.empty();
  if (restoring) {
    if (!thresholds.empty()) {
      return Status::InvalidArgument(
          "a restoring Create takes its queries from the checkpoint; pass "
          "no thresholds");
    }
    Result<CheckpointManifest> found = FindLatestValidCheckpoint(restore_dir);
    if (!found.ok()) return found.status();
    manifest = std::move(found).value();
    if (manifest.num_streams != num_streams) {
      return Status::InvalidArgument(
          "checkpoint has " + std::to_string(manifest.num_streams) +
          " streams, engine was asked for " + std::to_string(num_streams));
    }
    if (manifest.num_shards != num_shards) {
      return Status::InvalidArgument(
          "checkpoint has " + std::to_string(manifest.num_shards) +
          " shards, engine would run " + std::to_string(num_shards) +
          "; stream placement would not line up");
    }
  }

  // Feature-store ring capacity: explicit override, or derived from the
  // cache geometry so one shard's hot store set (every local stream at
  // every monitored correlation level) fits in roughly half the L2. When
  // shards outnumber the CPUs this process may use (its affinity mask)
  // they share an L2, so the budget shrinks by the sharing factor.
  // Unknown cache or no correlation core falls back to the pipeline's
  // fixed default inside DeriveStoreCapacity.
  std::size_t store_capacity = engine_config.store_capacity;
  if (store_capacity == 0 && engine_config.query.enable_correlation) {
    const StardustConfig& corr = engine_config.query.correlation;
    std::size_t entry_bytes = 0;
    for (std::size_t j = 0; j < corr.num_levels; ++j) {
      entry_bytes +=
          FeatureStoreEntryBytes(corr.base_window << j, corr.coefficients);
    }
    const std::size_t max_local_streams =
        (num_streams + num_shards - 1) / num_shards;
    const std::size_t cpus = AllowedCpus().size();
    const std::size_t sharing = (num_shards + cpus - 1) / cpus;
    const std::size_t cache_bytes =
        ProbedL2CacheBytes() / std::max<std::size_t>(1, sharing);
    store_capacity =
        DeriveStoreCapacity(max_local_streams, entry_bytes, cache_bytes);
  } else if (store_capacity == 0) {
    store_capacity = FeaturePipeline::kDefaultStoreCapacity;
  }

  // Placement: a fresh engine routes by the modulo-hash default; a
  // checkpoint's shard files carry the slot tables their slices were laid
  // out under, validated here to name every stream exactly once.
  std::vector<CheckpointShardFile> restored_files;
  std::vector<std::uint32_t> shard_of(num_streams, 0);
  if (restoring) {
    restored_files.reserve(num_shards);
    std::vector<char> seen(num_streams, 0);
    std::size_t resident = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::filesystem::path path =
          std::filesystem::path(restore_dir) / manifest.shards[s].file;
      Result<std::string> bytes = ReadFileToString(path.string());
      if (!bytes.ok()) return bytes.status();
      Result<CheckpointShardFile> parsed = ParseShardFile(bytes.value());
      if (!parsed.ok()) return parsed.status();
      restored_files.push_back(std::move(parsed).value());
      const CheckpointShardFile& file = restored_files.back();
      if (file.aggregate != config.aggregate) {
        return Status::InvalidArgument(
            std::string("checkpoint aggregate kind ") +
            AggregateKindName(file.aggregate) + " differs from the requested " +
            AggregateKindName(config.aggregate));
      }
      if (file.history != config.history) {
        return Status::InvalidArgument(
            "checkpoint history " + std::to_string(file.history) +
            " differs from the requested history " +
            std::to_string(config.history));
      }
      // A shard grows a slot only when every slot is live, so no shard
      // holds more slots than there are streams.
      if (file.globals.size() > num_streams) {
        return Status::InvalidArgument(
            "checkpoint shard file has more slots than streams");
      }
      for (const StreamId global : file.globals) {
        if (global == kNoStream) continue;
        if (global >= num_streams || seen[global] != 0) {
          return Status::InvalidArgument(
              "checkpoint placement names an invalid or duplicate stream");
        }
        seen[global] = 1;
        shard_of[global] = static_cast<std::uint32_t>(s);
        ++resident;
      }
    }
    if (resident != num_streams) {
      return Status::InvalidArgument(
          "checkpoint placement does not cover every stream");
    }
  }

  std::unique_ptr<IngestEngine> engine(
      new IngestEngine(engine_config, num_streams));
  engine->placement_ =
      std::make_unique<PlacementTable>(num_streams, num_shards);
  if (restoring) {
    SD_RETURN_NOT_OK(
        engine->placement_->Reset(manifest.placement_epoch, shard_of));
  }
  engine->registry_ =
      std::make_unique<QueryRegistry>(config, engine_config.query);
  engine->alert_log_ = std::make_unique<AlertLog>(
      engine_config.query.alert_capacity, engine_config.query.alert_overflow);
  if (restoring) {
    const std::filesystem::path queries_path =
        std::filesystem::path(restore_dir) / manifest.queries_file;
    Result<std::string> bytes = ReadFileToString(queries_path.string());
    if (!bytes.ok()) return bytes.status();
    SD_RETURN_NOT_OK(engine->registry_->Restore(bytes.value()));
    const std::filesystem::path net_path =
        std::filesystem::path(restore_dir) / manifest.net_file;
    Result<std::string> net_bytes = ReadFileToString(net_path.string());
    if (!net_bytes.ok()) return net_bytes.status();
    SD_RETURN_NOT_OK(engine->alert_log_->Restore(net_bytes.value()));
  }
  // Thresholds are sugar for aggregate queries, registered before any
  // shard adopts its first plan.
  for (const WindowThreshold& wt : thresholds) {
    Result<QueryId> id = engine->registry_->Register(
        QuerySpec::Aggregate(wt.window, wt.threshold));
    if (!id.ok()) return id.status();
  }
  engine->shards_.reserve(num_shards);
  // pin_shards places shard s on the (s mod k)-th of the k CPUs this
  // thread may use, so no pin names a CPU outside the affinity mask.
  const std::vector<std::size_t> pin_cpus =
      engine_config.pin_shards ? AllowedCpus() : std::vector<std::size_t>{};
  for (std::size_t s = 0; s < num_shards; ++s) {
    // Default layout: streams s, s + N, s + 2N, ... live on shard s. A
    // restored placement sizes each shard by its checkpointed slot table
    // instead (tombstoned slots included).
    const std::size_t local_streams =
        restoring ? restored_files[s].globals.size()
                  : (num_streams - s + num_shards - 1) / num_shards;
    // The query cores are per-shard Stardust instances over the same
    // local streams, owned by the shard's feature pipeline together with
    // the shared feature store.
    std::unique_ptr<Stardust> pattern_core;
    if (engine_config.query.enable_patterns) {
      Result<std::unique_ptr<Stardust>> core =
          Stardust::Create(engine_config.query.pattern);
      if (!core.ok()) return core.status();
      pattern_core = std::move(core).value();
      for (std::size_t i = 0; i < local_streams; ++i) {
        pattern_core->AddStream();
      }
    }
    std::unique_ptr<Stardust> corr_core;
    if (engine_config.query.enable_correlation) {
      Result<std::unique_ptr<Stardust>> core =
          Stardust::Create(engine_config.query.correlation);
      if (!core.ok()) return core.status();
      corr_core = std::move(core).value();
      for (std::size_t i = 0; i < local_streams; ++i) {
        corr_core->AddStream();
      }
    }
    auto pipeline = std::make_unique<FeaturePipeline>(
        config, std::move(pattern_core), std::move(corr_core), local_streams,
        store_capacity);
    ShardOptions shard_options;
    if (engine_config.pin_shards) {
      shard_options.pin = true;
      shard_options.pin_core = pin_cpus[s % pin_cpus.size()];
      shard_options.pin_hook = engine_config.pin_hook;
    }
    engine->shards_.push_back(std::make_unique<Shard>(
        s, num_shards, engine_config.max_producers,
        engine_config.queue_capacity, engine_config.overload,
        engine_config.max_batch, std::move(pipeline),
        engine->registry_.get(), engine->alert_log_.get(),
        engine->metrics_.get(), std::move(shard_options)));
    if (restoring) {
      SD_RETURN_NOT_OK(engine->shards_.back()->Restore(
          restored_files[s], manifest.shards[s].epoch,
          manifest.shards[s].appended));
      restored_files[s] = CheckpointShardFile();
    }
  }
  SD_CHECK(!engine->shards_.empty());
  if (restoring) {
    // Continue the checkpoint lineage instead of restarting at 1, so the
    // next checkpoint never collides with (or sorts below) the one just
    // restored.
    engine->next_checkpoint_seq_ = manifest.seq + 1;
    engine->last_checkpoint_seq_.store(manifest.seq,
                                       std::memory_order_release);
  }
  if (engine_config.query.enable_correlation) {
    // Correlator-side state, sized before any thread can observe it: the
    // per-level eval counters, the round buffers and the probe pool (0
    // workers when this thread may use one CPU only — Run stays inline).
    const std::size_t levels = engine_config.query.correlation.num_levels;
    engine->metrics_->correlator_level_evals =
        std::make_unique<std::atomic<std::uint64_t>[]>(levels);
    engine->metrics_->correlator_num_levels = levels;
    engine->corr_round_ = std::make_unique<CorrRound>(
        num_shards, engine_config.query.correlation.coefficients);
    engine->probe_pool_ =
        std::make_unique<ProbePool>(ProbePool::ResolveWorkers());
  }
  for (auto& shard : engine->shards_) {
    if (engine_config.start_paused) shard->set_paused(true);
    shard->Start();
  }
  engine->StartCheckpointThread();
  engine->StartCorrelatorThread();
  engine->StartRebalanceThread();
  return engine;
}

IngestEngine::IngestEngine(const EngineConfig& config,
                           std::size_t num_streams)
    : engine_id_(g_next_engine_id.fetch_add(1, std::memory_order_relaxed)),
      config_(config),
      num_streams_(num_streams),
      metrics_(std::make_unique<EngineMetrics>()),
      producer_seq_(std::make_unique<std::atomic<std::uint64_t>[]>(
          config.max_producers)) {}

IngestEngine::~IngestEngine() { Stop(); }

Result<std::size_t> IngestEngine::ProducerSlot() {
  for (const TlsProducerEntry& entry : tls_producer_slots) {
    if (entry.engine_id == engine_id_) return std::size_t{entry.slot};
  }
  const std::uint32_t slot =
      next_producer_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= config_.max_producers) {
    return Status::FailedPrecondition(
        "too many producer threads; raise EngineConfig::max_producers");
  }
  tls_producer_slots.push_back({engine_id_, slot});
  return std::size_t{slot};
}

Status IngestEngine::Post(StreamId stream, double value) {
  const StreamValue tuple{stream, value};
  return PostTuples({&tuple, 1}, /*wait=*/true).status();
}

Result<PostOutcome> IngestEngine::TryPost(StreamId stream, double value) {
  const StreamValue tuple{stream, value};
  return PostTuples({&tuple, 1}, /*wait=*/false);
}

Status IngestEngine::PostBatch(std::span<const StreamValue> tuples) {
  return PostTuples(tuples, /*wait=*/true).status();
}

Result<PostOutcome> IngestEngine::PostTuples(
    std::span<const StreamValue> tuples, bool wait) {
  if (!accepting_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine is stopped");
  }
  // The tuples ahead of the first unknown stream are pushed; that stream
  // then fails the post, and one that leads it takes no producer slot.
  std::size_t known = 0;
  while (known < tuples.size() && tuples[known].stream < num_streams_) {
    ++known;
  }
  if (known == 0 && !tuples.empty()) {
    return Status::InvalidArgument("unknown stream");
  }
  Result<std::size_t> slot = ProducerSlot();
  if (!slot.ok()) return slot.status();
  // One routing window (odd = inside) for all the tuples: every push
  // routes by one placement snapshot and lands before the counter
  // returns to even, so a migration's quiescence wait can order its
  // drain barrier after every push that routed by the superseded epoch.
  std::atomic<std::uint64_t>& seq = producer_seq_[slot.value()];
  seq.fetch_add(1, std::memory_order_seq_cst);
  const PlacementTable::Snapshot* placement = placement_->Acquire();
  Result<PostOutcome> outcome = PostOutcome::kEnqueued;
  for (std::size_t i = 0; i < known && outcome.ok(); ++i) {
    const StreamValue& tuple = tuples[i];
    outcome = shards_[placement->shard_of[tuple.stream]]->Push(
        slot.value(), tuple.stream, tuple.value, wait);
  }
  seq.fetch_add(1, std::memory_order_seq_cst);
  if (outcome.ok() && known < tuples.size()) {
    return Status::InvalidArgument("unknown stream");
  }
  return outcome;
}

void IngestEngine::WaitProducersQuiescent() const {
  const std::uint32_t producers =
      std::min(next_producer_.load(std::memory_order_seq_cst),
               static_cast<std::uint32_t>(config_.max_producers));
  for (std::uint32_t i = 0; i < producers; ++i) {
    const std::uint64_t seq =
        producer_seq_[i].load(std::memory_order_seq_cst);
    if ((seq & 1) == 0) continue;  // outside any routing window
    // Inside a window entered before (or racing) the placement flip:
    // wait for the counter to move. The next window re-loads the
    // snapshot and routes by the new epoch.
    while (producer_seq_[i].load(std::memory_order_seq_cst) == seq) {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
  }
}

Status IngestEngine::Flush() {
  // Per-ring barriers, like a migration's source drain: exact for the
  // tuples enqueued before the snapshot even while other producers keep
  // posting concurrently.
  std::vector<std::vector<std::uint64_t>> targets;
  targets.reserve(shards_.size());
  for (const auto& shard : shards_) {
    targets.push_back(shard->RingEnqueueCursors());
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    while (!shards_[s]->RingsDrainedPast(targets[s])) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // A tuple parked for an in-flight migration is retired from its ring's
  // point of view but not yet applied; wait until every park has drained
  // so "flushed" keeps meaning "applied".
  for (const auto& shard : shards_) {
    while (!shard->ParkDrained()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  // Alerts for a batch are appended after the apply counters move; wait
  // until every shard's alert watermark catches up with what it has
  // applied, then until the sinks have seen the log up to its head.
  for (const auto& shard : shards_) {
    const std::uint64_t applied = shard->applied();
    while (shard->alert_progress() < applied) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  alert_log_->WaitDelivered(alert_log_->head());
  for (const auto& shard : shards_) {
    SD_RETURN_NOT_OK(shard->worker_status());
  }
  return Status::OK();
}

Status IngestEngine::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) {
    return Status::OK();
  }
  StopRebalanceThread();
  StopCheckpointThread();
  StopCorrelatorThread();
  // Wait out an in-flight manual migration (its worker-progress spins
  // need the workers alive); a migration that starts after this barrier
  // sees stopped_ and refuses.
  { std::lock_guard<std::mutex> migration_lock(migration_mu_); }
  accepting_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->set_paused(false);  // a paused worker must wake up to drain
    shard->RequestStop();
  }
  for (auto& shard : shards_) shard->Join();
  // Workers are quiet; deliver the log's tail to the sinks and flush
  // them so file sinks are durable when Stop returns.
  const Status flushed = alert_log_->Stop();
  for (const auto& shard : shards_) {
    SD_RETURN_NOT_OK(shard->worker_status());
  }
  return flushed;
}

void IngestEngine::Pause() {
  for (auto& shard : shards_) shard->set_paused(true);
}

void IngestEngine::Resume() {
  for (auto& shard : shards_) shard->set_paused(false);
}

Result<std::vector<StreamId>> IngestEngine::CurrentlyAlarming(
    QueryId id, std::vector<ShardStamp>* stamps) const {
  const std::shared_ptr<const QueryRegistry::Snapshot> snapshot =
      registry_->snapshot();
  bool known = false;
  for (const auto* queries : {&snapshot->aggregate, &snapshot->sketch}) {
    for (const auto& q : *queries) known = known || q->id == id;
  }
  if (!known) {
    return Status::InvalidArgument("query " + std::to_string(id) +
                                   " is not a registered aggregate or "
                                   "sketch query");
  }
  if (stamps != nullptr) {
    stamps->clear();
    stamps->reserve(shards_.size());
  }
  std::vector<StreamId> alarming;
  for (const auto& shard : shards_) {
    ShardStamp stamp;
    // Shards report global ids directly off their slot tables.
    const std::vector<StreamId> local = shard->CurrentlyAlarming(id, &stamp);
    alarming.insert(alarming.end(), local.begin(), local.end());
    if (stamps != nullptr) stamps->push_back(stamp);
  }
  std::sort(alarming.begin(), alarming.end());
  return alarming;
}

std::uint64_t IngestEngine::StreamAppendCount(StreamId stream) const {
  SD_CHECK(stream < num_streams_);
  std::uint64_t count = 0;
  if (shards_[ShardOf(stream)]->FindStreamAppendCount(stream, &count)) {
    return count;
  }
  for (const auto& shard : shards_) {
    if (shard->FindStreamAppendCount(stream, &count)) return count;
  }
  return 0;
}

Status IngestEngine::DebugStreamState(StreamId stream,
                                      std::string* blob) const {
  if (stream >= num_streams_) {
    return Status::InvalidArgument("unknown stream");
  }
  const Status owned =
      shards_[ShardOf(stream)]->SerializeStream(stream, blob);
  if (owned.ok()) return owned;
  for (const auto& shard : shards_) {
    if (shard->SerializeStream(stream, blob).ok()) return Status::OK();
  }
  return owned;
}

Status IngestEngine::MigrateStream(StreamId stream, std::size_t from,
                                   std::size_t to) {
  if (stream >= num_streams_) {
    return Status::InvalidArgument("unknown stream");
  }
  if (from >= shards_.size() || to >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (from == to) {
    return Status::InvalidArgument(
        "migration source and target are the same shard");
  }
  std::lock_guard<std::mutex> lock(migration_mu_);
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("engine is stopped");
  }
  if (placement_->ShardOf(stream) != from) {
    return Status::FailedPrecondition(
        "stream is not on the requested source shard");
  }
  if (shards_[from]->paused() || shards_[to]->paused()) {
    // A paused worker can neither drain the source's rings nor apply the
    // target's park; refusing beats deadlocking the migration.
    return Status::FailedPrecondition(
        "cannot migrate to or from a paused shard");
  }
  const auto start = std::chrono::steady_clock::now();
  // 1. The target begins parking the stream's tuples in arrival order.
  SD_RETURN_NOT_OK(shards_[to]->PrepareReceive(stream));
  // 2. Flip the placement: every routing window opened from here on
  // pushes the stream to the target (parked until its state installs).
  SD_RETURN_NOT_OK(placement_->SetShard(stream, to));
  // 3. Wait out producers still inside a window opened under the old
  // epoch, then drain the source past a per-ring barrier: after it
  // passes, every tuple routed here under the old epoch has been
  // applied, and the rings hold nothing more for this stream, ever.
  // The barrier must be per-ring — an aggregate retired-vs-enqueued
  // comparison can be satisfied by post-flip traffic from other
  // producers' rings while the migrating stream's last tuples still sit
  // queued, and extracting then would strand them.
  WaitProducersQuiescent();
  const std::vector<std::uint64_t> barrier =
      shards_[from]->RingEnqueueCursors();
  while (!shards_[from]->RingsDrainedPast(barrier)) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  // 4. Move the state. The correlator round lock is held across the
  // extract/install gap so no round can observe the shards without the
  // stream and spuriously re-alert its pairs when it reappears.
  std::string blob;
  {
    std::lock_guard<std::mutex> round_lock(correlator_round_mu_);
    SD_RETURN_NOT_OK(shards_[from]->ExtractStream(stream, &blob));
    SD_RETURN_NOT_OK(shards_[to]->InstallStream(stream, blob));
  }
  // 5. Live on the target once the parked backlog has applied.
  while (!shards_[to]->ParkDrained()) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  metrics_->migrations.fetch_add(1, std::memory_order_relaxed);
  metrics_->migrated_bytes.fetch_add(blob.size(),
                                     std::memory_order_relaxed);
  metrics_->migration_latency.Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return Status::OK();
}

void IngestEngine::StartRebalanceThread() {
  if (config_.rebalance_period_ms == 0) return;
  rebalance_thread_ = std::thread([this] { RebalanceLoop(); });
}

void IngestEngine::StopRebalanceThread() {
  if (!rebalance_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(rebalance_cv_mu_);
    rebalance_stop_ = true;
  }
  rebalance_cv_.notify_all();
  rebalance_thread_.join();
}

void IngestEngine::RebalanceLoop() {
  const auto period =
      std::chrono::milliseconds(config_.rebalance_period_ms);
  // A tick acts only when the hottest shard's append delta exceeds the
  // coldest's by this factor (> 1: a balanced fleet must never oscillate
  // streams back and forth).
  constexpr double kRebalanceHysteresis = 1.5;
  // Ticks a migrated stream sits out before it may move again — the
  // second hysteresis stage, against ping-ponging one stream.
  constexpr std::uint64_t kCooldownTicks = 8;
  // Ticks the whole loop observes without acting after any migration:
  // the move itself pollutes the next deltas (the source drained, the
  // target replayed a parked backlog), and deciding on them would
  // cascade a second bogus move — e.g. stacking both hot streams onto
  // the shard that just received one.
  constexpr std::uint64_t kSettleTicks = 2;
  std::vector<std::uint64_t> prev_shard(shards_.size(), 0);
  std::unordered_map<StreamId, std::uint64_t> prev_stream;
  std::unordered_map<StreamId, std::uint64_t> cooldown_until;
  std::uint64_t settle_until = 0;
  std::uint64_t tick = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(rebalance_cv_mu_);
      if (rebalance_cv_.wait_for(lock, period,
                                 [this] { return rebalance_stop_; })) {
        return;
      }
    }
    ++tick;
    // Per-shard applied deltas over this tick: the load signal.
    std::size_t hottest = 0;
    std::size_t coldest = 0;
    std::uint64_t max_delta = 0;
    std::uint64_t min_delta = ~std::uint64_t{0};
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::uint64_t applied = shards_[s]->applied();
      const std::uint64_t delta = applied - prev_shard[s];
      prev_shard[s] = applied;
      if (delta > max_delta) {
        max_delta = delta;
        hottest = s;
      }
      if (delta < min_delta) {
        min_delta = delta;
        coldest = s;
      }
    }
    // Per-stream deltas, scraped from every shard each tick so a
    // stream's history stays continuous across its own migrations. The
    // candidate is the hottest shard's hottest stream not in cooldown.
    StreamId candidate = kNoStream;
    std::uint64_t candidate_delta = 0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for (const auto& [global, count] : shards_[s]->StreamAppendCounts()) {
        const auto [it, inserted] = prev_stream.try_emplace(global, 0);
        const std::uint64_t delta = count - it->second;
        it->second = count;
        if (s == hottest && delta > candidate_delta &&
            tick >= cooldown_until[global]) {
          candidate = global;
          candidate_delta = delta;
        }
      }
    }
    // The counters above are re-baselined every tick even while
    // settling, so the first post-settle decision sees clean deltas.
    if (tick < settle_until) continue;
    if (max_delta < config_.rebalance_min_delta) continue;  // trickle/idle
    if (static_cast<double>(max_delta) <=
        kRebalanceHysteresis * static_cast<double>(min_delta)) {
      continue;  // balanced enough; never oscillate a balanced fleet
    }
    if (candidate == kNoStream || candidate_delta == 0) continue;
    if (candidate_delta > max_delta - min_delta) {
      // Overshoot guard: moving a stream hotter than the whole skew
      // would only invert the imbalance next tick.
      continue;
    }
    // One migration per tick; the next tick re-measures before moving
    // anything else.
    if (MigrateStream(candidate, hottest, coldest).ok()) {
      cooldown_until[candidate] = tick + kCooldownTicks;
      settle_until = tick + 1 + kSettleTicks;
    }
  }
}

std::vector<ShardMetricsSnapshot> IngestEngine::ShardMetrics() const {
  std::vector<ShardMetricsSnapshot> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->MetricsSnapshot());
  return out;
}

std::string IngestEngine::MetricsJson() const {
  return EngineMetricsJson(*metrics_, ShardMetrics(), registry_->Metrics());
}

Status IngestEngine::Checkpoint(const std::string& dir) {
  std::lock_guard<std::mutex> lock(checkpoint_mu_);
  // No migration may run while the per-shard slot tables are captured:
  // otherwise a stream could appear in two shards' mappings (or
  // neither). Ingestion itself keeps flowing. Lock order is always
  // checkpoint_mu_ then migration_mu_; migrations never take
  // checkpoint_mu_, so there is no cycle.
  std::lock_guard<std::mutex> migration_lock(migration_mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    metrics_->checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("cannot create checkpoint directory " + dir +
                            ": " + ec.message());
  }

  const std::uint64_t seq = next_checkpoint_seq_;
  CheckpointManifest manifest;
  manifest.seq = seq;
  manifest.num_streams = num_streams_;
  manifest.num_shards = shards_.size();
  // Captured under the same migration_mu_ hold as the shard files'
  // slot tables.
  manifest.placement_epoch = placement_->epoch();
  manifest.shards.reserve(shards_.size());

  // Serialize and persist shard by shard. Each SerializeState holds only
  // that shard's state mutex, so ingestion keeps flowing on every other
  // shard (and on this one, into its rings) while the checkpoint runs.
  // The slot table, the slices and the stamp come out of one mutex hold,
  // so they describe one point in the apply sequence.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardStamp stamp;
    CheckpointShardFile file;
    Status status = shards_[s]->SerializeState(&stamp, &file);
    CheckpointShardEntry entry;
    entry.epoch = stamp.epoch;
    entry.appended = stamp.appended;
    entry.file = CheckpointFeaturesFileName(s, seq);
    if (status.ok()) {
      const std::string bytes = SerializeShardFile(file);
      entry.checksum = Fnv1a(bytes);
      status = AtomicWriteFile(
          (std::filesystem::path(dir) / entry.file).string(), bytes);
    }
    if (!status.ok()) {
      metrics_->checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
      return status;
    }
    manifest.shards.push_back(std::move(entry));
  }

  // The query registry rides every checkpoint (even when empty, so the
  // id allocator's lineage survives a restore and ids are never reused).
  {
    const std::string bytes = registry_->Serialize();
    manifest.queries_file = CheckpointQueriesFileName(seq);
    manifest.queries_checksum = Fnv1a(bytes);
    const std::filesystem::path path =
        std::filesystem::path(dir) / manifest.queries_file;
    const Status written = AtomicWriteFile(path.string(), bytes);
    if (!written.ok()) {
      metrics_->checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
      return written;
    }
  }

  // The alert log (sequence allocator, subscriber cursors, retained
  // entries) rides every checkpoint as its net file. Taken after the
  // shard snapshots: the log may be slightly fresher than the shards,
  // which errs toward retaining — a replayed alert is deduplicated by its
  // sequence number downstream.
  {
    const std::string bytes = alert_log_->Serialize();
    manifest.net_file = CheckpointNetFileName(seq);
    manifest.net_checksum = Fnv1a(bytes);
    const std::filesystem::path path =
        std::filesystem::path(dir) / manifest.net_file;
    const Status written = AtomicWriteFile(path.string(), bytes);
    if (!written.ok()) {
      metrics_->checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
      return written;
    }
  }

  // The manifest is the commit point: until this rename lands, recovery
  // still resolves to the previous checkpoint.
  const std::filesystem::path manifest_path =
      std::filesystem::path(dir) / CheckpointManifestFileName(seq);
  const Status committed =
      AtomicWriteFile(manifest_path.string(), SerializeManifest(manifest));
  if (!committed.ok()) {
    metrics_->checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
    return committed;
  }

  const std::uint64_t prev =
      last_checkpoint_seq_.load(std::memory_order_relaxed);
  next_checkpoint_seq_ = seq + 1;
  last_checkpoint_seq_.store(seq, std::memory_order_release);
  metrics_->checkpoints.fetch_add(1, std::memory_order_relaxed);
  // Keep the new checkpoint plus the previous one as a fallback; drop
  // anything older and any .tmp leftovers of interrupted attempts.
  GarbageCollectCheckpoints(dir, prev != 0 ? prev : seq);
  return Status::OK();
}

void IngestEngine::StartCheckpointThread() {
  if (config_.checkpoint_period_ms == 0) return;
  checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
}

void IngestEngine::StopCheckpointThread() {
  if (!checkpoint_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(checkpoint_cv_mu_);
    checkpoint_stop_ = true;
  }
  checkpoint_cv_.notify_all();
  checkpoint_thread_.join();
}

void IngestEngine::CheckpointLoop() {
  const auto period = std::chrono::milliseconds(config_.checkpoint_period_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(checkpoint_cv_mu_);
      if (checkpoint_cv_.wait_for(lock, period,
                                  [this] { return checkpoint_stop_; })) {
        return;
      }
    }
    // Failures are counted in metrics (checkpoint_failures) and retried
    // at the next period; the background thread never takes the engine
    // down over a transient filesystem error.
    (void)Checkpoint(config_.checkpoint_dir);
  }
}

void IngestEngine::StartCorrelatorThread() {
  if (!config_.query.enable_correlation) return;
  correlator_thread_ = std::thread([this] { CorrelatorLoop(); });
}

void IngestEngine::StopCorrelatorThread() {
  if (!correlator_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(correlator_cv_mu_);
    correlator_stop_ = true;
  }
  correlator_cv_.notify_all();
  correlator_thread_.join();
}

void IngestEngine::CorrelatorLoop() {
  const auto period =
      std::chrono::milliseconds(config_.query.correlator_period_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(correlator_cv_mu_);
      if (correlator_cv_.wait_for(lock, period,
                                  [this] { return correlator_stop_; })) {
        return;
      }
    }
    RunCorrelatorRound();
  }
}

void IngestEngine::TriggerCorrelatorRound() { RunCorrelatorRound(); }

void IngestEngine::RunCorrelatorRound() {
  std::lock_guard<std::mutex> round_lock(correlator_round_mu_);
  // The correlator runs the same plan object as the shard workers
  // (correlation queries grouped by resolved level), adopted only when
  // the registry version moves.
  if (corr_plan_ == nullptr || corr_plan_->version != registry_->version()) {
    corr_plan_ = registry_->plan();
    // Drop rising-edge state of queries that left the registry, so the
    // map cannot grow without bound under register/unregister churn.
    std::erase_if(corr_active_pairs_, [this](const auto& entry) {
      return !corr_plan_->Holds(entry.first);
    });
  }
  if (corr_plan_->correlation.empty()) return;

  bool round_counted = false;
  std::uint64_t round = 0;
  for (const EvalPlan::CorrelationGroup& group : corr_plan_->correlation) {
    if (!RunCorrelatorGroup(group, &round_counted, &round)) {
      // A failed gather evaluates nothing and commits nothing for this
      // level: the same round retries at the next firing, and the
      // remaining level groups still evaluate. (The pre-index correlator
      // stamped corr_last_time_ before gathering and returned on the
      // first failure, silently skipping that round's alerts for this
      // level and abandoning every later group.)
      metrics_->correlator_errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (corr_alerts_.empty()) return;
  if (alert_log_->Append(corr_alerts_).ok()) {
    metrics_->alerts_published.fetch_add(corr_alerts_.size(),
                                         std::memory_order_relaxed);
  }
  corr_alerts_.clear();
}

bool IngestEngine::RunCorrelatorGroup(
    const EvalPlan::CorrelationGroup& group, bool* round_counted,
    std::uint64_t* round) {
  using Clock = std::chrono::steady_clock;
  const std::size_t level = group.level;

  // Phase 1: the round time is the slowest started stream's latest
  // feature time at this level — the most recent time every started
  // stream can still serve. Streams whose window has not filled yet do
  // not hold the round back; they simply contribute nothing.
  std::uint64_t t_round = 0;
  bool any = false;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::uint64_t t = 0;
    if (!shard->has_correlation_core() ||
        !shard->CorrelationClockMin(level, &t)) {
      continue;
    }
    t_round = any ? std::min(t_round, t) : t;
    any = true;
  }
  if (!any) return true;
  const auto last = corr_last_time_.find(level);
  if (last != corr_last_time_.end() && last->second == t_round) {
    return true;  // nothing new to evaluate at this level
  }

  if (config_.correlator_fault_hook != nullptr &&
      config_.correlator_fault_hook(level)) {
    return false;
  }

  // Phase 2: gather every shard's feature points and exact z-normed
  // windows at the aligned time into flat reusable buffers. Per-shard
  // mutex-coherent; streams whose data already expired at t_round are
  // skipped. A migration holds the round lock across its extract and
  // install, so no stream is gathered twice.
  const StardustConfig& cfg = config_.query.correlation;
  const std::size_t dims = cfg.coefficients;
  const std::size_t window = group.window;
  CorrRound& round_buffers = *corr_round_;
  std::vector<Shard::CorrelationGather>& gathers = round_buffers.gathers;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard::CorrelationGather& gather = gathers[i];
    if (!shards_[i]->has_correlation_core()) {
      gather.streams.clear();
      continue;
    }
    if (!shards_[i]->CorrelationGatherAt(level, t_round, &gather).ok()) {
      return false;
    }
    if (!gather.streams.empty() &&
        (gather.dims != dims || gather.window != window)) {
      return false;  // core/plan shape mismatch; retry next round
    }
  }

  // Phase 3: one candidate grid over the round's points, each under its
  // (shard, row) id. Its cell is the group's largest radius (StatStream's
  // choice: neighbor enumeration reaches one cell out).
  CorrelationIndex& grid = round_buffers.grid;
  std::vector<std::pair<std::uint32_t, std::uint32_t>>& rows =
      round_buffers.rows;
  grid.Reset(group.max_radius > 0.0 ? group.max_radius : 1.0);
  rows.clear();
  for (std::uint32_t i = 0; i < gathers.size(); ++i) {
    const Shard::CorrelationGather& gather = gathers[i];
    for (std::uint32_t k = 0; k < gather.streams.size(); ++k) {
      grid.Insert(rows.size(), &gather.features[k * dims]);
      rows.emplace_back(i, k);
    }
  }

  // This level produced an evaluable round: account it. Rounds count
  // once per RunCorrelatorRound invocation however many levels evaluate
  // (the per-group skew previously leaked into alert.epoch); per-level
  // counts live in correlator_level_evals.
  if (!*round_counted) {
    *round =
        metrics_->correlator_rounds.fetch_add(1, std::memory_order_relaxed) +
        1;
    *round_counted = true;
  }
  if (level < metrics_->correlator_num_levels) {
    metrics_->correlator_level_evals[level].fetch_add(
        1, std::memory_order_relaxed);
  }

  // Phase 4: probe every gathered point against the grid, partitioned
  // across the probe pool (the pool only reads the grid and the
  // gathers). One probe at the group's widest radius serves every query;
  // the exact window distance is computed once per candidate pair and
  // re-filtered per query below. Each unordered pair is emitted by
  // exactly one task (the smaller global id probes, the larger is the
  // candidate), so the per-task outputs are disjoint.
  struct PairHit {
    StreamId a = 0;
    StreamId b = 0;
    double d2 = 0.0;
  };
  std::vector<std::vector<PairHit>> task_hits(rows.size());
  const double max_r = group.max_radius;
  const double max_r2 = max_r * max_r;
  const auto probe = [&](std::size_t task) {
    const Shard::CorrelationGather& gi = gathers[rows[task].first];
    const std::size_t ki = rows[task].second;
    const StreamId g_i = gi.streams[ki];
    std::vector<std::size_t> candidates;
    grid.Candidates(&gi.features[ki * dims], max_r, &candidates);
    std::vector<PairHit>& out = task_hits[task];
    const double* zi = &gi.znormed[ki * window];
    for (const std::size_t cand : candidates) {
      const Shard::CorrelationGather& gj = gathers[rows[cand].first];
      const std::size_t kj = rows[cand].second;
      const StreamId g_j = gj.streams[kj];
      if (g_j <= g_i) continue;  // count each pair once
      const double* zj = &gj.znormed[kj * window];
      double d2 = 0.0;
      for (std::size_t x = 0; x < window; ++x) {
        const double d = zi[x] - zj[x];
        d2 += d * d;
      }
      if (d2 > max_r2) continue;
      out.push_back({g_i, g_j, d2});
    }
  };
  if (probe_pool_ != nullptr) {
    probe_pool_->Run(rows.size(), probe);
  } else {
    for (std::size_t task = 0; task < rows.size(); ++task) probe(task);
  }

  // Phase 5: serial per-query merge and rising-edge publication, in
  // sorted pair order. Every query of the group re-filters the verified
  // pairs by its own radius. Rounds with fewer than two present features
  // run through here with zero hits on purpose: the query's active set
  // is replaced (emptied) either way, so a pair whose features expired
  // re-alerts when it correlates again. (The pre-index correlator
  // `continue`d before this step, leaving the stale active set pinned
  // and suppressing the re-alert forever.)
  std::vector<PairHit> query_hits;
  for (const auto& q : group.queries) {
    const Clock::time_point start = Clock::now();
    std::set<std::pair<StreamId, StreamId>>& active =
        corr_active_pairs_[q->id];
    const double r2 = q->spec.radius * q->spec.radius;
    query_hits.clear();
    for (const std::vector<PairHit>& hits : task_hits) {
      for (const PairHit& hit : hits) {
        if (hit.d2 <= r2) query_hits.push_back(hit);
      }
    }
    std::sort(query_hits.begin(), query_hits.end(),
              [](const PairHit& x, const PairHit& y) {
                return std::make_pair(x.a, x.b) < std::make_pair(y.a, y.b);
              });
    std::set<std::pair<StreamId, StreamId>> current;
    for (const PairHit& hit : query_hits) {
      current.emplace(hit.a, hit.b);
      if (active.count({hit.a, hit.b}) != 0) continue;  // still correlated
      Alert alert;
      alert.query = q->id;
      alert.kind = QueryKind::kCorrelation;
      alert.stream = hit.a;
      alert.stream_b = hit.b;
      alert.window = window;
      alert.end_time = t_round;
      alert.epoch = *round;
      alert.value = std::sqrt(hit.d2);
      alert.threshold = q->spec.radius;
      q->hits.fetch_add(1, std::memory_order_relaxed);
      // The pair still entered the current set above, so a suppressed
      // alert is not re-raised when the token bucket refills.
      if (!q->AllowAlert()) continue;
      corr_alerts_.push_back(alert);
    }
    active = std::move(current);
    q->evals.fetch_add(1, std::memory_order_relaxed);
    q->eval_nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count()),
        std::memory_order_relaxed);
  }

  // Commit the round time only now that the level fully evaluated; any
  // failure above left it unstamped so the next firing retries.
  corr_last_time_[level] = t_round;
  return true;
}

}  // namespace stardust
