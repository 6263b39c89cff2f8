#include "engine/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/check.h"
#include "common/serialize.h"
#include "core/pattern_query.h"

namespace stardust {

namespace {

// Best-effort worker pinning. Returns whether the affinity call
// succeeded; platforms without thread affinity report failure and the
// worker simply runs unpinned.
bool PinThreadToCore(std::size_t core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core % CPU_SETSIZE), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t), &set) ==
         0;
#else
  (void)core;
  return false;
#endif
}

// Producer-side and idle-worker wait: spin briefly, then yield, then nap.
// Keeps latency low when the peer is active without burning a core when
// it is not.
void Backoff(std::size_t* spins) {
  ++*spins;
  if (*spins < 64) return;
  if (*spins < 256) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(100));
}

void UpdateMax(std::atomic<std::uint64_t>* target, std::uint64_t value) {
  std::uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

void UpdateMaxSize(std::atomic<std::size_t>* target, std::size_t value) {
  std::size_t cur = target->load(std::memory_order_relaxed);
  while (cur < value && !target->compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

std::uint64_t ElapsedNanos(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// One stream's slice of an edge-state map, serialized sorted by query id
// so the bytes are deterministic (unordered_map iteration order is not).
// Absent queries and vectors shorter than the slot read as the default
// value — exactly what a fresh evaluation would start from.
template <typename T>
void SaveEdgeSlice(
    const std::unordered_map<QueryId, std::vector<T>>& map, StreamId local,
    Writer* writer) {
  std::vector<std::pair<QueryId, std::uint64_t>> entries;
  entries.reserve(map.size());
  for (const auto& [id, values] : map) {
    const T value = local < values.size() ? values[local] : T{};
    entries.emplace_back(id, static_cast<std::uint64_t>(value));
  }
  std::sort(entries.begin(), entries.end());
  writer->U64(entries.size());
  for (const auto& [id, value] : entries) {
    writer->U64(id);
    if constexpr (sizeof(T) == 1) {
      writer->U8(static_cast<std::uint8_t>(value));
    } else {
      writer->U64(value);
    }
  }
}

template <typename T>
Status LoadEdgeSlice(std::unordered_map<QueryId, std::vector<T>>* map,
                     StreamId local, std::size_t num_streams,
                     Reader* reader) {
  std::uint64_t count = 0;
  SD_RETURN_NOT_OK(reader->U64(&count));
  constexpr std::size_t kEntryBytes = 8 + sizeof(T);
  if (count > reader->remaining() / kEntryBytes) {
    return Status::InvalidArgument("stream slice edge section truncated");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    SD_RETURN_NOT_OK(reader->U64(&id));
    std::uint64_t value = 0;
    if constexpr (sizeof(T) == 1) {
      std::uint8_t v8 = 0;
      SD_RETURN_NOT_OK(reader->U8(&v8));
      value = v8;
    } else {
      SD_RETURN_NOT_OK(reader->U64(&value));
    }
    std::vector<T>& values = (*map)[id];
    if (values.size() < num_streams) values.resize(num_streams, T{});
    values[local] = static_cast<T>(value);
  }
  return Status::OK();
}

// Drops the entries of queries missing from `live` (the registry
// snapshot's queries of the map's class).
template <typename T, typename Queries>
void PruneEdgeMap(const Queries& live,
                  std::unordered_map<QueryId, std::vector<T>>* map) {
  for (auto it = map->begin(); it != map->end();) {
    const QueryId id = it->first;
    const bool registered =
        std::any_of(live.begin(), live.end(),
                    [id](const auto& q) { return q->id == id; });
    it = registered ? std::next(it) : map->erase(it);
  }
}

// Resets one slot of an edge-state map to the value a fresh evaluation
// starts from (a tombstoned slot must not leak state to its next owner).
template <typename T>
void ClearEdgeSlot(std::unordered_map<QueryId, std::vector<T>>* map,
                   StreamId local) {
  for (auto& [id, values] : *map) {
    if (local < values.size()) values[local] = T{};
  }
}

}  // namespace

Shard::Shard(std::size_t index, std::size_t num_shards,
             std::size_t num_producers, std::size_t queue_capacity,
             OverloadPolicy policy, std::size_t max_batch,
             std::unique_ptr<FeaturePipeline> pipeline,
             QueryRegistry* registry, AlertLog* alerts,
             EngineMetrics* metrics, ShardOptions options)
    : index_(index),
      num_shards_(num_shards),
      policy_(policy),
      max_batch_(max_batch),
      metrics_(metrics),
      registry_(registry),
      alerts_(alerts),
      options_(std::move(options)) {
  pipeline_ = std::move(pipeline);
  SD_CHECK(pipeline_ != nullptr);
  SD_CHECK(num_producers > 0);
  SD_CHECK(num_shards_ > 0 && index_ < num_shards_);
  SD_CHECK((registry_ != nullptr) == (alerts_ != nullptr));
  if (pipeline_->pattern_core() != nullptr) {
    SD_CHECK(registry_ != nullptr);
  }
  // Default slot table: the engine's historical modulo layout, local
  // slot l holding global l * num_shards + index. Restore replaces it
  // with a checkpoint's slot table.
  const std::size_t locals = pipeline_->num_streams();
  global_of_.resize(locals);
  for (StreamId local = 0; local < locals; ++local) {
    global_of_[local] =
        static_cast<StreamId>(local * num_shards_ + index_);
  }
  if (locals > 0) {
    local_of_.assign(static_cast<std::size_t>(global_of_.back()) + 1,
                     kNoStream);
    for (StreamId local = 0; local < locals; ++local) {
      local_of_[global_of_[local]] = local;
    }
  }
  RebuildSortedLocalsLocked();
  touched_.assign(locals, 0);
  run_count_.assign(locals, 0);
  run_cursor_.assign(locals, 0);
  run_values_.reserve(max_batch_);
  run_begin_.reserve(locals);
  local_scratch_.reserve(max_batch_);
  rings_.reserve(num_producers);
  for (std::size_t i = 0; i < num_producers; ++i) {
    rings_.push_back(std::make_unique<SpscRing<StreamValue>>(queue_capacity));
  }
  ring_enqueued_.reset(new std::atomic<std::uint64_t>[num_producers]());
  ring_retired_.reset(new std::atomic<std::uint64_t>[num_producers]());
}

Shard::~Shard() {
  RequestStop();
  Join();
}

void Shard::Start() {
  SD_CHECK(!worker_.joinable());
  worker_ = std::thread([this] { WorkerLoop(); });
}

void Shard::RequestStop() { stop_.store(true, std::memory_order_release); }

void Shard::Join() {
  if (worker_.joinable()) worker_.join();
}

void Shard::set_paused(bool paused) {
  paused_.store(paused, std::memory_order_release);
}

Status Shard::Push(std::size_t producer, StreamId stream, double value) {
  SD_DCHECK(producer < rings_.size());
  SpscRing<StreamValue>& ring = *rings_[producer];
  const StreamValue tuple{stream, value};
  if (!ring.TryPush(tuple)) {
    switch (policy_) {
      case OverloadPolicy::kDropNewest:
        metrics_->dropped_newest.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      case OverloadPolicy::kDropOldest: {
        StreamValue victim;
        while (!ring.TryPush(tuple)) {
          if (ring.TryPop(&victim)) {
            stolen_.fetch_add(1, std::memory_order_relaxed);
            ring_retired_[producer].fetch_add(1, std::memory_order_release);
            metrics_->dropped_oldest.fetch_add(1, std::memory_order_relaxed);
          }
        }
        break;
      }
      case OverloadPolicy::kBlock: {
        metrics_->block_waits.fetch_add(1, std::memory_order_relaxed);
        std::size_t spins = 0;
        while (!ring.TryPush(tuple)) {
          // A paused or stopping worker never frees a slot, so an
          // unconditional spin here would never return (a producer stuck
          // against a stopped engine). Bail out instead of deadlocking;
          // the tuple is not enqueued.
          if (stop_.load(std::memory_order_acquire)) {
            return Status::Aborted("shard is stopping; post rejected");
          }
          Backoff(&spins);
        }
        break;
      }
    }
  }
  enqueued_.fetch_add(1, std::memory_order_release);
  ring_enqueued_[producer].fetch_add(1, std::memory_order_release);
  metrics_->posted.fetch_add(1, std::memory_order_relaxed);
  UpdateMaxSize(&queue_high_water_, ring.ApproxSize());
  return Status::OK();
}

PostOutcome Shard::TryPush(std::size_t producer, StreamId stream,
                           double value) {
  SD_DCHECK(producer < rings_.size());
  SpscRing<StreamValue>& ring = *rings_[producer];
  const StreamValue tuple{stream, value};
  if (!ring.TryPush(tuple)) {
    switch (policy_) {
      case OverloadPolicy::kDropNewest:
        metrics_->dropped_newest.fetch_add(1, std::memory_order_relaxed);
        return PostOutcome::kDroppedNewest;
      case OverloadPolicy::kDropOldest: {
        StreamValue victim;
        while (!ring.TryPush(tuple)) {
          if (ring.TryPop(&victim)) {
            stolen_.fetch_add(1, std::memory_order_relaxed);
            ring_retired_[producer].fetch_add(1, std::memory_order_release);
            metrics_->dropped_oldest.fetch_add(1, std::memory_order_relaxed);
          }
        }
        break;
      }
      case OverloadPolicy::kBlock:
        // Unlike Push, a full ring is the caller's backpressure signal:
        // nothing is enqueued or accounted, and the caller retries after
        // the worker drains (block_waits stays a Push-only counter).
        return PostOutcome::kWouldBlock;
    }
  }
  enqueued_.fetch_add(1, std::memory_order_release);
  ring_enqueued_[producer].fetch_add(1, std::memory_order_release);
  metrics_->posted.fetch_add(1, std::memory_order_relaxed);
  UpdateMaxSize(&queue_high_water_, ring.ApproxSize());
  return PostOutcome::kEnqueued;
}

std::vector<std::uint64_t> Shard::RingEnqueueCursors() const {
  std::vector<std::uint64_t> cursors(rings_.size());
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    cursors[r] = ring_enqueued_[r].load(std::memory_order_acquire);
  }
  return cursors;
}

bool Shard::RingsDrainedPast(
    const std::vector<std::uint64_t>& targets) const {
  SD_DCHECK(targets.size() == rings_.size());
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    if (ring_retired_[r].load(std::memory_order_acquire) < targets[r]) {
      return false;
    }
  }
  return true;
}

void Shard::WorkerLoop() {
  if (options_.pin) {
    // Best-effort: a failed pin is surfaced once in the metrics and the
    // worker keeps running unpinned — never abort ingestion over
    // placement.
    const bool ok = options_.pin_hook
                        ? options_.pin_hook(options_.pin_core)
                        : PinThreadToCore(options_.pin_core);
    pinned_.store(ok, std::memory_order_release);
    if (!ok) {
      metrics_->pin_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::vector<StreamValue> batch;
  batch.reserve(max_batch_);
  // Pops per ring in the current sweep; committed to ring_retired_ only
  // after ApplyBatch returns, so a passed drain barrier means applied
  // (or parked), never merely popped into an in-flight batch.
  std::vector<std::uint32_t> pop_counts(rings_.size(), 0);
  std::size_t idle_spins = 0;
  std::size_t drain_start = 0;
  for (;;) {
    if (paused_.load(std::memory_order_acquire) &&
        !stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    batch.clear();
    // Rotate the ring the sweep starts at: a fixed starting ring would
    // let producer 0 fill every batch while later producers' full queues
    // starve under sustained overload (kBlock producers stuck forever).
    const std::size_t num_rings = rings_.size();
    for (std::size_t k = 0; k < num_rings; ++k) {
      const std::size_t r = (drain_start + k) % num_rings;
      SpscRing<StreamValue>& ring = *rings_[r];
      StreamValue tuple;
      while (batch.size() < max_batch_ && ring.TryPop(&tuple)) {
        batch.push_back(tuple);
        ++pop_counts[r];
      }
      if (batch.size() >= max_batch_) break;
    }
    drain_start = (drain_start + 1) % num_rings;
    if (batch.empty()) {
      if (park_pending_.load(std::memory_order_acquire)) {
        // An installed migration released parked tuples while the rings
        // were idle; apply them without waiting for fresh traffic.
        ApplyBatch(batch);
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) {
        // Producers are quiesced before RequestStop, so one final empty
        // sweep over every ring means the shard is fully drained.
        bool drained = true;
        for (auto& ring : rings_) drained = drained && ring->ApproxEmpty();
        if (drained) return;
      }
      Backoff(&idle_spins);
      continue;
    }
    idle_spins = 0;
    ApplyBatch(batch);
    for (std::size_t r = 0; r < num_rings; ++r) {
      if (pop_counts[r] != 0) {
        ring_retired_[r].fetch_add(pop_counts[r],
                                   std::memory_order_release);
        pop_counts[r] = 0;
      }
    }
  }
}

void Shard::RefreshQuerySnapshot() {
  const std::uint64_t version = registry_->version();
  if (query_snapshot_ != nullptr && version == query_version_) return;
  query_snapshot_ = registry_->snapshot();
  query_version_ = version;
  // Compile outside the state mutex (compilation only reads immutable
  // configs); the next ApplyBatch commits it, prunes stale evaluation
  // state, and re-points the pipeline.
  PlanContext ctx;
  ctx.fleet = &pipeline_->aggregate_config();
  ctx.pattern = pipeline_->pattern_core() != nullptr
                    ? &pipeline_->pattern_core()->config()
                    : nullptr;
  ctx.correlation = pipeline_->corr_core() != nullptr
                        ? &pipeline_->corr_core()->config()
                        : nullptr;
  pending_plan_ = CompileEvalPlan(*query_snapshot_, version, ctx);
}

void Shard::CommitPendingPlanLocked() {
  if (pending_plan_ == nullptr) return;
  plan_ = std::move(pending_plan_);
  pending_plan_ = nullptr;
  PruneQueryStateLocked();
  pipeline_->AdoptPlan(*plan_);
}

void Shard::PruneQueryStateLocked() {
  PruneEdgeMap(query_snapshot_->aggregate, &agg_alarming_);
  PruneEdgeMap(query_snapshot_->sketch, &sketch_alarming_);
  PruneEdgeMap(query_snapshot_->pattern, &pattern_watermark_);
  PruneEdgeMap(query_snapshot_->pattern, &pattern_eval_floor_);
}

void Shard::GroupRuns(const std::vector<StreamValue>& batch) {
  touched_list_.clear();
  run_begin_.clear();
  invalid_.clear();
  local_scratch_.clear();
  newly_parked_ = 0;
  // An unknown global surfaces as an out-of-range local append, so
  // append_errors accounting matches the pre-placement engine's handling
  // of an unmapped stream id.
  const StreamId unknown_local =
      static_cast<StreamId>(pipeline_->num_streams());
  // Pass 1: translate to local slots and count tuples per stream (first
  // touch resets the stale count from the previous batch, so no
  // O(num_streams) clear is needed).
  for (const StreamValue& tuple : batch) {
    const StreamId local = LocalOfLocked(tuple.stream);
    if (local == kNoStream) {
      if (tuple.stream == parked_stream_) {
        park_.push_back(tuple);
        ++newly_parked_;
      } else {
        invalid_.push_back(StreamValue{unknown_local, tuple.value});
      }
      local_scratch_.push_back(kNoStream);
      continue;
    }
    local_scratch_.push_back(local);
    if (!touched_[local]) {
      touched_[local] = 1;
      touched_list_.push_back(local);
      run_count_[local] = 0;
    }
    ++run_count_[local];
  }
  // Prefix offsets: one contiguous run per touched stream, packed in
  // first-touch order.
  std::size_t offset = 0;
  for (StreamId s : touched_list_) {
    run_begin_.push_back(offset);
    run_cursor_[s] = static_cast<std::uint32_t>(offset);
    offset += run_count_[s];
  }
  run_values_.resize(offset);
  // Pass 2: stable scatter — per-stream value order is batch order, so a
  // run replays exactly the subsequence a per-tuple apply would.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const StreamId local = local_scratch_[i];
    if (local == kNoStream) continue;
    run_values_[run_cursor_[local]++] = batch[i].value;
  }
  for (StreamId s : touched_list_) touched_[s] = 0;
}

void Shard::ApplyRunLocked(StreamId stream, const double* values,
                           std::size_t count) {
  using Clock = std::chrono::steady_clock;
  std::size_t i = 0;
  while (i < count) {
    // The pipeline rejects a run holding a non-finite value whole. Split
    // the run so each such value is a run of its own — rejected and
    // accounted alone — while its finite neighbours still apply.
    std::size_t j = i + 1;
    if (std::isfinite(values[i])) {
      while (j < count && std::isfinite(values[j])) ++j;
    }
    const std::size_t len = j - i;
    const Clock::time_point start = Clock::now();
    const Status status = pipeline_->AppendRun(stream, values + i, len);
    const std::uint64_t nanos = ElapsedNanos(start);
    maintain_ns_ += nanos;
    // Charge the run's amortized per-value cost; one atomic round-trip
    // per run instead of per tuple.
    metrics_->append_latency.RecordN(nanos / len, len);
    if (status.ok()) {
      metrics_->appended.fetch_add(len, std::memory_order_relaxed);
    } else {
      // A rejected tuple (non-finite value, unknown stream) is a run of
      // one; a longer run can only fail on internal errors. Either way
      // the failure counts once.
      metrics_->append_errors.fetch_add(1, std::memory_order_relaxed);
      if (worker_status_.ok()) worker_status_ = status;
    }
    i = j;
  }
}

void Shard::EvaluateQueriesLocked(std::vector<Alert>* out) {
  using Clock = std::chrono::steady_clock;
  const EvalPlan& plan = *plan_;
  if (plan.aggregate.empty() && plan.pattern.empty() &&
      plan.sketch.empty()) {
    return;
  }

  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  const std::size_t num_streams = pipeline_->num_streams();

  // Aggregate stage: every query sharing a window reads the one tracker
  // the pipeline maintains for that window — the Algorithm-2 check costs
  // one tracker read per (group, touched stream) instead of one
  // filter/verify walk per (query, touched stream). Alerts stay
  // edge-triggered on the false -> true alarm transition so a window
  // staying above its threshold emits once, not once per batch.
  if (!plan.aggregate.empty()) {
    plan.aggregate_evals.fetch_add(1, std::memory_order_relaxed);
    for (const EvalPlan::AggregateGroup& group : plan.aggregate) {
      const Clock::time_point start = Clock::now();
      if (group.evaluable) {
        edge_scratch_.clear();
        for (const auto& q : group.queries) {
          std::vector<char>& edge = agg_alarming_[q->id];
          // Prefix-preserving growth: a migration installing a fresh
          // slot must not wipe the other streams' edge state (a wipe
          // re-alerts every currently-alarming stream).
          if (edge.size() < num_streams) edge.resize(num_streams, 0);
          edge_scratch_.push_back(&edge);
        }
        for (StreamId s : touched_list_) {
          // Ready mirrors Algorithm 2's availability exactly: the
          // tracker has a full window iff the retained raw tail does.
          if (!pipeline_->TrackerReady(s, group.tracker_index)) continue;
          const double exact =
              pipeline_->TrackerValue(s, group.tracker_index);
          const std::uint64_t end_time = pipeline_->AppendCount(s) - 1;
          for (std::size_t qi = 0; qi < group.queries.size(); ++qi) {
            const auto& q = group.queries[qi];
            std::vector<char>& edge = *edge_scratch_[qi];
            // Alarm == the exact aggregate left the query's assess
            // range. Specs built via Aggregate() carry the legacy
            // [-inf, threshold) range, making this bit-identical to the
            // old `exact >= threshold` check.
            const bool alarm = !q->spec.assess.Contains(exact);
            if (alarm && !edge[s]) {
              q->hits.fetch_add(1, std::memory_order_relaxed);
              // Edge state flips either way: a rate-limited alert is
              // suppressed, not re-raised when the bucket refills.
              if (q->AllowAlert()) {
                Alert alert;
                alert.query = q->id;
                alert.kind = QueryKind::kAggregate;
                alert.stream = global_of_[s];
                alert.window = group.window;
                alert.end_time = end_time;
                alert.epoch = epoch;
                alert.value = exact;
                alert.threshold = q->spec.assess.ViolatedBound(exact);
                out->push_back(alert);
              }
            }
            edge[s] = alarm ? 1 : 0;
          }
        }
      }
      // Per-query accounting: the group ran once; attribute the shared
      // cost evenly. Non-evaluable groups (window beyond the retained
      // history) record the evaluation without alarming, exactly like
      // the seed path's silent OutOfRange skip.
      const std::uint64_t shared =
          ElapsedNanos(start) / group.queries.size();
      for (const auto& q : group.queries) {
        q->evals.fetch_add(1, std::memory_order_relaxed);
        q->eval_nanos.fetch_add(shared, std::memory_order_relaxed);
      }
    }
  }

  // Sketch stage: every query sharing a config reads the one windowed
  // measure the pipeline maintains in that slot — one Estimate per
  // (group, touched stream), with per-query assess ranges checked
  // against the shared estimate. Edge-triggered like the aggregate
  // stage: an estimate staying outside its range emits once.
  if (!plan.sketch.empty()) {
    plan.sketch_evals.fetch_add(1, std::memory_order_relaxed);
    for (const EvalPlan::SketchGroup& group : plan.sketch) {
      const Clock::time_point start = Clock::now();
      edge_scratch_.clear();
      for (const auto& q : group.queries) {
        std::vector<char>& edge = sketch_alarming_[q->id];
        if (edge.size() < num_streams) edge.resize(num_streams, 0);
        edge_scratch_.push_back(&edge);
      }
      for (StreamId s : touched_list_) {
        // A measure created mid-stream warms up for one full window
        // before it evaluates (sketch state cannot be backfilled).
        if (!pipeline_->SketchReady(s, group.slot)) continue;
        const double estimate = pipeline_->SketchEstimate(s, group.slot);
        const std::uint64_t end_time = pipeline_->AppendCount(s) - 1;
        for (std::size_t qi = 0; qi < group.queries.size(); ++qi) {
          const auto& q = group.queries[qi];
          std::vector<char>& edge = *edge_scratch_[qi];
          const bool alarm = !q->spec.assess.Contains(estimate);
          if (alarm && !edge[s]) {
            q->hits.fetch_add(1, std::memory_order_relaxed);
            // Edge state flips either way: a rate-limited alert is
            // suppressed, not re-raised when the bucket refills.
            if (q->AllowAlert()) {
              Alert alert;
              alert.query = q->id;
              alert.kind = QueryKind::kSketch;
              alert.stream = global_of_[s];
              alert.window = static_cast<std::size_t>(group.config.window);
              alert.end_time = end_time;
              alert.epoch = epoch;
              alert.value = estimate;
              alert.threshold = q->spec.assess.ViolatedBound(estimate);
              out->push_back(alert);
            }
          }
          edge[s] = alarm ? 1 : 0;
        }
      }
      const std::uint64_t shared =
          ElapsedNanos(start) / group.queries.size();
      for (const auto& q : group.queries) {
        q->evals.fetch_add(1, std::memory_order_relaxed);
        q->eval_nanos.fetch_add(shared, std::memory_order_relaxed);
      }
    }
  }

  // Pattern stage: Algorithm 3 over the pipeline's online core with the
  // plan's precompiled query state (pieces, normalized query, budget),
  // and a per-stream delivery watermark so a match position is alerted
  // exactly once even though consecutive evaluations keep finding it
  // until it slides out of the history buffer.
  if (!plan.pattern.empty() && pipeline_->pattern_core() != nullptr) {
    plan.pattern_evals.fetch_add(1, std::memory_order_relaxed);
    const PatternQueryEngine engine(*pipeline_->pattern_core());
    for (const EvalPlan::PatternEntry& entry : plan.pattern) {
      const auto& q = entry.query;
      const Clock::time_point start = Clock::now();
      std::vector<std::uint64_t>& wm = pattern_watermark_[q->id];
      if (wm.size() < num_streams) wm.resize(num_streams, 0);
      std::vector<std::uint64_t>& ef = pattern_eval_floor_[q->id];
      if (ef.size() < num_streams) ef.resize(num_streams, 0);
      if (!entry.ok) {
        // Compilation failed for this core's configuration: surfaced the
        // same way the uncompiled path surfaced a per-eval query error.
        q->errors.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Standing queries evaluate incrementally: only positions past
        // the per-stream cursor — O(new tuples), not a range search over
        // the whole level index per batch. The watermark below keeps the
        // delivered-once guarantee across evaluation-state resets.
        const Result<PatternResult> result =
            engine.QueryCompiledIncremental(entry.compiled, ef.data());
        if (!result.ok()) {
          q->errors.fetch_add(1, std::memory_order_relaxed);
        } else {
          for (const PatternMatch& match : result.value().matches) {
            if (match.end_time + 1 <= wm[match.stream]) continue;
            wm[match.stream] = match.end_time + 1;
            q->hits.fetch_add(1, std::memory_order_relaxed);
            // The watermark advances either way: a rate-limited match is
            // suppressed, not re-raised when the bucket refills.
            if (!q->AllowAlert()) continue;
            Alert alert;
            alert.query = q->id;
            alert.kind = QueryKind::kPattern;
            alert.stream = global_of_[match.stream];
            alert.window = q->spec.pattern.size();
            alert.end_time = match.end_time;
            alert.epoch = epoch;
            alert.value = match.distance;
            alert.threshold = q->spec.radius;
            out->push_back(alert);
          }
        }
      }
      q->evals.fetch_add(1, std::memory_order_relaxed);
      q->eval_nanos.fetch_add(ElapsedNanos(start),
                              std::memory_order_relaxed);
    }
  }
}

void Shard::ApplyBatch(const std::vector<StreamValue>& batch) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point batch_start = Clock::now();
  if (registry_ != nullptr) RefreshQuerySnapshot();
  std::vector<Alert> alerts;
  std::size_t work_size = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    CommitPendingPlanLocked();
    // A completed migration released its parked tuples: apply them
    // first, in arrival order, ahead of this batch — exactly the order
    // the ring would have delivered had the stream been resident.
    const std::vector<StreamValue>* work = &batch;
    if (!park_.empty() && parked_stream_ == kNoStream) {
      merged_.clear();
      merged_.swap(park_);
      parked_.fetch_sub(merged_.size(), std::memory_order_release);
      park_pending_.store(false, std::memory_order_release);
      merged_.insert(merged_.end(), batch.begin(), batch.end());
      work = &merged_;
    }
    work_size = work->size();
    // Batched columnar maintenance: regroup the batch into one
    // contiguous run per stream and append each run through the
    // pipeline's run entry point (one state load/store per level per run
    // instead of per value). Streams are independent, so reordering
    // across streams — while keeping each stream's values in batch
    // order — leaves every per-stream tail, tracker, and summarizer
    // byte-identical to the per-tuple path.
    GroupRuns(*work);
    if (newly_parked_ > 0) {
      parked_.fetch_add(newly_parked_, std::memory_order_release);
    }
    for (std::size_t i = 0; i < touched_list_.size(); ++i) {
      const StreamId stream = touched_list_[i];
      ApplyRunLocked(stream, run_values_.data() + run_begin_[i],
                     run_count_[stream]);
    }
    // Tuples naming an unknown stream cannot be grouped; each is a run
    // of one the pipeline rejects, accounted like any rejected tuple.
    for (const StreamValue& tuple : invalid_) {
      ApplyRunLocked(tuple.stream, &tuple.value, 1);
    }
    // Close the batch exactly once: features are derived here and only
    // read (never recomputed) by the query stages below and by
    // correlator rounds.
    const Clock::time_point finish_start = Clock::now();
    pipeline_->FinishBatch(touched_list_);
    maintain_ns_ += ElapsedNanos(finish_start);
    if (registry_ != nullptr && plan_ != nullptr) {
      EvaluateQueriesLocked(&alerts);
    }
    // Publish inside the lock so a reader's stamp always matches the
    // stream state it observed. Parked tuples are not applied yet;
    // they count when the post-install drain actually applies them.
    applied_.fetch_add(work_size - newly_parked_,
                       std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  // The batch's alerts are appended in one call after the state lock is
  // released: a kBlock log waiting on a slow sink must stall only this
  // worker, not every reader snapshotting the shard.
  if (!alerts.empty() && alerts_->Append(alerts).ok()) {
    metrics_->alerts_published.fetch_add(alerts.size(),
                                         std::memory_order_relaxed);
  }
  alert_progress_.store(applied_.load(std::memory_order_relaxed),
                        std::memory_order_release);
  batches_.fetch_add(1, std::memory_order_relaxed);
  UpdateMax(&batch_max_, work_size);
  apply_batch_latency_.Record(ElapsedNanos(batch_start));
}

ShardStamp Shard::StampLocked() const {
  ShardStamp stamp;
  stamp.shard = index_;
  stamp.epoch = epoch_.load(std::memory_order_relaxed);
  stamp.appended = applied_.load(std::memory_order_relaxed);
  return stamp;
}

void Shard::RebuildSortedLocalsLocked() {
  sorted_locals_.clear();
  for (StreamId local = 0; local < global_of_.size(); ++local) {
    if (global_of_[local] != kNoStream) sorted_locals_.push_back(local);
  }
  std::sort(sorted_locals_.begin(), sorted_locals_.end(),
            [this](StreamId a, StreamId b) {
              return global_of_[a] < global_of_[b];
            });
}

std::vector<StreamId> Shard::CurrentlyAlarming(QueryId id,
                                               ShardStamp* stamp) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (stamp != nullptr) *stamp = StampLocked();
  const std::vector<char>* edge = nullptr;
  if (const auto it = agg_alarming_.find(id); it != agg_alarming_.end()) {
    edge = &it->second;
  } else if (const auto jt = sketch_alarming_.find(id);
             jt != sketch_alarming_.end()) {
    edge = &jt->second;
  }
  std::vector<StreamId> alarming;
  if (edge == nullptr) return alarming;
  // Tombstoned slots are not in sorted_locals_, and the walk is in
  // ascending global order.
  for (StreamId local : sorted_locals_) {
    if (local < edge->size() && (*edge)[local] != 0) {
      alarming.push_back(global_of_[local]);
    }
  }
  return alarming;
}

bool Shard::FindStreamAppendCount(StreamId global_stream,
                                  std::uint64_t* out) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  const StreamId local = LocalOfLocked(global_stream);
  if (local == kNoStream) return false;
  *out = pipeline_->AppendCount(local);
  return true;
}

std::vector<std::pair<StreamId, std::uint64_t>> Shard::StreamAppendCounts()
    const {
  std::lock_guard<std::mutex> lock(state_mu_);
  std::vector<std::pair<StreamId, std::uint64_t>> counts;
  counts.reserve(sorted_locals_.size());
  for (StreamId local : sorted_locals_) {
    counts.emplace_back(global_of_[local], pipeline_->AppendCount(local));
  }
  return counts;
}

Status Shard::SerializeState(ShardStamp* stamp,
                             CheckpointShardFile* file) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  *stamp = StampLocked();
  file->aggregate = pipeline_->aggregate_config().aggregate;
  file->history = pipeline_->aggregate_config().history;
  file->globals = global_of_;
  file->slices.assign(global_of_.size(), std::string());
  for (StreamId local = 0; local < global_of_.size(); ++local) {
    if (global_of_[local] == kNoStream) continue;
    Writer writer;
    SD_RETURN_NOT_OK(SaveStreamLocked(local, &writer));
    file->slices[local] = writer.TakeBuffer();
  }
  return Status::OK();
}

Status Shard::Restore(const CheckpointShardFile& file, std::uint64_t epoch,
                      std::uint64_t appended) {
  SD_CHECK(!worker_.joinable());
  if (registry_ != nullptr) RefreshQuerySnapshot();
  std::lock_guard<std::mutex> lock(state_mu_);
  const std::size_t slots = pipeline_->num_streams();
  SD_CHECK(file.globals.size() == slots && file.slices.size() == slots);
  CommitPendingPlanLocked();
  global_of_.assign(slots, kNoStream);
  local_of_.clear();
  free_slots_.clear();
  for (StreamId local = 0; local < slots; ++local) {
    const StreamId global = file.globals[local];
    if (global == kNoStream) {
      free_slots_.push_back(local);
      continue;
    }
    SD_RETURN_NOT_OK(LoadStreamLocked(local, file.slices[local]));
    global_of_[local] = global;
    if (local_of_.size() <= global) {
      local_of_.resize(static_cast<std::size_t>(global) + 1, kNoStream);
    }
    local_of_[global] = local;
  }
  RebuildSortedLocalsLocked();
  SD_RETURN_NOT_OK(pipeline_->RebuildIndexes());
  // A query unregistered between the shard capture and the registry
  // capture left edge state in the slices that no plan will prune.
  if (query_snapshot_ != nullptr) PruneQueryStateLocked();
  epoch_.store(epoch, std::memory_order_release);
  applied_.store(appended, std::memory_order_release);
  alert_progress_.store(appended, std::memory_order_release);
  enqueued_.store(appended, std::memory_order_release);
  return Status::OK();
}

Status Shard::worker_status() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return worker_status_;
}

// --- Live migration ----------------------------------------------------

Status Shard::PrepareReceive(StreamId global_stream) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (parked_stream_ != kNoStream) {
    return Status::FailedPrecondition(
        "another migration is already in flight to this shard");
  }
  if (LocalOfLocked(global_stream) != kNoStream) {
    return Status::FailedPrecondition(
        "stream is already resident on the target shard");
  }
  SD_CHECK(park_.empty());
  parked_stream_ = global_stream;
  return Status::OK();
}

Status Shard::SaveStreamLocked(StreamId local, Writer* writer) const {
  SD_RETURN_NOT_OK(pipeline_->SaveStreamTo(local, writer));
  SaveEdgeSlice(agg_alarming_, local, writer);
  SaveEdgeSlice(sketch_alarming_, local, writer);
  SaveEdgeSlice(pattern_watermark_, local, writer);
  SaveEdgeSlice(pattern_eval_floor_, local, writer);
  return Status::OK();
}

Status Shard::LoadStreamLocked(StreamId local, const std::string& blob) {
  Reader reader(blob);
  SD_RETURN_NOT_OK(pipeline_->RestoreStreamFrom(local, &reader));
  const std::size_t num_streams = pipeline_->num_streams();
  SD_RETURN_NOT_OK(
      LoadEdgeSlice(&agg_alarming_, local, num_streams, &reader));
  SD_RETURN_NOT_OK(
      LoadEdgeSlice(&sketch_alarming_, local, num_streams, &reader));
  SD_RETURN_NOT_OK(
      LoadEdgeSlice(&pattern_watermark_, local, num_streams, &reader));
  SD_RETURN_NOT_OK(
      LoadEdgeSlice(&pattern_eval_floor_, local, num_streams, &reader));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("stream slice has trailing bytes");
  }
  return Status::OK();
}

Status Shard::ExtractStream(StreamId global_stream, std::string* blob) {
  std::lock_guard<std::mutex> lock(state_mu_);
  const StreamId local = LocalOfLocked(global_stream);
  if (local == kNoStream) {
    return Status::NotFound("stream is not resident on this shard");
  }
  Writer writer;
  SD_RETURN_NOT_OK(SaveStreamLocked(local, &writer));
  *blob = writer.TakeBuffer();
  // Tombstone the slot: reset every per-stream structure to empty and
  // mark the local id reusable. The caller already re-routed the stream
  // and drained this shard's rings, so no tuple can reach the slot.
  SD_RETURN_NOT_OK(pipeline_->ResetStream(local));
  ClearEdgeSlot(&agg_alarming_, local);
  ClearEdgeSlot(&sketch_alarming_, local);
  ClearEdgeSlot(&pattern_watermark_, local);
  ClearEdgeSlot(&pattern_eval_floor_, local);
  global_of_[local] = kNoStream;
  local_of_[global_stream] = kNoStream;
  free_slots_.push_back(local);
  RebuildSortedLocalsLocked();
  return Status::OK();
}

Status Shard::InstallStream(StreamId global_stream,
                            const std::string& blob) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (parked_stream_ != global_stream) {
    return Status::FailedPrecondition(
        "InstallStream without a matching PrepareReceive");
  }
  StreamId local = kNoStream;
  if (!free_slots_.empty()) {
    local = free_slots_.back();
    free_slots_.pop_back();
  } else {
    local = pipeline_->GrowStream();
    const std::size_t num_streams = pipeline_->num_streams();
    touched_.resize(num_streams, 0);
    run_count_.resize(num_streams, 0);
    run_cursor_.resize(num_streams, 0);
    global_of_.resize(num_streams, kNoStream);
  }
  SD_RETURN_NOT_OK(LoadStreamLocked(local, blob));
  SD_RETURN_NOT_OK(pipeline_->RebuildIndexes());
  global_of_[local] = global_stream;
  if (local_of_.size() <= global_stream) {
    local_of_.resize(static_cast<std::size_t>(global_stream) + 1,
                     kNoStream);
  }
  local_of_[global_stream] = local;
  RebuildSortedLocalsLocked();
  parked_stream_ = kNoStream;
  if (!park_.empty()) {
    park_pending_.store(true, std::memory_order_release);
  }
  return Status::OK();
}

Status Shard::SerializeStream(StreamId global_stream,
                              std::string* blob) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  const StreamId local = LocalOfLocked(global_stream);
  if (local == kNoStream) {
    return Status::NotFound("stream is not resident on this shard");
  }
  Writer writer;
  SD_RETURN_NOT_OK(SaveStreamLocked(local, &writer));
  *blob = writer.TakeBuffer();
  return Status::OK();
}

bool Shard::ParkDrained() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return parked_stream_ == kNoStream && park_.empty();
}

ShardMetricsSnapshot Shard::MetricsSnapshot() const {
  ShardMetricsSnapshot snapshot;
  snapshot.shard = index_;
  snapshot.epoch = epoch_.load(std::memory_order_acquire);
  snapshot.appended = applied_.load(std::memory_order_acquire);
  snapshot.batches = batches_.load(std::memory_order_relaxed);
  snapshot.max_batch = batch_max_.load(std::memory_order_relaxed);
  snapshot.queue_high_water =
      queue_high_water_.load(std::memory_order_relaxed);
  snapshot.pinned = pinned_.load(std::memory_order_acquire);
  snapshot.apply_batch_count = apply_batch_latency_.Count();
  snapshot.apply_batch_mean_ns = apply_batch_latency_.MeanNanos();
  snapshot.apply_batch_p50_ns = apply_batch_latency_.PercentileNanos(0.5);
  snapshot.apply_batch_p99_ns = apply_batch_latency_.PercentileNanos(0.99);
  {
    // Pipeline counters and the committed plan are guarded by the state
    // mutex (metrics scraping is a cold path).
    std::lock_guard<std::mutex> lock(state_mu_);
    snapshot.num_streams = sorted_locals_.size();
    snapshot.maintain_ns = maintain_ns_;
    snapshot.stream_appends.reserve(sorted_locals_.size());
    for (StreamId local : sorted_locals_) {
      snapshot.stream_appends.emplace_back(global_of_[local],
                                           pipeline_->AppendCount(local));
    }
    const FeaturePipeline::Counters counters = pipeline_->counters();
    snapshot.pipeline_batches = counters.batches;
    snapshot.pipeline_appends = counters.appends;
    snapshot.znorm_computes = counters.znorm_computes;
    snapshot.tracker_rebuilds = counters.tracker_rebuilds;
    snapshot.store_puts = counters.store_puts;
    snapshot.store_hits = counters.store_hits;
    snapshot.store_misses = counters.store_misses;
    snapshot.sketch_appends = counters.sketch_appends;
    snapshot.sketch_merges = counters.sketch_merges;
    snapshot.sketch_estimates = counters.sketch_estimates;
    snapshot.sketch_serialized_bytes = counters.sketch_serialized_bytes;
    snapshot.sketch_slots = pipeline_->num_sketch_slots();
    if (plan_ != nullptr) {
      snapshot.plan_version = plan_->version;
      snapshot.plan_aggregate_evals =
          plan_->aggregate_evals.load(std::memory_order_relaxed);
      snapshot.plan_pattern_evals =
          plan_->pattern_evals.load(std::memory_order_relaxed);
      snapshot.plan_correlation_evals =
          plan_->correlation_evals.load(std::memory_order_relaxed);
      snapshot.plan_sketch_evals =
          plan_->sketch_evals.load(std::memory_order_relaxed);
    }
  }
  return snapshot;
}

bool Shard::CorrelationClockMinSince(std::size_t level,
                                     std::uint64_t since_epoch,
                                     ClockSummary* out) const {
  const Stardust* corr_core = pipeline_->corr_core();
  SD_CHECK(corr_core != nullptr);
  std::lock_guard<std::mutex> lock(state_mu_);
  const FeatureStore& store = pipeline_->store();
  // Dirty short-circuit: a monitored level with no put since the caller's
  // recorded epoch cannot have moved any stream's clock — every clock
  // advance of a store-monitored level writes an entry in the same batch
  // (FeaturePipeline::FinishBatch), and migrations installing or
  // clearing a stream stamp it dirty (FeatureStore::TouchStream).
  // Levels the store does not monitor (plan adoption still in flight)
  // always take the scan.
  if (since_epoch != 0 && store.has_level(level) &&
      store.LevelPutEpoch(level) <= since_epoch) {
    return false;
  }
  out->store_epoch = store.epoch();
  out->any = false;
  out->min_time = 0;
  for (StreamId s = 0; s < corr_core->num_streams(); ++s) {
    const LevelThread& thread = corr_core->summarizer(s).thread(level);
    if (thread.empty()) continue;
    const std::uint64_t t = thread.last_time();
    out->min_time = out->any ? std::min(out->min_time, t) : t;
    out->any = true;
  }
  return true;
}

Status Shard::CorrelationGatherAt(std::size_t level, std::uint64_t t,
                                  CorrelationGather* out) const {
  SD_CHECK(pipeline_->corr_core() != nullptr);
  std::lock_guard<std::mutex> lock(state_mu_);
  out->streams.clear();
  out->features.clear();
  out->znormed.clear();
  out->dims = 0;
  out->window = 0;
  // Walk the slot table in ascending-global order so the gather's
  // globals stay sorted regardless of how migrations shuffled the
  // local slots.
  for (StreamId s : sorted_locals_) {
    FeatureStore::View view;
    if (!pipeline_->CorrelationFeature(level, s, t, &view)) continue;
    if (out->streams.empty()) {
      out->dims = view.dims;
      out->window = view.window;
    }
    out->streams.push_back(global_of_[s]);
    out->features.insert(out->features.end(), view.feature,
                         view.feature + view.dims);
    out->znormed.insert(out->znormed.end(), view.znormed,
                        view.znormed + view.window);
  }
  return Status::OK();
}

}  // namespace stardust
