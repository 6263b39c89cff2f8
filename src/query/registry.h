// QueryRegistry: runtime registration of continuous queries while
// ingestion is live.
//
// Register/Unregister may be called from any thread at any time; every
// mutation publishes a fresh immutable snapshot and compiles it, on the
// mutating thread, into the one EvalPlan all evaluators share. The
// evaluation hot paths (shard workers, the correlator) never take the
// registry mutex per tuple — they poll the cheap atomic version() and,
// only when it changed, fetch the new plan. A worker holding an old plan
// keeps evaluating the old query set for at most one batch; per-query
// counters live on the RegisteredQuery objects themselves, so metrics
// survive plan swaps and even unregistration races (a worker
// mid-evaluation bumps counters on a query that was just removed —
// harmless, the object is shared-ptr kept alive).
#ifndef STARDUST_QUERY_REGISTRY_H_
#define STARDUST_QUERY_REGISTRY_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "query/query_config.h"
#include "query/query_spec.h"

namespace stardust {

struct EvalPlan;  // query/eval_plan.h

/// A registered query plus its live counters. Immutable spec; atomic
/// counters are bumped by evaluators without synchronization.
struct RegisteredQuery {
  QueryId id = kInvalidQueryId;
  QuerySpec spec;
  /// Evaluation runs (per shard batch / correlator round touching it).
  mutable std::atomic<std::uint64_t> evals{0};
  /// Alerts this query emitted.
  mutable std::atomic<std::uint64_t> hits{0};
  /// Evaluations that failed with a non-OK status (skipped silently on
  /// the hot path; visible here for observability).
  mutable std::atomic<std::uint64_t> errors{0};
  /// Total wall-clock nanoseconds spent evaluating this query.
  mutable std::atomic<std::uint64_t> eval_nanos{0};
  /// Hits whose alert was suppressed by the token bucket (QuerySpec::
  /// alert_rate_per_sec). Suppressed hits still count as hits.
  mutable std::atomic<std::uint64_t> rate_limited{0};

  RegisteredQuery(QueryId query_id, QuerySpec query_spec)
      : id(query_id),
        spec(std::move(query_spec)),
        bucket_tokens_(static_cast<double>(spec.alert_burst)),
        bucket_refill_(std::chrono::steady_clock::now()) {}

  /// Token-bucket admission for one would-be alert: true when the alert
  /// may publish (consumes a token), false when it is rate limited
  /// (bumps rate_limited). Always true when the spec sets no limit.
  /// Callers commit their dedup state (rising edge, watermark, active
  /// pair set) regardless of the verdict, so a suppressed alert is
  /// dropped for good rather than re-raised when tokens refill.
  bool AllowAlert() const {
    if (spec.alert_rate_per_sec <= 0.0) return true;
    std::lock_guard<std::mutex> lock(bucket_mu_);
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - bucket_refill_).count();
    bucket_refill_ = now;
    bucket_tokens_ =
        std::min(static_cast<double>(spec.alert_burst),
                 bucket_tokens_ + elapsed * spec.alert_rate_per_sec);
    if (bucket_tokens_ >= 1.0) {
      bucket_tokens_ -= 1.0;
      return true;
    }
    rate_limited.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

 private:
  /// Token-bucket state; contended only by evaluators that just detected
  /// a hit on this specific query, never per tuple.
  mutable std::mutex bucket_mu_;
  mutable double bucket_tokens_ = 0.0;
  mutable std::chrono::steady_clock::time_point bucket_refill_;
};

/// Point-in-time per-query counters for metrics export.
struct QueryMetricsSnapshot {
  QueryId id = kInvalidQueryId;
  QueryKind kind = QueryKind::kAggregate;
  std::uint64_t evals = 0;
  std::uint64_t hits = 0;
  std::uint64_t errors = 0;
  std::uint64_t eval_nanos = 0;
  std::uint64_t rate_limited = 0;
};

class QueryRegistry {
 public:
  /// Immutable view of the registered queries, split by kind for the
  /// evaluators.
  struct Snapshot {
    std::vector<std::shared_ptr<RegisteredQuery>> aggregate;
    std::vector<std::shared_ptr<RegisteredQuery>> pattern;
    std::vector<std::shared_ptr<RegisteredQuery>> correlation;
    std::vector<std::shared_ptr<RegisteredQuery>> sketch;

    std::size_t size() const {
      return aggregate.size() + pattern.size() + correlation.size() +
             sketch.size();
    }
  };

  /// `aggregate_config` is the engine's aggregate-path configuration
  /// (validates aggregate query windows); `query_config` gates the
  /// pattern/correlation kinds and validates their specs; plans are
  /// compiled against the same configs.
  QueryRegistry(const StardustConfig& aggregate_config,
                const QueryConfig& query_config);

  /// Validates `spec` against the engine's configuration and registers
  /// it. The returned id is stable until Unregister and never reused.
  Result<QueryId> Register(QuerySpec spec);
  /// NotFound for ids that are unknown (or already unregistered).
  Status Unregister(QueryId id);

  /// Bumped by every successful Register/Unregister/Restore. Evaluators
  /// poll this (acquire) and refetch plan() only on change.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  /// The current immutable query set.
  std::shared_ptr<const Snapshot> snapshot() const;
  /// The compiled plan of the current query set (its `version` is
  /// version()); the same object until the next mutation.
  std::shared_ptr<const EvalPlan> plan() const;

  std::size_t size() const;
  std::vector<QueryMetricsSnapshot> Metrics() const;

  /// Checkpoint support: serializes every registered query (id + spec)
  /// and the id allocator under the snapshot envelope conventions
  /// (magic + version + FNV-1a checksum).
  std::string Serialize() const;
  /// Restores a serialized registry into this (empty) instance. Every
  /// restored spec is re-validated against the current configuration, so
  /// a checkpoint from an engine with pattern queries enabled cannot be
  /// restored into one without. Ids and the allocator continue the
  /// checkpointed lineage.
  Status Restore(const std::string& bytes);

 private:
  Status ValidateSpec(const QuerySpec& spec) const;
  /// Rebuilds the snapshot, compiles its plan and publishes both under
  /// the next version; callers hold mu_.
  void PublishLocked();

  const StardustConfig aggregate_config_;
  const QueryConfig query_config_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<RegisteredQuery>> queries_;
  QueryId next_id_ = 1;
  std::shared_ptr<const Snapshot> snapshot_;
  std::shared_ptr<const EvalPlan> plan_;
  std::atomic<std::uint64_t> version_{0};
};

}  // namespace stardust

#endif  // STARDUST_QUERY_REGISTRY_H_
