#include "query/registry.h"

#include <cmath>
#include <utility>

#include "common/serialize.h"
#include "query/eval_plan.h"

namespace stardust {

namespace {

constexpr char kRegistryMagic[4] = {'S', 'D', 'Q', 'R'};
/// The only version this build reads or writes; older snapshots are
/// rejected with a diagnostic.
constexpr std::uint32_t kRegistryVersion = 3;

/// Lower bound on one serialized query (id + kind + window + threshold +
/// pattern length + radius + level + rate + burst + the 17-byte assess
/// range + the 65-byte sketch config); bounds the declared count against
/// the remaining payload.
constexpr std::uint64_t kMinQueryBytes = 139;

/// Kind-independent validation of the optional token-bucket limit.
Status ValidateAlertRate(const QuerySpec& spec) {
  if (spec.alert_rate_per_sec == 0.0) return Status::OK();
  if (!std::isfinite(spec.alert_rate_per_sec) ||
      spec.alert_rate_per_sec < 0.0) {
    return Status::InvalidArgument(
        "alert_rate_per_sec must be finite and non-negative");
  }
  if (spec.alert_burst == 0) {
    return Status::InvalidArgument(
        "a rate-limited query needs alert_burst >= 1");
  }
  return Status::OK();
}

/// Compiles `snapshot` against the configs its specs were validated
/// against: the query cores only when their kind is enabled.
std::shared_ptr<const EvalPlan> CompilePlan(
    const StardustConfig& aggregate, const QueryConfig& query,
    const QueryRegistry::Snapshot& snapshot, std::uint64_t version) {
  const PlanContext ctx{&aggregate,
                        query.enable_patterns ? &query.pattern : nullptr,
                        query.enable_correlation ? &query.correlation
                                                 : nullptr};
  return CompileEvalPlan(snapshot, version, ctx);
}

}  // namespace

QueryRegistry::QueryRegistry(const StardustConfig& aggregate_config,
                             const QueryConfig& query_config)
    : aggregate_config_(aggregate_config),
      query_config_(query_config),
      snapshot_(std::make_shared<const Snapshot>()),
      plan_(CompilePlan(aggregate_config_, query_config_, *snapshot_, 0)) {}

Status QueryRegistry::ValidateSpec(const QuerySpec& spec) const {
  SD_RETURN_NOT_OK(ValidateAlertRate(spec));
  switch (spec.kind) {
    case QueryKind::kAggregate: {
      const std::size_t w_base = aggregate_config_.base_window;
      if (spec.window == 0 || spec.window % w_base != 0) {
        return Status::InvalidArgument(
            "aggregate query window must be a positive multiple of the "
            "base window");
      }
      if ((spec.window / w_base) >> aggregate_config_.num_levels != 0) {
        return Status::InvalidArgument(
            "aggregate query window exceeds the largest indexed "
            "resolution");
      }
      if (!std::isfinite(spec.threshold)) {
        return Status::InvalidArgument(
            "aggregate query threshold must be finite");
      }
      SD_RETURN_NOT_OK(spec.assess.Validate());
      return Status::OK();
    }
    case QueryKind::kPattern: {
      if (!query_config_.enable_patterns) {
        return Status::FailedPrecondition(
            "pattern queries are not enabled on this engine "
            "(QueryConfig::enable_patterns)");
      }
      const std::size_t w_base = query_config_.pattern.base_window;
      if (spec.pattern.empty() || spec.pattern.size() % w_base != 0) {
        return Status::InvalidArgument(
            "pattern length must be a positive multiple of the pattern "
            "core's base window");
      }
      if ((spec.pattern.size() / w_base) >>
              query_config_.pattern.num_levels !=
          0) {
        return Status::InvalidArgument(
            "pattern length exceeds the pattern core's largest indexed "
            "resolution");
      }
      if (spec.pattern.size() > query_config_.pattern.history) {
        return Status::InvalidArgument(
            "pattern length exceeds the pattern core's history");
      }
      if (!(spec.radius >= 0.0)) {
        return Status::InvalidArgument(
            "pattern radius must be non-negative");
      }
      return Status::OK();
    }
    case QueryKind::kCorrelation: {
      if (!query_config_.enable_correlation) {
        return Status::FailedPrecondition(
            "correlation queries are not enabled on this engine "
            "(QueryConfig::enable_correlation)");
      }
      const std::size_t levels = query_config_.correlation.num_levels;
      const std::size_t level =
          spec.level == kTopLevel ? levels - 1 : spec.level;
      if (level >= levels) {
        return Status::InvalidArgument(
            "correlation level out of the correlation core's range");
      }
      if (query_config_.correlation.LevelWindow(level) >
          query_config_.correlation.history) {
        return Status::InvalidArgument(
            "correlation core history must cover the monitored window");
      }
      if (!(spec.radius >= 0.0)) {
        return Status::InvalidArgument(
            "correlation radius must be non-negative");
      }
      return Status::OK();
    }
    case QueryKind::kSketch: {
      SD_RETURN_NOT_OK(spec.sketch.Validate());
      if (spec.window != spec.sketch.window) {
        return Status::InvalidArgument(
            "sketch query window must mirror its sketch config window");
      }
      SD_RETURN_NOT_OK(spec.assess.Validate());
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown query kind");
}

void QueryRegistry::PublishLocked() {
  auto snapshot = std::make_shared<Snapshot>();
  for (const auto& query : queries_) {
    switch (query->spec.kind) {
      case QueryKind::kAggregate:
        snapshot->aggregate.push_back(query);
        break;
      case QueryKind::kPattern:
        snapshot->pattern.push_back(query);
        break;
      case QueryKind::kCorrelation:
        snapshot->correlation.push_back(query);
        break;
      case QueryKind::kSketch:
        snapshot->sketch.push_back(query);
        break;
    }
  }
  // The plan carries the version it is published under, so evaluators
  // compare it against version() to tell whether theirs is current.
  const std::uint64_t version = version_.load(std::memory_order_relaxed) + 1;
  plan_ = CompilePlan(aggregate_config_, query_config_, *snapshot, version);
  snapshot_ = std::move(snapshot);
  version_.store(version, std::memory_order_release);
}

Result<QueryId> QueryRegistry::Register(QuerySpec spec) {
  SD_RETURN_NOT_OK(ValidateSpec(spec));
  std::lock_guard<std::mutex> lock(mu_);
  const QueryId id = next_id_++;
  queries_.push_back(std::make_shared<RegisteredQuery>(id, std::move(spec)));
  PublishLocked();
  return id;
}

Status QueryRegistry::Unregister(QueryId id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = queries_.begin(); it != queries_.end(); ++it) {
    if ((*it)->id == id) {
      queries_.erase(it);
      PublishLocked();
      return Status::OK();
    }
  }
  return Status::NotFound("no registered query with id " +
                          std::to_string(id));
}

std::shared_ptr<const QueryRegistry::Snapshot> QueryRegistry::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

std::shared_ptr<const EvalPlan> QueryRegistry::plan() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

std::size_t QueryRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.size();
}

std::vector<QueryMetricsSnapshot> QueryRegistry::Metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryMetricsSnapshot> out;
  out.reserve(queries_.size());
  for (const auto& query : queries_) {
    QueryMetricsSnapshot m;
    m.id = query->id;
    m.kind = query->spec.kind;
    m.evals = query->evals.load(std::memory_order_relaxed);
    m.hits = query->hits.load(std::memory_order_relaxed);
    m.errors = query->errors.load(std::memory_order_relaxed);
    m.eval_nanos = query->eval_nanos.load(std::memory_order_relaxed);
    m.rate_limited = query->rate_limited.load(std::memory_order_relaxed);
    out.push_back(m);
  }
  return out;
}

std::string QueryRegistry::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  Writer payload;
  payload.U64(next_id_);
  payload.U64(queries_.size());
  for (const auto& query : queries_) {
    payload.U64(query->id);
    query->spec.SaveTo(&payload);
  }

  return WrapEnvelope(kRegistryMagic, kRegistryVersion, payload.buffer());
}

Status QueryRegistry::Restore(const std::string& bytes) {
  std::uint32_t version = 0;
  std::string payload;
  SD_RETURN_NOT_OK(UnwrapEnvelope(bytes, kRegistryMagic,
                                  "query registry snapshot", &version,
                                  &payload));
  if (version != kRegistryVersion) {
    return Status::InvalidArgument(
        "unsupported query registry version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kRegistryVersion) +
        " only)");
  }

  Reader reader(payload);
  std::uint64_t next_id = 0;
  std::uint64_t count = 0;
  SD_RETURN_NOT_OK(reader.U64(&next_id));
  SD_RETURN_NOT_OK(reader.U64(&count));
  if (count > reader.remaining() / kMinQueryBytes) {
    return Status::InvalidArgument(
        "query registry count out of range");
  }
  std::vector<std::shared_ptr<RegisteredQuery>> restored;
  restored.reserve(count);
  QueryId last_id = kInvalidQueryId;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    SD_RETURN_NOT_OK(reader.U64(&id));
    QuerySpec spec;
    SD_RETURN_NOT_OK(spec.RestoreFrom(&reader));
    // Ids are assigned monotonically and serialized in registration
    // order, so a valid snapshot is strictly increasing — which also
    // guarantees uniqueness against corrupt input.
    if (id <= last_id || id >= next_id) {
      return Status::InvalidArgument(
          "query registry snapshot has an id outside its allocator");
    }
    last_id = id;
    SD_RETURN_NOT_OK(ValidateSpec(spec));
    restored.push_back(
        std::make_shared<RegisteredQuery>(id, std::move(spec)));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "query registry snapshot has trailing bytes");
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (!queries_.empty()) {
    return Status::FailedPrecondition(
        "query registry restore requires an empty registry");
  }
  queries_ = std::move(restored);
  next_id_ = next_id;
  PublishLocked();
  return Status::OK();
}

}  // namespace stardust
