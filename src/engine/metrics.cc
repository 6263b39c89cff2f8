#include "engine/metrics.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>


namespace stardust {

namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

}  // namespace

std::string EngineMetricsJson(
    const EngineMetrics& metrics,
    const std::vector<ShardMetricsSnapshot>& shards) {
  return EngineMetricsJson(metrics, shards, {});
}

std::string EngineMetricsJson(
    const EngineMetrics& metrics,
    const std::vector<ShardMetricsSnapshot>& shards,
    const std::vector<QueryMetricsSnapshot>& queries) {
  std::string out;
  out.reserve(1024);
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  AppendF(&out,
          "{\"posted\":%" PRIu64 ",\"appended\":%" PRIu64
          ",\"dropped_newest\":%" PRIu64 ",\"dropped_oldest\":%" PRIu64,
          load(metrics.posted), load(metrics.appended),
          load(metrics.dropped_newest), load(metrics.dropped_oldest));
  AppendF(&out,
          ",\"block_waits\":%" PRIu64 ",\"append_errors\":%" PRIu64
          ",\"checkpoints\":%" PRIu64 ",\"checkpoint_failures\":%" PRIu64,
          load(metrics.block_waits), load(metrics.append_errors),
          load(metrics.checkpoints), load(metrics.checkpoint_failures));
  AppendF(&out,
          ",\"alerts_published\":%" PRIu64 ",\"correlator_rounds\":%" PRIu64
          ",\"correlator_errors\":%" PRIu64 ",\"pin_failures\":%" PRIu64,
          load(metrics.alerts_published), load(metrics.correlator_rounds),
          load(metrics.correlator_errors), load(metrics.pin_failures));
  const LatencyHistogram& mh = metrics.migration_latency;
  AppendF(&out,
          ",\"migrations\":%" PRIu64 ",\"migrated_bytes\":%" PRIu64
          ",\"migration_ns\":{\"count\":%" PRIu64 ",\"mean\":%.1f"
          ",\"p50\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
          load(metrics.migrations), load(metrics.migrated_bytes), mh.Count(),
          mh.MeanNanos(), mh.PercentileNanos(0.50), mh.PercentileNanos(0.99));
  out += ",\"correlator_level_evals\":[";
  for (std::size_t i = 0; i < metrics.correlator_num_levels; ++i) {
    AppendF(&out, "%s%" PRIu64, i == 0 ? "" : ",",
            load(metrics.correlator_level_evals[i]));
  }
  out += "]";

  const LatencyHistogram& h = metrics.append_latency;
  AppendF(&out,
          ",\"append_latency_ns\":{\"count\":%" PRIu64
          ",\"mean\":%.1f,\"p50\":%" PRIu64 ",\"p99\":%" PRIu64
          ",\"buckets\":[",
          h.Count(), h.MeanNanos(), h.PercentileNanos(0.50),
          h.PercentileNanos(0.99));
  bool first = true;
  for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    const std::uint64_t count = h.bucket_count(i);
    if (count == 0) continue;  // sparse export: empty buckets are implied
    AppendF(&out, "%s{\"le\":%" PRIu64 ",\"count\":%" PRIu64 "}",
            first ? "" : ",", LatencyHistogram::BucketBound(i), count);
    first = false;
  }
  out += "]}";

  out += ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardMetricsSnapshot& s = shards[i];
    AppendF(&out,
            "%s{\"shard\":%zu,\"epoch\":%" PRIu64 ",\"appended\":%" PRIu64
            ",\"batches\":%" PRIu64 ",\"max_batch\":%" PRIu64
            ",\"avg_batch\":%.2f,\"queue_high_water\":%zu"
            ",\"streams\":%zu",
            i == 0 ? "" : ",", s.shard, s.epoch, s.appended, s.batches,
            s.max_batch, s.AvgBatch(), s.queue_high_water, s.num_streams);
    out += ",\"stream_appends\":[";
    for (std::size_t k = 0; k < s.stream_appends.size(); ++k) {
      AppendF(&out, "%s[%u,%" PRIu64 "]", k == 0 ? "" : ",",
              s.stream_appends[k].first, s.stream_appends[k].second);
    }
    out += "]";
    AppendF(&out,
            ",\"pinned\":%s,\"maintain_ns_per_append\":%.1f"
            ",\"apply_batch_ns\":{\"count\":%" PRIu64
            ",\"mean\":%.1f,\"p50\":%" PRIu64 ",\"p99\":%" PRIu64 "}",
            s.pinned ? "true" : "false", s.MaintainNsPerAppend(),
            s.apply_batch_count, s.apply_batch_mean_ns, s.apply_batch_p50_ns,
            s.apply_batch_p99_ns);
    AppendF(&out,
            ",\"pipeline\":{\"batches\":%" PRIu64 ",\"appends\":%" PRIu64
            ",\"znorm_computes\":%" PRIu64 ",\"tracker_rebuilds\":%" PRIu64
            ",\"store_puts\":%" PRIu64 ",\"store_hits\":%" PRIu64
            ",\"store_misses\":%" PRIu64 "}",
            s.pipeline_batches, s.pipeline_appends, s.znorm_computes,
            s.tracker_rebuilds, s.store_puts, s.store_hits, s.store_misses);
    AppendF(&out,
            ",\"sketch\":{\"slots\":%zu,\"appends\":%" PRIu64
            ",\"merges\":%" PRIu64 ",\"estimate_calls\":%" PRIu64
            ",\"serialized_bytes\":%" PRIu64 "}",
            s.sketch_slots, s.sketch_appends, s.sketch_merges,
            s.sketch_estimates, s.sketch_serialized_bytes);
    AppendF(&out,
            ",\"plan\":{\"version\":%" PRIu64 ",\"aggregate_evals\":%" PRIu64
            ",\"pattern_evals\":%" PRIu64 ",\"sketch_evals\":%" PRIu64 "}}",
            s.plan_version, s.plan_aggregate_evals, s.plan_pattern_evals,
            s.plan_sketch_evals);
  }
  out += "]";

  out += ",\"queries\":[";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryMetricsSnapshot& q = queries[i];
    AppendF(&out,
            "%s{\"id\":%" PRIu64 ",\"kind\":\"%s\",\"evals\":%" PRIu64
            ",\"hits\":%" PRIu64 ",\"errors\":%" PRIu64
            ",\"rate_limited\":%" PRIu64 ",\"eval_nanos\":%" PRIu64 "}",
            i == 0 ? "" : ",", q.id, QueryKindName(q.kind), q.evals, q.hits,
            q.errors, q.rate_limited, q.eval_nanos);
  }
  out += "]}";
  return out;
}

std::string MergeMetricsSection(const std::string& json,
                                const std::string& name,
                                const std::string& body) {
  if (json.size() < 2 || json.front() != '{' || json.back() != '}') {
    return json;
  }
  std::string out;
  out.reserve(json.size() + name.size() + body.size() + 8);
  out.append(json, 0, json.size() - 1);
  if (json.size() > 2) out += ',';  // not an empty document
  out += '"';
  out += name;
  out += "\":{";
  out += body;
  out += "}}";
  return out;
}

}  // namespace stardust
