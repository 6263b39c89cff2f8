// Configuration of the continuous-query subsystem layered on the
// ingestion engine (docs/QUERIES.md).
//
// The aggregate and sketch paths always exist (they evaluate against the
// state every shard's feature pipeline keeps); the pattern and
// correlation paths each need a dedicated Stardust core per shard and
// are opt-in because they add a per-tuple summarization cost to the
// shard workers.
#ifndef STARDUST_QUERY_QUERY_CONFIG_H_
#define STARDUST_QUERY_QUERY_CONFIG_H_

#include <cstddef>

#include "common/overload_policy.h"
#include "common/status.h"
#include "core/config.h"
#include "transform/feature.h"

namespace stardust {

struct QueryConfig {
  /// Maintain one online unit-sphere DWT core per shard (update_period
  /// 1) so pattern queries can be evaluated inline (Algorithm 3).
  /// `pattern` must be such a configuration. Standing queries walk the
  /// core's box threads, so the shard keeps no level index of it even
  /// when `pattern.index_features` is set.
  bool enable_patterns = false;
  StardustConfig pattern;

  /// Maintain one batch z-normalized DWT core per shard (c == 1,
  /// T == W) feeding the cross-shard correlator thread (Section 5.3).
  /// `correlation` must be such a configuration.
  bool enable_correlation = false;
  StardustConfig correlation;

  /// Period of the correlator thread in milliseconds. Each round aligns
  /// all shards on a common feature time and runs every registered
  /// correlation query once if that time advanced.
  std::size_t correlator_period_ms = 10;

  /// The alert log's capacity (entries retained for the sinks and the
  /// TCP subscribers together) and the overflow policy an append applies
  /// when the in-process sinks still need the oldest entry (mirrors the
  /// ingestion rings; see common/overload_policy.h). kBlock applies
  /// backpressure to query evaluation — and transitively to ingestion —
  /// when sinks fall behind. Subscribers never block an append.
  std::size_t alert_capacity = 4096;
  OverloadPolicy alert_overflow = OverloadPolicy::kBlock;

  Status Validate() const {
    if (alert_capacity == 0) {
      return Status::InvalidArgument("alert_capacity must be positive");
    }
    if (enable_patterns) {
      SD_RETURN_NOT_OK(pattern.Validate());
      if (pattern.transform != TransformKind::kDwt ||
          pattern.normalization != Normalization::kUnitSphere) {
        return Status::InvalidArgument(
            "pattern queries require the unit-sphere DWT transform");
      }
      if (pattern.update_period != 1 ||
          pattern.update_schedule != UpdateSchedule::kUniform) {
        return Status::InvalidArgument(
            "pattern queries require the online algorithm "
            "(uniform update_period == 1)");
      }
    }
    if (enable_correlation) {
      SD_RETURN_NOT_OK(correlation.Validate());
      if (correlation.transform != TransformKind::kDwt ||
          correlation.normalization != Normalization::kZNorm) {
        return Status::InvalidArgument(
            "correlation queries require the z-normalized DWT transform");
      }
      if (correlation.update_period != correlation.base_window ||
          correlation.box_capacity != 1 ||
          correlation.update_schedule != UpdateSchedule::kUniform) {
        return Status::InvalidArgument(
            "correlation queries use the batch algorithm "
            "(uniform T == W, c == 1)");
      }
      if (correlator_period_ms == 0) {
        return Status::InvalidArgument(
            "correlator_period_ms must be positive");
      }
    }
    return Status::OK();
  }
};

}  // namespace stardust

#endif  // STARDUST_QUERY_QUERY_CONFIG_H_
