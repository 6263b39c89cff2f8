// Overflow behavior of bounded producer/consumer queues. Shared by the
// ingestion engine's shard rings (src/engine) and the alert log
// (src/query) so both layers speak the same backpressure vocabulary.
#ifndef STARDUST_COMMON_OVERLOAD_POLICY_H_
#define STARDUST_COMMON_OVERLOAD_POLICY_H_

namespace stardust {

/// What a producer does when a bounded queue is full (the explicit
/// ingestion policies of feed-style systems: spill == block here, discard
/// drops; see docs/ENGINE.md).
enum class OverloadPolicy {
  /// Spin/yield until the consumer frees a slot. No data loss; producers
  /// inherit the consumer's pace (backpressure).
  kBlock,
  /// Drop the incoming item. The queued (older) data survives.
  kDropNewest,
  /// Reclaim the oldest queued item and enqueue the incoming one. The
  /// freshest data survives — the usual choice for live dashboards.
  kDropOldest,
};

inline const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kDropNewest: return "drop_newest";
    case OverloadPolicy::kDropOldest: return "drop_oldest";
  }
  return "unknown";
}

}  // namespace stardust

#endif  // STARDUST_COMMON_OVERLOAD_POLICY_H_
