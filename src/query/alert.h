// Typed alert records numbered and delivered by the alert log
// (src/query/alert_log.h).
//
// Every hit of a registered continuous query — an aggregate threshold
// crossing, a verified pattern match, a verified correlated pair —
// becomes one Alert. Alerts are small value types so they can cross the
// bounded alert log by copy; the JSONL encoding below is the stable wire
// schema (docs/QUERIES.md).
#ifndef STARDUST_QUERY_ALERT_H_
#define STARDUST_QUERY_ALERT_H_

#include <cstdint>
#include <string>

#include "core/config.h"
#include "query/query_spec.h"

namespace stardust {

/// One query hit. Field semantics by kind:
///  - kAggregate:   `stream` alarmed; `value` is the exact aggregate,
///                  `threshold` the query threshold, `window` the query
///                  window, `end_time` the stream time of the window end.
///  - kPattern:     `stream` matched; `value` is the normalized match
///                  distance, `threshold` the query radius, `window` the
///                  pattern length, `end_time` the match end position.
///  - kCorrelation: streams `stream` and `stream_b` are correlated;
///                  `value` is the exact z-normalized window distance,
///                  `threshold` the query radius, `window` the level
///                  window, `end_time` the detection round time.
struct Alert {
  QueryId query = kInvalidQueryId;
  QueryKind kind = QueryKind::kAggregate;
  StreamId stream = 0;
  /// Partner stream of a correlated pair; unused (0) otherwise.
  StreamId stream_b = 0;
  std::size_t window = 0;
  std::uint64_t end_time = 0;
  /// Shard epoch (aggregate/pattern) or correlator round (correlation)
  /// that produced the alert; identifies the evaluated state.
  std::uint64_t epoch = 0;
  double value = 0.0;
  double threshold = 0.0;
};

/// One-line JSON encoding of an alert (no trailing newline):
///   {"query":3,"kind":"pattern","stream":5,"stream_b":0,"window":32,
///    "end_time":511,"epoch":14,"value":0.0132,"threshold":0.05}
std::string AlertToJson(const Alert& alert);

/// Same schema with a leading `"seq":<n>` field — the sequence number the
/// alert log assigned on append (query/alert_log.h): subscribers
/// deduplicate replays and detect gaps by it (docs/NETWORK.md).
std::string AlertToJson(const Alert& alert, std::uint64_t seq);

}  // namespace stardust

#endif  // STARDUST_QUERY_ALERT_H_
