// Payload schemas of the stardust network protocol, one struct + encode/
// decode pair per FrameType (net/frame.h). Encoding reuses the snapshot
// substrate (common/serialize.h): fixed-width little-endian fields,
// bounds-checked reads, Status-returning decoders — a torn or hostile
// payload surfaces as InvalidArgument, never as a crash or a huge
// allocation (every length is bounded against the remaining payload).
//
// Ingest direction (producer -> server):
//   Hello{role=kProducer}            -> HelloAck
//   Batch{runs of (stream, values)}  -> BatchAck{accepted, dropped}
// The batch carries one contiguous run of values per stream — the same
// run shape the engine's columnar maintenance path consumes, so the wire
// format feeds Shard::AppendRun grouping without reshuffling.
//
// Subscribe direction (server -> subscriber):
//   Hello{role=kSubscriber, id, resume_after} -> HelloAck{resume_from}
//   Alert{seq, json}  (server push, seq strictly increasing)
//   SubscriberAck{seq} (client -> server, cumulative cursor)
#ifndef STARDUST_NET_CODEC_H_
#define STARDUST_NET_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace stardust::net {

/// Who a connection speaks for, declared in its Hello frame.
enum class PeerRole : std::uint8_t {
  kProducer = 0,
  kSubscriber = 1,
};

/// First frame on every connection.
struct HelloMessage {
  PeerRole role = PeerRole::kProducer;
  /// Stable subscriber identity for cursor resume; ignored for producers.
  std::string subscriber_id;
  /// Highest alert sequence number this subscriber has durably consumed;
  /// the server replays everything after max(resume_after, stored
  /// cursor), with resume_after clamped to the last assigned sequence
  /// number. 0 means "from the earliest retained alert".
  std::uint64_t resume_after = 0;
};

/// Server reply to Hello.
struct HelloAckMessage {
  /// The server's next unassigned alert sequence number at accept time.
  std::uint64_t next_seq = 0;
  /// Sequence the subscriber's replay resumes after (producers: 0).
  std::uint64_t resume_from = 0;
};

/// One stream's contiguous run of values within a batch.
struct StreamRun {
  std::uint32_t stream = 0;
  std::vector<double> values;
};

/// One ingest batch: per-stream runs, applied in order.
struct BatchMessage {
  std::vector<StreamRun> runs;

  std::size_t total_values() const {
    std::size_t n = 0;
    for (const StreamRun& run : runs) n += run.values.size();
    return n;
  }
};

/// Server reply per Batch: how the engine's overload policy treated it.
struct BatchAckMessage {
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
};

/// One sequenced alert pushed to a subscriber. `json` is the alert
/// JSONL schema with a leading "seq" field (query/alert.h, AlertToJson).
struct AlertFrameMessage {
  std::uint64_t seq = 0;
  std::string json;
};

/// Cumulative subscriber cursor: every alert with seq <= acked_seq has
/// been durably consumed.
struct SubscriberAckMessage {
  std::uint64_t acked_seq = 0;
};

/// Server-side protocol error report (the connection stays open).
struct ErrorMessage {
  std::uint8_t code = 0;
  std::string message;
};

/// Operator-plane operation carried by a kAdmin frame.
enum class AdminOp : std::uint8_t {
  /// Dump the engine's placement table (epoch + stream→shard map);
  /// `stream`/`shard` are ignored.
  kPlacementDump = 1,
  /// Live-migrate `stream` to `shard` (IngestEngine::MigrateStream from
  /// its current owner).
  kMigrate = 2,
};

/// One admin request (stardust_cli placement / migrate).
struct AdminRequestMessage {
  AdminOp op = AdminOp::kPlacementDump;
  std::uint64_t stream = 0;
  std::uint64_t shard = 0;
};

/// Server reply to an AdminRequest. `json` carries the placement dump
/// (or migration summary); `message` the failure text when !ok.
struct AdminResultMessage {
  bool ok = false;
  std::string message;
  std::string json;
};

std::string EncodeHello(const HelloMessage& msg);
Status DecodeHello(const std::string& payload, HelloMessage* out);

std::string EncodeHelloAck(const HelloAckMessage& msg);
Status DecodeHelloAck(const std::string& payload, HelloAckMessage* out);

std::string EncodeBatch(const BatchMessage& msg);
Status DecodeBatch(const std::string& payload, BatchMessage* out);

std::string EncodeBatchAck(const BatchAckMessage& msg);
Status DecodeBatchAck(const std::string& payload, BatchAckMessage* out);

std::string EncodeAlertFrame(const AlertFrameMessage& msg);
Status DecodeAlertFrame(const std::string& payload, AlertFrameMessage* out);

std::string EncodeSubscriberAck(const SubscriberAckMessage& msg);
Status DecodeSubscriberAck(const std::string& payload,
                           SubscriberAckMessage* out);

std::string EncodeError(const ErrorMessage& msg);
Status DecodeError(const std::string& payload, ErrorMessage* out);

std::string EncodeAdminRequest(const AdminRequestMessage& msg);
Status DecodeAdminRequest(const std::string& payload,
                          AdminRequestMessage* out);

std::string EncodeAdminResult(const AdminResultMessage& msg);
Status DecodeAdminResult(const std::string& payload,
                         AdminResultMessage* out);

}  // namespace stardust::net

#endif  // STARDUST_NET_CODEC_H_
