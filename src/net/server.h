// NetServer: the network front door of the ingestion engine
// (docs/NETWORK.md). One epoll event-loop thread serves two kinds of
// peers over the binary frame protocol (net/frame.h, net/codec.h):
//
//  - Producers send Batch frames of per-stream runs; the loop feeds
//    every value into the engine through the non-blocking TryPost path
//    and answers each batch with a BatchAck{accepted, dropped}. The
//    engine's OverloadPolicy maps onto the transport: under the drop
//    policies losses are counted into the ack, under kBlock a full queue
//    parks the rest of the batch, pauses reads from that socket (TCP
//    backpressure all the way to the producer), and retries until the
//    shard drains.
//
//  - Subscribers read the engine's alert log (query/alert_log.h)
//    directly: every alert carries the sequence number the log assigned
//    on append and is pushed as an Alert frame in order. A subscriber
//    acknowledges its cursor with SubscriberAck and can reconnect with
//    Hello{id, resume_after} to replay everything it has not
//    acknowledged. The engine checkpoints the log (allocator, cursors,
//    retained entries) as the checkpoint's net file, so replay survives
//    a server restart.
//
// The loop thread is the engine's single network producer (one SPSC
// producer slot), so no locking exists anywhere on the ingest path
// beyond the rings themselves.
#ifndef STARDUST_NET_SERVER_H_
#define STARDUST_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "net/connection.h"

namespace stardust::net {

/// Aggregated view of the network tier, merged into the engine metrics
/// JSON as the "net" section.
struct NetMetricsSnapshot {
  std::size_t connections = 0;
  std::size_t producers = 0;
  std::size_t subscribers = 0;
  std::uint64_t accepted_connections = 0;
  std::uint64_t frames = 0;
  std::uint64_t corrupt_frames = 0;
  std::uint64_t skipped_bytes = 0;
  std::uint64_t batches = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t backpressure_episodes = 0;
  std::uint64_t alerts_sent = 0;
  std::uint64_t acks = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t skipped_alerts = 0;
  std::uint64_t admin_requests = 0;
};

class NetServer {
 public:
  struct Options {
    /// Listen address. Port 0 binds an ephemeral port; read the actual
    /// one back with port().
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
    std::size_t max_connections = 64;
    /// Per-connection outbound buffer bound; a subscriber whose buffer
    /// is full stops being pumped and lags into the alert log's
    /// retained entries.
    std::size_t max_outbound_bytes = 256 * 1024;
  };

  /// Binds, installs the loop's wakeup as the alert log's wake callback
  /// and starts the loop thread. One server per engine: a second Start
  /// on the same engine returns FailedPrecondition. `engine` must outlive
  /// the server.
  static Result<std::unique_ptr<NetServer>> Start(IngestEngine* engine);
  static Result<std::unique_ptr<NetServer>> Start(IngestEngine* engine,
                                                  Options options);

  /// Clears the wake callback, stops and joins the loop, closes every
  /// connection (subscriber cursors persist in the log). Idempotent.
  Status Stop();
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Actual listening port (after an ephemeral bind).
  std::uint16_t port() const { return port_; }

  NetMetricsSnapshot Metrics() const;
  /// Engine metrics JSON with a "net" section appended (docs/ENGINE.md,
  /// docs/NETWORK.md).
  std::string MetricsJson() const;

 private:
  NetServer(IngestEngine* engine, Options options);

  void LoopThread();
  void AcceptReady();
  /// Handles every complete frame the connection has buffered. Returns
  /// false when the connection must be dropped.
  bool HandleFrames(Connection* conn);
  bool HandleFrame(Connection* conn, const Frame& frame);
  bool HandleHello(Connection* conn, const std::string& payload);
  bool HandleBatch(Connection* conn, const std::string& payload);
  /// Operator plane: placement dump / live migration. Runs on the loop
  /// thread, so a migration briefly pauses network service — acceptable
  /// for a rare operator action, and it keeps the engine call free of
  /// extra synchronization. No Hello is required for admin frames.
  bool HandleAdmin(Connection* conn, const std::string& payload);
  /// Feeds the parked batch into the engine from where it stalled.
  /// Returns false when it stalled again (kWouldBlock).
  bool DrainPendingBatch(Connection* conn);
  /// Pushes retained alerts after the connection's cursor until the
  /// outbound buffer fills or the log runs dry.
  void PumpSubscriber(Connection* conn);
  void PumpAllSubscribers();
  void SendError(Connection* conn, std::uint8_t code,
                 const std::string& message);
  void CloseConnection(int fd);
  /// Re-arms epoll interest to match the connection's state (reads
  /// paused while a batch is parked; writes armed while output is
  /// buffered).
  void UpdateInterest(Connection* conn);

  IngestEngine* const engine_;
  const Options options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  /// eventfd: the alert log's wake callback and Stop both signal the
  /// loop.
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::thread loop_;

  // --- Loop-thread state ------------------------------------------------
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  /// Connections with a parked batch, retried on loop ticks.
  std::size_t stalled_count_ = 0;

  // --- Counters (loop thread writes relaxed, Metrics reads) -------------
  std::atomic<std::size_t> connection_count_{0};
  std::atomic<std::size_t> producer_count_{0};
  std::atomic<std::size_t> subscriber_count_{0};
  std::atomic<std::uint64_t> accepted_connections_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> corrupt_frames_{0};
  std::atomic<std::uint64_t> skipped_bytes_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> backpressure_episodes_{0};
  std::atomic<std::uint64_t> alerts_sent_{0};
  std::atomic<std::uint64_t> acks_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> skipped_alerts_{0};
  std::atomic<std::uint64_t> admin_requests_{0};
};

}  // namespace stardust::net

#endif  // STARDUST_NET_SERVER_H_
