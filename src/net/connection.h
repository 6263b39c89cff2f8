// One accepted socket of the network server (net/server.h): owns the
// fd, the incremental frame parser for the inbound direction, and a
// bounded outbound byte buffer for the outgoing one. The server's event
// loop drives it single-threaded — OnReadable/OnWritable move bytes,
// the server interprets the frames and decides what to queue back.
//
// Protocol and flow-control state lives here as plain members because
// exactly one thread (the loop) ever touches a connection: the Hello
// handshake outcome, the resume point of a batch parked on engine
// backpressure, the subscriber push cursor, and the per-connection
// counters that roll up into the server's "net" metrics section.
#ifndef STARDUST_NET_CONNECTION_H_
#define STARDUST_NET_CONNECTION_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/codec.h"
#include "net/frame.h"

namespace stardust::net {

class Connection {
 public:
  /// Takes ownership of `fd` (closed on destruction). `max_outbound`
  /// bounds the outgoing buffer: the server stops pumping alerts into a
  /// connection whose buffer is full and lets the alert log's retention
  /// absorb the lag.
  Connection(int fd, std::size_t max_frame_bytes, std::size_t max_outbound);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  /// Drains everything the socket has into the frame parser. Returns
  /// false when the peer closed or the socket failed — the server then
  /// drops the connection.
  bool OnReadable();
  /// Next complete inbound frame, via the parser.
  bool NextFrame(Frame* out) { return parser_.Next(out); }
  const FrameParser& parser() const { return parser_; }

  /// Appends one encoded frame to the outbound buffer.
  void QueueFrame(FrameType type, const std::string& payload);
  /// Writes as much buffered output as the socket accepts. Returns false
  /// on a fatal socket error.
  bool OnWritable();
  bool has_outbound() const { return outbound_.size() > out_consumed_; }
  bool outbound_full() const {
    return outbound_.size() - out_consumed_ >= max_outbound_;
  }

  // --- Handshake state (server-managed) ---------------------------------
  bool hello_done = false;
  PeerRole role = PeerRole::kProducer;
  std::string subscriber_id;

  // --- Producer: batch parked on engine backpressure --------------------
  /// When the engine's kBlock queue is full mid-batch the server parks
  /// the rest of the batch here, stops reading from this socket, and
  /// retries on loop ticks; the BatchAck goes out only when the whole
  /// batch has been resolved.
  bool stalled = false;
  BatchMessage pending_batch;
  std::size_t pending_run = 0;
  std::size_t pending_value = 0;
  std::uint64_t batch_accepted = 0;
  std::uint64_t batch_dropped = 0;

  // --- Subscriber push cursor -------------------------------------------
  /// Highest alert sequence already queued to this subscriber's socket.
  std::uint64_t pushed_seq = 0;

  // --- Counters (rolled into the server totals on close) ----------------
  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t backpressure_episodes = 0;
  std::uint64_t alerts_sent = 0;
  std::uint64_t acks = 0;
  std::uint64_t protocol_errors = 0;
  /// Alert sequence numbers this subscriber skipped over because the
  /// alert log had already evicted them (a laggard's gap).
  std::uint64_t skipped_alerts = 0;
  /// Parser damage already folded into the server totals (the parser's
  /// own counters are cumulative).
  std::uint64_t counted_corrupt_frames = 0;
  std::uint64_t counted_skipped_bytes = 0;

 private:
  /// Reclaims the consumed prefix of the outbound buffer once it
  /// dominates the remainder.
  void CompactOutbound();

  const int fd_;
  const std::size_t max_outbound_;
  FrameParser parser_;
  std::string outbound_;
  std::size_t out_consumed_ = 0;
};

}  // namespace stardust::net

#endif  // STARDUST_NET_CONNECTION_H_
