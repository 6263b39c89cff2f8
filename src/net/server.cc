#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "query/alert.h"

namespace stardust::net {

namespace {

/// Error codes carried in kError frames (docs/NETWORK.md).
constexpr std::uint8_t kErrBadHello = 1;
constexpr std::uint8_t kErrExpectedHello = 2;
constexpr std::uint8_t kErrBadFrame = 3;
constexpr std::uint8_t kErrWrongRole = 4;

/// Alerts fetched from the alert log per pump iteration.
constexpr std::size_t kPumpChunk = 64;

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

}  // namespace

NetServer::NetServer(IngestEngine* engine, Options options)
    : engine_(engine), options_(std::move(options)) {}

Result<std::unique_ptr<NetServer>> NetServer::Start(IngestEngine* engine) {
  return Start(engine, Options{});
}

Result<std::unique_ptr<NetServer>> NetServer::Start(IngestEngine* engine,
                                                    Options options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("net server needs an engine");
  }
  std::unique_ptr<NetServer> server(new NetServer(engine, options));

  server->listen_fd_ = ::socket(
      AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (server->listen_fd_ < 0) {
    return Status::Internal("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(server->listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
               sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + options.host);
  }
  if (::bind(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Internal("bind " + options.host + ":" +
                            std::to_string(options.port) + ": " +
                            std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(server->listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return Status::Internal("getsockname: " +
                            std::string(std::strerror(errno)));
  }
  server->port_ = ntohs(addr.sin_port);
  if (::listen(server->listen_fd_, 128) != 0) {
    return Status::Internal("listen: " + std::string(std::strerror(errno)));
  }

  server->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  server->wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (server->epoll_fd_ < 0 || server->wake_fd_ < 0) {
    return Status::Internal("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = server->listen_fd_;
  ::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->listen_fd_, &ev);
  ev.data.fd = server->wake_fd_;
  ::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->wake_fd_, &ev);

  // Every append wakes the loop to pump subscribers. Installed last, so
  // the callback is set exactly when the loop thread runs; Stop clears it
  // before the eventfd closes.
  const int wake_fd = server->wake_fd_;
  SD_RETURN_NOT_OK(engine->alerts().SetWakeCallback([wake_fd] {
    const std::uint64_t tick = 1;
    // A full eventfd counter already guarantees a pending wakeup.
    (void)!::write(wake_fd, &tick, sizeof(tick));
  }));

  server->loop_ = std::thread([s = server.get()] { s->LoopThread(); });
  return server;
}

NetServer::~NetServer() { (void)Stop(); }

Status NetServer::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) {
    return Status::OK();
  }
  // A server whose Start failed never installed the wake callback (it
  // may belong to another server); a running one silences it before the
  // eventfd goes away.
  if (loop_.joinable()) {
    (void)engine_->alerts().SetWakeCallback(nullptr);
    stop_.store(true, std::memory_order_release);
    const std::uint64_t tick = 1;
    (void)!::write(wake_fd_, &tick, sizeof(tick));
    loop_.join();
  }
  ::close(epoll_fd_);
  ::close(listen_fd_);
  ::close(wake_fd_);
  return Status::OK();
}

void NetServer::LoopThread() {
  std::array<epoll_event, 64> events;
  while (!stop_.load(std::memory_order_acquire)) {
    // Parked batches are retried on a short tick; otherwise the loop
    // sleeps until a socket or the alert log wakes it.
    const int timeout_ms = stalled_count_ > 0 ? 1 : -1;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        PumpAllSubscribers();
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this round
      Connection* conn = it->second.get();
      // Read first, even on a hang-up or error: a peer may flush its final
      // acks and close — or reset, when it closes with alerts unread —
      // right after, and those acks must still advance its cursor. On a
      // hang-up or error the read ends the connection.
      bool ok = true;
      if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        const bool still_open = conn->OnReadable();
        ok = HandleFrames(conn) && still_open;
      }
      if (ok && (ev & EPOLLOUT) != 0) {
        ok = conn->OnWritable();
        if (ok) PumpSubscriber(conn);
      }
      if (!ok) {
        CloseConnection(fd);
      } else {
        UpdateInterest(conn);
      }
    }
    if (stalled_count_ > 0) {
      // Retry every parked batch; completed ones resume frame handling.
      std::vector<int> dead;
      for (auto& [fd, conn] : connections_) {
        if (!conn->stalled) continue;
        if (!DrainPendingBatch(conn.get())) continue;
        conn->stalled = false;
        --stalled_count_;
        if (!HandleFrames(conn.get())) {
          dead.push_back(fd);
          continue;
        }
        UpdateInterest(conn.get());
      }
      for (int fd : dead) CloseConnection(fd);
    }
  }
  // Wind-down on the loop thread so connection state never needs a lock.
  std::vector<int> open;
  open.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) open.push_back(fd);
  for (int fd : open) CloseConnection(fd);
}

void NetServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll re-arms
    if (connections_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.emplace(fd, std::make_unique<Connection>(
                                 fd, options_.max_frame_bytes,
                                 options_.max_outbound_bytes));
    accepted_connections_.fetch_add(1, std::memory_order_relaxed);
    connection_count_.store(connections_.size(), std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

bool NetServer::HandleFrames(Connection* conn) {
  Frame frame;
  // A parked batch freezes frame consumption: later frames wait in the
  // parser so batches apply in arrival order.
  while (!conn->stalled && conn->NextFrame(&frame)) {
    ++conn->frames;
    frames_.fetch_add(1, std::memory_order_relaxed);
    if (!HandleFrame(conn, frame)) return false;
  }
  // Fold the parser's damage counters into the server totals.
  const std::uint64_t corrupt = conn->parser().corrupt_frames();
  const std::uint64_t skipped = conn->parser().skipped_bytes();
  if (corrupt > conn->counted_corrupt_frames) {
    corrupt_frames_.fetch_add(corrupt - conn->counted_corrupt_frames,
                              std::memory_order_relaxed);
    conn->counted_corrupt_frames = corrupt;
  }
  if (skipped > conn->counted_skipped_bytes) {
    skipped_bytes_.fetch_add(skipped - conn->counted_skipped_bytes,
                             std::memory_order_relaxed);
    conn->counted_skipped_bytes = skipped;
  }
  return true;
}

bool NetServer::HandleFrame(Connection* conn, const Frame& frame) {
  switch (static_cast<FrameType>(frame.type)) {
    case FrameType::kHello:
      return HandleHello(conn, frame.payload);
    case FrameType::kBatch:
      return HandleBatch(conn, frame.payload);
    case FrameType::kAdmin:
      return HandleAdmin(conn, frame.payload);
    case FrameType::kSubscriberAck: {
      if (!conn->hello_done || conn->role != PeerRole::kSubscriber) {
        SendError(conn, kErrWrongRole, "ack from a non-subscriber");
        return true;
      }
      SubscriberAckMessage msg;
      if (!DecodeSubscriberAck(frame.payload, &msg).ok()) {
        SendError(conn, kErrBadFrame, "bad subscriber ack");
        return true;
      }
      engine_->alerts().Ack(conn->subscriber_id, msg.acked_seq);
      ++conn->acks;
      acks_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    default:
      SendError(conn, kErrBadFrame,
                "unexpected frame type " + std::to_string(frame.type));
      return true;
  }
}

bool NetServer::HandleHello(Connection* conn, const std::string& payload) {
  HelloMessage hello;
  if (!DecodeHello(payload, &hello).ok()) {
    SendError(conn, kErrBadHello, "bad hello");
    return true;
  }
  if (conn->hello_done) {
    SendError(conn, kErrBadHello, "duplicate hello");
    return true;
  }
  HelloAckMessage ack;
  ack.next_seq = engine_->alerts().next_seq();
  if (hello.role == PeerRole::kSubscriber) {
    if (hello.subscriber_id.empty()) {
      SendError(conn, kErrBadHello, "subscriber needs an id");
      return false;
    }
    conn->role = PeerRole::kSubscriber;
    conn->subscriber_id = hello.subscriber_id;
    conn->pushed_seq =
        engine_->alerts().Attach(hello.subscriber_id, hello.resume_after);
    ack.resume_from = conn->pushed_seq;
    subscriber_count_.fetch_add(1, std::memory_order_relaxed);
  } else {
    conn->role = PeerRole::kProducer;
    producer_count_.fetch_add(1, std::memory_order_relaxed);
  }
  conn->hello_done = true;
  conn->QueueFrame(FrameType::kHelloAck, EncodeHelloAck(ack));
  if (conn->role == PeerRole::kSubscriber) PumpSubscriber(conn);
  return true;
}

bool NetServer::HandleBatch(Connection* conn, const std::string& payload) {
  if (!conn->hello_done || conn->role != PeerRole::kProducer) {
    SendError(conn, kErrWrongRole, "batch from a non-producer");
    return true;
  }
  BatchMessage batch;
  if (!DecodeBatch(payload, &batch).ok()) {
    SendError(conn, kErrBadFrame, "bad batch");
    return true;
  }
  conn->pending_batch = std::move(batch);
  conn->pending_run = 0;
  conn->pending_value = 0;
  conn->batch_accepted = 0;
  conn->batch_dropped = 0;
  if (!DrainPendingBatch(conn)) {
    conn->stalled = true;
    ++stalled_count_;
    ++conn->backpressure_episodes;
    backpressure_episodes_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

bool NetServer::HandleAdmin(Connection* conn, const std::string& payload) {
  AdminRequestMessage req;
  if (!DecodeAdminRequest(payload, &req).ok()) {
    SendError(conn, kErrBadFrame, "bad admin request");
    return true;
  }
  admin_requests_.fetch_add(1, std::memory_order_relaxed);
  AdminResultMessage result;
  switch (req.op) {
    case AdminOp::kPlacementDump: {
      result.ok = true;
      result.json = engine_->placement().ToJson();
      break;
    }
    case AdminOp::kMigrate: {
      if (req.stream > std::numeric_limits<StreamId>::max()) {
        result.ok = false;
        result.message = "stream id out of range";
        break;
      }
      const Status migrated = engine_->MigrateStream(
          static_cast<StreamId>(req.stream),
          static_cast<std::size_t>(req.shard));
      result.ok = migrated.ok();
      if (migrated.ok()) {
        AppendF(&result.json,
                "{\"stream\":%" PRIu64 ",\"shard\":%" PRIu64
                ",\"epoch\":%" PRIu64 "}",
                req.stream, req.shard, engine_->placement().epoch());
      } else {
        result.message = migrated.message();
      }
      break;
    }
  }
  conn->QueueFrame(FrameType::kAdminResult, EncodeAdminResult(result));
  return true;
}

bool NetServer::DrainPendingBatch(Connection* conn) {
  const std::vector<StreamRun>& runs = conn->pending_batch.runs;
  for (; conn->pending_run < runs.size();
       ++conn->pending_run, conn->pending_value = 0) {
    const StreamRun& run = runs[conn->pending_run];
    while (conn->pending_value < run.values.size()) {
      const Result<PostOutcome> posted = engine_->TryPost(
          static_cast<StreamId>(run.stream),
          run.values[conn->pending_value]);
      if (!posted.ok()) {
        // Unknown stream (or a stopping engine): the value is refused,
        // accounted to the producer in its ack, and the batch goes on.
        ++conn->batch_dropped;
        ++conn->pending_value;
        continue;
      }
      if (posted.value() == PostOutcome::kWouldBlock) return false;
      if (posted.value() == PostOutcome::kEnqueued) {
        ++conn->batch_accepted;
      } else {
        ++conn->batch_dropped;
      }
      ++conn->pending_value;
    }
  }
  BatchAckMessage ack;
  ack.accepted = conn->batch_accepted;
  ack.dropped = conn->batch_dropped;
  conn->QueueFrame(FrameType::kBatchAck, EncodeBatchAck(ack));
  ++conn->batches;
  conn->accepted += conn->batch_accepted;
  conn->dropped += conn->batch_dropped;
  batches_.fetch_add(1, std::memory_order_relaxed);
  accepted_.fetch_add(conn->batch_accepted, std::memory_order_relaxed);
  dropped_.fetch_add(conn->batch_dropped, std::memory_order_relaxed);
  conn->pending_batch.runs.clear();
  return true;
}

void NetServer::PumpSubscriber(Connection* conn) {
  if (!conn->hello_done || conn->role != PeerRole::kSubscriber) return;
  std::vector<SequencedAlert> fetched;
  while (!conn->outbound_full()) {
    fetched.clear();
    std::uint64_t skipped = 0;
    const std::size_t n = engine_->alerts().FetchAfter(
        conn->pushed_seq, kPumpChunk, &fetched, &skipped);
    if (skipped != 0) {
      // The log evicted part of this subscriber's backlog (a laggard at
      // capacity); jump the cursor and account the gap.
      conn->skipped_alerts += skipped;
      skipped_alerts_.fetch_add(skipped, std::memory_order_relaxed);
      conn->pushed_seq += skipped;
    }
    if (n == 0) break;
    for (const SequencedAlert& entry : fetched) {
      AlertFrameMessage msg;
      msg.seq = entry.seq;
      msg.json = AlertToJson(entry.alert, entry.seq);
      conn->QueueFrame(FrameType::kAlert, EncodeAlertFrame(msg));
      conn->pushed_seq = entry.seq;
      ++conn->alerts_sent;
      alerts_sent_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void NetServer::PumpAllSubscribers() {
  for (auto& [fd, conn] : connections_) {
    PumpSubscriber(conn.get());
    // A failed write leaves the socket in error, which epoll reports on
    // the next round; the loop then reads the peer's final acks before it
    // closes the connection.
    if (conn->OnWritable()) UpdateInterest(conn.get());
  }
}

void NetServer::SendError(Connection* conn, std::uint8_t code,
                          const std::string& message) {
  ErrorMessage msg;
  msg.code = code;
  msg.message = message;
  conn->QueueFrame(FrameType::kError, EncodeError(msg));
  ++conn->protocol_errors;
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::CloseConnection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  if (conn->stalled) --stalled_count_;
  if (conn->hello_done) {
    if (conn->role == PeerRole::kSubscriber) {
      // The cursor stays in the log: a reconnect with the same id
      // resumes after the last acknowledged alert.
      subscriber_count_.fetch_sub(1, std::memory_order_relaxed);
    } else {
      producer_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  connections_.erase(it);  // destructor closes the fd
  connection_count_.store(connections_.size(), std::memory_order_relaxed);
}

void NetServer::UpdateInterest(Connection* conn) {
  epoll_event ev{};
  ev.events = 0;
  if (!conn->stalled) ev.events |= EPOLLIN;
  if (conn->has_outbound()) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd(), &ev);
}

NetMetricsSnapshot NetServer::Metrics() const {
  const auto load64 = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  NetMetricsSnapshot snap;
  snap.connections = connection_count_.load(std::memory_order_relaxed);
  snap.producers = producer_count_.load(std::memory_order_relaxed);
  snap.subscribers = subscriber_count_.load(std::memory_order_relaxed);
  snap.accepted_connections = load64(accepted_connections_);
  snap.frames = load64(frames_);
  snap.corrupt_frames = load64(corrupt_frames_);
  snap.skipped_bytes = load64(skipped_bytes_);
  snap.batches = load64(batches_);
  snap.accepted = load64(accepted_);
  snap.dropped = load64(dropped_);
  snap.backpressure_episodes = load64(backpressure_episodes_);
  snap.alerts_sent = load64(alerts_sent_);
  snap.acks = load64(acks_);
  snap.protocol_errors = load64(protocol_errors_);
  snap.skipped_alerts = load64(skipped_alerts_);
  snap.admin_requests = load64(admin_requests_);
  return snap;
}

std::string NetServer::MetricsJson() const {
  const NetMetricsSnapshot s = Metrics();
  std::string body;
  body.reserve(512);
  AppendF(&body,
          "\"port\":%u,\"connections\":%zu,\"producers\":%zu"
          ",\"subscribers\":%zu,\"accepted_connections\":%" PRIu64,
          static_cast<unsigned>(port_), s.connections, s.producers,
          s.subscribers, s.accepted_connections);
  AppendF(&body,
          ",\"frames\":%" PRIu64 ",\"corrupt_frames\":%" PRIu64
          ",\"skipped_bytes\":%" PRIu64 ",\"batches\":%" PRIu64,
          s.frames, s.corrupt_frames, s.skipped_bytes, s.batches);
  AppendF(&body,
          ",\"accepted\":%" PRIu64 ",\"dropped\":%" PRIu64
          ",\"backpressure_episodes\":%" PRIu64 ",\"alerts_sent\":%" PRIu64,
          s.accepted, s.dropped, s.backpressure_episodes, s.alerts_sent);
  AppendF(&body,
          ",\"acks\":%" PRIu64 ",\"protocol_errors\":%" PRIu64
          ",\"skipped_alerts\":%" PRIu64 ",\"admin_requests\":%" PRIu64,
          s.acks, s.protocol_errors, s.skipped_alerts, s.admin_requests);
  // The "hub" object describes the engine's alert log (docs/NETWORK.md).
  // dropped_newest is read before published, so `stamped` cannot wrap.
  const AlertLog& log = engine_->alerts();
  const std::uint64_t dropped_newest = log.dropped_newest();
  const std::uint64_t stamped = log.published() - dropped_newest;
  AppendF(&body,
          ",\"hub\":{\"next_seq\":%" PRIu64 ",\"stamped\":%" PRIu64
          ",\"retained\":%zu,\"replay_high_water\":%zu",
          log.next_seq(), stamped, log.retained(), log.high_water());
  AppendF(&body,
          ",\"dropped_newest\":%" PRIu64 ",\"dropped_oldest\":%" PRIu64
          ",\"evicted\":%" PRIu64 ",\"block_waits\":%" PRIu64
          ",\"cursors\":%zu}",
          dropped_newest, log.dropped_oldest(), log.evicted(),
          log.block_waits(), log.Cursors().size());
  return MergeMetricsSection(engine_->MetricsJson(), "net", body);
}

}  // namespace stardust::net
