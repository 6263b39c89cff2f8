#include "query/alert_log.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/serialize.h"

namespace stardust {

namespace {

constexpr char kLogMagic[4] = {'S', 'D', 'N', 'H'};
constexpr std::uint32_t kLogVersion = 1;
constexpr char kCursorMagic[4] = {'S', 'D', 'N', 'C'};
constexpr std::uint32_t kCursorVersion = 1;
constexpr std::uint64_t kMaxIdBytes = 4096;
/// Serialized bytes per entry (seq + alert fields), for bounding a
/// declared entry count against the remaining payload.
constexpr std::uint64_t kMinEntryBytes = 8 + 8 + 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
/// Entries the delivery thread hands to the sinks per lock hold.
constexpr std::size_t kMaxDeliveryBatch = 64;

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SaveAlert(Writer* w, const Alert& alert) {
  w->U64(alert.query);
  w->U8(static_cast<std::uint8_t>(alert.kind));
  w->U32(alert.stream);
  w->U32(alert.stream_b);
  w->U64(alert.window);
  w->U64(alert.end_time);
  w->U64(alert.epoch);
  w->F64(alert.value);
  w->F64(alert.threshold);
}

Status LoadAlert(Reader* r, Alert* alert) {
  std::uint64_t query = 0;
  std::uint8_t kind = 0;
  std::uint64_t window = 0;
  SD_RETURN_NOT_OK(r->U64(&query));
  SD_RETURN_NOT_OK(r->U8(&kind));
  SD_RETURN_NOT_OK(r->U32(&alert->stream));
  SD_RETURN_NOT_OK(r->U32(&alert->stream_b));
  SD_RETURN_NOT_OK(r->U64(&window));
  SD_RETURN_NOT_OK(r->U64(&alert->end_time));
  SD_RETURN_NOT_OK(r->U64(&alert->epoch));
  SD_RETURN_NOT_OK(r->F64(&alert->value));
  SD_RETURN_NOT_OK(r->F64(&alert->threshold));
  if (kind > static_cast<std::uint8_t>(QueryKind::kSketch)) {
    return Status::InvalidArgument("unknown alert kind in hub snapshot");
  }
  alert->query = query;
  alert->kind = static_cast<QueryKind>(kind);
  alert->window = static_cast<std::size_t>(window);
  return Status::OK();
}

/// The cursor blob ("SDNC" v1): count, then per cursor its length-
/// prefixed id and acknowledged seq, in id order.
std::string SerializeCursors(
    const std::map<std::string, std::uint64_t>& cursors) {
  Writer payload;
  payload.U64(cursors.size());
  for (const auto& [id, seq] : cursors) {
    payload.U64(id.size());
    payload.Bytes(id.data(), id.size());
    payload.U64(seq);
  }
  return WrapEnvelope(kCursorMagic, kCursorVersion, payload.buffer());
}

/// Parses the cursor blob; every cursor must lie below `next_seq`.
Status ParseCursors(const std::string& bytes, std::uint64_t next_seq,
                    std::map<std::string, std::uint64_t>* cursors) {
  std::uint32_t version = 0;
  std::string payload;
  SD_RETURN_NOT_OK(UnwrapEnvelope(bytes, kCursorMagic,
                                  "cursor store snapshot", &version,
                                  &payload));
  if (version != kCursorVersion) {
    return Status::InvalidArgument("unsupported cursor store version");
  }
  Reader reader(payload);
  std::uint64_t count = 0;
  SD_RETURN_NOT_OK(reader.U64(&count));
  // Each entry is at least an id length plus a sequence number.
  if (count > reader.remaining() / 16) {
    return Status::InvalidArgument("cursor count out of range");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id_size = 0;
    SD_RETURN_NOT_OK(reader.U64(&id_size));
    if (id_size > kMaxIdBytes || id_size > reader.remaining()) {
      return Status::InvalidArgument("cursor id length out of range");
    }
    std::string id;
    SD_RETURN_NOT_OK(reader.Bytes(id_size, &id));
    std::uint64_t seq = 0;
    SD_RETURN_NOT_OK(reader.U64(&seq));
    if (seq >= next_seq) {
      return Status::InvalidArgument("cursor beyond the sequence allocator");
    }
    (*cursors)[std::move(id)] = seq;
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("cursor store has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

AlertLog::AlertLog(std::size_t capacity, OverloadPolicy policy)
    : capacity_(capacity), policy_(policy) {
  SD_CHECK(capacity_ > 0);
  delivery_ = std::thread([this] { DeliveryLoop(); });
}

AlertLog::~AlertLog() { (void)Stop(); }

AlertLog::SinkId AlertLog::AddSink(std::shared_ptr<AlertSink> sink) {
  SD_CHECK(sink != nullptr);
  std::lock_guard<std::mutex> lock(sinks_mu_);
  const SinkId id = next_sink_id_++;
  sinks_.emplace_back(id, std::move(sink));
  return id;
}

bool AlertLog::RemoveSink(SinkId id) {
  std::lock_guard<std::mutex> lock(sinks_mu_);
  for (auto it = sinks_.begin(); it != sinks_.end(); ++it) {
    if (it->first == id) {
      sinks_.erase(it);
      return true;
    }
  }
  return false;
}

void AlertLog::PruneLocked() {
  std::uint64_t bound = taken_;
  for (const auto& [id, acked] : cursors_) bound = std::min(bound, acked);
  while (!ring_.empty() && ring_.front().sequenced.seq <= bound) {
    ring_.pop_front();
  }
}

Status AlertLog::Append(std::span<const Alert> alerts) {
  const std::uint64_t now = NowNanos();
  Status status;
  bool appended = false;
  bool skipped = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const Alert& alert : alerts) {
      bool refused = false;
      while (!stopping_ && ring_.size() >= capacity_) {
        if (ring_.front().sequenced.seq <= taken_) {
          // Only subscribers still need it; they see the gap on fetch.
          ring_.pop_front();
          ++evicted_;
        } else if (policy_ == OverloadPolicy::kDropNewest) {
          refused = true;
          break;
        } else if (policy_ == OverloadPolicy::kDropOldest) {
          // Every entry past the delivery cursor is retained, so this is
          // taken_ + 1: the sinks skip it.
          taken_ = ring_.front().sequenced.seq;
          ring_.pop_front();
          ++dropped_oldest_;
          if (!in_flight_) delivered_seq_ = taken_;
          skipped = true;
        } else {
          ++block_waits_;
          not_full_.wait(lock, [this] {
            return stopping_ || ring_.size() < capacity_ ||
                   ring_.front().sequenced.seq <= taken_;
          });
        }
      }
      if (stopping_) {
        status = Status::Aborted("alert log is stopping");
        break;
      }
      ++published_;
      if (refused) {
        // Refused before it is numbered, so the sequence stays gap-free.
        ++dropped_newest_;
        continue;
      }
      ring_.push_back({{next_seq_++, alert}, now});
      high_water_ = std::max(high_water_, ring_.size());
      appended = true;
    }
  }
  // A kDropOldest skip may have moved the delivered watermark.
  if (skipped) delivered_cv_.notify_all();
  if (appended) {
    not_empty_.notify_one();
    // Called under wake_mu_ (never mu_): a server clearing its callback
    // before closing the eventfd must not race an in-flight write.
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (wake_) wake_();
  }
  return status;
}

void AlertLog::WaitDelivered(std::uint64_t seq) {
  std::unique_lock<std::mutex> lock(mu_);
  // Every numbered entry is delivered or skipped before the delivery
  // thread exits, so the clamped target is always reached.
  seq = std::min(seq, next_seq_ - 1);
  delivered_cv_.wait(lock, [this, seq] { return delivered_seq_ >= seq; });
}

Status AlertLog::Stop() {
  // Serialized so a second Stop (e.g. an explicit Stop followed by the
  // destructor) does not return before the first one has delivered the
  // tail and flushed the sinks.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stop_finished_) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  delivery_.join();
  // Final flush so file sinks are durable when Stop returns.
  Status status;
  {
    std::lock_guard<std::mutex> lock(sinks_mu_);
    for (auto& [id, sink] : sinks_) {
      const Status flushed = sink->Flush();
      if (status.ok()) status = flushed;
    }
  }
  stop_finished_ = true;
  return status;
}

void AlertLog::DeliveryLoop() {
  std::vector<Entry> batch;
  batch.reserve(kMaxDeliveryBatch);
  std::vector<std::shared_ptr<AlertSink>> sinks;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock,
                      [this] { return stopping_ || taken_ + 1 < next_seq_; });
      // Stopping with the tail delivered: exit.
      if (taken_ + 1 >= next_seq_) return;
      const std::uint64_t first = ring_.front().sequenced.seq;
      for (std::size_t i = taken_ + 1 - first;
           i < ring_.size() && batch.size() < kMaxDeliveryBatch; ++i) {
        batch.push_back(ring_[i]);
      }
      taken_ = batch.back().sequenced.seq;
      in_flight_ = true;
      PruneLocked();
    }
    not_full_.notify_all();
    {
      std::lock_guard<std::mutex> lock(sinks_mu_);
      sinks.clear();
      for (const auto& [id, sink] : sinks_) sinks.push_back(sink);
    }
    const std::uint64_t now = NowNanos();
    for (const Entry& entry : batch) {
      for (const auto& sink : sinks) sink->OnAlert(entry.sequenced.alert);
      delivery_latency_.Record(now >= entry.append_ns ? now - entry.append_ns
                                                      : 0);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ = false;
      delivered_ += batch.size();
      // Includes entries kDropOldest skipped while the batch was out.
      delivered_seq_ = taken_;
    }
    delivered_cv_.notify_all();
  }
}

std::uint64_t AlertLog::Attach(const std::string& id,
                               std::uint64_t resume_after) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t head = next_seq_ - 1;
  const auto [it, inserted] = cursors_.try_emplace(id, head);
  if (inserted && !ring_.empty()) it->second = ring_.front().sequenced.seq - 1;
  it->second = std::max(it->second, std::min(resume_after, head));
  PruneLocked();
  return it->second;
}

void AlertLog::Ack(const std::string& id, std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t& cursor = cursors_[id];
  cursor = std::max(cursor, std::min(seq, next_seq_ - 1));
  PruneLocked();
}

std::size_t AlertLog::FetchAfter(std::uint64_t after, std::size_t max,
                                 std::vector<SequencedAlert>* out,
                                 std::uint64_t* skipped) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (skipped != nullptr) *skipped = 0;
  if (after >= next_seq_ - 1) return 0;
  // after < head here, so after + 1 cannot wrap. Everything between the
  // cursor and the oldest retained entry was evicted.
  const std::uint64_t first =
      ring_.empty() ? next_seq_ : ring_.front().sequenced.seq;
  if (first > after + 1) {
    if (skipped != nullptr) *skipped = first - 1 - after;
    after = first - 1;
  }
  std::size_t copied = 0;
  for (std::size_t i = after + 1 - first; i < ring_.size() && copied < max;
       ++i, ++copied) {
    out->push_back(ring_[i].sequenced);
  }
  return copied;
}

Status AlertLog::SetWakeCallback(std::function<void()> wake) {
  std::lock_guard<std::mutex> lock(wake_mu_);
  if (wake && wake_) {
    return Status::FailedPrecondition(
        "the alert log already wakes a net server; one server per engine");
  }
  wake_ = std::move(wake);
  return Status::OK();
}

std::string AlertLog::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  Writer payload;
  payload.U64(next_seq_);
  const std::string cursor_bytes = SerializeCursors(cursors_);
  payload.U64(cursor_bytes.size());
  payload.Bytes(cursor_bytes.data(), cursor_bytes.size());
  payload.U64(ring_.size());
  for (const Entry& entry : ring_) {
    payload.U64(entry.sequenced.seq);
    SaveAlert(&payload, entry.sequenced.alert);
  }
  return WrapEnvelope(kLogMagic, kLogVersion, payload.buffer());
}

Status AlertLog::Restore(const std::string& bytes) {
  std::uint32_t version = 0;
  std::string payload;
  SD_RETURN_NOT_OK(UnwrapEnvelope(bytes, kLogMagic, "alert hub snapshot",
                                  &version, &payload));
  if (version != kLogVersion) {
    return Status::InvalidArgument("unsupported hub snapshot version");
  }

  Reader reader(payload);
  std::uint64_t next_seq = 0;
  SD_RETURN_NOT_OK(reader.U64(&next_seq));
  if (next_seq == 0) {
    return Status::InvalidArgument("hub snapshot sequence allocator at 0");
  }
  std::uint64_t cursor_size = 0;
  SD_RETURN_NOT_OK(reader.U64(&cursor_size));
  if (cursor_size > reader.remaining()) {
    return Status::InvalidArgument("hub cursor blob out of range");
  }
  std::string cursor_bytes;
  SD_RETURN_NOT_OK(reader.Bytes(cursor_size, &cursor_bytes));
  std::map<std::string, std::uint64_t> cursors;
  SD_RETURN_NOT_OK(ParseCursors(cursor_bytes, next_seq, &cursors));
  std::uint64_t num_entries = 0;
  SD_RETURN_NOT_OK(reader.U64(&num_entries));
  if (num_entries > reader.remaining() / kMinEntryBytes) {
    return Status::InvalidArgument("hub replay count out of range");
  }
  // The entries are consecutive and end at the allocator's last number,
  // as every append leaves them.
  std::deque<Entry> ring;
  for (std::uint64_t i = 0; i < num_entries; ++i) {
    Entry entry;
    SD_RETURN_NOT_OK(reader.U64(&entry.sequenced.seq));
    SD_RETURN_NOT_OK(LoadAlert(&reader, &entry.sequenced.alert));
    if (entry.sequenced.seq >= next_seq ||
        (ring.empty() ? entry.sequenced.seq == 0
                      : entry.sequenced.seq != ring.back().sequenced.seq + 1)) {
      return Status::InvalidArgument("hub replay sequence out of order");
    }
    ring.push_back(std::move(entry));
  }
  if (!ring.empty() && ring.back().sequenced.seq != next_seq - 1) {
    return Status::InvalidArgument("hub replay does not end at the allocator");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("hub snapshot has trailing bytes");
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (published_ != 0) {
    return Status::FailedPrecondition("restore into an alert log in use");
  }
  next_seq_ = next_seq;
  taken_ = next_seq - 1;
  delivered_seq_ = taken_;
  cursors_ = std::move(cursors);
  ring_ = std::move(ring);
  PruneLocked();
  high_water_ = std::max(high_water_, ring_.size());
  return Status::OK();
}

std::uint64_t AlertLog::published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

std::uint64_t AlertLog::delivered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delivered_;
}

std::uint64_t AlertLog::dropped_newest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_newest_;
}

std::uint64_t AlertLog::dropped_oldest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_oldest_;
}

std::uint64_t AlertLog::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

std::uint64_t AlertLog::block_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return block_waits_;
}

std::uint64_t AlertLog::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

std::size_t AlertLog::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::size_t AlertLog::high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

std::vector<std::pair<std::string, std::uint64_t>> AlertLog::Cursors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {cursors_.begin(), cursors_.end()};
}

}  // namespace stardust
