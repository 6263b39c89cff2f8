#include "net/alert_hub.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/serialize.h"

namespace stardust::net {

namespace {

constexpr char kHubMagic[4] = {'S', 'D', 'N', 'H'};
constexpr std::uint32_t kHubVersion = 1;
/// Serialized bytes per ring entry (seq + alert fields), for bounding a
/// declared entry count against the remaining payload.
constexpr std::uint64_t kMinEntryBytes = 8 + 8 + 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8;

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
  if (kind > static_cast<std::uint8_t>(QueryKind::kCorrelation)) {
    return Status::InvalidArgument("unknown alert kind in hub snapshot");
  }
  alert->query = query;
  alert->kind = static_cast<QueryKind>(kind);
  alert->window = static_cast<std::size_t>(window);
  return Status::OK();
}

}  // namespace

AlertHub::AlertHub() : AlertHub(Options{}) {}

AlertHub::AlertHub(Options options) : options_(options) {
  SD_CHECK(options_.replay_capacity > 0);
}

void AlertHub::OnAlert(const Alert& alert) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (replay_.size() >= options_.replay_capacity) {
      switch (options_.overflow) {
        case OverloadPolicy::kDropNewest:
          // Refused before a sequence number is assigned, so the stamped
          // stream stays gap-free; the alert simply never reaches the
          // network tier (the bus already delivered it in-process).
          ++dropped_newest_;
          return;
        case OverloadPolicy::kDropOldest:
          while (replay_.size() >= options_.replay_capacity) {
            replay_.pop_front();
            ++dropped_oldest_;
          }
          break;
        case OverloadPolicy::kBlock: {
          ++block_waits_;
          space_.wait(lock, [this] {
            return replay_.size() < options_.replay_capacity || stopping_;
          });
          if (stopping_ && replay_.size() >= options_.replay_capacity) {
            ++dropped_newest_;
            return;  // shutting down; do not stall the bus forever
          }
          break;
        }
      }
    }
    SequencedAlert entry;
    entry.seq = next_seq_++;
    entry.alert = alert;
    replay_.push_back(entry);
    ++stamped_;
    replay_high_water_ = std::max(replay_high_water_, replay_.size());
  }
  std::function<void()> wake;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake = wake_;
  }
  if (wake) wake();
}

std::uint64_t AlertHub::Attach(const std::string& id,
                               std::uint64_t resume_after) {
  std::lock_guard<std::mutex> lock(mu_);
  cursors_.Advance(id, resume_after);
  // Touch the cursor even at 0 so retention starts honoring this
  // subscriber immediately.
  if (resume_after == 0) cursors_.Advance(id, 0);
  PruneAckedLocked();
  return cursors_.Get(id);
}

void AlertHub::Ack(const std::string& id, std::uint64_t seq) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cursors_.Advance(id, seq);
    PruneAckedLocked();
  }
  space_.notify_all();
}

void AlertHub::PruneAckedLocked() {
  bool any = false;
  const std::uint64_t min_acked = cursors_.MinAcked(&any);
  if (!any) return;
  while (!replay_.empty() && replay_.front().seq <= min_acked) {
    replay_.pop_front();
  }
}

std::size_t AlertHub::FetchAfter(std::uint64_t after, std::size_t max,
                                 std::vector<SequencedAlert>* out,
                                 std::uint64_t* skipped) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (skipped != nullptr) *skipped = 0;
  // First retained sequence a fetch at `after` could possibly return;
  // everything between the cursor and it is gone (acked away for this
  // cursor means after >= it, so any true gap here is a drop).
  const std::uint64_t first_available =
      replay_.empty() ? next_seq_ : replay_.front().seq;
  if (skipped != nullptr && first_available > after + 1) {
    *skipped = first_available - 1 - after;
  }
  // Binary search: replay_ is ordered by strictly increasing seq.
  auto it = std::lower_bound(
      replay_.begin(), replay_.end(), after + 1,
      [](const SequencedAlert& e, std::uint64_t seq) { return e.seq < seq; });
  std::size_t copied = 0;
  for (; it != replay_.end() && copied < max; ++it, ++copied) {
    out->push_back(*it);
  }
  return copied;
}

void AlertHub::SetWakeCallback(std::function<void()> wake) {
  std::lock_guard<std::mutex> lock(wake_mu_);
  wake_ = std::move(wake);
}

void AlertHub::RequestStop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  space_.notify_all();
}

std::string AlertHub::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  Writer payload;
  payload.U64(next_seq_);
  const std::string cursor_bytes = cursors_.Serialize();
  payload.U64(cursor_bytes.size());
  payload.Bytes(cursor_bytes.data(), cursor_bytes.size());
  payload.U64(replay_.size());
  for (const SequencedAlert& entry : replay_) {
    payload.U64(entry.seq);
    SaveAlert(&payload, entry.alert);
  }
  return WrapEnvelope(kHubMagic, kHubVersion, payload.buffer());
}

Status AlertHub::Restore(const std::string& bytes) {
  std::uint32_t version = 0;
  std::string payload;
  SD_RETURN_NOT_OK(UnwrapEnvelope(bytes, kHubMagic, "alert hub snapshot",
                                  &version, &payload));
  if (version != kHubVersion) {
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
  std::string cursor_bytes(cursor_size, '\0');
  for (std::uint64_t i = 0; i < cursor_size; ++i) {
    std::uint8_t c = 0;
    SD_RETURN_NOT_OK(reader.U8(&c));
    cursor_bytes[i] = static_cast<char>(c);
  }
  CursorStore cursors;
  SD_RETURN_NOT_OK(cursors.Restore(cursor_bytes));
  std::uint64_t num_entries = 0;
  SD_RETURN_NOT_OK(reader.U64(&num_entries));
  if (num_entries > reader.remaining() / kMinEntryBytes) {
    return Status::InvalidArgument("hub replay count out of range");
  }
  std::deque<SequencedAlert> replay;
  std::uint64_t prev_seq = 0;
  for (std::uint64_t i = 0; i < num_entries; ++i) {
    SequencedAlert entry;
    SD_RETURN_NOT_OK(reader.U64(&entry.seq));
    SD_RETURN_NOT_OK(LoadAlert(&reader, &entry.alert));
    if (entry.seq <= prev_seq || entry.seq >= next_seq) {
      return Status::InvalidArgument("hub replay sequence out of order");
    }
    prev_seq = entry.seq;
    replay.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("hub snapshot has trailing bytes");
  }

  std::lock_guard<std::mutex> lock(mu_);
  next_seq_ = next_seq;
  cursors_ = std::move(cursors);
  replay_ = std::move(replay);
  replay_high_water_ = std::max(replay_high_water_, replay_.size());
  return Status::OK();
}

std::uint64_t AlertHub::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::uint64_t AlertHub::stamped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stamped_;
}

std::uint64_t AlertHub::dropped_newest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_newest_;
}

std::uint64_t AlertHub::dropped_oldest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_oldest_;
}

std::uint64_t AlertHub::block_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return block_waits_;
}

std::size_t AlertHub::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replay_.size();
}

std::size_t AlertHub::replay_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return replay_high_water_;
}

std::vector<std::pair<std::string, std::uint64_t>> AlertHub::Cursors() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(cursors_.cursors().size());
  for (const auto& [id, seq] : cursors_.cursors()) {
    out.emplace_back(id, seq);
  }
  return out;
}

}  // namespace stardust::net
