#include "net/cursor_store.h"

#include "common/serialize.h"

namespace stardust::net {

namespace {

constexpr char kCursorMagic[4] = {'S', 'D', 'N', 'C'};
constexpr std::uint32_t kCursorVersion = 1;
constexpr std::uint64_t kMaxIdBytes = 4096;

}  // namespace

std::uint64_t CursorStore::Get(const std::string& id) const {
  const auto it = cursors_.find(id);
  return it == cursors_.end() ? 0 : it->second;
}

void CursorStore::Advance(const std::string& id, std::uint64_t seq) {
  std::uint64_t& cursor = cursors_[id];
  if (seq > cursor) cursor = seq;
}

bool CursorStore::Erase(const std::string& id) {
  return cursors_.erase(id) != 0;
}

std::uint64_t CursorStore::MinAcked(bool* any) const {
  *any = !cursors_.empty();
  std::uint64_t min_acked = UINT64_MAX;
  for (const auto& [id, seq] : cursors_) {
    if (seq < min_acked) min_acked = seq;
  }
  return cursors_.empty() ? 0 : min_acked;
}

std::string CursorStore::Serialize() const {
  Writer payload;
  payload.U64(cursors_.size());
  for (const auto& [id, seq] : cursors_) {
    payload.U64(id.size());
    payload.Bytes(id.data(), id.size());
    payload.U64(seq);
  }
  return WrapEnvelope(kCursorMagic, kCursorVersion, payload.buffer());
}

Status CursorStore::Restore(const std::string& bytes) {
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
  std::map<std::string, std::uint64_t> restored;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id_size = 0;
    SD_RETURN_NOT_OK(reader.U64(&id_size));
    if (id_size > kMaxIdBytes || id_size > reader.remaining()) {
      return Status::InvalidArgument("cursor id length out of range");
    }
    std::string id(id_size, '\0');
    for (std::uint64_t k = 0; k < id_size; ++k) {
      std::uint8_t c = 0;
      SD_RETURN_NOT_OK(reader.U8(&c));
      id[k] = static_cast<char>(c);
    }
    std::uint64_t seq = 0;
    SD_RETURN_NOT_OK(reader.U64(&seq));
    restored[std::move(id)] = seq;
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("cursor store has trailing bytes");
  }
  cursors_ = std::move(restored);
  return Status::OK();
}

}  // namespace stardust::net
