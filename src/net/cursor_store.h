// Durable subscriber cursors: subscriber id -> highest acknowledged
// alert sequence number. Owned by the AlertHub (net/alert_hub.h), which
// guards it with its own mutex; this class itself is thread-compatible,
// not thread-safe. Serialization uses the shared envelope
// (common/serialize.h: magic + version + FNV-1a payload checksum) so the
// bytes ride the engine checkpoint and restore losslessly (the
// checkpoint's net file, engine/checkpoint.h).
#ifndef STARDUST_NET_CURSOR_STORE_H_
#define STARDUST_NET_CURSOR_STORE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace stardust::net {

class CursorStore {
 public:
  /// Highest acknowledged sequence of `id`; 0 when unknown.
  std::uint64_t Get(const std::string& id) const;

  /// Advances `id`'s cursor to `seq` (cursors never move backwards, so a
  /// reordered or replayed ack is harmless).
  void Advance(const std::string& id, std::uint64_t seq);

  /// Removes a subscriber's cursor (operator-driven forget; a plain
  /// disconnect keeps the cursor for resume).
  bool Erase(const std::string& id);

  std::size_t size() const { return cursors_.size(); }
  /// Smallest cursor across all subscribers; `everyone_past` receives
  /// false when the store is empty (no bound to report).
  std::uint64_t MinAcked(bool* any) const;

  const std::map<std::string, std::uint64_t>& cursors() const {
    return cursors_;
  }

  std::string Serialize() const;
  Status Restore(const std::string& bytes);

 private:
  /// Ordered so serialization is deterministic.
  std::map<std::string, std::uint64_t> cursors_;
};

}  // namespace stardust::net

#endif  // STARDUST_NET_CURSOR_STORE_H_
