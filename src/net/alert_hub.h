// AlertHub: the bounded fan-out stage between the in-process alert bus
// and any number of TCP subscribers (docs/NETWORK.md).
//
// Registered as one AlertSink on the engine's AlertBus, the hub stamps
// every delivered alert with a monotonically increasing sequence number
// (one total order for all subscribers — stamping happens on the bus's
// single dispatcher thread) and retains it in a bounded replay ring.
// Each subscriber owns a durable cursor (net/cursor_store.h): the server
// pushes alerts after the cursor and advances it on SubscriberAck, so a
// reconnecting subscriber resumes exactly where it acknowledged.
//
// Retention: an entry is pruned once every known cursor has acknowledged
// it. When laggards pin the ring at capacity, the hub applies the same
// OverloadPolicy vocabulary as the bus and the ingest rings:
//   kDropOldest (default) — evict the oldest retained alert; subscribers
//     still behind it observe a cursor jump, surfaced per fetch in
//     `skipped` and counted in dropped_oldest().
//   kDropNewest — refuse the incoming alert before a sequence number is
//     assigned (no gap is ever created), counted in dropped_newest().
//   kBlock — stall the bus dispatcher until a subscriber ack frees space
//     (transitive backpressure all the way to query evaluation).
//
// Serialize()/Restore() capture the sequence allocator, every cursor,
// and the retained ring, and ride the engine checkpoint as the
// checkpoint's net file — after a restart subscribers replay from their
// acknowledged cursor with no loss and no sequence reuse.
#ifndef STARDUST_NET_ALERT_HUB_H_
#define STARDUST_NET_ALERT_HUB_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/overload_policy.h"
#include "common/status.h"
#include "net/cursor_store.h"
#include "query/alert_bus.h"

namespace stardust::net {

/// One retained alert with its assigned sequence number.
struct SequencedAlert {
  std::uint64_t seq = 0;
  Alert alert;
};

class AlertHub : public AlertSink {
 public:
  struct Options {
    /// Alerts retained for replay (> 0).
    std::size_t replay_capacity = 1 << 16;
    /// Slow-subscriber behavior once the ring is pinned at capacity.
    OverloadPolicy overflow = OverloadPolicy::kDropOldest;
  };

  AlertHub();
  explicit AlertHub(Options options);

  // --- AlertSink (bus dispatcher thread) --------------------------------
  void OnAlert(const Alert& alert) override;

  // --- Subscriber/cursor API (server thread; internally locked) ---------
  /// Registers (or re-registers) a subscriber and returns the sequence
  /// its replay resumes after: max(resume_after, stored cursor). The
  /// cursor survives disconnects; reconnecting with a fresher
  /// resume_after fast-forwards it.
  std::uint64_t Attach(const std::string& id, std::uint64_t resume_after);
  /// Advances a subscriber's cursor (cumulative ack) and prunes fully
  /// acknowledged entries.
  void Ack(const std::string& id, std::uint64_t seq);
  /// Copies up to `max` retained alerts with seq > after into `out`.
  /// `skipped` (may be null) receives the count of sequence numbers in
  /// (after, first returned) that are no longer retained — the cursor
  /// jump a laggard experiences under the drop policies.
  std::size_t FetchAfter(std::uint64_t after, std::size_t max,
                         std::vector<SequencedAlert>* out,
                         std::uint64_t* skipped) const;

  /// Callback invoked (outside the hub lock) after every stamped alert —
  /// the server points this at its epoll wakeup.
  void SetWakeCallback(std::function<void()> wake);
  /// Unblocks a kBlock OnAlert permanently (shutdown path).
  void RequestStop();

  // --- Checkpoint state (engine/checkpoint.h, the checkpoint's net file) -
  std::string Serialize() const;
  Status Restore(const std::string& bytes);

  // --- Counters ---------------------------------------------------------
  /// Next unassigned sequence number (stamped alerts are 1..next_seq-1).
  std::uint64_t next_seq() const;
  std::uint64_t stamped() const;
  std::uint64_t dropped_newest() const;
  std::uint64_t dropped_oldest() const;
  std::uint64_t block_waits() const;
  std::size_t retained() const;
  std::size_t replay_high_water() const;
  std::size_t capacity() const { return options_.replay_capacity; }
  OverloadPolicy overflow() const { return options_.overflow; }
  /// Snapshot of every known cursor (id -> acked seq).
  std::vector<std::pair<std::string, std::uint64_t>> Cursors() const;

 private:
  /// Drops every entry all cursors have acknowledged. Caller holds mu_.
  void PruneAckedLocked();

  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable space_;
  std::deque<SequencedAlert> replay_;
  CursorStore cursors_;
  std::uint64_t next_seq_ = 1;
  bool stopping_ = false;

  std::uint64_t stamped_ = 0;
  std::uint64_t dropped_newest_ = 0;
  std::uint64_t dropped_oldest_ = 0;
  std::uint64_t block_waits_ = 0;
  std::size_t replay_high_water_ = 0;

  std::mutex wake_mu_;
  std::function<void()> wake_;
};

}  // namespace stardust::net

#endif  // STARDUST_NET_ALERT_HUB_H_
