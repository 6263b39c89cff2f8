// AlertLog: the one ordered stream of alarms leaving the engine
// (docs/QUERIES.md, "The alert log"; docs/NETWORK.md for subscribers).
//
// Shard workers and the correlator append to one bounded ring; every
// append numbers its alerts 1, 2, ... under the log's mutex. Readers
// consume the ring at their own pace, in the style of a fault-tolerant
// data feed's joint:
//  - in-process sinks (AlertSink) through one delivery cursor, served in
//    order by one delivery thread;
//  - TCP subscribers (net/server.h) through one durable cursor each,
//    advanced by the subscriber's acknowledgements.
//
// Retention: an entry stays until the delivery cursor and every
// subscriber cursor have passed it, and retained() never exceeds the
// capacity. An append that finds the log full looks at the oldest entry:
//  - if the sinks have not received it yet, the overflow policy decides.
//    kBlock waits for the delivery thread (Aborted once Stop begins),
//    kDropNewest refuses the new alert before it is numbered, kDropOldest
//    evicts the old entry and the sinks skip it;
//  - if only subscribers still need it, it is evicted (counted in
//    evicted()) and they see the gap as `skipped` on their next fetch. A
//    subscriber, connected or gone, never blocks or refuses an append.
//
// Serialize()/Restore() carry the sequence allocator, every subscriber
// cursor and the retained entries: the checkpoint's net file, so after a
// restart subscribers replay from their acknowledged cursor with no loss
// and no sequence reuse.
#ifndef STARDUST_QUERY_ALERT_LOG_H_
#define STARDUST_QUERY_ALERT_LOG_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/latency_histogram.h"
#include "common/overload_policy.h"
#include "common/status.h"
#include "query/alert.h"

namespace stardust {

/// Receives alerts on the log's delivery thread. Implementations must be
/// internally synchronized if they are read from other threads, and must
/// not block indefinitely: a slow sink slows delivery for all sinks.
class AlertSink {
 public:
  virtual ~AlertSink() = default;
  virtual void OnAlert(const Alert& alert) = 0;
  /// Pushes buffered state to its destination (e.g. fsync for file
  /// sinks). Called by AlertLog::Stop after the final alert.
  virtual Status Flush() { return Status::OK(); }
};

/// One retained alert with its sequence number.
struct SequencedAlert {
  std::uint64_t seq = 0;
  Alert alert;
};

class AlertLog {
 public:
  using SinkId = std::uint64_t;

  /// `capacity` bounds the retained entries (> 0); `policy` picks what an
  /// append does when the sinks still need the oldest one. Starts the
  /// delivery thread. The ring grows on demand up to `capacity`.
  AlertLog(std::size_t capacity, OverloadPolicy policy);
  ~AlertLog();

  AlertLog(const AlertLog&) = delete;
  AlertLog& operator=(const AlertLog&) = delete;

  /// Registers a sink; delivery starts with the next dispatched alert.
  SinkId AddSink(std::shared_ptr<AlertSink> sink);
  /// Unregisters; returns false for an unknown id. The sink may still
  /// receive alerts of a batch already being delivered.
  bool RemoveSink(SinkId id);

  /// Numbers and appends `alerts` in order, then runs the wake callback
  /// once. Refusals under kDropNewest return OK and are counted; Aborted
  /// once Stop has begun (alerts before the refused one stay appended).
  Status Append(std::span<const Alert> alerts);
  Status Append(const Alert& alert) { return Append({&alert, 1}); }

  /// Blocks until the sinks have received (or skipped) every entry up to
  /// min(seq, head()). Returns after Stop too: Stop delivers the tail.
  void WaitDelivered(std::uint64_t seq);

  /// Aborts waiting appenders, delivers the tail, flushes every sink and
  /// joins the delivery thread. Returns the first sink flush error.
  /// Idempotent (a later call returns OK), and a concurrent second call
  /// returns only after the first has delivered and flushed.
  Status Stop();

  // --- Subscriber cursors (the net server's loop thread) ----------------
  /// Registers (or re-registers) subscriber `id` and returns the sequence
  /// its replay resumes after: the stored cursor, moved forward to
  /// `resume_after` clamped to the last numbered alert. A new id starts
  /// at the oldest retained entry, so it sees alerts from now on plus
  /// whatever is still held for other readers.
  std::uint64_t Attach(const std::string& id, std::uint64_t resume_after);
  /// Cumulative acknowledgement: moves `id`'s cursor forward to `seq`,
  /// clamped to the last numbered alert.
  void Ack(const std::string& id, std::uint64_t seq);
  /// Copies up to `max` retained entries with seq > after into `out`.
  /// `skipped` (may be null) receives how many sequence numbers in
  /// (after, first returned] are no longer retained.
  std::size_t FetchAfter(std::uint64_t after, std::size_t max,
                         std::vector<SequencedAlert>* out,
                         std::uint64_t* skipped) const;
  /// Installs the callback run after every append call, outside the log
  /// lock (the net server's loop wakeup). FailedPrecondition when one is
  /// already installed; null clears it, and no call of the old callback
  /// is in flight once the clearing call returns.
  Status SetWakeCallback(std::function<void()> wake);

  // --- Checkpoint state ("SDNH" v1, the checkpoint's net file) ----------
  std::string Serialize() const;
  /// Replaces the allocator, the cursors and the retained entries; the
  /// delivery cursor starts at the restored head, so restored entries
  /// serve subscribers only. FailedPrecondition after the first append.
  Status Restore(const std::string& bytes);

  // --- Counters ---------------------------------------------------------
  /// Alerts offered to Append and not aborted. Once delivery reaches the
  /// head, published == delivered + dropped_newest + dropped_oldest.
  std::uint64_t published() const;
  /// Entries the delivery thread passed, with or without sinks.
  std::uint64_t delivered() const;
  std::uint64_t dropped_newest() const;
  std::uint64_t dropped_oldest() const;
  /// Entries evicted that only subscribers still needed.
  std::uint64_t evicted() const;
  std::uint64_t block_waits() const;
  /// Last numbered sequence (0 before the first alert).
  std::uint64_t head() const;
  std::uint64_t next_seq() const { return head() + 1; }
  std::size_t retained() const;
  std::size_t high_water() const;
  /// Snapshot of every subscriber cursor (id -> acknowledged seq).
  std::vector<std::pair<std::string, std::uint64_t>> Cursors() const;
  /// Append-to-sink-handoff latency in nanoseconds.
  const LatencyHistogram& delivery_latency() const {
    return delivery_latency_;
  }

 private:
  struct Entry {
    SequencedAlert sequenced;
    std::uint64_t append_ns = 0;
  };

  void DeliveryLoop();
  /// Frees entries every cursor has passed. Caller holds mu_.
  void PruneLocked();

  const std::size_t capacity_;
  const OverloadPolicy policy_;

  /// Serializes Stop() so every caller returns after the tail is
  /// delivered and the sinks are flushed; guards stop_finished_.
  std::mutex stop_mu_;
  bool stop_finished_ = false;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable delivered_cv_;
  /// Consecutive sequence numbers; ring_.back() is the head.
  std::deque<Entry> ring_;
  std::uint64_t next_seq_ = 1;
  /// Delivery cursor: the last entry handed to (or skipped for) the sinks.
  std::uint64_t taken_ = 0;
  /// Last entry whose delivery completed: taken_ unless a batch is out.
  std::uint64_t delivered_seq_ = 0;
  bool in_flight_ = false;
  /// Subscriber id -> last acknowledged seq; ordered so Serialize is
  /// deterministic.
  std::map<std::string, std::uint64_t> cursors_;
  bool stopping_ = false;

  std::uint64_t published_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_newest_ = 0;
  std::uint64_t dropped_oldest_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t block_waits_ = 0;
  std::size_t high_water_ = 0;
  LatencyHistogram delivery_latency_;

  std::mutex sinks_mu_;
  std::vector<std::pair<SinkId, std::shared_ptr<AlertSink>>> sinks_;
  SinkId next_sink_id_ = 1;

  std::mutex wake_mu_;
  std::function<void()> wake_;

  std::thread delivery_;
};

}  // namespace stardust

#endif  // STARDUST_QUERY_ALERT_LOG_H_
