// Pluggable alert sinks for the alert log (src/query/alert_log.h).
//
//  - CallbackSink: invokes a user function per alert on the delivery
//    thread (the in-process subscriber).
//  - RingSink: keeps the most recent alerts in memory behind a mutex —
//    the test/debug subscriber.
//  - JsonlFileSink: appends one JSON line per alert to a file, following
//    the durability conventions of common/atomic_file: an explicit
//    fsync cadence, and a final flush+fsync on Flush()/close so that
//    everything delivered before a clean Stop survives a crash. (Unlike
//    snapshots, an alert log is append-only, so atomic whole-file
//    replacement does not apply; a torn final line after a hard crash is
//    possible and readers must tolerate it — see docs/QUERIES.md.)
#ifndef STARDUST_QUERY_SINKS_H_
#define STARDUST_QUERY_SINKS_H_

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "query/alert_log.h"

namespace stardust {

/// Invokes `fn` for every delivered alert on the delivery thread.
class CallbackSink : public AlertSink {
 public:
  explicit CallbackSink(std::function<void(const Alert&)> fn)
      : fn_(std::move(fn)) {}

  void OnAlert(const Alert& alert) override { fn_(alert); }

 private:
  std::function<void(const Alert&)> fn_;
};

/// Retains the most recent `keep` alerts; snapshot-readable from any
/// thread. Total count keeps counting past the retention bound.
class RingSink : public AlertSink {
 public:
  explicit RingSink(std::size_t keep = 1024) : keep_(keep) {}

  void OnAlert(const Alert& alert) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++total_;
    alerts_.push_back(alert);
    if (alerts_.size() > keep_) alerts_.pop_front();
  }

  /// The retained alerts, oldest first.
  std::vector<Alert> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<Alert>(alerts_.begin(), alerts_.end());
  }

  /// Alerts ever delivered to this sink.
  std::uint64_t total() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

 private:
  const std::size_t keep_;
  mutable std::mutex mu_;
  std::deque<Alert> alerts_;
  std::uint64_t total_ = 0;
};

/// Appends AlertToJson(alert) + '\n' per alert. `fsync_every` > 0 makes
/// every Nth alert durable immediately; 0 defers durability to Flush()
/// (which AlertLog::Stop calls) — the throughput-friendly default.
class JsonlFileSink : public AlertSink {
 public:
  /// Opens `path` for appending (created if missing).
  static Result<std::unique_ptr<JsonlFileSink>> Open(
      const std::string& path, std::size_t fsync_every = 0);
  ~JsonlFileSink() override;

  void OnAlert(const Alert& alert) override;
  /// fflush + fsync.
  Status Flush() override;

  const std::string& path() const { return path_; }
  /// Alerts written since open.
  std::uint64_t written() const { return written_; }

 private:
  JsonlFileSink(std::string path, std::FILE* file, std::size_t fsync_every)
      : path_(std::move(path)), file_(file), fsync_every_(fsync_every) {}

  const std::string path_;
  std::FILE* file_;
  const std::size_t fsync_every_;
  std::uint64_t written_ = 0;
};

}  // namespace stardust

#endif  // STARDUST_QUERY_SINKS_H_
