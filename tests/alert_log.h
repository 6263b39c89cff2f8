// AlertLog: a test sink recording the alerts an engine's bus delivers, for
// comparing alert multisets between engines or against a reference.
#ifndef STARDUST_TESTS_ALERT_LOG_H_
#define STARDUST_TESTS_ALERT_LOG_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "engine/engine.h"
#include "query/sinks.h"

namespace stardust {

class AlertLog {
 public:
  /// One delivered alert: (query, stream, end_time, value).
  using Key = std::tuple<QueryId, StreamId, std::uint64_t, double>;

  /// Records every alert `engine` delivers from now on. The sink shares
  /// the record, so either side may be destroyed first.
  explicit AlertLog(IngestEngine* engine)
      : record_(std::make_shared<Record>()) {
    engine->alerts().AddSink(std::make_shared<CallbackSink>(
        [record = record_](const Alert& alert) {
          std::lock_guard<std::mutex> lock(record->mu);
          record->keys.emplace_back(alert.query, alert.stream,
                                    alert.end_time, alert.value);
        }));
  }

  /// The recorded alerts, sorted.
  std::vector<Key> Sorted() const {
    std::vector<Key> keys;
    {
      std::lock_guard<std::mutex> lock(record_->mu);
      keys = record_->keys;
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// The recorded alerts of query `id`, sorted.
  std::vector<Key> Sorted(QueryId id) const {
    std::vector<Key> keys = Sorted();
    keys.erase(std::remove_if(keys.begin(), keys.end(),
                              [id](const Key& key) {
                                return std::get<0>(key) != id;
                              }),
               keys.end());
    return keys;
  }

 private:
  struct Record {
    std::mutex mu;
    std::vector<Key> keys;
  };
  std::shared_ptr<Record> record_;
};

}  // namespace stardust

#endif  // STARDUST_TESTS_ALERT_LOG_H_
