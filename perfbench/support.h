// Helpers shared by the perfbench driver: seeded tapes and their digests,
// alert multisets, percentile and median estimators, the in-memory span
// recorder behind traced runs, host noise probes, and the result record
// printed as the driver's last line.
#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/shard.h"
#include "query/alert.h"

namespace perfbench {

using stardust::Alert;
using stardust::StreamId;
using stardust::StreamValue;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Digests ---------------------------------------------------------------

/// FNV-1a 64 over raw bytes, chainable through `seed`.
std::uint64_t Fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 14695981039346656037ULL);
std::string Hex64(std::uint64_t value);

// --- Tapes -----------------------------------------------------------------

/// The seeded input of one workload, generated before anything is timed.
/// `warm` brings every stream through `history` values (set-up); `timed`
/// is the measured phase, in posting order. Each entry of `runs` is one
/// PostBatch / one network frame: [begin, end) into `timed`.
struct Tape {
  std::size_t num_streams = 0;
  std::size_t run_length = 1;
  std::vector<StreamValue> warm;
  std::vector<StreamValue> timed;
  std::vector<std::pair<std::size_t, std::size_t>> runs;

  /// Digest over warm and timed tuples (stream id and value bits).
  std::uint64_t Digest() const;
  /// The sub-tape of the given streams (warm then timed), in order.
  std::vector<StreamValue> SubTape(const std::vector<StreamId>& streams) const;
};

// --- Alert multisets -------------------------------------------------------

/// The identity of an alert, without the shard epoch or round counter
/// (those name the evaluated state, which batching legitimately moves).
struct AlertKey {
  std::uint64_t query = 0;
  std::uint8_t kind = 0;
  std::uint32_t stream = 0;
  std::uint32_t stream_b = 0;
  std::uint64_t window = 0;
  std::uint64_t end_time = 0;
  std::uint64_t value_bits = 0;
  std::uint64_t threshold_bits = 0;
  auto operator<=>(const AlertKey&) const = default;
};
AlertKey KeyOf(const Alert& alert);
/// Order-independent digest of a multiset of alert keys.
std::uint64_t MultisetDigest(std::vector<AlertKey> keys);
/// The reference gate: true when both multisets have the same digest.
bool SameMultiset(const std::vector<AlertKey>& engine,
                  const std::vector<AlertKey>& reference);

// --- Statistics ------------------------------------------------------------

/// The p-quantile (0 < p < 1) of `samples` by nearest rank, or nullopt
/// when fewer than ten samples lie beyond it: a percentile is only
/// reported where the sample supports it.
std::optional<double> Percentile(std::vector<double> samples, double p);
/// Median of a non-empty sample (the midpoint of the two middle values
/// for an even count).
double Median(std::vector<double> samples);

// --- Spans -----------------------------------------------------------------

/// In-memory span recorder of a traced run. Not thread-safe: each thread
/// that records spans owns one. Disabled recorders cost one branch per
/// span.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index of the enclosing span, -1 for a root
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  std::int32_t Begin(const char* name);
  void End(std::int32_t id);
  /// Total duration and count of the spans named `name`.
  std::pair<double, std::size_t> TotalNs(const char* name) const;
  /// Sum of the span durations named `name` minus the time their direct
  /// children cover (a layer's self time).
  double SelfNs(const char* name) const;
  /// Appends one JSON line per span to `path` (tagged with `lane`).
  bool WriteJsonl(const std::string& path, const char* lane) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

// --- Host ------------------------------------------------------------------

/// Aggregate CPU jiffies from /proc/stat; steal share between two reads.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  static CpuTimes Read();
};
double StealFrac(const CpuTimes& before, const CpuTimes& after);
/// ru_maxrss of this process in MiB.
double PeakRssMiB();

// --- Result record ---------------------------------------------------------

/// What one invocation reports: the gates and every metric with its unit.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a correctness gate; a failed gate makes the run incorrect.
  void Gate(bool ok, const std::string& what);
  /// The driver's final line: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":..,"unit":..}}}.
  std::string Json() const;
};

/// printf-style line on stdout, prefixed "# " so the last line stays the
/// only JSON line.
void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
