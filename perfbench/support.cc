#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

std::uint64_t Fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

namespace {

std::uint64_t DigestTuples(const std::vector<StreamValue>& tuples,
                           std::uint64_t seed) {
  for (const StreamValue& tuple : tuples) {
    seed = Fnv1a(&tuple.stream, sizeof(tuple.stream), seed);
    seed = Fnv1a(&tuple.value, sizeof(tuple.value), seed);
  }
  return seed;
}

}  // namespace

std::uint64_t Tape::Digest() const {
  return DigestTuples(timed, DigestTuples(warm, Fnv1a(nullptr, 0)));
}

std::vector<StreamValue> Tape::SubTape(
    const std::vector<StreamId>& streams) const {
  std::vector<char> keep(num_streams, 0);
  for (StreamId s : streams) keep[s] = 1;
  std::vector<StreamValue> out;
  for (const auto* part : {&warm, &timed}) {
    for (const StreamValue& tuple : *part) {
      if (keep[tuple.stream]) out.push_back(tuple);
    }
  }
  return out;
}

AlertKey KeyOf(const Alert& alert) {
  AlertKey key;
  key.query = alert.query;
  key.kind = static_cast<std::uint8_t>(alert.kind);
  key.stream = alert.stream;
  key.stream_b = alert.stream_b;
  key.window = alert.window;
  key.end_time = alert.end_time;
  std::memcpy(&key.value_bits, &alert.value, sizeof(double));
  std::memcpy(&key.threshold_bits, &alert.threshold, sizeof(double));
  return key;
}

std::uint64_t MultisetDigest(std::vector<AlertKey> keys) {
  std::sort(keys.begin(), keys.end());
  std::uint64_t hash = Fnv1a(nullptr, 0);
  for (const AlertKey& k : keys) {
    for (std::uint64_t field :
         {k.query, std::uint64_t{k.kind}, std::uint64_t{k.stream},
          std::uint64_t{k.stream_b}, k.window, k.end_time, k.value_bits,
          k.threshold_bits}) {
      hash = Fnv1a(&field, sizeof(field), hash);
    }
  }
  return hash;
}

bool SameMultiset(const std::vector<AlertKey>& engine,
                  const std::vector<AlertKey>& reference) {
  return MultisetDigest(engine) == MultisetDigest(reference);
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || !(p > 0.0 && p < 1.0)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n)));  // 1-based nearest rank
  if (rank == 0 || n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::int32_t Tracer::Begin(const char* name) {
  spans_.push_back(Span{name, NowNs(), 0, open_});
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::End(std::int32_t id) {
  spans_[id].end_ns = NowNs();
  open_ = spans_[id].parent;
}

std::pair<double, std::size_t> Tracer::TotalNs(const char* name) const {
  double total = 0.0;
  std::size_t count = 0;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) != 0) continue;
    total += static_cast<double>(span.end_ns - span.start_ns);
    ++count;
  }
  return {total, count};
}

double Tracer::SelfNs(const char* name) const {
  double self = TotalNs(name).first;
  for (const Span& span : spans_) {
    if (span.parent >= 0 && std::strcmp(spans_[span.parent].name, name) == 0) {
      self -= static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return self;
}

bool Tracer::WriteJsonl(const std::string& path, const char* lane) const {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"lane\":\"%s\",\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%d}\n",
                 lane, i, span.name, span.start_ns, span.end_ns, span.parent);
  }
  return std::fclose(file) == 0;
}

CpuTimes CpuTimes::Read() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return times;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    times.total += value;
    if (i == 7) times.steal = value;
  }
  return times;
}

double StealFrac(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics) {
    char value[64];
    // %.17g keeps every digit the measurement has; non-finite values are
    // not JSON numbers and are reported as 0 with the gate failing.
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entry.first) ? entry.first : 0.0);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  return out;
}

void Note(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
