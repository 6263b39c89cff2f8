// perfbench_driver: runs one Stardust benchmark workload and prints its
// metrics. See perfbench/README.md.
//
//   perfbench_driver --workload agg_fanout --seed 1 --seconds 10 --trace 0
//   perfbench_driver --self-test
//
// Every line but the last starts with "# " (host record, per-repetition
// figures, correctness notes); the last line is one JSON object with the
// keys correct, attempted, failed and metrics. The exit code is 0 only
// when every correctness gate held.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <agg_fanout|mixed_runs|"
               "net_alerts> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-path <file>]\n"
               "       perfbench_driver --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return RunSelfTests() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-path") {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0.0)) return Usage();
  stardust::Result<Workload> made = MakeWorkload(workload, seed);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return Usage();
  }
  const Workload& w = made.value();
  Note("workload %s, seed %llu, seconds %.3g, trace %d, %zu streams, "
       "%zu timed tuples in %zu runs",
       w.name.c_str(), static_cast<unsigned long long>(seed), options.seconds,
       options.trace ? 1 : 0, w.tape.num_streams, w.tape.timed.size(),
       w.tape.runs.size());
  Report report = RunWorkload(w, options);
  for (const auto& [name, entry] : report.metrics) {
    report.Gate(std::isfinite(entry.first), "metric " + name + " is not finite");
    Note("%s = %.6g %s", name.c_str(), entry.first, entry.second.c_str());
  }
  if (!report.correct) {
    for (const std::string& failure : report.failures) {
      std::fprintf(stderr, "perfbench: gate failed: %s\n", failure.c_str());
    }
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct ? 0 : 1;
}
