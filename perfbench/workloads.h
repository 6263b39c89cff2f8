// The three perfbench workloads: how each is configured, how its seeded
// tape is generated, and how one invocation runs it (normal or traced).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"
#include "engine/engine_config.h"
#include "net/codec.h"
#include "query/query_spec.h"
#include "stream/threshold.h"
#include "support.h"

namespace perfbench {

/// Run index of a stream-time position that belongs to the warm-up.
inline constexpr std::uint32_t kWarmRun = 0xffffffffu;

/// Everything a run needs besides its timing options. The engine is
/// configured the way stardust_server configures it: fleet thresholds
/// parked at 1e18, so alerts come only from registered queries.
struct Workload {
  std::string name;
  stardust::StardustConfig fleet;
  std::vector<stardust::WindowThreshold> fleet_thresholds;
  stardust::EngineConfig engine;
  /// Registered in order; a correlation query, if any, comes last so the
  /// reference engine (which has no correlator) assigns the same ids.
  std::vector<stardust::QuerySpec> queries;
  Tape tape;
  /// Streams replayed through the per-tuple reference engine.
  std::vector<StreamId> sampled;
  /// Closed loop: the generator posts the next run as soon as PostBatch
  /// returns. Open loop (net_alerts): runs are sent over the network at
  /// `rate_aps` regardless of how fast the server answers.
  bool closed_loop = true;
  double rate_aps = 0.0;
  /// Closed loop with a paced tail (mixed_runs): the last `paced_runs`
  /// runs of the tape are posted after the closed-loop phase, on the same
  /// engine, one run every run_length / `rate_aps` seconds. Alert latency
  /// is taken from these runs only; throughput from the closed phase only.
  std::size_t paced_runs = 0;
  /// mixed_runs: Flush + TriggerCorrelatorRound after every this many
  /// timed tuples of the closed-loop phase (0: never).
  std::size_t round_every = 0;
  /// net_alerts: per timed run, whether it carries a threshold crossing.
  std::vector<char> spike;
  /// run_of[stream][stream time] -> index into tape.runs (kWarmRun for
  /// warm-up positions): maps an alert's end_time to the run that was
  /// posted (or due) when its crossing tuple left the generator.
  std::vector<std::vector<std::uint32_t>> run_of;
};

/// Layer configurations shared by mixed_runs and the layer replay.
stardust::StardustConfig PatternCoreConfig();
stardust::StardustConfig CorrelationCoreConfig();
stardust::SketchConfig DistinctSketchConfig();
stardust::SketchConfig QuantileSketchConfig();

/// Builds the named workload from `seed`; InvalidArgument for an unknown
/// name. The same seed gives the same tape.
stardust::Result<Workload> MakeWorkload(const std::string& name,
                                        std::uint64_t seed);
/// The names MakeWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Builds Workload::run_of for a tape.
std::vector<std::vector<std::uint32_t>> BuildRunIndex(const Tape& tape);
/// The timed run (index into tape.runs) that carried the tuple at
/// position `end_time` of `stream` — the run an alert with that end_time
/// was raised by; kWarmRun for warm-up positions and positions past the
/// tape.
std::uint32_t RunOfAlert(const Workload& workload, StreamId stream,
                         std::uint64_t end_time);
/// When run `run` of an open loop starting at `start_ns` is due.
std::int64_t DueNs(std::int64_t start_ns, double interval_ns, std::size_t run);

/// One network frame (or PostBatch unit) of tape tuples [begin, end):
/// consecutive tuples of one stream become one StreamRun.
stardust::net::BatchMessage FrameOf(const std::vector<StreamValue>& tuples,
                                    std::size_t begin, std::size_t end);

struct RunOptions {
  double seconds = 10.0;
  bool trace = false;
  /// Span dump of a traced run (JSON lines); empty to skip.
  std::string trace_path;
};

/// Runs repetitions of the workload until `seconds` of measurement have
/// passed, checks every correctness gate, and returns the report (end-to-
/// end metrics, or per-layer metrics when tracing).
Report RunWorkload(const Workload& workload, const RunOptions& options);

/// Single-threaded replay of the timed tape through the layer objects
/// (src/core, src/engine, src/sketch, src/net), one span per batch of
/// calls; adds the core.*, sketch.*, net.* codec and engine.pipeline /
/// finish metrics to `report`.
void ReplayLayers(const Workload& workload, Tracer& tracer, Report* report);

/// Helper self-tests (`--self-test`); returns the number of failures.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
