// stardust_server — the network front door as a standalone process.
//
//   stardust_server --streams M [--shards n] [--port p] [--host addr]
//                   [--base K] [--agg-window W] [--agg-threshold T]
//                   [--overload block|drop-newest|drop-oldest]
//                   [--queue-capacity c] [--max-connections n]
//                   [--replay n] [--checkpoint dir] [--checkpoint-period ms]
//                   [--metrics-period s] [--duration s]
//
// Boots a sharded IngestEngine, registers an aggregate threshold query
// when --agg-threshold is given, and serves the binary frame protocol
// (docs/NETWORK.md) on the given port: producers stream Batch frames in,
// subscribers get every alert pushed with a durable, resumable cursor.
//
//   --replay sets the engine's alert-log capacity (default 65536): the
//     alerts retained for subscribers that have not acknowledged them.
//     A laggard past it loses the oldest and sees the gap as
//     skipped_alerts; it never stalls ingestion.
//   --port 0 (the default) binds an ephemeral port; the actual port is
//     printed on stderr as "listening on <host>:<port>".
//   --checkpoint names a directory to restore from at boot (when it
//     holds a complete checkpoint) and to checkpoint into every
//     --checkpoint-period ms (default 2000) plus once at shutdown —
//     subscriber cursors, the alert sequence allocator and the retained
//     alerts ride along in the checkpoint's net file (docs/NETWORK.md),
//     so reconnecting subscribers resume across restarts.
//   --metrics-period prints the merged engine+net metrics JSON on stdout
//     every s seconds (0 disables; default 10).
//   --duration exits after s seconds; default 0 runs until SIGINT/SIGTERM.
//
// Producer/subscriber counterparts live in stardust_cli (`ingest` and
// `subscribe --tcp`).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <chrono>
#include <memory>
#include <thread>

#include "engine/engine.h"
#include "net/server.h"
#include "stream/threshold.h"

namespace {

using namespace stardust;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct Args {
  std::map<std::string, std::string> options;

  double GetDouble(const std::string& key, double fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : std::atof(it->second.c_str());
  }
  std::size_t GetSize(const std::string& key, std::size_t fallback) const {
    auto it = options.find(key);
    return it == options.end()
               ? fallback
               : static_cast<std::size_t>(
                     std::strtoull(it->second.c_str(), nullptr, 10));
  }
  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

bool ParsePolicy(const std::string& name, OverloadPolicy* out) {
  if (name == "block") {
    *out = OverloadPolicy::kBlock;
  } else if (name == "drop-newest") {
    *out = OverloadPolicy::kDropNewest;
  } else if (name == "drop-oldest") {
    *out = OverloadPolicy::kDropOldest;
  } else {
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: stardust_server --streams M [--shards n] [--port p] "
               "[--agg-window W --agg-threshold T] [--checkpoint dir] ...\n"
               "see the header of examples/stardust_server.cpp for the "
               "full option list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) return Usage();
    args.options[arg.substr(2)] = argv[++i];
  }
  if (args.options.count("streams") == 0) return Usage();
  const std::size_t num_streams = args.GetSize("streams", 0);
  if (num_streams == 0) return Usage();

  const std::size_t base = args.GetSize("base", 10);
  const std::size_t agg_window = args.GetSize("agg-window", 2 * base);

  // Aggregate-path configuration sized so the query window is an indexed
  // resolution; alerts come from registered queries (same shape as
  // stardust_cli subscribe).
  StardustConfig fleet;
  fleet.transform = TransformKind::kAggregate;
  fleet.aggregate = AggregateKind::kSum;
  fleet.base_window = base;
  fleet.num_levels = 1;
  while ((agg_window / std::max<std::size_t>(base, 1)) >> fleet.num_levels) {
    ++fleet.num_levels;
  }
  fleet.history = std::max(4 * agg_window, base << (fleet.num_levels - 1));
  fleet.box_capacity = args.GetSize("capacity", 4);
  fleet.update_period = 1;

  EngineConfig econfig;
  econfig.num_shards = args.GetSize("shards", 4);
  econfig.queue_capacity = args.GetSize("queue-capacity", 1024);
  econfig.max_batch = args.GetSize("max-batch", base);
  if (!ParsePolicy(args.GetString("overload", "block"), &econfig.overload)) {
    return Usage();
  }
  econfig.query.alert_capacity = args.GetSize("replay", 1 << 16);

  const std::string checkpoint_dir = args.GetString("checkpoint", "");
  if (!checkpoint_dir.empty()) {
    econfig.checkpoint_dir = checkpoint_dir;
    econfig.checkpoint_period_ms = args.GetSize("checkpoint-period", 2000);
  }

  // Restore from the checkpoint directory when it holds a complete
  // checkpoint; boot fresh otherwise.
  bool restored = false;
  Result<std::unique_ptr<IngestEngine>> engine = Status::NotFound("fresh");
  if (!checkpoint_dir.empty()) {
    engine =
        IngestEngine::Create(fleet, {}, num_streams, econfig, checkpoint_dir);
    restored = engine.ok();
    if (!engine.ok() && engine.status().code() != StatusCode::kNotFound) {
      return Fail(engine.status());
    }
  }
  if (!engine.ok()) {
    engine = IngestEngine::Create(fleet, {}, num_streams, econfig);
    if (!engine.ok()) return Fail(engine.status());
  }

  // A restored engine continues its checkpointed query lineage; only a
  // fresh boot registers the requested query.
  if (!restored && args.options.count("agg-threshold") != 0) {
    Result<QueryId> id = engine.value()->RegisterQuery(QuerySpec::Aggregate(
        agg_window, args.GetDouble("agg-threshold", 0.0)));
    if (!id.ok()) return Fail(id.status());
  }

  net::NetServer::Options options;
  options.host = args.GetString("host", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(args.GetSize("port", 0));
  options.max_connections = args.GetSize("max-connections", 64);

  Result<std::unique_ptr<net::NetServer>> server =
      net::NetServer::Start(engine.value().get(), options);
  if (!server.ok()) return Fail(server.status());

  std::fprintf(stderr, "listening on %s:%u (%zu stream(s), %zu shard(s)%s)\n",
               options.host.c_str(), server.value()->port(), num_streams,
               engine.value()->num_shards(),
               restored ? ", restored from checkpoint" : "");

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const std::size_t metrics_period = args.GetSize("metrics-period", 10);
  const std::size_t duration = args.GetSize("duration", 0);
  const auto start = std::chrono::steady_clock::now();
  auto last_metrics = start;
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const auto now = std::chrono::steady_clock::now();
    if (duration > 0 &&
        now - start >= std::chrono::seconds(duration)) {
      break;
    }
    if (metrics_period > 0 &&
        now - last_metrics >= std::chrono::seconds(metrics_period)) {
      std::printf("%s\n", server.value()->MetricsJson().c_str());
      std::fflush(stdout);
      last_metrics = now;
    }
  }

  // Shutdown: close the front door first (cursors persist in the log),
  // take a final checkpoint so they survive the restart, then stop the
  // engine.
  Status st = server.value()->Stop();
  if (!st.ok()) return Fail(st);
  if (!checkpoint_dir.empty()) {
    st = engine.value()->Checkpoint(checkpoint_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "final checkpoint failed: %s\n",
                   st.ToString().c_str());
    }
  }
  st = engine.value()->Stop();
  if (!st.ok()) return Fail(st);
  std::printf("%s\n", server.value()->MetricsJson().c_str());
  return 0;
}
