// Crash-safe checkpoint layout of the ingestion engine.
//
// A checkpoint (manifest v8) is one file per shard
// (`features-<i>-ck<seq>.feat`, "SDFP" v5: the shard's local->global slot
// table and, for every live slot, that stream's slice — the bytes
// Shard::SerializeStream, DebugStreamState and a migration carry, so a
// stream's state has one encoding wherever it travels), the serialized
// query registry (`queries-ck<seq>.qry`), the alert log
// (`net-ck<seq>.net`), and a checksummed manifest
// (`manifest-<seq>.ck`) naming them next to each shard's progress stamps
// and the placement epoch. All files are written atomically
// (common/atomic_file.h) with the manifest last. Because the manifest is
// the commit point, a crash anywhere during a checkpoint leaves the
// previous manifest — and the complete files it references — untouched.
// Recovery walks the manifests newest-first and restores from the first
// one whose own checksum and every referenced file verify; partial or
// corrupt checkpoints are skipped, never half-loaded. Only the current
// format restores; older checkpoints are rejected with a diagnostic.
// docs/ENGINE.md and docs/FEATURES.md document the format and guarantees;
// docs/NETWORK.md covers the net state.
#ifndef STARDUST_ENGINE_CHECKPOINT_H_
#define STARDUST_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/config.h"

namespace stardust {

/// One shard's entry in a checkpoint manifest.
struct CheckpointShardEntry {
  /// Shard epoch (applied batches) when the shard was serialized.
  std::uint64_t epoch = 0;
  /// Tuples applied to the shard at that point.
  std::uint64_t appended = 0;
  /// Shard file name, relative to the checkpoint directory.
  std::string file;
  /// FNV-1a checksum of the complete shard file.
  std::uint64_t checksum = 0;
};

/// The manifest committed (atomically, last) by IngestEngine::Checkpoint.
struct CheckpointManifest {
  /// Checkpoint sequence number, monotonic per engine lineage.
  std::uint64_t seq = 0;
  /// Shape a restore must match.
  std::uint64_t num_streams = 0;
  std::uint64_t num_shards = 0;
  /// Exactly one entry per shard, in shard order.
  std::vector<CheckpointShardEntry> shards;
  /// Epoch of the stream placement (engine/placement.h) the shard files'
  /// slot tables were captured under.
  std::uint64_t placement_epoch = 0;
  /// Serialized query registry (QueryRegistry::Serialize). Required:
  /// every checkpoint carries it, even for an empty registry, so the id
  /// allocator's lineage survives a restore.
  std::string queries_file;
  std::uint64_t queries_checksum = 0;
  /// Serialized alert log (query/alert_log.h: the alert sequence
  /// allocator, subscriber cursors, and retained entries). Required,
  /// like the queries file: every checkpoint writes it.
  std::string net_file;
  std::uint64_t net_checksum = 0;
};

/// Contents of one shard file ("SDFP" v5).
struct CheckpointShardFile {
  /// Aggregate kind and raw-tail history the slices were taken under.
  AggregateKind aggregate = AggregateKind::kSum;
  std::uint64_t history = 0;
  /// Local slot -> global stream id; kNoStream marks a tombstoned slot.
  std::vector<StreamId> globals;
  /// One entry per slot: a live slot's stream slice, empty for a
  /// tombstone.
  std::vector<std::string> slices;
};

/// Canonical file names within a checkpoint directory.
std::string CheckpointFeaturesFileName(std::size_t shard, std::uint64_t seq);
std::string CheckpointQueriesFileName(std::uint64_t seq);
std::string CheckpointNetFileName(std::uint64_t seq);
std::string CheckpointManifestFileName(std::uint64_t seq);

/// Manifest (de)serialization behind the common envelope
/// (common/serialize.h). ParseManifest accepts only the version
/// SerializeManifest writes and rejects a manifest that lacks a named
/// file per shard, the queries file or the alert log file.
std::string SerializeManifest(const CheckpointManifest& manifest);
Result<CheckpointManifest> ParseManifest(const std::string& bytes);

/// Shard file (de)serialization. ParseShardFile accepts only the version
/// SerializeShardFile writes, bounds every count by the bytes left, and
/// rejects a file without slots, an unknown aggregate kind, a slice
/// longer than the file, or trailing bytes. Whether the slot tables of
/// all shards cover every stream exactly once is the restoring engine's
/// check; the slices themselves are checked as they install.
std::string SerializeShardFile(const CheckpointShardFile& file);
Result<CheckpointShardFile> ParseShardFile(const std::string& bytes);

/// Newest manifest in `dir` whose envelope checksum and every referenced
/// file's checksum verify. Older checkpoints are consulted in
/// descending sequence order (the fallback path after a crash or
/// corruption); NotFound when no complete checkpoint exists.
Result<CheckpointManifest> FindLatestValidCheckpoint(const std::string& dir);

/// Removes checkpoint files in `dir` whose sequence number is below
/// `keep_min_seq`, plus any stale `.tmp` leftovers from interrupted
/// writes. Unrecognized files are left alone. Best-effort: removal errors
/// are ignored (a later GC retries).
void GarbageCollectCheckpoints(const std::string& dir,
                               std::uint64_t keep_min_seq);

}  // namespace stardust

#endif  // STARDUST_ENGINE_CHECKPOINT_H_
