// Crash-safe checkpoint layout of the ingestion engine.
//
// A checkpoint (manifest v7) is, per shard, the epoch and applied-tuple
// stamps (in the manifest), one feature-pipeline snapshot
// (`features-<i>-ck<seq>.feat`: the raw tails, the query cores, the
// feature store and the sketch measures) and one rising-edge snapshot
// (`edges-<i>-ck<seq>.edge`: alarming flags, pattern watermarks and
// evaluation floors, so a restored engine continues the alert stream
// exactly-once); plus the serialized
// query registry (`queries-ck<seq>.qry`), the stream placement
// (`placement-ck<seq>.plc`: the placement epoch plus every shard's
// local->global slot table, so streams restore onto the shards that own
// their state), optionally the network tier's state (`net-ck<seq>.net`),
// and a checksummed manifest (`manifest-<seq>.ck`) naming them. All files
// are written atomically (common/atomic_file.h) with the manifest last.
// Because the manifest is the commit point, a crash anywhere during a
// checkpoint leaves the previous manifest — and the complete files it
// references — untouched. Recovery walks the manifests newest-first and
// restores from the first one whose own checksum and every referenced file
// verify; partial or corrupt checkpoints are skipped, never half-loaded.
// Only the current format restores; older checkpoints are rejected with a
// diagnostic. docs/ENGINE.md and docs/FEATURES.md document the format and
// guarantees; docs/NETWORK.md covers the net state.
#ifndef STARDUST_ENGINE_CHECKPOINT_H_
#define STARDUST_ENGINE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace stardust {

/// One shard's progress stamps in a checkpoint manifest.
struct CheckpointShardEntry {
  /// Shard epoch (applied batches) when the shard was serialized.
  std::uint64_t epoch = 0;
  /// Tuples applied to the shard at that point.
  std::uint64_t appended = 0;
};

/// One shard's feature-pipeline or rising-edge snapshot in a manifest.
struct CheckpointFeatureEntry {
  /// Snapshot filename, relative to the checkpoint directory.
  std::string file;
  /// FNV-1a checksum of the complete snapshot file.
  std::uint64_t checksum = 0;
};

/// The manifest committed (atomically, last) by IngestEngine::Checkpoint.
struct CheckpointManifest {
  /// Checkpoint sequence number, monotonic per engine lineage.
  std::uint64_t seq = 0;
  std::uint64_t num_streams = 0;
  std::uint64_t num_shards = 0;
  /// Engine configuration at checkpoint time, recorded so operators can
  /// reconstruct the runtime shape; restore validates the structural
  /// fields (stream and shard counts) only.
  std::uint64_t queue_capacity = 0;
  std::uint64_t max_producers = 0;
  std::uint64_t max_batch = 0;
  std::uint8_t overload = 0;
  std::vector<CheckpointShardEntry> shards;
  /// Serialized query registry (QueryRegistry::Serialize). Required:
  /// every checkpoint carries it, even for an empty registry, so the id
  /// allocator's lineage survives a restore.
  std::string queries_file;
  std::uint64_t queries_checksum = 0;
  /// Per-shard feature pipeline snapshots (FeaturePipeline::Serialize),
  /// exactly one entry per shard, in shard order.
  std::vector<CheckpointFeatureEntry> features;
  /// Serialized network tier state (net/alert_hub.h: the alert sequence
  /// allocator, subscriber cursors, and replay ring). The only optional
  /// file: empty name when the engine had no network front door attached.
  std::string net_file;
  std::uint64_t net_checksum = 0;
  /// Stream placement (engine/placement.h) the shard files were laid out
  /// under: the placement epoch plus each shard's local->global slot
  /// table. Required.
  std::string placement_file;
  std::uint64_t placement_checksum = 0;
  /// Per-shard rising-edge snapshots (alarming flags, pattern watermarks),
  /// exactly one entry per shard, in shard order.
  std::vector<CheckpointFeatureEntry> edges;
};

/// Canonical file names within a checkpoint directory.
std::string CheckpointFeaturesFileName(std::size_t shard, std::uint64_t seq);
std::string CheckpointEdgesFileName(std::size_t shard, std::uint64_t seq);
std::string CheckpointQueriesFileName(std::uint64_t seq);
std::string CheckpointNetFileName(std::uint64_t seq);
std::string CheckpointPlacementFileName(std::uint64_t seq);
std::string CheckpointManifestFileName(std::uint64_t seq);

/// Manifest (de)serialization behind the same magic + version + checksum
/// envelope style as core snapshots. ParseManifest accepts only the
/// version SerializeManifest writes and rejects a manifest that lacks a
/// feature or edge entry per shard, the queries file, or the placement
/// file.
std::string SerializeManifest(const CheckpointManifest& manifest);
Result<CheckpointManifest> ParseManifest(const std::string& bytes);

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
