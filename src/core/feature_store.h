// Shared per-shard feature cache — the "compute once, serve every
// consumer" store of the unified framework.
//
// The correlation path needs, per monitored resolution level and stream,
// the DWT feature point and the exact z-normalized raw window at aligned
// feature times. Before this store existed the correlator recomputed the
// z-normalization from raw history on every round; now the shard's
// feature pipeline computes each entry exactly once when the batch that
// produced it is applied, and every consumer (the correlator thread, the
// metrics surface, checkpointing) reads the same columnar slabs.
//
// Layout is structure-of-arrays per level: one flat ring of `capacity`
// entries per stream, with times, feature coefficients, z-normalized
// windows, and z-normalization state (mean, squared norm) in separate
// contiguous slabs, so a correlator round streams through one column
// instead of chasing per-entry heap cells.
//
// Single-writer: all mutation happens on the owning shard's worker thread
// under the shard state mutex; readers take the same mutex (the store
// itself is not internally synchronized).
#ifndef STARDUST_CORE_FEATURE_STORE_H_
#define STARDUST_CORE_FEATURE_STORE_H_

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/serialize.h"
#include "common/status.h"
#include "core/config.h"

namespace stardust {

/// Columnar cache of per-level features keyed by (level, stream, time).
class FeatureStore {
 public:
  /// One monitored resolution level.
  struct LevelSpec {
    std::size_t level = 0;   // level index in the owning correlation core
    std::size_t window = 0;  // raw window length at that level
    std::size_t dims = 0;    // DWT feature dimensionality (coefficients)
  };

  /// Borrowed view of one cached entry; valid until the next mutation of
  /// the store.
  struct View {
    std::uint64_t time = 0;
    const double* feature = nullptr;  // `dims` coefficients
    const double* znormed = nullptr;  // `window` z-normalized values
    std::size_t dims = 0;
    std::size_t window = 0;
    double mean = 0.0;   // window mean (z-normalization state)
    double norm2 = 0.0;  // ‖x − μ‖₂² (z-normalization state)
  };

  /// `capacity` = number of aligned feature times retained per
  /// (level, stream); both must be positive.
  FeatureStore(std::size_t num_streams, std::size_t capacity);

  /// Reconfigures the monitored level set (plan adoption). Slabs whose
  /// spec is unchanged keep their cached entries; added or reshaped
  /// levels start empty, removed levels are dropped.
  void SetLevels(const std::vector<LevelSpec>& levels);

  std::size_t num_streams() const { return num_streams_; }
  std::size_t capacity() const { return capacity_; }
  const std::vector<LevelSpec>& levels() const { return specs_; }

  /// Caches the entry of (`level`, `stream`) at aligned `time`. Times
  /// must be strictly increasing per (level, stream); once `capacity`
  /// entries are held the oldest is overwritten. `feature` must hold the
  /// level's `dims` values and `znormed` its `window` values. The level
  /// must be part of the current level set.
  void Put(std::size_t level, StreamId stream, std::uint64_t time,
           const double* feature, const double* znormed, double mean,
           double norm2);

  /// Looks up the entry of (`level`, `stream`) at exactly `time`.
  /// Returns false (a store miss) when the level is not monitored, the
  /// time was never cached, or it already rotated out of the ring.
  bool Find(std::size_t level, StreamId stream, std::uint64_t time,
            View* out) const;

  /// Latest cached time of (`level`, `stream`); false when empty.
  bool Latest(std::size_t level, StreamId stream,
              std::uint64_t* time) const;

  /// Drops every cached entry (level set and counters are kept).
  void Clear();

  // --- Elastic placement support (engine/shard.cc migration) -----------
  // Columns are stream-major (stream * capacity + ring), so growing the
  // stream count appends fresh rows at the tail of every column without
  // disturbing existing entries.

  /// Grows the store to `new_num_streams` (>= current); added streams
  /// start empty.
  void Grow(std::size_t new_num_streams);
  /// Drops every cached entry of one stream across all slabs (the
  /// tombstone half of a migration).
  void ClearStream(StreamId stream);
  /// One stream's ring rows across every slab, keyed by slab spec (the
  /// store's part of a stream slice, engine/feature_pipeline.h).
  void SaveStreamTo(StreamId stream, Writer* writer) const;
  /// Installs a SaveStreamTo slice. Rows whose spec matches a current
  /// slab and whose ring capacity matches this store's are copied in;
  /// rows for levels this store does not monitor, or taken under another
  /// capacity, are consumed and dropped (the consumer recomputes on miss).
  /// Corrupt or truncated slices are rejected before anything is
  /// allocated.
  Status RestoreStreamFrom(StreamId stream, Reader* reader);

  // --- Counters (exactly-once accounting, surfaced in metrics) ---------
  std::uint64_t puts() const { return puts_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  /// All columns of one level, rings laid out stream-major.
  struct Slab {
    LevelSpec spec;
    std::vector<std::uint64_t> times;   // num_streams × capacity
    // 64-byte aligned (common/aligned.h): the correlator's kernels stream
    // straight over these columns with full-width vector loads.
    AlignedVector<double> features;     // num_streams × capacity × dims
    AlignedVector<double> znormed;      // num_streams × capacity × window
    AlignedVector<double> means;        // num_streams × capacity
    AlignedVector<double> norms;        // num_streams × capacity
    std::vector<std::uint32_t> heads;   // next write slot per stream
    std::vector<std::uint32_t> counts;  // cached entries per stream
  };

  const Slab* FindSlab(std::size_t level) const;
  Slab MakeSlab(const LevelSpec& spec) const;

  std::size_t num_streams_ = 0;
  std::size_t capacity_ = 0;
  std::vector<LevelSpec> specs_;
  std::vector<Slab> slabs_;
  std::uint64_t puts_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

/// Cache-geometry helpers for sizing the store (engine/engine.cc derives
/// EngineConfig-default ring capacities from these).

/// Approximate bytes one cached entry of a level occupies across the
/// store's columns (time + feature + z-normalized window + z-norm state +
/// ring bookkeeping, amortized per entry).
std::size_t FeatureStoreEntryBytes(std::size_t window, std::size_t dims);

/// Probed L2 data-cache size in bytes; 0 when the platform does not
/// expose it (non-Linux, restricted sysfs, etc.).
std::size_t ProbedL2CacheBytes();

/// Ring capacity per (level, stream) such that a shard's hot store set
/// (streams × entry) fits in roughly half of `cache_bytes`, clamped to
/// [4, 64]. Any zero/unknown input falls back to the fixed default
/// (FeaturePipeline::kDefaultStoreCapacity == 8). Pure — unit-testable
/// without probing hardware.
std::size_t DeriveStoreCapacity(std::size_t streams, std::size_t entry_bytes,
                                std::size_t cache_bytes);

}  // namespace stardust

#endif  // STARDUST_CORE_FEATURE_STORE_H_
