// Persistent candidate-pair index for the cross-shard correlator.
//
// Section 5.3 reports correlated pairs by range-searching the feature
// points of every live stream at an aligned time. The engine used to
// rebuild a throwaway R*-tree from scratch every round, which turned the
// correlator into an O(streams · log streams) rebuild per round even when
// almost nothing moved. A CorrelationIndex instead lives across rounds:
// the correlator upserts the streams whose feature changed, erases the
// ones that expired, and probes the survivors.
//
// The index is a StatStream-style orthogonal grid over the leading DWT
// coefficients: O(1) upsert/erase, neighbors enumerated cell-by-cell. It
// only promises a *superset* of the true neighbor set: Candidates(q, r)
// returns every live slot whose feature point might lie within `r` of
// `q` (and possibly more). The correlator verifies every candidate pair
// exactly on the z-normalized raw windows, and the DWT feature distance
// lower-bounds the window distance, so the alert set equals an all-pairs
// scan's (tests/correlator_test.cc checks it against one).
//
// Not thread-safe: the correlator serializes all mutation; concurrent
// Candidates calls against an unchanging index are safe (const).
#ifndef STARDUST_QUERY_CORRELATION_INDEX_H_
#define STARDUST_QUERY_CORRELATION_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/mbr.h"

namespace stardust {

/// A set of feature points keyed by dense slot ids (the correlator maps
/// global stream ids to slots). Upserting an identical point is a no-op —
/// the change detection that makes periodic workloads cheap.
class CorrelationIndex {
 public:
  /// `dims` is the feature dimensionality (positive); `cell` the grid
  /// cell edge (positive).
  CorrelationIndex(std::size_t dims, double cell);

  /// Inserts or moves `slot` to `point` (size dims()). Returns false when
  /// the slot was already live at exactly this point (nothing changed).
  bool Upsert(std::size_t slot, const Point& point);
  /// Removes `slot`; no-op when not live.
  void Erase(std::size_t slot);
  /// Appends every live slot whose point may lie within `radius` of `q`
  /// (a superset; callers verify exactly). Never appends duplicates.
  void Candidates(const Point& q, double radius,
                  std::vector<std::size_t>* out) const;
  /// Live slots.
  std::size_t size() const { return size_; }
  std::size_t dims() const { return dims_; }

 private:
  struct Slot {
    Point point;
    std::uint64_t key = 0;
    bool live = false;
  };

  std::uint64_t KeyOf(const Point& p) const;
  void RemoveFromCell(std::uint64_t key, std::size_t slot);

  const std::size_t dims_;
  const std::size_t axes_;
  const double inv_cell_;
  std::vector<Slot> slots_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> cells_;
  std::size_t size_ = 0;
};

}  // namespace stardust

#endif  // STARDUST_QUERY_CORRELATION_INDEX_H_
