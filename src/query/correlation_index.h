// Candidate grid of one cross-shard correlator round.
//
// Section 5.3 reports correlated pairs by range-searching the feature
// points of every live stream at an aligned time. A correlator round
// builds one CorrelationIndex from that time's points (Reset, then one
// Insert per gathered stream) and probes it once per stream; building is
// O(points), so no grid state outlives the round.
//
// The index is a StatStream-style orthogonal grid over the leading DWT
// coefficients: O(1) insert, neighbors enumerated cell-by-cell. It only
// promises a *superset* of the true neighbor set: Candidates(q, r)
// returns every inserted id whose feature point might lie within `r` of
// `q` (and possibly more). The correlator verifies every candidate pair
// exactly on the z-normalized raw windows, and the DWT feature distance
// lower-bounds the window distance, so the alert set equals an all-pairs
// scan's (tests/correlator_test.cc checks it against one).
//
// Not thread-safe: the correlator inserts serially; concurrent
// Candidates calls against an unchanging grid are safe (const).
#ifndef STARDUST_QUERY_CORRELATION_INDEX_H_
#define STARDUST_QUERY_CORRELATION_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace stardust {

/// A set of feature points keyed by caller-chosen ids (the correlator
/// numbers a round's gathered streams densely).
class CorrelationIndex {
 public:
  /// `dims` is the feature dimensionality (positive); `cell` the grid
  /// cell edge (positive).
  CorrelationIndex(std::size_t dims, double cell);

  /// Empties the grid and sets its cell edge (positive).
  void Reset(double cell);
  /// Adds `point` (dims() values) under `id`. Ids are not checked.
  void Insert(std::size_t id, const double* point);
  /// Appends, once per inserted point, the id of every point that may lie
  /// within `radius` of `q` (dims() values): a superset, callers verify
  /// exactly.
  void Candidates(const double* q, double radius,
                  std::vector<std::size_t>* out) const;
  /// Points inserted since the last Reset.
  std::size_t size() const { return size_; }
  std::size_t dims() const { return dims_; }

 private:
  std::uint64_t KeyOf(const double* p) const;

  const std::size_t dims_;
  const std::size_t axes_;
  double inv_cell_ = 0.0;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> cells_;
  std::size_t size_ = 0;
};

}  // namespace stardust

#endif  // STARDUST_QUERY_CORRELATION_INDEX_H_
