// Incremental aggregate transforms: SUM, MAX, MIN, SPREAD (= MAX − MIN).
//
// Lemma 4.1: the exact aggregate feature of a window is computable from the
// features of its two halves. Lemma 4.2: when the halves are only known as
// MBR extents, the merged extent still brackets the true feature. SPREAD is
// tracked as the 2-dimensional feature (MAX, MIN) and reduced to a scalar
// (or a scalar interval) only when a query needs the volatility value —
// exactly the paper's "MAX-MIN for volatility detection" (Section 4).
#ifndef STARDUST_TRANSFORM_AGGREGATE_H_
#define STARDUST_TRANSFORM_AGGREGATE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "geom/mbr.h"

namespace stardust {

/// Aggregate function F of Section 2.2.
enum class AggregateKind {
  kSum,
  kMax,
  kMin,
  kSpread,
};

const char* AggregateKindName(AggregateKind kind);

/// Closed scalar interval [lo, hi]; the approximate answer of Algorithm 2.
struct ScalarInterval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Dimensionality of the aggregate feature vector: 1 for SUM/MAX/MIN,
/// 2 for SPREAD (stored as [max, min]).
std::size_t AggregateFeatureDims(AggregateKind kind);

/// Exact feature of a raw window (Lemma 4.1 base case).
Point AggregateExactFeature(AggregateKind kind,
                            const std::vector<double>& window);

/// Lemma 4.1: exact feature of a window from the features of its two
/// (equal-length, adjacent, left-then-right) halves.
Point AggregateMergeFeatures(AggregateKind kind, const Point& left,
                             const Point& right);

/// Lemma 4.2: bracketing extent of a window's feature from the extents
/// containing its two halves' features.
Mbr AggregateMergeExtents(AggregateKind kind, const Mbr& left,
                          const Mbr& right);

/// Allocation-free span form of AggregateExactFeature for the batched
/// maintenance path: the degenerate extent of the exact feature of window
/// [values, values + count) is written into lo/hi spans of
/// AggregateFeatureDims(kind) values (lo == hi). Evaluation order (and
/// hence every rounding and tie-break) matches AggregateExactFeature
/// bit-for-bit.
void AggregateExactFeatureSpans(AggregateKind kind, const double* values,
                                std::size_t count, double* lo, double* hi);

/// Raw-span form of AggregateMergeExtents for the batched maintenance
/// path: merges the extents given as lo/hi spans (dims values each) into
/// out_lo/out_hi, which may alias the inputs. Bit-identical to
/// AggregateMergeExtents on the materialized boxes.
void AggregateMergeExtentSpans(AggregateKind kind, const double* left_lo,
                               const double* left_hi, const double* right_lo,
                               const double* right_hi, double* out_lo,
                               double* out_hi);

/// The scalar monitored quantity of a feature: the value itself for
/// SUM/MAX/MIN, max − min for SPREAD.
double AggregateScalar(AggregateKind kind, const Point& feature);

/// Scalar interval guaranteed to contain AggregateScalar of every feature
/// inside `extent`. For SPREAD the lower end is clamped at 0.
ScalarInterval AggregateScalarBound(AggregateKind kind, const Mbr& extent);

}  // namespace stardust

#endif  // STARDUST_TRANSFORM_AGGREGATE_H_
