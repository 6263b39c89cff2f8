#include "transform/aggregate.h"

#include <algorithm>

#include "common/check.h"
#include "common/kernels.h"

namespace stardust {

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kSpread:
      return "SPREAD";
  }
  return "?";
}

std::size_t AggregateFeatureDims(AggregateKind kind) {
  return kind == AggregateKind::kSpread ? 2 : 1;
}

Point AggregateExactFeature(AggregateKind kind,
                            const std::vector<double>& window) {
  SD_CHECK(!window.empty());
  switch (kind) {
    case AggregateKind::kSum: {
      double sum = 0.0;
      for (double v : window) sum += v;
      return {sum};
    }
    case AggregateKind::kMax:
      return {*std::max_element(window.begin(), window.end())};
    case AggregateKind::kMin:
      return {*std::min_element(window.begin(), window.end())};
    case AggregateKind::kSpread: {
      const auto [mn, mx] = std::minmax_element(window.begin(), window.end());
      return {*mx, *mn};
    }
  }
  return {};
}

void AggregateExactFeatureSpans(AggregateKind kind, const double* values,
                                std::size_t count, double* lo, double* hi) {
  SD_DCHECK(count > 0);
  // Each branch mirrors AggregateExactFeature exactly: the reduction
  // kernels (common/kernels.h) reproduce the tie handling of max_element
  // (first maximum), min_element (first minimum), and minmax_element
  // (first minimum, last maximum), so results are bit-identical even for
  // signed-zero ties, and kSum is the same left-to-right loop.
  switch (kind) {
    case AggregateKind::kSum: {
      double sum = 0.0;
      for (std::size_t i = 0; i < count; ++i) sum += values[i];
      lo[0] = hi[0] = sum;
      return;
    }
    case AggregateKind::kMax:
      lo[0] = hi[0] = kernels::ReduceMax(values, count);
      return;
    case AggregateKind::kMin:
      lo[0] = hi[0] = kernels::ReduceMin(values, count);
      return;
    case AggregateKind::kSpread: {
      double mx, mn;
      kernels::ReduceSpread(values, count, &mx, &mn);
      lo[0] = hi[0] = mx;
      lo[1] = hi[1] = mn;
      return;
    }
  }
}

void AggregateMergeExtentSpans(AggregateKind kind, const double* left_lo,
                               const double* left_hi, const double* right_lo,
                               const double* right_hi, double* out_lo,
                               double* out_hi) {
  // Same operand order as AggregateMergeExtents, so outputs are
  // bit-identical; every input is read before any output is written, so
  // aliasing is safe.
  const double llo0 = left_lo[0], lhi0 = left_hi[0];
  const double rlo0 = right_lo[0], rhi0 = right_hi[0];
  switch (kind) {
    case AggregateKind::kSum:
      out_lo[0] = llo0 + rlo0;
      out_hi[0] = lhi0 + rhi0;
      return;
    case AggregateKind::kMax:
      out_lo[0] = std::max(llo0, rlo0);
      out_hi[0] = std::max(lhi0, rhi0);
      return;
    case AggregateKind::kMin:
      out_lo[0] = std::min(llo0, rlo0);
      out_hi[0] = std::min(lhi0, rhi0);
      return;
    case AggregateKind::kSpread: {
      const double llo1 = left_lo[1], lhi1 = left_hi[1];
      const double rlo1 = right_lo[1], rhi1 = right_hi[1];
      out_lo[0] = std::max(llo0, rlo0);
      out_lo[1] = std::min(llo1, rlo1);
      out_hi[0] = std::max(lhi0, rhi0);
      out_hi[1] = std::min(lhi1, rhi1);
      return;
    }
  }
}

Point AggregateMergeFeatures(AggregateKind kind, const Point& left,
                             const Point& right) {
  SD_DCHECK(left.size() == AggregateFeatureDims(kind));
  SD_DCHECK(right.size() == AggregateFeatureDims(kind));
  switch (kind) {
    case AggregateKind::kSum:
      return {left[0] + right[0]};
    case AggregateKind::kMax:
      return {std::max(left[0], right[0])};
    case AggregateKind::kMin:
      return {std::min(left[0], right[0])};
    case AggregateKind::kSpread:
      return {std::max(left[0], right[0]), std::min(left[1], right[1])};
  }
  return {};
}

Mbr AggregateMergeExtents(AggregateKind kind, const Mbr& left,
                          const Mbr& right) {
  SD_DCHECK(!left.empty() && !right.empty());
  SD_DCHECK(left.dims() == AggregateFeatureDims(kind));
  SD_DCHECK(right.dims() == AggregateFeatureDims(kind));
  switch (kind) {
    case AggregateKind::kSum:
      return Mbr({left.lo(0) + right.lo(0)}, {left.hi(0) + right.hi(0)});
    case AggregateKind::kMax:
      return Mbr({std::max(left.lo(0), right.lo(0))},
                 {std::max(left.hi(0), right.hi(0))});
    case AggregateKind::kMin:
      return Mbr({std::min(left.lo(0), right.lo(0))},
                 {std::min(left.hi(0), right.hi(0))});
    case AggregateKind::kSpread:
      return Mbr({std::max(left.lo(0), right.lo(0)),
                  std::min(left.lo(1), right.lo(1))},
                 {std::max(left.hi(0), right.hi(0)),
                  std::min(left.hi(1), right.hi(1))});
  }
  return Mbr();
}

double AggregateScalar(AggregateKind kind, const Point& feature) {
  SD_DCHECK(feature.size() == AggregateFeatureDims(kind));
  if (kind == AggregateKind::kSpread) return feature[0] - feature[1];
  return feature[0];
}

ScalarInterval AggregateScalarBound(AggregateKind kind, const Mbr& extent) {
  SD_DCHECK(!extent.empty());
  SD_DCHECK(extent.dims() == AggregateFeatureDims(kind));
  if (kind == AggregateKind::kSpread) {
    // max ∈ [lo0, hi0], min ∈ [lo1, hi1] ⇒ spread ∈ [lo0 − hi1, hi0 − lo1].
    return {std::max(0.0, extent.lo(0) - extent.hi(1)),
            extent.hi(0) - extent.lo(1)};
  }
  return {extent.lo(0), extent.hi(0)};
}

}  // namespace stardust
