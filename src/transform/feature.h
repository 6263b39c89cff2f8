// Window normalizations and the DWT feature extractor shared by the
// pattern and correlation paths.
//
// Pattern queries normalize to the unit hyper-sphere (Equation 2):
//   x̂[i] = x[i] / (√w · R_max)
// Correlation queries z-normalize (Equation 3):
//   x̂[i] = (x[i] − μ) / ‖x − μ‖₂
// and the Pearson correlation coefficient between two windows is
//   corr(x, y) = 1 − L2²(x̂, ŷ) / 2.
#ifndef STARDUST_TRANSFORM_FEATURE_H_
#define STARDUST_TRANSFORM_FEATURE_H_

#include <cstddef>
#include <vector>

#include "geom/mbr.h"

namespace stardust {

/// How a window is normalized before feature extraction.
enum class Normalization {
  kNone,
  kUnitSphere,  // Equation 2 (pattern queries)
  kZNorm,       // Equation 3 (correlation queries)
};

/// Equation 2's factor for a window of n values: 1 / (√n · R_max). Every
/// unit-sphere normalization in src/ multiplies by exactly this value.
double UnitSphereScale(std::size_t n, double r_max);

/// Equation 2. Requires r_max > 0 and a non-empty window.
std::vector<double> NormalizeUnitSphere(const std::vector<double>& window,
                                        double r_max);

/// Equation 3. A constant window (zero deviation) maps to the zero vector.
std::vector<double> ZNormalize(const std::vector<double>& window);

/// Span form of ZNormalize for callers that cache z-normalization state
/// (engine/feature_pipeline): writes the z-normalized window to `dst`
/// (length n, may alias `src`) and, when non-null, the window mean to
/// `mean_out` and ‖x − μ‖₂² to `norm2_out`. Numerics match ZNormalize
/// bit-for-bit.
void ZNormalizeTo(const double* src, std::size_t n, double* dst,
                  double* mean_out, double* norm2_out);

/// Applies the requested normalization.
std::vector<double> NormalizeWindow(const std::vector<double>& window,
                                    Normalization norm, double r_max);

/// Allocation-free variants for the maintenance hot path.
void NormalizeUnitSphereInPlace(std::vector<double>* window, double r_max);
void ZNormalizeInPlace(std::vector<double>* window);
void NormalizeWindowInPlace(std::vector<double>* window, Normalization norm,
                            double r_max);

/// Pearson correlation from the squared L2 distance of the z-normalized
/// windows: corr = 1 − d²/2 (Section 2.4).
double CorrelationFromDist2(double dist2);

/// Squared L2 distance threshold corresponding to a minimum correlation:
/// d² = 2 · (1 − min_corr); d = √(2(1 − min_corr)).
double DistanceForMinCorrelation(double min_corr);

/// Exact Pearson correlation coefficient between two equal-length windows.
/// Returns 0 if either window is constant.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// DWT feature of a (normalized) window: the length-f Haar approximation
/// vector (see dwt/haar.h for why this equals the paper's "first f DWT
/// coefficients" up to a unitary basis change). Requires |window| and f
/// powers of two with f <= |window|.
Point DwtFeature(const std::vector<double>& window, std::size_t f);

}  // namespace stardust

#endif  // STARDUST_TRANSFORM_FEATURE_H_
