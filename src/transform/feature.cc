#include "transform/feature.h"

#include <cmath>

#include "common/check.h"
#include "common/kernels.h"
#include "dwt/haar.h"

namespace stardust {

double UnitSphereScale(std::size_t n, double r_max) {
  SD_CHECK(n > 0);
  SD_CHECK(r_max > 0.0);
  return 1.0 / (std::sqrt(static_cast<double>(n)) * r_max);
}

std::vector<double> NormalizeUnitSphere(const std::vector<double>& window,
                                        double r_max) {
  const double scale = UnitSphereScale(window.size(), r_max);
  std::vector<double> out(window.size());
  for (std::size_t i = 0; i < window.size(); ++i) out[i] = window[i] * scale;
  return out;
}

std::vector<double> ZNormalize(const std::vector<double>& window) {
  SD_CHECK(!window.empty());
  std::vector<double> out(window.size());
  ZNormalizeTo(window.data(), window.size(), out.data(), nullptr, nullptr);
  return out;
}

void ZNormalizeTo(const double* src, std::size_t n, double* dst,
                  double* mean_out, double* norm2_out) {
  SD_CHECK(src != nullptr && dst != nullptr);
  SD_CHECK(n > 0);
  // Moments are order-sensitive sums, so they stay left-to-right loops.
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += src[i];
  mean /= static_cast<double>(n);
  double norm2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = src[i] - mean;
    norm2 += d * d;
  }
  if (mean_out != nullptr) *mean_out = mean;
  if (norm2_out != nullptr) *norm2_out = norm2;
  if (norm2 <= 0.0) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0.0;
    return;
  }
  const double scale = 1.0 / std::sqrt(norm2);
  kernels::ZNormApply(src, n, mean, scale, dst);
}

std::vector<double> NormalizeWindow(const std::vector<double>& window,
                                    Normalization norm, double r_max) {
  switch (norm) {
    case Normalization::kNone:
      return window;
    case Normalization::kUnitSphere:
      return NormalizeUnitSphere(window, r_max);
    case Normalization::kZNorm:
      return ZNormalize(window);
  }
  return window;
}

void NormalizeUnitSphereInPlace(std::vector<double>* window, double r_max) {
  const double scale = UnitSphereScale(window->size(), r_max);
  for (double& v : *window) v *= scale;
}

void ZNormalizeInPlace(std::vector<double>* window) {
  SD_CHECK(!window->empty());
  const std::size_t n = window->size();
  double mean = 0.0;
  for (double v : *window) mean += v;
  mean /= static_cast<double>(n);
  double norm2 = 0.0;
  for (double v : *window) {
    const double d = v - mean;
    norm2 += d * d;
  }
  if (norm2 <= 0.0) {
    for (double& v : *window) v = 0.0;
    return;
  }
  const double scale = 1.0 / std::sqrt(norm2);
  for (double& v : *window) v = (v - mean) * scale;
}

void NormalizeWindowInPlace(std::vector<double>* window, Normalization norm,
                            double r_max) {
  switch (norm) {
    case Normalization::kNone:
      return;
    case Normalization::kUnitSphere:
      NormalizeUnitSphereInPlace(window, r_max);
      return;
    case Normalization::kZNorm:
      ZNormalizeInPlace(window);
      return;
  }
}

double CorrelationFromDist2(double dist2) { return 1.0 - dist2 / 2.0; }

double DistanceForMinCorrelation(double min_corr) {
  SD_CHECK(min_corr <= 1.0);
  return std::sqrt(2.0 * (1.0 - min_corr));
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  SD_CHECK(x.size() == y.size());
  SD_CHECK(!x.empty());
  const std::vector<double> zx = ZNormalize(x);
  const std::vector<double> zy = ZNormalize(y);
  double dot = 0.0;
  bool x_const = true, y_const = true;
  for (std::size_t i = 0; i < x.size(); ++i) {
    dot += zx[i] * zy[i];
    x_const = x_const && zx[i] == 0.0;
    y_const = y_const && zy[i] == 0.0;
  }
  if (x_const || y_const) return 0.0;
  return dot;
}

Point DwtFeature(const std::vector<double>& window, std::size_t f) {
  return HaarApprox(window, f);
}

}  // namespace stardust
