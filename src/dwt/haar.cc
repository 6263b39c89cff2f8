#include "dwt/haar.h"

#include <cmath>

#include "common/check.h"
#include "common/kernels.h"

namespace stardust {

namespace {

const double kInvSqrt2 = 1.0 / std::sqrt(2.0);

}  // namespace

bool IsPowerOfTwo(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::vector<double> HaarDwt(const std::vector<double>& x) {
  SD_CHECK(IsPowerOfTwo(x.size()));
  const std::size_t n = x.size();
  std::vector<double> out(n);
  std::vector<double> approx = x;
  // Iteratively halve; details of each level go to out[len .. 2*len).
  while (approx.size() > 1) {
    const std::size_t half = approx.size() / 2;
    std::vector<double> next(half);
    for (std::size_t k = 0; k < half; ++k) {
      next[k] = (approx[2 * k] + approx[2 * k + 1]) * kInvSqrt2;
      out[half + k] = (approx[2 * k] - approx[2 * k + 1]) * kInvSqrt2;
    }
    approx = std::move(next);
  }
  out[0] = approx[0];
  return out;
}

std::vector<double> HaarInverse(const std::vector<double>& coeffs) {
  SD_CHECK(IsPowerOfTwo(coeffs.size()));
  const std::size_t n = coeffs.size();
  std::vector<double> approx(1, coeffs[0]);
  while (approx.size() < n) {
    const std::size_t half = approx.size();
    std::vector<double> next(2 * half);
    for (std::size_t k = 0; k < half; ++k) {
      const double a = approx[k];
      const double d = coeffs[half + k];
      next[2 * k] = (a + d) * kInvSqrt2;
      next[2 * k + 1] = (a - d) * kInvSqrt2;
    }
    approx = std::move(next);
  }
  return approx;
}

std::vector<double> HaarApprox(const std::vector<double>& x,
                               std::size_t out_len) {
  SD_CHECK(IsPowerOfTwo(x.size()));
  SD_CHECK(IsPowerOfTwo(out_len));
  SD_CHECK(out_len <= x.size());
  std::vector<double> approx = x;
  while (approx.size() > out_len) {
    const std::size_t half = approx.size() / 2;
    std::vector<double> next(half);
    for (std::size_t k = 0; k < half; ++k) {
      next[k] = (approx[2 * k] + approx[2 * k + 1]) * kInvSqrt2;
    }
    approx = std::move(next);
  }
  return approx;
}

std::vector<double> HaarPrefix(const std::vector<double>& x, std::size_t f) {
  SD_CHECK(f <= x.size());
  std::vector<double> full = HaarDwt(x);
  full.resize(f);
  return full;
}

double ApproxEnergyFraction(const std::vector<std::vector<double>>& windows,
                            std::size_t f) {
  SD_CHECK(!windows.empty());
  double fraction_sum = 0.0;
  std::size_t counted = 0;
  for (const auto& window : windows) {
    SD_CHECK(f <= window.size());
    double total = 0.0;
    for (double v : window) total += v * v;
    if (total <= 0.0) continue;
    // Energy of the approximation vector (unitary transform: the rest of
    // the energy lives in the discarded detail coefficients).
    const std::vector<double> approx = HaarApprox(window, f);
    double kept = 0.0;
    for (double v : approx) kept += v * v;
    fraction_sum += kept / total;
    ++counted;
  }
  return counted == 0 ? 1.0
                      : fraction_sum / static_cast<double>(counted);
}

std::size_t SuggestCoefficientCount(
    const std::vector<std::vector<double>>& windows,
    double energy_fraction) {
  SD_CHECK(!windows.empty());
  SD_CHECK(energy_fraction > 0.0 && energy_fraction <= 1.0);
  const std::size_t w = windows[0].size();
  for (const auto& window : windows) SD_CHECK(window.size() == w);
  for (std::size_t f = 1; f <= w; f *= 2) {
    // Small slack so an exact-fraction request is not defeated by the
    // transform's floating-point rounding.
    if (ApproxEnergyFraction(windows, f) >= energy_fraction - 1e-9) {
      return f;
    }
  }
  return w;
}

void HaarDwtInto(const std::vector<double>& x, std::vector<double>* out,
                 std::vector<double>* scratch) {
  SD_CHECK(IsPowerOfTwo(x.size()));
  const std::size_t n = x.size();
  out->resize(n);
  scratch->assign(x.begin(), x.end());
  double* a = scratch->data();
  double* o = out->data();
  std::size_t len = n;
  // Same halving recurrence as HaarDwt, with the approximation vector
  // shrinking in place: a[k] is only written after a[2k] and a[2k+1] were
  // read (k <= 2k), so no temporary is needed. The haar_step kernel
  // (common/kernels.h) evaluates the same expressions as the recurrence.
  while (len > 1) {
    const std::size_t half = len / 2;
    kernels::HaarStep(a, half, kInvSqrt2, a, o + half);
    len = half;
  }
  o[0] = a[0];
}

void HaarApproxInPlace(std::vector<double>* x, std::size_t out_len) {
  SD_CHECK(IsPowerOfTwo(x->size()));
  SD_CHECK(IsPowerOfTwo(out_len));
  SD_CHECK(out_len <= x->size());
  HaarApproxSpan(x->data(), x->size(), out_len);
  x->resize(out_len);
}

void HaarApproxSpan(double* x, std::size_t n, std::size_t out_len) {
  SD_DCHECK(IsPowerOfTwo(n) && IsPowerOfTwo(out_len) && out_len <= n);
  // In-place halving through the haar_down kernel (common/kernels.h).
  std::size_t len = n;
  while (len > out_len) {
    const std::size_t half = len / 2;
    kernels::HaarDown(x, half, kInvSqrt2, x);
    len = half;
  }
}

}  // namespace stardust
