#include "dwt/incremental.h"

#include <cmath>

#include "common/check.h"
#include "common/kernels.h"

namespace stardust {

void LowpassDownsampleSpan(const double* in, std::size_t n,
                           const WaveletFilter& filter, double* out) {
  SD_CHECK(in != nullptr && out != nullptr);
  SD_CHECK(n > 0 && n % 2 == 0);
  const std::size_t half = n / 2;
  for (std::size_t k = 0; k < half; ++k) {
    double acc = 0.0;
    for (std::size_t m = 0; m < filter.lowpass.size(); ++m) {
      acc += filter.lowpass[m] * in[(2 * k + m) % n];
    }
    out[k] = acc;
  }
}

std::vector<double> LowpassDownsample(const std::vector<double>& in,
                                      const WaveletFilter& filter) {
  SD_CHECK(!in.empty() && in.size() % 2 == 0);
  std::vector<double> out(in.size() / 2, 0.0);
  LowpassDownsampleSpan(in.data(), in.size(), filter, out.data());
  return out;
}

void MergeHalvesHaarSpan(const double* left, const double* right,
                         std::size_t f, double rescale, double* out) {
  SD_CHECK(left != nullptr && right != nullptr && out != nullptr);
  SD_CHECK(f > 0);
  const double scale = rescale / std::sqrt(2.0);
  // Concatenated vector c = [left | right]; Haar low-pass pairs c[2k],
  // c[2k+1]. The first ⌊f/2⌋ outputs pair within `left`, the last ⌊f/2⌋
  // pair within `right`, and an odd f leaves one output straddling the
  // seam — split there so both segments run the haar_down kernel over
  // contiguous input (bit-identical to the fused loop).
  const std::size_t half = f / 2;
  kernels::HaarDown(left, half, scale, out);
  if (f % 2 != 0) {
    out[half] = (left[f - 1] + right[0]) * scale;
  }
  kernels::HaarDown(right + (f % 2), half, scale, out + half + (f % 2));
}

std::vector<double> MergeHalvesHaar(const std::vector<double>& left,
                                    const std::vector<double>& right,
                                    double rescale) {
  SD_CHECK(left.size() == right.size());
  SD_CHECK(!left.empty());
  std::vector<double> out(left.size());
  MergeHalvesHaarSpan(left.data(), right.data(), left.size(), rescale,
                      out.data());
  return out;
}

std::vector<double> MergeHalves(const std::vector<double>& left,
                                const std::vector<double>& right,
                                const WaveletFilter& filter, double rescale) {
  SD_CHECK(left.size() == right.size());
  std::vector<double> concat;
  concat.reserve(left.size() * 2);
  concat.insert(concat.end(), left.begin(), left.end());
  concat.insert(concat.end(), right.begin(), right.end());
  std::vector<double> out = LowpassDownsample(concat, filter);
  if (rescale != 1.0) {
    for (double& v : out) v *= rescale;
  }
  return out;
}

}  // namespace stardust
