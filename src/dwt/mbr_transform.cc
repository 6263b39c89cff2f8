#include "dwt/mbr_transform.h"

#include <cmath>

#include "common/check.h"
#include "common/kernels.h"
#include "dwt/incremental.h"

namespace stardust {

Mbr TransformMbrCorners(const Mbr& box, const WaveletFilter& filter,
                        double rescale) {
  SD_CHECK(!box.empty());
  SD_CHECK(box.dims() % 2 == 0);
  SD_CHECK(box.dims() <= 20);
  SD_CHECK(rescale > 0.0);
  const std::size_t in_dims = box.dims();
  const std::size_t out_dims = in_dims / 2;
  Mbr out(out_dims);
  Point corner(in_dims);
  const std::size_t corner_count = std::size_t{1} << in_dims;
  for (std::size_t mask = 0; mask < corner_count; ++mask) {
    for (std::size_t d = 0; d < in_dims; ++d) {
      corner[d] = (mask >> d) & 1 ? box.hi(d) : box.lo(d);
    }
    std::vector<double> transformed = LowpassDownsample(corner, filter);
    for (double& v : transformed) v *= rescale;
    out.Expand(transformed);
  }
  return out;
}

Mbr TransformMbrLoHi(const Mbr& box, const WaveletFilter& filter,
                     double rescale) {
  SD_CHECK(!box.empty());
  SD_CHECK(box.dims() % 2 == 0);
  SD_CHECK(rescale > 0.0);
  const std::size_t n = box.dims();
  const std::size_t out_dims = n / 2;
  const double delta = filter.DeltaAmplitude();
  Point out_lo(out_dims), out_hi(out_dims);
  for (std::size_t k = 0; k < out_dims; ++k) {
    double lo_acc = 0.0;
    double hi_acc = 0.0;
    for (std::size_t m = 0; m < filter.lowpass.size(); ++m) {
      const std::size_t idx = (2 * k + m) % n;
      const double shifted = filter.lowpass[m] + delta;
      // Equations 16-17: A_lo = ↓(x_lo*(h̃+δ) − x_hi*δ),
      //                  A_hi = ↓(x_hi*(h̃+δ) − x_lo*δ).
      lo_acc += shifted * box.lo(idx) - delta * box.hi(idx);
      hi_acc += shifted * box.hi(idx) - delta * box.lo(idx);
    }
    out_lo[k] = lo_acc * rescale;
    out_hi[k] = hi_acc * rescale;
  }
  return Mbr(std::move(out_lo), std::move(out_hi));
}

Mbr TransformMbrInterval(const Mbr& box, const WaveletFilter& filter,
                         double rescale) {
  SD_CHECK(!box.empty());
  SD_CHECK(box.dims() % 2 == 0);
  SD_CHECK(rescale > 0.0);
  const std::size_t n = box.dims();
  const std::size_t out_dims = n / 2;
  Point out_lo(out_dims), out_hi(out_dims);
  for (std::size_t k = 0; k < out_dims; ++k) {
    double lo_acc = 0.0;
    double hi_acc = 0.0;
    for (std::size_t m = 0; m < filter.lowpass.size(); ++m) {
      const std::size_t idx = (2 * k + m) % n;
      const double h = filter.lowpass[m];
      if (h >= 0.0) {
        lo_acc += h * box.lo(idx);
        hi_acc += h * box.hi(idx);
      } else {
        lo_acc += h * box.hi(idx);
        hi_acc += h * box.lo(idx);
      }
    }
    out_lo[k] = lo_acc * rescale;
    out_hi[k] = hi_acc * rescale;
  }
  return Mbr(std::move(out_lo), std::move(out_hi));
}

Mbr MergeMbrHalvesHaar(const Mbr& left, const Mbr& right, double rescale) {
  SD_CHECK(!left.empty() && !right.empty());
  SD_CHECK(left.dims() == right.dims());
  SD_CHECK(rescale > 0.0);
  const std::size_t f = left.dims();
  const double scale = rescale / std::sqrt(2.0);
  auto lo_at = [&](std::size_t i) {
    return i < f ? left.lo(i) : right.lo(i - f);
  };
  auto hi_at = [&](std::size_t i) {
    return i < f ? left.hi(i) : right.hi(i - f);
  };
  Point out_lo(f), out_hi(f);
  for (std::size_t k = 0; k < f; ++k) {
    out_lo[k] = (lo_at(2 * k) + lo_at(2 * k + 1)) * scale;
    out_hi[k] = (hi_at(2 * k) + hi_at(2 * k + 1)) * scale;
  }
  return Mbr(std::move(out_lo), std::move(out_hi));
}

void MergeHalvesHaarSpans(const double* llo, const double* lhi,
                          const double* rlo, const double* rhi, std::size_t f,
                          double rescale, double* out_lo, double* out_hi) {
  SD_DCHECK(rescale > 0.0);
  const double scale = rescale / std::sqrt(2.0);
  // Output k reads concatenated inputs 2k and 2k+1: the first ⌊f/2⌋
  // outputs pair within `left`, the last ⌊f/2⌋ pair within `right`, and an
  // odd f leaves one output straddling the seam. Each contiguous segment
  // runs the haar_down kernel (common/kernels.h) — bit-identical to the
  // fused per-index loop of MergeMbrHalvesHaar.
  const std::size_t half = f / 2;
  const std::size_t seam = f % 2;
  kernels::HaarDown(llo, half, scale, out_lo);
  kernels::HaarDown(lhi, half, scale, out_hi);
  if (seam != 0) {
    out_lo[half] = (llo[f - 1] + rlo[0]) * scale;
    out_hi[half] = (lhi[f - 1] + rhi[0]) * scale;
  }
  kernels::HaarDown(rlo + seam, half, scale, out_lo + half + seam);
  kernels::HaarDown(rhi + seam, half, scale, out_hi + half + seam);
}

}  // namespace stardust
