// The batched maintenance kernels: plain inline scalar loops.
//
// These are the per-level inner loops of the paper's maintenance — the
// incremental Haar half-merge (Lemma A.1), the DWT halving steps, and the
// aggregate reductions (Lemmas 4.1/4.2). The per-value and the batched
// (AppendRun) paths must produce bit-identical state, which the FNV-1a
// state digests in bench_feature and golden_replay_test check, so each
// kernel fixes its expression and each comparison reduction documents the
// tie order it reproduces (this matters for ±0.0 ties: equal under `<`,
// different bits).
//
// They are plain scalar loops on purpose: hand-written SIMD versions made
// no measurable end-to-end difference (docs/ENGINE.md, "Kernels").
// Building with -DSTARDUST_NATIVE=ON lets the compiler auto-vectorize them
// for the build host.
//
// All kernels require finite inputs: the append paths reject or split
// around NaN/±inf before any kernel runs (Stardust::Append pre-validates,
// the run paths pre-scan), so no kernel needs NaN-propagation semantics.
#ifndef STARDUST_COMMON_KERNELS_H_
#define STARDUST_COMMON_KERNELS_H_

#include <cstddef>

namespace stardust {
namespace kernels {

/// out[k] = (in[2k] + in[2k+1]) * scale for k in [0, half).
/// In-place operation (out == in) is allowed: iteration k only reads
/// indices >= 2k, which later iterations never overwrite.
inline void HaarDown(const double* in, std::size_t half, double scale,
                     double* out) {
  for (std::size_t k = 0; k < half; ++k) {
    out[k] = (in[2 * k] + in[2 * k + 1]) * scale;
  }
}

/// approx[k] = (in[2k] + in[2k+1]) * scale and
/// detail[k] = (in[2k] - in[2k+1]) * scale. `approx` may alias `in`;
/// `detail` must not overlap in[0, 2*half).
inline void HaarStep(const double* in, std::size_t half, double scale,
                     double* approx, double* detail) {
  for (std::size_t k = 0; k < half; ++k) {
    const double sum = (in[2 * k] + in[2 * k + 1]) * scale;
    detail[k] = (in[2 * k] - in[2 * k + 1]) * scale;
    approx[k] = sum;
  }
}

/// First maximum under `if (mx < v)` — std::max_element tie order.
inline double ReduceMax(const double* v, std::size_t n) {
  double mx = v[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (mx < v[i]) mx = v[i];
  }
  return mx;
}

/// First minimum under `if (v < mn)` — std::min_element tie order.
inline double ReduceMin(const double* v, std::size_t n) {
  double mn = v[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] < mn) mn = v[i];
  }
  return mn;
}

/// minmax_element tie order: *last* maximum (`if (!(v < mx))`), first
/// minimum.
inline void ReduceSpread(const double* v, std::size_t n, double* mx,
                         double* mn) {
  double hi = v[0];
  double lo = v[0];
  for (std::size_t i = 1; i < n; ++i) {
    const double x = v[i];
    if (!(x < hi)) hi = x;
    if (x < lo) lo = x;
  }
  *mx = hi;
  *mn = lo;
}

/// dst[i] = (src[i] - mean) * scale; dst == src allowed.
inline void ZNormApply(const double* src, std::size_t n, double mean,
                       double scale, double* dst) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (src[i] - mean) * scale;
}

}  // namespace kernels
}  // namespace stardust

#endif  // STARDUST_COMMON_KERNELS_H_
