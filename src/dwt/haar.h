// Orthonormal Haar discrete wavelet transform.
//
// Stardust's pattern / correlation features are the first f coefficients of
// the DWT of a window (Section 4). We represent that feature by the length-f
// *approximation vector* of the window — the coefficients <x, φ_{d,k}> at
// the depth d where exactly f coefficients remain. The approximation space
// V_d is spanned by the top approximation plus all details coarser than d,
// so the length-f approximation vector is a unitary change of basis of the
// "first f ordered DWT coefficients": all L2 distances between features are
// identical in either representation, and the representation makes the
// incremental half-merge of Lemma A.1 a single low-pass step.
#ifndef STARDUST_DWT_HAAR_H_
#define STARDUST_DWT_HAAR_H_

#include <cstddef>
#include <vector>

namespace stardust {

/// True iff n is a power of two (n >= 1).
bool IsPowerOfTwo(std::size_t n);

/// Full orthonormal Haar DWT of x (|x| must be a power of two).
/// Output ordering: [a_top, d_top, d_{next level} (2 values), ...,
/// finest details (|x|/2 values)]. Energy preserving.
std::vector<double> HaarDwt(const std::vector<double>& x);

/// Inverse of HaarDwt.
std::vector<double> HaarInverse(const std::vector<double>& coeffs);

/// Approximation coefficients of x at the depth with exactly `out_len`
/// coefficients. Requires |x| and out_len powers of two, out_len <= |x|.
/// out[k] = <x, φ_{d,k}> with orthonormal scaling: each step halves the
/// length via out[k] = (in[2k] + in[2k+1]) / √2.
std::vector<double> HaarApprox(const std::vector<double>& x,
                               std::size_t out_len);

/// First `f` coefficients of the ordered full DWT (prefix of HaarDwt).
/// Requires f <= |x|.
std::vector<double> HaarPrefix(const std::vector<double>& x, std::size_t f);

/// Allocation-free HaarDwt for batched feature maintenance: writes the
/// full ordered DWT of x into `out` using `scratch` for the shrinking
/// approximation vector (both are resized; steady-state reuse is
/// allocation-free). Results are bit-identical to HaarDwt.
void HaarDwtInto(const std::vector<double>& x, std::vector<double>* out,
                 std::vector<double>* scratch);

/// Allocation-free HaarApprox: repeatedly halves *x in place and resizes
/// it to out_len. Same preconditions as HaarApprox. This is the hot path
/// of batch feature maintenance (Theorem 4.3's per-item cost).
void HaarApproxInPlace(std::vector<double>* x, std::size_t out_len);

/// HaarApproxInPlace on a raw span: halves x[0..n) in place until out_len
/// values remain (the first out_len of the span). Same preconditions,
/// same kernel, same bits.
void HaarApproxSpan(double* x, std::size_t n, std::size_t out_len);

/// Fraction of total signal energy captured by the length-f approximation
/// vector, averaged over the sample windows (each a power-of-two length
/// >= f). Windows with zero energy are skipped; returns 1.0 when every
/// window is zero.
double ApproxEnergyFraction(const std::vector<std::vector<double>>& windows,
                            std::size_t f);

/// The smallest power-of-two f <= |window| whose approximation vector
/// retains at least `energy_fraction` of the energy on average — the
/// paper's "for most real time series the first f (f << w) DWT
/// coefficients retain most of the energy of the signal" (Section 4),
/// turned into a calibration tool for choosing the coefficient count.
/// All sample windows must share one power-of-two length.
std::size_t SuggestCoefficientCount(
    const std::vector<std::vector<double>>& windows,
    double energy_fraction);

}  // namespace stardust

#endif  // STARDUST_DWT_HAAR_H_
