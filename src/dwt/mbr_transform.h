// Approximate cross-resolution feature computation on MBRs (Lemma A.2).
//
// When level-(j-1) features are summarized by MBRs, the level-j feature is
// only known to lie inside a box: the two half MBRs (each in R^f) are
// concatenated into B ∈ R^{2f}, and the low-pass + downsample step is
// applied to the box itself. Three algorithms are provided:
//
//  - Online I  (TransformMbrCorners): transform all 2^{2f} corners of B and
//    bound the results — the tightest box for a unitary transform, at cost
//    Θ(2^{2f} · f) (Appendix A).
//  - Online II (TransformMbrLoHi): the paper's Θ(f) scheme using only the
//    low and high corners with the δ amplitude-shift filter
//    (Equations 16-17). Exact for non-negative filters such as Haar.
//  - Interval  (TransformMbrInterval): classical interval arithmetic over
//    the filter taps — also Θ(f) and never looser than Online II; provided
//    as an ablation (§"extensions" in DESIGN.md).
//
// All three return a box guaranteed to contain the true feature of every
// point in B (containment is property-tested against Online I).
#ifndef STARDUST_DWT_MBR_TRANSFORM_H_
#define STARDUST_DWT_MBR_TRANSFORM_H_

#include "dwt/filters.h"
#include "geom/mbr.h"

namespace stardust {

/// Online I: corner enumeration. `box` must have an even number of
/// dimensions 2f with 2f <= 20 (corner count 2^{2f}).
/// `rescale` multiplies outputs (see MergeHalvesHaar for its role).
Mbr TransformMbrCorners(const Mbr& box, const WaveletFilter& filter,
                        double rescale = 1.0);

/// Online II: the paper's low/high-corner scheme with the δ filter shift.
Mbr TransformMbrLoHi(const Mbr& box, const WaveletFilter& filter,
                     double rescale = 1.0);

/// Tight interval arithmetic per output coefficient.
Mbr TransformMbrInterval(const Mbr& box, const WaveletFilter& filter,
                         double rescale = 1.0);

/// Merges two level-(j-1) feature MBRs (each in R^f) into the level-j
/// feature MBR in R^f via Online II — the Θ(f) fast path Stardust uses in
/// its online algorithm. Equivalent to TransformMbrLoHi on the
/// concatenation of `left` and `right`.
Mbr MergeMbrHalvesHaar(const Mbr& left, const Mbr& right,
                       double rescale = 1.0);

/// Allocation-free span form of MergeMbrHalvesHaar for the batched
/// maintenance path (core/summarizer, on flat level-thread extents): the
/// halves arrive as lo/hi spans of f values each and the merged extent
/// lands in out_lo/out_hi (f values each, not aliasing any input). The
/// inner loop is restructured into contiguous per-half passes with no
/// index branch, so the compiler can vectorize it; results are
/// bit-identical to MergeMbrHalvesHaar.
void MergeHalvesHaarSpans(const double* left_lo, const double* left_hi,
                          const double* right_lo, const double* right_hi,
                          std::size_t f, double rescale, double* out_lo,
                          double* out_hi);

}  // namespace stardust

#endif  // STARDUST_DWT_MBR_TRANSFORM_H_
