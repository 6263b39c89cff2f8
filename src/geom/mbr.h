// Minimum bounding rectangles in f-dimensional feature space.
//
// MBRs are the central approximation object of the paper: every box of c
// consecutive features at a resolution level is summarized by its MBR
// (Section 4, Figure 1(c)), and all approximate feature computation
// (Lemma 4.2 / Lemma A.2) is interval arithmetic on MBR extents.
#ifndef STARDUST_GEOM_MBR_H_
#define STARDUST_GEOM_MBR_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"

namespace stardust {

/// A point in f-dimensional feature space.
using Point = std::vector<double>;

/// Minimum squared L2 distance from point `p` to the box with extents
/// lo[0..dims) / hi[0..dims) (0 if p is inside): d_min^2 of the paper's
/// Section 5.2. Mbr::MinDist2 and ExtentView::MinDist2 both run this loop.
inline double MinDist2Spans(const double* lo, const double* hi,
                            const double* p, std::size_t dims) {
  double sum = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    double diff = 0.0;
    if (p[d] < lo[d]) {
      diff = lo[d] - p[d];
    } else if (p[d] > hi[d]) {
      diff = p[d] - hi[d];
    }
    sum += diff * diff;
  }
  return sum;
}

/// Axis-aligned box with `dims()` dimensions. An empty MBR (containing no
/// points) has inverted extents and reports empty() == true.
class Mbr {
 public:
  Mbr() = default;

  /// An empty MBR of the given dimensionality.
  explicit Mbr(std::size_t dims)
      : lo_(dims, std::numeric_limits<double>::infinity()),
        hi_(dims, -std::numeric_limits<double>::infinity()) {}

  /// A box with explicit extents. Requires lo.size() == hi.size() and
  /// lo[d] <= hi[d] for all d.
  Mbr(Point lo, Point hi);

  /// The degenerate box containing exactly one point.
  static Mbr FromPoint(const Point& p);

  std::size_t dims() const { return lo_.size(); }
  bool empty() const { return lo_.empty() || lo_[0] > hi_[0]; }

  double lo(std::size_t d) const { return lo_[d]; }
  double hi(std::size_t d) const { return hi_[d]; }
  const Point& lo() const { return lo_; }
  const Point& hi() const { return hi_; }

  /// Direct extent access for allocation-free kernels writing into a
  /// reused box (core/summarizer, core/stardust, rtree). Callers must keep
  /// lo[d] <= hi[d] per dimension and both vectors equal-sized, or leave
  /// the box in the inverted-empty form.
  Point& mutable_lo() { return lo_; }
  Point& mutable_hi() { return hi_; }

  /// Center of the box (midpoint per dimension). Requires !empty().
  Point Center() const;

  /// Grows the box to include the point / other box.
  /// (The box predicates and accumulators below are defined inline: they
  /// are the innermost loops of R*-tree descent and range probes.)
  void Expand(const Point& p) {
    SD_DCHECK(p.size() == dims());
    for (std::size_t d = 0; d < dims(); ++d) {
      lo_[d] = std::min(lo_[d], p[d]);
      hi_[d] = std::max(hi_[d], p[d]);
    }
  }
  void Expand(const Mbr& other) {
    SD_DCHECK(other.dims() == dims());
    if (other.empty()) return;
    for (std::size_t d = 0; d < dims(); ++d) {
      lo_[d] = std::min(lo_[d], other.lo_[d]);
      hi_[d] = std::max(hi_[d], other.hi_[d]);
    }
  }

  /// Grows the box by `delta` on both sides of every dimension.
  void Inflate(double delta);

  /// Product of extents. Zero-width dimensions contribute factor 0.
  double Area() const {
    if (empty()) return 0.0;
    double area = 1.0;
    for (std::size_t d = 0; d < dims(); ++d) area *= hi_[d] - lo_[d];
    return area;
  }

  /// Sum of extents over all dimensions (the R*-tree "margin").
  double Margin() const {
    if (empty()) return 0.0;
    double margin = 0.0;
    for (std::size_t d = 0; d < dims(); ++d) margin += hi_[d] - lo_[d];
    return margin;
  }

  /// Area of the intersection with `other`; 0 if disjoint.
  double OverlapArea(const Mbr& other) const {
    SD_DCHECK(other.dims() == dims());
    if (empty() || other.empty()) return 0.0;
    double area = 1.0;
    for (std::size_t d = 0; d < dims(); ++d) {
      const double w =
          std::min(hi_[d], other.hi_[d]) - std::max(lo_[d], other.lo_[d]);
      if (w <= 0.0) return 0.0;
      area *= w;
    }
    return area;
  }

  /// Area(this ∪ {p or other}) - Area(this), computed without
  /// materializing the union box.
  double Enlargement(const Point& p) const {
    SD_DCHECK(p.size() == dims());
    if (empty()) return 0.0;
    double grown = 1.0;
    for (std::size_t d = 0; d < dims(); ++d) {
      grown *= std::max(hi_[d], p[d]) - std::min(lo_[d], p[d]);
    }
    return grown - Area();
  }
  double Enlargement(const Mbr& other) const {
    SD_DCHECK(other.dims() == dims());
    if (other.empty()) return 0.0;
    if (empty()) return other.Area();
    double grown = 1.0;
    for (std::size_t d = 0; d < dims(); ++d) {
      grown *= std::max(hi_[d], other.hi_[d]) - std::min(lo_[d], other.lo_[d]);
    }
    return grown - Area();
  }

  bool Intersects(const Mbr& other) const {
    SD_DCHECK(other.dims() == dims());
    if (empty() || other.empty()) return false;
    for (std::size_t d = 0; d < dims(); ++d) {
      if (lo_[d] > other.hi_[d] || hi_[d] < other.lo_[d]) return false;
    }
    return true;
  }
  bool Contains(const Point& p) const {
    SD_DCHECK(p.size() == dims());
    if (empty()) return false;
    for (std::size_t d = 0; d < dims(); ++d) {
      if (p[d] < lo_[d] || p[d] > hi_[d]) return false;
    }
    return true;
  }
  bool Contains(const Mbr& other) const {
    SD_DCHECK(other.dims() == dims());
    if (empty() || other.empty()) return false;
    for (std::size_t d = 0; d < dims(); ++d) {
      if (other.lo_[d] < lo_[d] || other.hi_[d] > hi_[d]) return false;
    }
    return true;
  }

  /// Minimum squared L2 distance from point `p` to this box
  /// (0 if p is inside). This is d_min^2 of the paper's Section 5.2.
  double MinDist2(const Point& p) const {
    SD_DCHECK(p.size() == dims());
    SD_DCHECK(!empty());
    return MinDist2Spans(lo_.data(), hi_.data(), p.data(), dims());
  }

  /// Minimum squared L2 distance between two boxes (0 if they intersect).
  double MinDist2(const Mbr& other) const {
    SD_DCHECK(other.dims() == dims());
    SD_DCHECK(!empty() && !other.empty());
    double sum = 0.0;
    for (std::size_t d = 0; d < dims(); ++d) {
      double diff = 0.0;
      if (other.hi_[d] < lo_[d]) {
        diff = lo_[d] - other.hi_[d];
      } else if (other.lo_[d] > hi_[d]) {
        diff = other.lo_[d] - hi_[d];
      }
      sum += diff * diff;
    }
    return sum;
  }

  /// Maximum squared L2 distance from point `p` to any point in this box.
  double MaxDist2(const Point& p) const;

  std::string ToString() const;

  friend bool operator==(const Mbr& a, const Mbr& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

 private:
  Point lo_;
  Point hi_;
};

/// Read-only extents of a box stored outside an Mbr (a level thread's
/// flat extent array, core/level_state.h): `dims` lower bounds at `lo`,
/// `dims` upper bounds at `hi`.
struct ExtentView {
  const double* lo = nullptr;
  const double* hi = nullptr;
  std::size_t dims = 0;

  double MinDist2(const Point& p) const {
    SD_DCHECK(p.size() == dims);
    return MinDist2Spans(lo, hi, p.data(), dims);
  }
  /// The extents as an Mbr, for cold paths (index inserts, BoxRef).
  Mbr ToMbr() const { return Mbr(Point(lo, lo + dims), Point(hi, hi + dims)); }
};

/// Squared L2 distance between the points a[0..dims) and b[0..dims).
inline double Dist2Spans(const double* a, const double* b, std::size_t dims) {
  double sum = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return sum;
}

/// Squared L2 distance between equal-dimension points.
inline double Dist2(const Point& a, const Point& b) {
  SD_DCHECK(a.size() == b.size());
  return Dist2Spans(a.data(), b.data(), a.size());
}

}  // namespace stardust

#endif  // STARDUST_GEOM_MBR_H_
