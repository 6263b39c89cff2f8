#include "query/correlation_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace stardust {

namespace {

/// Grid axes: the leading DWT coefficients carry most of the energy
/// (Section 4), so quantizing more than a few axes multiplies the
/// neighbor-cell count without pruning much.
constexpr std::size_t kMaxGridAxes = 4;
/// Quantized per-axis cell coordinates are clamped to int16 before
/// packing four of them into a 64-bit key. Clamping is monotone, so a
/// far-out point lands in a boundary cell that neighbor enumeration
/// still covers — candidates stay a superset.
constexpr long long kCoordMin = -32768;
constexpr long long kCoordMax = 32767;

long long QuantizeClamped(double x, double inv_cell) {
  const long long c = static_cast<long long>(std::floor(x * inv_cell));
  return std::clamp(c, kCoordMin, kCoordMax);
}

std::uint64_t PackKey(const long long* coords, std::size_t g) {
  std::uint64_t key = 0;
  for (std::size_t a = 0; a < g; ++a) {
    key = (key << 16) |
          static_cast<std::uint64_t>(coords[a] - kCoordMin);
  }
  return key;
}

void UnpackKey(std::uint64_t key, std::size_t g, long long* coords) {
  for (std::size_t a = g; a-- > 0;) {
    coords[a] = static_cast<long long>(key & 0xffffULL) + kCoordMin;
    key >>= 16;
  }
}

}  // namespace

CorrelationIndex::CorrelationIndex(std::size_t dims, double cell)
    : dims_(dims), axes_(std::min(dims, kMaxGridAxes)) {
  SD_CHECK(axes_ > 0);
  Reset(cell);
}

void CorrelationIndex::Reset(double cell) {
  SD_CHECK(cell > 0.0);
  inv_cell_ = 1.0 / cell;
  cells_.clear();
  size_ = 0;
}

void CorrelationIndex::Insert(std::size_t id, const double* point) {
  cells_[KeyOf(point)].push_back(id);
  ++size_;
}

void CorrelationIndex::Candidates(const double* q, double radius,
                                  std::vector<std::size_t>* out) const {
  if (size_ == 0) return;
  const long long reach =
      static_cast<long long>(std::ceil(radius * inv_cell_));
  long long lo[kMaxGridAxes];
  long long hi[kMaxGridAxes];
  double cell_product = 1.0;
  for (std::size_t a = 0; a < axes_; ++a) {
    const long long qc = QuantizeClamped(q[a], inv_cell_);
    lo[a] = std::max(qc - reach, kCoordMin);
    hi[a] = std::min(qc + reach, kCoordMax);
    cell_product *= static_cast<double>(hi[a] - lo[a] + 1);
  }
  // Enumerating (2·reach+1)^axes neighbor keys only pays off while it
  // beats walking the occupied cells directly; with a large radius (or
  // tiny cell) the sweep over occupied cells is both bounded and exact.
  if (cell_product > static_cast<double>(cells_.size())) {
    long long coords[kMaxGridAxes];
    for (const auto& [key, members] : cells_) {
      UnpackKey(key, axes_, coords);
      bool in_range = true;
      for (std::size_t a = 0; a < axes_; ++a) {
        if (coords[a] < lo[a] || coords[a] > hi[a]) {
          in_range = false;
          break;
        }
      }
      if (in_range) out->insert(out->end(), members.begin(), members.end());
    }
    return;
  }
  long long coords[kMaxGridAxes];
  for (std::size_t a = 0; a < axes_; ++a) coords[a] = lo[a];
  for (;;) {
    const auto it = cells_.find(PackKey(coords, axes_));
    if (it != cells_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
    std::size_t a = axes_;
    while (a > 0) {
      --a;
      if (++coords[a] <= hi[a]) break;
      coords[a] = lo[a];
      if (a == 0) return;
    }
  }
}

std::uint64_t CorrelationIndex::KeyOf(const double* p) const {
  long long coords[kMaxGridAxes];
  for (std::size_t a = 0; a < axes_; ++a) {
    coords[a] = QuantizeClamped(p[a], inv_cell_);
  }
  return PackKey(coords, axes_);
}

}  // namespace stardust
