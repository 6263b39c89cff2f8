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
    : dims_(dims), axes_(std::min(dims, kMaxGridAxes)), inv_cell_(1.0 / cell) {
  SD_CHECK(cell > 0.0);
  SD_CHECK(axes_ > 0);
}

bool CorrelationIndex::Upsert(std::size_t slot, const Point& point) {
  SD_DCHECK(point.size() == dims_);
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  Slot& s = slots_[slot];
  if (s.live && s.point == point) return false;
  const std::uint64_t key = KeyOf(point);
  if (s.live) {
    if (s.key != key) {
      RemoveFromCell(s.key, slot);
      cells_[key].push_back(slot);
      s.key = key;
    }
  } else {
    cells_[key].push_back(slot);
    s.key = key;
    s.live = true;
    ++size_;
  }
  s.point = point;
  return true;
}

void CorrelationIndex::Erase(std::size_t slot) {
  if (slot >= slots_.size() || !slots_[slot].live) return;
  RemoveFromCell(slots_[slot].key, slot);
  slots_[slot].live = false;
  --size_;
}

void CorrelationIndex::Candidates(const Point& q, double radius,
                                  std::vector<std::size_t>* out) const {
  SD_DCHECK(q.size() == dims_);
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
      if (members.empty()) continue;
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

std::uint64_t CorrelationIndex::KeyOf(const Point& p) const {
  long long coords[kMaxGridAxes];
  for (std::size_t a = 0; a < axes_; ++a) {
    coords[a] = QuantizeClamped(p[a], inv_cell_);
  }
  return PackKey(coords, axes_);
}

void CorrelationIndex::RemoveFromCell(std::uint64_t key, std::size_t slot) {
  auto it = cells_.find(key);
  SD_DCHECK(it != cells_.end());
  std::vector<std::size_t>& members = it->second;
  const auto pos = std::find(members.begin(), members.end(), slot);
  SD_DCHECK(pos != members.end());
  *pos = members.back();
  members.pop_back();
  if (members.empty()) cells_.erase(it);
}

}  // namespace stardust
