#include "sketch/hll.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

#include "common/check.h"

namespace stardust {

namespace {

/// Registers per block of UnionEstimate's pass. Full blocks give the byte
/// max a constant trip count, which is what lets -O2 vectorize it.
constexpr std::size_t kBlock = 256;

/// 2^-r for every byte value r: the estimator reads one entry per
/// register instead of calling std::ldexp. The powers are exact (halving
/// 1.0 stays in the normal range), so the sum is bit-identical to the
/// ldexp one, and all 256 entries exist, so no register can index past
/// the table.
constexpr std::array<double, 256> kInversePowersOfTwo = [] {
  std::array<double, 256> table{};
  double power = 1.0;
  for (double& entry : table) {
    entry = power;
    power *= 0.5;
  }
  return table;
}();

/// Bias-correction constant alpha_m of the raw HLL estimator.
double AlphaM(std::size_t m) {
  switch (m) {
    case 16: return 0.673;
    case 32: return 0.697;
    case 64: return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

/// Adds 2^-r of registers[0..n) to `*sum` in register order (the order
/// fixes the rounding, so it must not change) and counts the empty ones.
void SumRegisters(const std::uint8_t* registers, std::size_t n, double* sum,
                  std::size_t* zeros) {
  double s = *sum;
  std::size_t z = *zeros;
  for (std::size_t i = 0; i < n; ++i) {
    s += kInversePowersOfTwo[registers[i]];
    z += registers[i] == 0 ? 1 : 0;
  }
  *sum = s;
  *zeros = z;
}

/// The estimate from m registers whose 2^-r terms sum to `sum`.
double EstimateFromSum(std::size_t m, double sum, std::size_t zeros) {
  const double md = static_cast<double>(m);
  const double raw = AlphaM(m) * md * md / sum;
  // Small-range correction: linear counting over the empty registers is
  // far more accurate than the raw estimator below ~2.5m.
  if (raw <= 2.5 * md && zeros > 0) {
    return md * std::log(md / static_cast<double>(zeros));
  }
  return raw;
}

/// out[i] = max(out[i], in[i]) over one block of `n` registers.
void MaxInto(std::uint8_t* __restrict out, const std::uint8_t* __restrict in,
             std::size_t n) {
  if (n == kBlock) {
    for (std::size_t i = 0; i < kBlock; ++i) out[i] = std::max(out[i], in[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = std::max(out[i], in[i]);
  }
}

}  // namespace

HyperLogLog::HyperLogLog(std::size_t precision) : precision_(precision) {
  SD_CHECK(precision_ >= 4 && precision_ <= 18);
  registers_.assign(std::size_t{1} << precision_, 0);
}

void HyperLogLog::AddHash(std::uint64_t hash) {
  const std::size_t index =
      static_cast<std::size_t>(hash >> (64 - precision_));
  // Rank of the first set bit in the remaining 64 - precision bits,
  // 1-based; an all-zero suffix ranks one past the suffix width.
  const std::uint64_t suffix = hash << precision_;
  const std::uint8_t rank = static_cast<std::uint8_t>(
      suffix == 0 ? 65 - precision_ : std::countl_zero(suffix) + 1);
  if (rank > registers_[index]) registers_[index] = rank;
}

void HyperLogLog::AddSpan(const double* values, std::size_t n) {
  // Four independent hash chains per iteration: the splitmix mixing of
  // consecutive values has no cross dependencies, so the unroll keeps the
  // multiply pipeline full instead of serializing on one chain.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t h0 = SketchHash64(SketchValueBits(values[i]));
    const std::uint64_t h1 = SketchHash64(SketchValueBits(values[i + 1]));
    const std::uint64_t h2 = SketchHash64(SketchValueBits(values[i + 2]));
    const std::uint64_t h3 = SketchHash64(SketchValueBits(values[i + 3]));
    AddHash(h0);
    AddHash(h1);
    AddHash(h2);
    AddHash(h3);
  }
  for (; i < n; ++i) {
    AddHash(SketchHash64(SketchValueBits(values[i])));
  }
}

double HyperLogLog::Estimate() const {
  double sum = 0.0;
  std::size_t zeros = 0;
  SumRegisters(registers_.data(), registers_.size(), &sum, &zeros);
  return EstimateFromSum(registers_.size(), sum, zeros);
}

double HyperLogLog::UnionEstimate(std::span<const HyperLogLog> sketches) {
  for (const HyperLogLog& sketch : sketches) {
    SD_CHECK(sketch.precision_ == precision_);
    SD_DCHECK(&sketch != this);
  }
  const std::size_t m = registers_.size();
  const std::size_t width = std::min(m, kBlock);
  double sum = 0.0;
  std::size_t zeros = 0;
  // Block by block: the union's registers are summed while they are still
  // in L1, so the pass reads each bucket once and the union once.
  for (std::size_t base = 0; base < m; base += width) {
    std::uint8_t* block = registers_.data() + base;
    std::memset(block, 0, width);
    for (const HyperLogLog& sketch : sketches) {
      MaxInto(block, sketch.registers_.data() + base, width);
    }
    SumRegisters(block, width, &sum, &zeros);
  }
  return EstimateFromSum(m, sum, zeros);
}

Status HyperLogLog::Merge(const HyperLogLog& other) {
  if (other.precision_ != precision_) {
    return Status::InvalidArgument("HLL merge precision mismatch");
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    if (other.registers_[i] > registers_[i]) {
      registers_[i] = other.registers_[i];
    }
  }
  return Status::OK();
}

void HyperLogLog::Clear() {
  std::memset(registers_.data(), 0, registers_.size());
}

void HyperLogLog::SaveTo(Writer* writer) const {
  writer->U64(precision_);
  writer->Bytes(registers_.data(), registers_.size());
}

Status HyperLogLog::RestoreFrom(Reader* reader) {
  std::uint64_t precision = 0;
  SD_RETURN_NOT_OK(reader->U64(&precision));
  if (precision != precision_) {
    return Status::InvalidArgument("HLL snapshot precision mismatch");
  }
  // AddHash writes ranks 1 .. 65 - precision; a larger register cannot
  // come from any sequence of appends.
  const std::size_t max_rank = 65 - precision_;
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    SD_RETURN_NOT_OK(reader->U8(&registers_[i]));
    if (registers_[i] > max_rank) {
      return Status::InvalidArgument(
          "HLL register " + std::to_string(i) + " holds rank " +
          std::to_string(registers_[i]) + ", above the largest possible " +
          std::to_string(max_rank));
    }
  }
  return Status::OK();
}

}  // namespace stardust
