// Contracts of the batched maintenance path that runs on the scalar
// kernels (common/kernels.h): a run with a non-finite value fails exactly
// like per-value Append, AppendRun leaves state byte-identical to per-value
// Append, and kernel-facing arrays are cache-line aligned.

#include "common/kernels.h"

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/aligned.h"
#include "common/serialize.h"
#include "core/config.h"
#include "core/stardust.h"

namespace stardust {
namespace {

// Deterministic value stream with repeated values (comparison ties), sign
// flips, and mixed magnitudes.
class ValueGen {
 public:
  explicit ValueGen(std::uint64_t seed) : state_(seed) {}

  double Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint32_t r = static_cast<std::uint32_t>(state_ >> 33);
    // One value in 8 repeats a small integer so reductions see ties.
    if ((r & 7u) == 0) return static_cast<double>((r >> 3) % 5);
    const double mag = static_cast<double>(r % 100000) / 997.0;
    return (r & 1u) ? mag : -mag;
  }

  std::vector<double> Take(std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = Next();
    return v;
  }

 private:
  std::uint64_t state_;
};

TEST(KernelsTest, AlignedVectorsAreCacheLineAligned) {
  for (std::size_t n : {1, 3, 7, 64, 1000}) {
    AlignedVector<double> v(n, 0.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u)
        << "size " << n;
    v.resize(n + 17);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  }
  static_assert(sizeof(AlignedVector<double>) == sizeof(std::vector<double>),
                "aligned allocator must stay stateless");
}

StardustConfig AggregateConfig() {
  StardustConfig config;
  config.transform = TransformKind::kAggregate;
  config.aggregate = AggregateKind::kSum;
  config.base_window = 8;
  config.num_levels = 3;
  config.history = 128;
  config.box_capacity = 4;
  config.update_period = 1;
  config.index_features = false;
  return config;
}

TEST(KernelsTest, NonFiniteRunsPreserveScalarErrorSemantics) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    auto batched = std::move(Stardust::Create(AggregateConfig())).value();
    auto scalar = std::move(Stardust::Create(AggregateConfig())).value();
    const StreamId bs = batched->AddStream();
    const StreamId ss = scalar->AddStream();
    ValueGen gen(11);
    std::vector<double> run = gen.Take(32);
    run[19] = bad;
    const Status batched_status =
        batched->AppendRun(bs, run.data(), run.size());
    Status scalar_status = Status::OK();
    for (double v : run) {
      scalar_status = scalar->Append(ss, v);
      if (!scalar_status.ok()) break;
    }
    // Same error on exactly the offending value...
    ASSERT_FALSE(batched_status.ok());
    ASSERT_FALSE(scalar_status.ok());
    EXPECT_EQ(batched_status.ToString(), scalar_status.ToString());
    // ...and the applied prefix state is bit-identical.
    Writer bw, sw;
    batched->summarizer(bs).SaveTo(&bw);
    scalar->summarizer(ss).SaveTo(&sw);
    EXPECT_EQ(bw.buffer(), sw.buffer());
  }
}

TEST(KernelsTest, AppendRunStateMatchesPerValueAppend) {
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kMax,
                             AggregateKind::kMin, AggregateKind::kSpread}) {
    StardustConfig config = AggregateConfig();
    config.aggregate = kind;
    auto batched = std::move(Stardust::Create(config)).value();
    auto scalar = std::move(Stardust::Create(config)).value();
    const StreamId bs = batched->AddStream();
    const StreamId ss = scalar->AddStream();
    ValueGen gen(5 + static_cast<int>(kind));
    // Every run length from below the run cutoff to past the ring wrap.
    for (std::size_t len = 1; len <= 129; ++len) {
      const std::vector<double> run = gen.Take(len);
      ASSERT_TRUE(batched->AppendRun(bs, run.data(), len).ok());
      for (double v : run) ASSERT_TRUE(scalar->Append(ss, v).ok());
      Writer bw, sw;
      batched->summarizer(bs).SaveTo(&bw);
      scalar->summarizer(ss).SaveTo(&sw);
      ASSERT_EQ(bw.buffer(), sw.buffer())
          << "kind " << AggregateKindName(kind) << " run length " << len;
    }
  }
}

}  // namespace
}  // namespace stardust
