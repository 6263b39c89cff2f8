// Over-aligned allocation for vector-kernel operands.
//
// When the compiler vectorizes the loops in common/kernels.h (for example
// under -DSTARDUST_NATIVE=ON) it uses unaligned loads, which are correct on
// any pointer, but loads that straddle a cache line cost an extra line fill
// on every iteration. The hot double arrays the kernels stream over —
// FeatureStore slabs, the sliding tracker's ring, the summarizer's staged
// run buffer — are therefore allocated on 64-byte boundaries so a
// vector-width access never splits a line (64 bytes = one x86 cache line =
// one AVX-512 register).
#ifndef STARDUST_COMMON_ALIGNED_H_
#define STARDUST_COMMON_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace stardust {

/// Minimal C++17 allocator handing out `Alignment`-aligned storage.
template <typename T, std::size_t Alignment>
class AlignedAllocator {
 public:
  static_assert(Alignment >= alignof(T), "alignment below the type's own");
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

/// Cache-line aligned vector — the type of every kernel-facing double array.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

static_assert(sizeof(AlignedVector<double>) == sizeof(std::vector<double>),
              "the aligned allocator must stay stateless");

}  // namespace stardust

#endif  // STARDUST_COMMON_ALIGNED_H_
