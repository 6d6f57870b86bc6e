// 32-byte aligned allocation for SIMD-facing buffers. Feature matrices,
// histogram triplet arrays, and the FitSession scratch blocks allocate
// through AlignedAllocator so a kernel table can use aligned vector loads
// on column/row starts. Alignment is a performance property only: every
// kernel primitive also accepts unaligned pointers (the AVX2 table uses
// unaligned load/store instructions, which are full speed on aligned data),
// and no table's results depend on it.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace nurd {

/// Alignment (bytes) for SIMD-facing allocations: one AVX2 vector.
inline constexpr std::size_t kSimdAlign = 32;

/// Minimal std::allocator replacement with 32-byte aligned storage.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kSimdAlign}));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kSimdAlign});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// std::vector with 32-byte aligned storage; data() is kSimdAlign-aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace nurd
