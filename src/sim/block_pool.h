#ifndef REFLEX_SIM_BLOCK_POOL_H_
#define REFLEX_SIM_BLOCK_POOL_H_

#include <cstddef>

namespace reflex::sim {

/**
 * Recycling allocator for the small objects the simulation makes and
 * frees once per request: coroutine frames (sim::Task) and future
 * states (sim::Future), and flash page pins. Sizes up to kMaxBytes are
 * rounded up to a 16-byte class; each class keeps a free list per
 * thread, so once a run has reached its high-water mark of live
 * blocks nothing on the request path reaches malloc. Larger sizes go
 * straight to the global operator new.
 *
 * Blocks are allocated one by one, never carved out of a slab: a block
 * that is never released (a coroutine frame left parked) is still a
 * leak LeakSanitizer can see. A block on a free list is poisoned for
 * AddressSanitizer (a no-op in other builds), so a use after release
 * is reported as one. A thread's cached blocks are returned to the
 * system when the thread exits.
 */
class BlockPool {
 public:
  static constexpr size_t kGranule = 16;
  static constexpr size_t kMaxBytes = 1024;

  /** Returns a block of at least `bytes`, aligned to kGranule. */
  static void* Allocate(size_t bytes);

  /** Returns a block from Allocate(`bytes`), with the same `bytes`. */
  static void Release(void* block, size_t bytes) noexcept;
};

/** std::allocator-shaped adapter, for std::allocate_shared. */
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(size_t n) {
    return static_cast<T*>(BlockPool::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    BlockPool::Release(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_BLOCK_POOL_H_
